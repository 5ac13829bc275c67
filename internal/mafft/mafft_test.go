package mafft

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/bio"
	"repro/internal/msa"
	"repro/internal/rose"
)

func famSeqs(t *testing.T, n, l int, rel float64, seed int64) []bio.Sequence {
	t.Helper()
	f, err := rose.Evolve(rose.Config{N: n, MeanLen: l, Relatedness: rel, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return f.Seqs()
}

func checkValid(t *testing.T, aln *msa.Alignment, seqs []bio.Sequence) {
	t.Helper()
	if err := aln.Validate(); err != nil {
		t.Fatal(err)
	}
	if aln.NumSeqs() != len(seqs) {
		t.Fatalf("%d rows for %d inputs", aln.NumSeqs(), len(seqs))
	}
	for i := range seqs {
		if !bytes.Equal(bio.Ungap(aln.Seqs[i].Data), bio.Ungap(seqs[i].Data)) {
			t.Fatalf("row %d does not ungap to input", i)
		}
	}
}

func TestNWNSIBasic(t *testing.T) {
	seqs := famSeqs(t, 10, 70, 300, 1)
	aln, err := NewNWNSI(0).AlignContext(context.Background(), seqs)
	if err != nil {
		t.Fatal(err)
	}
	checkValid(t, aln, seqs)
}

func TestFFTNSIBasic(t *testing.T) {
	seqs := famSeqs(t, 10, 70, 300, 2)
	aln, err := NewFFTNSI(0).AlignContext(context.Background(), seqs)
	if err != nil {
		t.Fatal(err)
	}
	checkValid(t, aln, seqs)
}

func TestTrivialInputs(t *testing.T) {
	al := NewFFTNSI(0)
	empty, err := al.AlignContext(context.Background(), nil)
	if err != nil || empty.NumSeqs() != 0 {
		t.Fatalf("empty: %v %v", empty, err)
	}
	one, err := al.AlignContext(context.Background(), []bio.Sequence{{ID: "a", Data: []byte("ACDEF")}})
	if err != nil || one.NumSeqs() != 1 {
		t.Fatalf("single: %v %v", one, err)
	}
	if _, err := al.AlignContext(context.Background(), []bio.Sequence{{ID: "a", Data: []byte("AC")}, {ID: "b"}}); err == nil {
		t.Fatal("empty sequence accepted")
	}
}

func TestFFTBandCoversTrueShift(t *testing.T) {
	// Two copies of a sequence, one with a 15-residue N-terminal
	// extension: the FFT band must include diagonal +15 so the banded
	// alignment can recover the exact overlap.
	seqs := famSeqs(t, 2, 120, 50, 3)
	base := bio.Ungap(seqs[0].Data)
	ext := append([]byte("MKVLWACDEFGHIKL"), base...)
	in := []bio.Sequence{
		{ID: "x", Data: base},
		{ID: "y", Data: ext},
	}
	aln, err := NewFFTNSI(0).AlignContext(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	checkValid(t, aln, in)
	// the shared region must align residue-for-residue: x's row equals
	// gap^15 + base
	rowX := aln.Seqs[0].Data
	if len(rowX) != len(ext) {
		t.Fatalf("width %d, want %d", len(rowX), len(ext))
	}
	for i := 0; i < 15; i++ {
		if rowX[i] != bio.Gap {
			t.Fatalf("expected leading gap at %d, got %c", i, rowX[i])
		}
	}
	if !bytes.Equal(rowX[15:], base) {
		t.Fatal("shared region misaligned despite banding")
	}
}

func TestFFTAndNWQualityComparable(t *testing.T) {
	// FFT banding is an approximation; on a modest family its Q should
	// stay within a reasonable band of the exact-DP variant.
	f, err := rose.Evolve(rose.Config{N: 10, MeanLen: 90, Relatedness: 250, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := f.TrueAlignment([]int{0, 9})
	if err != nil {
		t.Fatal(err)
	}
	alnNW, err := NewNWNSI(0).AlignContext(context.Background(), f.Seqs())
	if err != nil {
		t.Fatal(err)
	}
	alnFFT, err := NewFFTNSI(0).AlignContext(context.Background(), f.Seqs())
	if err != nil {
		t.Fatal(err)
	}
	qNW, err := msa.QScore(alnNW, ref)
	if err != nil {
		t.Fatal(err)
	}
	qFFT, err := msa.QScore(alnFFT, ref)
	if err != nil {
		t.Fatal(err)
	}
	if qFFT < qNW-0.3 {
		t.Fatalf("FFT variant collapsed: %g vs %g", qFFT, qNW)
	}
}

func TestNamesDistinct(t *testing.T) {
	if NewFFTNSI(0).Name() == NewNWNSI(0).Name() {
		t.Fatal("variant names collide")
	}
}

// TestWorkersDeterminism pins the guarantee of the task-parallel
// guide-tree merge: both MAFFT-like variants produce byte-identical
// alignments for every Workers value.
func TestWorkersDeterminism(t *testing.T) {
	seqs := famSeqs(t, 24, 80, 300, 9)
	for _, variant := range []struct {
		name  string
		build func(workers int) *Aligner
	}{
		{"nwnsi", NewNWNSI},
		{"fftnsi", NewFFTNSI},
	} {
		t.Run(variant.name, func(t *testing.T) {
			ref, err := variant.build(1).AlignContext(context.Background(), seqs)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{4, 8} {
				got, err := variant.build(w).AlignContext(context.Background(), seqs)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if got.NumSeqs() != ref.NumSeqs() {
					t.Fatalf("workers=%d: %d rows", w, got.NumSeqs())
				}
				for i := range ref.Seqs {
					if !bytes.Equal(got.Seqs[i].Data, ref.Seqs[i].Data) {
						t.Fatalf("workers=%d row %d differs from workers=1", w, i)
					}
				}
			}
		})
	}
}
