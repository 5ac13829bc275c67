package cons

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

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

func TestConsBasicFamily(t *testing.T) {
	seqs := famSeqs(t, 8, 60, 250, 1)
	aln, err := New(0).AlignContext(context.Background(), seqs)
	if err != nil {
		t.Fatal(err)
	}
	checkValid(t, aln, seqs)
}

func TestConsIdenticalSequences(t *testing.T) {
	seq := []byte("MKVLWACDEFGHIK")
	seqs := []bio.Sequence{
		{ID: "a", Data: seq}, {ID: "b", Data: seq}, {ID: "c", Data: seq},
	}
	aln, err := New(0).AlignContext(context.Background(), seqs)
	if err != nil {
		t.Fatal(err)
	}
	checkValid(t, aln, seqs)
	if aln.Width() != len(seq) {
		t.Fatalf("identical sequences got width %d", aln.Width())
	}
}

func TestConsTrivial(t *testing.T) {
	al := New(0)
	empty, err := al.AlignContext(context.Background(), nil)
	if err != nil || empty.NumSeqs() != 0 {
		t.Fatalf("empty: %v %v", empty, err)
	}
	one, err := al.AlignContext(context.Background(), []bio.Sequence{{ID: "a", Data: []byte("ACD")}})
	if err != nil || one.NumSeqs() != 1 {
		t.Fatalf("single: %v %v", one, err)
	}
}

func TestConsRejectsHugeSets(t *testing.T) {
	seqs := make([]bio.Sequence, 300)
	for i := range seqs {
		seqs[i] = bio.Sequence{ID: string(rune('a'+i%26)) + string(rune('0'+i/26)), Data: []byte("ACDEF")}
	}
	if _, err := New(0).AlignContext(context.Background(), seqs); err == nil {
		t.Fatal("300 sequences accepted by consistency method")
	}
}

func TestConsRejectsEmptySequence(t *testing.T) {
	if _, err := New(0).AlignContext(context.Background(), []bio.Sequence{
		{ID: "a", Data: []byte("ACD")},
		{ID: "b", Data: nil},
	}); err == nil {
		t.Fatal("empty sequence accepted")
	}
}

func TestExtensionImprovesOrMatchesQuality(t *testing.T) {
	// The consistency transform is the method's core claim; on a
	// divergent family extension should not hurt Q.
	f, err := rose.Evolve(rose.Config{N: 8, MeanLen: 70, Relatedness: 450, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := f.TrueAlignment([]int{0, 7})
	if err != nil {
		t.Fatal(err)
	}
	with, err := New(0).AlignContext(context.Background(), f.Seqs())
	if err != nil {
		t.Fatal(err)
	}
	without, err := newWithOptions(Options{Extend: false}).AlignContext(context.Background(), f.Seqs())
	if err != nil {
		t.Fatal(err)
	}
	qWith, err := msa.QScore(with, ref)
	if err != nil {
		t.Fatal(err)
	}
	qWithout, err := msa.QScore(without, ref)
	if err != nil {
		t.Fatal(err)
	}
	if qWith < qWithout-0.15 {
		t.Fatalf("extension hurt badly: %g vs %g", qWith, qWithout)
	}
}

func TestLibraryWeightSymmetry(t *testing.T) {
	seqs := [][]byte{[]byte("ACDEF"), []byte("ACDEF"), []byte("ACWEF")}
	a := New(0)
	lib, _, err := a.buildLibrary(context.Background(), seqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if i == j {
				continue
			}
			for p := 0; p < 5; p++ {
				if lib.weight(i, p, j, p) != lib.weight(j, p, i, p) {
					t.Fatalf("asymmetric library at (%d,%d,pos %d)", i, j, p)
				}
			}
		}
	}
	// identical sequences: residue p aligns to residue p with full weight
	if lib.weight(0, 2, 1, 2) <= 0 {
		t.Fatal("identical pair has zero library support")
	}
}

func TestConsQualityOnModerateFamily(t *testing.T) {
	f, err := rose.Evolve(rose.Config{N: 8, MeanLen: 80, Relatedness: 200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := f.TrueAlignment([]int{0, 7})
	if err != nil {
		t.Fatal(err)
	}
	aln, err := New(0).AlignContext(context.Background(), f.Seqs())
	if err != nil {
		t.Fatal(err)
	}
	q, err := msa.QScore(aln, ref)
	if err != nil {
		t.Fatal(err)
	}
	if q < 0.5 {
		t.Fatalf("Q = %g on a moderate family", q)
	}
}

// TestConsWorkersDeterminism pins the guarantee of the task-parallel
// consistency merge: the alignment is byte-identical for every Workers
// value (the library is read-only during the progressive stage).
func TestConsWorkersDeterminism(t *testing.T) {
	seqs := famSeqs(t, 14, 60, 300, 6)
	ref, err := New(1).AlignContext(context.Background(), seqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{4, 8} {
		got, err := New(w).AlignContext(context.Background(), seqs)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for i := range ref.Seqs {
			if !bytes.Equal(got.Seqs[i].Data, ref.Seqs[i].Data) {
				t.Fatalf("workers=%d row %d differs from workers=1", w, i)
			}
		}
	}
}

func TestConsCancelReachesLibraryExtension(t *testing.T) {
	// At N=80, L=200 the library build takes ≈0.5 s and the O(N³·L)
	// consistency extension ≈2.6 s on two workers. A cancel one second
	// in lands inside the extension, which must stop at its next pair
	// instead of running to the end before the next phase sees ctx. The
	// 1 s bound leaves room for a loaded host (0.54 s seen under
	// go test -p 4) and still fails an extension that ignores ctx (≈2 s
	// late).
	seqs := famSeqs(t, 80, 200, 300, 9)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := New(2).AlignContext(ctx, seqs)
		done <- err
	}()
	time.Sleep(time.Second)
	cancel()
	cancelled := time.Now()
	err := <-done
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if lag := time.Since(cancelled); lag > time.Second {
		t.Fatalf("AlignContext returned %v after the cancel", lag)
	}
}
