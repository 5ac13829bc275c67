package rose

import (
	"math"
	"testing"

	"repro/internal/bio"
	"repro/internal/kmer"
	"repro/internal/msa"
)

func TestEvolveBasicShape(t *testing.T) {
	f, err := Evolve(Config{N: 50, MeanLen: 120, Relatedness: 400, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	seqs := f.Seqs()
	if len(seqs) != 50 {
		t.Fatalf("%d sequences", len(seqs))
	}
	mean := bio.MeanLen(seqs)
	if mean < 60 || mean > 240 {
		t.Fatalf("mean length %g drifted too far from 120", mean)
	}
	for _, s := range seqs {
		if err := s.Validate(bio.AminoAcids); err != nil {
			t.Fatal(err)
		}
		if s.Len() == 0 {
			t.Fatalf("%s is empty", s.ID)
		}
	}
}

func TestEvolveDeterministic(t *testing.T) {
	a, _ := Evolve(Config{N: 10, MeanLen: 50, Seed: 42})
	b, _ := Evolve(Config{N: 10, MeanLen: 50, Seed: 42})
	for i := range a.Seqs() {
		if !bio.Equal(a.Seqs()[i], b.Seqs()[i]) {
			t.Fatalf("seed 42 not reproducible at %d", i)
		}
	}
	c, _ := Evolve(Config{N: 10, MeanLen: 50, Seed: 43})
	same := true
	for i := range a.Seqs() {
		if !bio.Equal(a.Seqs()[i], c.Seqs()[i]) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical families")
	}
}

func TestEvolveValidation(t *testing.T) {
	if _, err := Evolve(Config{N: 0, MeanLen: 10}); err == nil {
		t.Error("N=0 accepted")
	}
	if _, err := Evolve(Config{N: 5, MeanLen: 0}); err == nil {
		t.Error("MeanLen=0 accepted")
	}
}

func TestRelatednessControlsDivergence(t *testing.T) {
	counter := kmer.MustCounter(bio.Dayhoff6, 4)
	meanDist := func(relatedness float64) float64 {
		f, err := Evolve(Config{N: 20, MeanLen: 150, Relatedness: relatedness, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		profiles := counter.Profiles(f.Seqs(), 0)
		m, err := kmer.DistanceMatrixContext(t.Context(), profiles, 0)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		var cnt int
		for i := 0; i < m.N; i++ {
			for j := i + 1; j < m.N; j++ {
				sum += m.At(i, j)
				cnt++
			}
		}
		return sum / float64(cnt)
	}
	low := meanDist(100)  // closely related
	high := meanDist(900) // divergent
	if low >= high {
		t.Fatalf("relatedness knob inverted: d(100)=%g >= d(900)=%g", low, high)
	}
}

func TestTrueAlignmentInvariants(t *testing.T) {
	f, err := Evolve(Config{N: 12, MeanLen: 80, Relatedness: 500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	aln, err := f.TrueAlignment(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := aln.Validate(); err != nil {
		t.Fatal(err)
	}
	// ungapping the true alignment recovers the sequences
	for i, s := range aln.Seqs {
		if string(bio.Ungap(s.Data)) != f.Seqs()[i].String() {
			t.Fatalf("row %d does not ungap to its sequence", i)
		}
	}
}

func TestTrueAlignmentSubset(t *testing.T) {
	f, err := Evolve(Config{N: 8, MeanLen: 60, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	aln, err := f.TrueAlignment([]int{2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if aln.NumSeqs() != 2 {
		t.Fatalf("%d rows", aln.NumSeqs())
	}
	if err := aln.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.TrueAlignment([]int{99}); err == nil {
		t.Error("out-of-range index accepted")
	}
}

func TestTrueAlignmentIsConsistent(t *testing.T) {
	// Q score of the true alignment against itself must be 1; and the
	// pairwise projection of the full true alignment must agree with the
	// direct pairwise true alignment.
	f, err := Evolve(Config{N: 6, MeanLen: 70, Relatedness: 300, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	full, err := f.TrueAlignment(nil)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := f.TrueAlignment([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	q, err := msa.QScore(full, pair)
	if err != nil {
		t.Fatal(err)
	}
	if q != 1 {
		t.Fatalf("true alignment projection Q = %g, want 1", q)
	}
}

func TestProgressiveRecoversTrueAlignmentOnCloseFamily(t *testing.T) {
	// For a gently diverged family, the MUSCLE-like aligner should get
	// most reference pairs right — sanity that generator and aligner
	// speak the same language.
	f, err := Evolve(Config{N: 8, MeanLen: 100, Relatedness: 150, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := f.TrueAlignment([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	test, err := msa.MuscleLike(0).Align(f.Seqs())
	if err != nil {
		t.Fatal(err)
	}
	q, err := msa.QScore(test, ref)
	if err != nil {
		t.Fatal(err)
	}
	if q < 0.5 {
		t.Fatalf("Q = %g on a mildly diverged family", q)
	}
}

func TestUniform(t *testing.T) {
	seqs := Uniform(30, 100, 9)
	if len(seqs) != 30 {
		t.Fatalf("%d sequences", len(seqs))
	}
	var mean float64
	for _, s := range seqs {
		if err := s.Validate(bio.AminoAcids); err != nil {
			t.Fatal(err)
		}
		mean += float64(s.Len())
	}
	mean /= 30
	if math.Abs(mean-100) > 40 {
		t.Fatalf("mean length %g", mean)
	}
}
