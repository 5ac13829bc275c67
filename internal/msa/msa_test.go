package msa

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bio"
	"repro/internal/submat"
)

func mustAlign(t *testing.T, al Aligner, seqs []bio.Sequence) *Alignment {
	t.Helper()
	a, err := al.AlignContext(context.Background(), seqs)
	if err != nil {
		t.Fatalf("%s: %v", al.Name(), err)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("%s produced invalid alignment: %v", al.Name(), err)
	}
	return a
}

func checkPreservesSequences(t *testing.T, a *Alignment, seqs []bio.Sequence) {
	t.Helper()
	if a.NumSeqs() != len(seqs) {
		t.Fatalf("alignment has %d rows for %d inputs", a.NumSeqs(), len(seqs))
	}
	for i, s := range seqs {
		got := bio.Ungap(a.Seqs[i].Data)
		if !bytes.Equal(got, bio.Ungap(s.Data)) {
			t.Fatalf("row %d (%s): ungapped %q != input %q", i, s.ID, got, s.Data)
		}
		if a.Seqs[i].ID != s.ID {
			t.Fatalf("row %d id %q != %q", i, a.Seqs[i].ID, s.ID)
		}
	}
}

// family generates n related sequences by mutating a common ancestor.
func family(rng *rand.Rand, n, length int, mutProb float64) []bio.Sequence {
	letters := bio.AminoAcids.Letters()
	anc := make([]byte, length)
	for i := range anc {
		anc[i] = letters[rng.Intn(20)]
	}
	out := make([]bio.Sequence, n)
	for s := 0; s < n; s++ {
		data := make([]byte, 0, length+8)
		for _, b := range anc {
			r := rng.Float64()
			switch {
			case r < mutProb*0.6: // substitution
				data = append(data, letters[rng.Intn(20)])
			case r < mutProb*0.8: // deletion
			case r < mutProb: // insertion
				data = append(data, b, letters[rng.Intn(20)])
			default:
				data = append(data, b)
			}
		}
		if len(data) == 0 {
			data = append(data, anc[0])
		}
		out[s] = bio.Sequence{ID: string(rune('A'+s%26)) + string(rune('0'+s/26)), Data: data}
	}
	return out
}

func TestAlignmentValidate(t *testing.T) {
	good := &Alignment{Seqs: []bio.Sequence{
		{ID: "a", Data: []byte("AC-E")},
		{ID: "b", Data: []byte("ACDE")},
	}}
	if err := good.Validate(); err != nil {
		t.Errorf("good alignment rejected: %v", err)
	}
	ragged := &Alignment{Seqs: []bio.Sequence{
		{ID: "a", Data: []byte("ACE")},
		{ID: "b", Data: []byte("ACDE")},
	}}
	if err := ragged.Validate(); err == nil {
		t.Error("ragged alignment accepted")
	}
	allGap := &Alignment{Seqs: []bio.Sequence{
		{ID: "a", Data: []byte("A-E")},
		{ID: "b", Data: []byte("A-D")},
	}}
	if err := allGap.Validate(); err == nil {
		t.Error("all-gap column accepted")
	}
}

func TestRemoveAllGapColumns(t *testing.T) {
	a := &Alignment{Seqs: []bio.Sequence{
		{ID: "a", Data: []byte("A--C-")},
		{ID: "b", Data: []byte("A--D-")},
	}}
	removed := a.RemoveAllGapColumns()
	if removed != 3 {
		t.Fatalf("removed %d columns, want 3", removed)
	}
	if string(a.Seqs[0].Data) != "AC" || string(a.Seqs[1].Data) != "AD" {
		t.Fatalf("rows after removal: %q %q", a.Seqs[0].Data, a.Seqs[1].Data)
	}
	if a.RemoveAllGapColumns() != 0 {
		t.Fatal("second pass removed columns")
	}
}

func TestSPScoreIdenticalRows(t *testing.T) {
	a := &Alignment{Seqs: []bio.Sequence{
		{ID: "a", Data: []byte("ACDE")},
		{ID: "b", Data: []byte("ACDE")},
	}}
	want := 0.0
	for _, c := range []byte("ACDE") {
		want += submat.BLOSUM62.Score(c, c)
	}
	got := SPScore(a, submat.BLOSUM62, submat.DefaultProteinGap, 1)
	if got != want {
		t.Fatalf("SP = %g, want %g", got, want)
	}
}

func TestSPScoreGapHandling(t *testing.T) {
	gap := submat.Gap{Open: 10, Extend: 1}
	a := &Alignment{Seqs: []bio.Sequence{
		{ID: "a", Data: []byte("A--E")},
		{ID: "b", Data: []byte("ACDE")},
	}}
	want := submat.BLOSUM62.Score('A', 'A') + submat.BLOSUM62.Score('E', 'E') - (10 + 2)
	if got := SPScore(a, submat.BLOSUM62, gap, 1); got != want {
		t.Fatalf("SP = %g, want %g", got, want)
	}
	// dual-gap columns cost nothing
	b := &Alignment{Seqs: []bio.Sequence{
		{ID: "a", Data: []byte("A-E")},
		{ID: "b", Data: []byte("A-E")},
		{ID: "c", Data: []byte("ACE")},
	}}
	pairAB := submat.BLOSUM62.Score('A', 'A') + submat.BLOSUM62.Score('E', 'E')
	pairAC := pairAB - 11
	pairBC := pairAC
	if got := SPScore(b, submat.BLOSUM62, gap, 1); got != pairAB+pairAC+pairBC {
		t.Fatalf("SP with dual gaps = %g, want %g", got, pairAB+pairAC+pairBC)
	}
}

func TestSPScoreParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	seqs := family(rng, 12, 60, 0.2)
	aln := mustAlign(t, MuscleLike(1), seqs)
	s1 := SPScore(aln, submat.BLOSUM62, submat.DefaultProteinGap, 1)
	s8 := SPScore(aln, submat.BLOSUM62, submat.DefaultProteinGap, 8)
	if math.Abs(s1-s8) > 1e-6 {
		t.Fatalf("parallel SP %g != serial %g", s8, s1)
	}
}

// TestSPScoreSampledConvergesToExact: refinement's objective samples
// pairs only where the sample would not cover them all; below that it
// is exact SP, and its table totals to SPScore bit for bit.
func TestSPScoreSampledConvergesToExact(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	seqs := family(rng, 10, 50, 0.15)
	aln := mustAlign(t, MuscleLike(0), seqs)
	exact := SPScore(aln, submat.BLOSUM62, submat.DefaultProteinGap, 0)
	sc := newPairScorer(submat.BLOSUM62, submat.DefaultProteinGap)
	obj := newSPObjective(aln.NumSeqs(), sc)
	if !obj.exact {
		t.Fatalf("%d rows: the objective samples pairs", aln.NumSeqs())
	}
	table := make([]float64, len(obj.pairs))
	obj.rescore(table, sc.encode(aln.Rows()), nil)
	if got := obj.total(table); math.Float64bits(got) != math.Float64bits(exact) {
		t.Fatalf("objective %g, exact SP %g", got, exact)
	}
}

func TestQScorePerfect(t *testing.T) {
	ref := &Alignment{Seqs: []bio.Sequence{
		{ID: "a", Data: []byte("AC-DE")},
		{ID: "b", Data: []byte("ACWDE")},
	}}
	q, err := QScore(ref, ref)
	if err != nil {
		t.Fatal(err)
	}
	if q != 1 {
		t.Fatalf("self Q = %g", q)
	}
}

func TestQScoreDisagreement(t *testing.T) {
	ref := &Alignment{Seqs: []bio.Sequence{
		{ID: "a", Data: []byte("ACDE")},
		{ID: "b", Data: []byte("ACDE")},
	}}
	// test alignment shifts b by one, so no residue pair matches
	test := &Alignment{Seqs: []bio.Sequence{
		{ID: "a", Data: []byte("ACDE-")},
		{ID: "b", Data: []byte("-ACDE")},
	}}
	q, err := QScore(test, ref)
	if err != nil {
		t.Fatal(err)
	}
	if q != 0 {
		t.Fatalf("shifted Q = %g, want 0", q)
	}
}

func TestQScorePartial(t *testing.T) {
	ref := &Alignment{Seqs: []bio.Sequence{
		{ID: "a", Data: []byte("ACDE")},
		{ID: "b", Data: []byte("ACDE")},
	}}
	// first two columns agree, last two shifted
	test := &Alignment{Seqs: []bio.Sequence{
		{ID: "a", Data: []byte("ACDE-")},
		{ID: "b", Data: []byte("AC-DE")},
	}}
	q, err := QScore(test, ref)
	if err != nil {
		t.Fatal(err)
	}
	if q != 0.5 {
		t.Fatalf("Q = %g, want 0.5", q)
	}
}

func TestQScoreSubsetReference(t *testing.T) {
	test := &Alignment{Seqs: []bio.Sequence{
		{ID: "a", Data: []byte("ACDE")},
		{ID: "b", Data: []byte("ACDE")},
		{ID: "c", Data: []byte("ACDE")},
	}}
	ref := &Alignment{Seqs: []bio.Sequence{
		{ID: "a", Data: []byte("ACDE")},
		{ID: "c", Data: []byte("ACDE")},
	}}
	q, err := QScore(test, ref)
	if err != nil {
		t.Fatal(err)
	}
	if q != 1 {
		t.Fatalf("subset Q = %g", q)
	}
}

func TestQScoreErrors(t *testing.T) {
	test := &Alignment{Seqs: []bio.Sequence{{ID: "a", Data: []byte("ACDE")}}}
	refMissing := &Alignment{Seqs: []bio.Sequence{
		{ID: "a", Data: []byte("ACDE")},
		{ID: "zz", Data: []byte("ACDE")},
	}}
	if _, err := QScore(test, refMissing); err == nil {
		t.Error("missing row accepted")
	}
	refMismatch := &Alignment{Seqs: []bio.Sequence{
		{ID: "a", Data: []byte("ACD")},
		{ID: "a2", Data: []byte("ACD")},
	}}
	test2 := &Alignment{Seqs: []bio.Sequence{
		{ID: "a", Data: []byte("ACDE")},
		{ID: "a2", Data: []byte("ACDE")},
	}}
	if _, err := QScore(test2, refMismatch); err == nil {
		t.Error("residue count mismatch accepted")
	}
}

func TestMuscleLikeAlignsFamily(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	seqs := family(rng, 15, 80, 0.15)
	aln := mustAlign(t, MuscleLike(0), seqs)
	checkPreservesSequences(t, aln, seqs)
	if aln.Width() < 80 {
		t.Fatalf("width %d shorter than ancestor", aln.Width())
	}
	// A real family must align with positive SP score.
	if sp := SPScore(aln, submat.BLOSUM62, submat.DefaultProteinGap, 0); sp <= 0 {
		t.Fatalf("family SP = %g", sp)
	}
}

func TestClustalLikeAlignsFamily(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	seqs := family(rng, 8, 60, 0.15)
	aln := mustAlign(t, ClustalLike(0), seqs)
	checkPreservesSequences(t, aln, seqs)
}

func TestProgressiveTrivialInputs(t *testing.T) {
	al := MuscleLike(0)
	empty := mustAlign(t, al, nil)
	if empty.NumSeqs() != 0 {
		t.Fatal("empty input")
	}
	one := mustAlign(t, al, []bio.Sequence{{ID: "a", Data: []byte("ACDEF")}})
	if one.NumSeqs() != 1 || string(one.Seqs[0].Data) != "ACDEF" {
		t.Fatalf("single input: %+v", one.Seqs)
	}
	two := mustAlign(t, al, []bio.Sequence{
		{ID: "a", Data: []byte("ACDEF")},
		{ID: "b", Data: []byte("ACEF")},
	})
	checkPreservesSequences(t, two, []bio.Sequence{
		{ID: "a", Data: []byte("ACDEF")},
		{ID: "b", Data: []byte("ACEF")},
	})
}

func TestProgressiveRejectsEmptySequence(t *testing.T) {
	_, err := MuscleLike(0).AlignContext(context.Background(), []bio.Sequence{
		{ID: "a", Data: []byte("ACDEF")},
		{ID: "b", Data: []byte("")},
	})
	if err == nil {
		t.Fatal("empty sequence accepted")
	}
}

func TestIdenticalSequencesAlignPerfectly(t *testing.T) {
	seq := []byte("MKVLWACDEFGHIKLMNPQR")
	seqs := []bio.Sequence{
		{ID: "a", Data: seq},
		{ID: "b", Data: seq},
		{ID: "c", Data: seq},
		{ID: "d", Data: seq},
	}
	aln := mustAlign(t, MuscleLike(0), seqs)
	if aln.Width() != len(seq) {
		t.Fatalf("identical sequences got width %d, want %d", aln.Width(), len(seq))
	}
	for _, s := range aln.Seqs {
		if !bytes.Equal(s.Data, seq) {
			t.Fatalf("row %s = %q", s.ID, s.Data)
		}
	}
}

func TestRefinementNeverWorsensSP(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, n := range []int{10, 40} {
		seqs := family(rng, n, 60, 0.25)
		base := MuscleLike(0)
		refined := MuscleLikeRefined(0)
		a0 := mustAlign(t, base, seqs)
		a1 := mustAlign(t, refined, seqs)
		checkPreservesSequences(t, a1, seqs)
		sp0 := SPScore(a0, submat.BLOSUM62, submat.DefaultProteinGap, 0)
		sp1 := SPScore(a1, submat.BLOSUM62, submat.DefaultProteinGap, 0)
		if sp1 < sp0 {
			t.Fatalf("n=%d: refinement lowered SP: %g -> %g", n, sp0, sp1)
		}
	}
}

func TestTreeWeightsFamilyStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	seqs := family(rng, 12, 60, 0.1)
	p := MuscleLike(0)
	d, err := p.DistanceMatrixContext(context.Background(), seqs)
	if err != nil {
		t.Fatal(err)
	}
	gt := p.GuideTree(d, seqs)
	w := treeWeights(gt, len(seqs))
	if len(w) != len(seqs) {
		t.Fatalf("%d weights", len(w))
	}
	var sum float64
	for _, v := range w {
		if v <= 0 {
			t.Fatalf("non-positive weight %g", v)
		}
		sum += v
	}
	if math.Abs(sum-float64(len(seqs))) > 1e-6 {
		t.Fatalf("weights sum to %g, want %d", sum, len(seqs))
	}
}

func TestConsensusOfAlignment(t *testing.T) {
	a := &Alignment{Seqs: []bio.Sequence{
		{ID: "a", Data: []byte("ACDE")},
		{ID: "b", Data: []byte("ACDE")},
		{ID: "c", Data: []byte("AWDE")},
	}}
	cons, err := a.Consensus(bio.AminoAcids, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if string(cons) != "ACDE" {
		t.Fatalf("consensus = %q", cons)
	}
}
