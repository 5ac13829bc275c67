package submat

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/bio"
)

func TestBLOSUM62KnownValues(t *testing.T) {
	cases := []struct {
		a, b byte
		want float64
	}{
		{'A', 'A', 4}, {'W', 'W', 11}, {'C', 'C', 9},
		{'A', 'R', -1}, {'W', 'D', -4}, {'I', 'V', 3},
		{'H', 'Y', 2}, {'P', 'P', 7}, {'G', 'G', 6},
	}
	for _, c := range cases {
		if got := BLOSUM62.Score(c.a, c.b); got != c.want {
			t.Errorf("BLOSUM62(%c,%c) = %g, want %g", c.a, c.b, got, c.want)
		}
	}
}

func TestBLOSUM62Symmetric(t *testing.T) {
	letters := bio.AminoAcids.Letters()
	for _, a := range letters {
		for _, b := range letters {
			if BLOSUM62.Score(a, b) != BLOSUM62.Score(b, a) {
				t.Fatalf("asymmetric at (%c,%c)", a, b)
			}
		}
	}
}

func TestBLOSUM62DiagonalDominant(t *testing.T) {
	// Identity scores are the row maximum for every residue: aligning a
	// residue to itself is never worse than substituting it.
	letters := bio.AminoAcids.Letters()
	for _, a := range letters {
		self := BLOSUM62.Score(a, a)
		for _, b := range letters {
			if a != b && BLOSUM62.Score(a, b) >= self {
				t.Errorf("S(%c,%c)=%g >= S(%c,%c)=%g",
					a, b, BLOSUM62.Score(a, b), a, a, self)
			}
		}
	}
}

func TestUnknownBytes(t *testing.T) {
	if got := BLOSUM62.Score('A', '?'); got != BLOSUM62.Unknown() {
		t.Errorf("unknown byte score = %g", got)
	}
	if got := BLOSUM62.Score('-', '-'); got != BLOSUM62.Unknown() {
		t.Errorf("gap byte score = %g", got)
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, row := range blosum62 {
		for _, v := range row {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
	}
	if hi != 11 {
		t.Errorf("max = %g, want 11 (W/W)", hi)
	}
	if lo != -4 {
		t.Errorf("min = %g, want -4", lo)
	}
}

func TestDNASimple(t *testing.T) {
	if DNASimple.Score('A', 'A') != 5 || DNASimple.Score('A', 'G') != -4 {
		t.Error("DNA match/mismatch scores wrong")
	}
}

func TestMutationProbsStochastic(t *testing.T) {
	for _, temp := range []float64{0.5, 1, 2, 5} {
		probs := BLOSUM62.MutationProbs(temp)
		for i, row := range probs {
			var sum float64
			for _, p := range row {
				if p < 0 {
					t.Fatalf("negative probability at row %d", i)
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("row %d sums to %g at t=%g", i, sum, temp)
			}
		}
	}
}

func TestMutationProbsSelfEnriched(t *testing.T) {
	// At native temperature every residue is more likely to stay itself
	// than its background frequency alone would predict — this is what the
	// positive BLOSUM diagonal encodes. (Note the strictly-most-likely
	// outcome can be another residue with a large background frequency,
	// e.g. M→L, so we test enrichment, not argmax.)
	probs := BLOSUM62.MutationProbs(1)
	for i, row := range probs {
		if row[i] <= BackgroundFreq(i) {
			t.Errorf("row %d: self-probability %g not enriched over background %g",
				i, row[i], BackgroundFreq(i))
		}
	}
}

func TestMutationProbsTemperatureFlattens(t *testing.T) {
	cold := BLOSUM62.MutationProbs(1)
	hot := BLOSUM62.MutationProbs(10)
	for i := range cold {
		if hot[i][i] >= cold[i][i] {
			t.Errorf("row %d: hot self-probability %g >= cold %g",
				i, hot[i][i], cold[i][i])
		}
	}
}

func TestNewPanicsOnAsymmetry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for asymmetric table")
		}
	}()
	bad := dnaTable(1, -1)
	bad[0][1] = 7
	New("bad", bio.DNA, bad, 0)
}

func TestScoreIdxMatchesScore(t *testing.T) {
	f := func(x, y uint8) bool {
		i := int(x) % 20
		j := int(y) % 20
		a := bio.AminoAcids.Letter(i)
		b := bio.AminoAcids.Letter(j)
		return BLOSUM62.ScoreIdx(i, j) == BLOSUM62.Score(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBackgroundFreqsSumToOne(t *testing.T) {
	var sum float64
	for i := 0; i < 20; i++ {
		sum += BackgroundFreq(i)
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("background frequencies sum to %g", sum)
	}
}
