package dpkern

import (
	"testing"

	"repro/internal/bio"
	"repro/internal/submat"
)

func TestForShippedMatrices(t *testing.T) {
	// Every shipped (matrix, gap) pair is half-integral and must have an
	// exact int64 image, or the pairwise DP refuses it.
	if For(submat.BLOSUM62, submat.DefaultProteinGap) == nil {
		t.Error("BLOSUM62 + default protein gap: want a table, got nil")
	}
	if For(submat.DNASimple, submat.DefaultDNAGap) == nil {
		t.Error("DNA+5/-4 + default DNA gap: want a table, got nil")
	}
	// The cache must hand back the same immutable table.
	if For(submat.BLOSUM62, submat.DefaultProteinGap) != For(submat.BLOSUM62, submat.DefaultProteinGap) {
		t.Error("For is not caching")
	}
}

// fracMatrix builds an amino-acid matrix whose scores are not multiples
// of ½ — no exact scale-2 image exists.
func fracMatrix() *submat.Matrix {
	L := bio.AminoAcids.Len()
	table := make([][]float64, L)
	for i := range table {
		table[i] = make([]float64, L)
		for j := range table[i] {
			if i == j {
				table[i][j] = 1.3 // 2.6 scaled: not an integer
			} else {
				table[i][j] = -0.7
			}
		}
	}
	return submat.New("frac", bio.AminoAcids, table, -0.7)
}

func TestForRejectsNonDyadic(t *testing.T) {
	if tbl := For(fracMatrix(), submat.DefaultProteinGap); tbl != nil {
		t.Errorf("fractional matrix: want nil table, got %v", tbl)
	}
}

func TestForRejectsExtremeGapModels(t *testing.T) {
	// A gap cost beyond maxStep would void the int64 bound argument.
	if tbl := For(submat.BLOSUM62, submat.Gap{Open: maxStep, Extend: 1}); tbl != nil {
		t.Error("gap open past the step bound: want nil table")
	}
	// Within the bound, large gap models have an image.
	if For(submat.BLOSUM62, submat.Gap{Open: 300, Extend: 300}) == nil {
		t.Error("300/300 gap model: want a table, got nil")
	}
	// Negative penalties never occur; reject rather than reason about them.
	if tbl := For(submat.BLOSUM62, submat.Gap{Open: -1, Extend: 1}); tbl != nil {
		t.Error("negative open: want nil table")
	}
	if tbl := For(submat.BLOSUM62, submat.Gap{Open: 1, Extend: 0.25}); tbl != nil {
		t.Error("quarter-integral extend: want nil table")
	}
}
