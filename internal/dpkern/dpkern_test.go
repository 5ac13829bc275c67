package dpkern

import (
	"testing"

	"repro/internal/bio"
	"repro/internal/submat"
)

func TestForShippedMatrices(t *testing.T) {
	// Every shipped (matrix, gap) pair is half-integral and must have an
	// exact int16 image — the int16 kernel covers the default paths.
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
// of ½ — no exact scaled-int16 image exists.
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
	// open + 2·extend beyond maxGapStep would let −inf chains wrap int16.
	if tbl := For(submat.BLOSUM62, submat.Gap{Open: 300, Extend: 300}); tbl != nil {
		t.Error("huge gap model: want nil table")
	}
	// Negative penalties never occur; reject rather than reason about them.
	if tbl := For(submat.BLOSUM62, submat.Gap{Open: -1, Extend: 1}); tbl != nil {
		t.Error("negative open: want nil table")
	}
	if tbl := For(submat.BLOSUM62, submat.Gap{Open: 1, Extend: 0.25}); tbl != nil {
		t.Error("quarter-integral extend: want nil table")
	}
}

func TestFitsBounds(t *testing.T) {
	tbl := For(submat.BLOSUM62, submat.DefaultProteinGap)
	if tbl == nil {
		t.Fatal("no BLOSUM62 table")
	}
	if !tbl.Fits(100, 100) || !tbl.Fits(1, 1) {
		t.Error("small problems must fit")
	}
	if tbl.Fits(0, 10) || tbl.Fits(10, 0) {
		t.Error("empty sides never fit (scalar path handles them)")
	}
	// BLOSUM62's max score is 11 (22 scaled): min(n,m) ~> maxReal/22
	// must be rejected — the positive bound would overflow.
	if tbl.Fits(4000, 4000) {
		t.Error("huge min-side must not fit")
	}
	// Long-and-thin stays fine on the positive side but the gap floor
	// must eventually reject it: 3·openE + (n+m+1)·ext grows with n.
	if !tbl.Fits(5, 1000) {
		t.Error("long-and-thin within gap floor must fit")
	}
	if tbl.Fits(5, 30000) {
		t.Error("gap floor must reject extreme total length")
	}
	var nilTbl *Table
	if nilTbl.Fits(5, 5) {
		t.Error("nil table never fits")
	}
}
