package msa

import (
	"fmt"
	//lint:allow determinism drawPairs' rng is seeded by the caller's explicit seed parameter
	"math/rand"

	"repro/internal/bio"
	"repro/internal/par"
	"repro/internal/submat"
)

// SPScore computes the sum-of-pairs score of the alignment: for every
// pair of rows, residue pairs score under sub and gaps cost affine
// penalties (open+ext on opening, ext on extension; columns where both
// rows have gaps are skipped). This is the objective the paper reports as
// "score of the global map".
//
// Exact SP is O(N²·W); for large alignments use SPScoreSampled.
func SPScore(a *Alignment, sub *submat.Matrix, gap submat.Gap, workers int) float64 {
	n := a.NumSeqs()
	rows := a.Rows()
	scores := par.Map(n, workers, func(i int) float64 {
		var s float64
		for j := i + 1; j < n; j++ {
			s += pairScore(rows[i], rows[j], sub, gap)
		}
		return s
	})
	var total float64
	for _, s := range scores {
		total += s
	}
	return total
}

// pairScore scores one row pair under the affine model, ignoring
// dual-gap columns.
func pairScore(x, y []byte, sub *submat.Matrix, gap submat.Gap) float64 {
	var s float64
	inX, inY := false, false
	for c := range x {
		gx, gy := x[c] == bio.Gap, y[c] == bio.Gap
		switch {
		case gx && gy:
			// dual gap: no cost, but keeps gap runs open
		case gx:
			if !inX {
				s -= gap.Open
			}
			s -= gap.Extend
			inX, inY = true, false
		case gy:
			if !inY {
				s -= gap.Open
			}
			s -= gap.Extend
			inX, inY = false, true
		default:
			s += sub.Score(x[c], y[c])
			inX, inY = false, false
		}
	}
	return s
}

// SPScoreSampled estimates SP from `pairs` uniformly sampled row pairs,
// scaled to the full pair count. Deterministic for a given seed.
func SPScoreSampled(a *Alignment, sub *submat.Matrix, gap submat.Gap, pairs int, seed int64) float64 {
	n := a.NumSeqs()
	totalPairs := n * (n - 1) / 2
	if totalPairs == 0 {
		return 0
	}
	if pairs >= totalPairs {
		return SPScore(a, sub, gap, 0)
	}
	rows := a.Rows()
	var s float64
	for _, p := range drawPairs(n, pairs, seed) {
		s += pairScore(rows[p[0]], rows[p[1]], sub, gap)
	}
	return s * float64(totalPairs) / float64(pairs)
}

// drawPairs returns the row pairs SPScoreSampled sums, in draw order:
// `pairs` uniform draws of i, then of j ≠ i, from n ≥ 2 rows. Repeats
// and orientation are kept — a pair drawn twice counts twice, and
// (i, j) is scored as drawn. The list depends on (n, pairs, seed) only.
func drawPairs(n, pairs int, seed int64) [][2]int32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][2]int32, pairs)
	for k := range out {
		i := rng.Intn(n)
		j := rng.Intn(n - 1)
		if j >= i {
			j++
		}
		out[k] = [2]int32{int32(i), int32(j)}
	}
	return out
}

// residueColumns returns, for one aligned row, the column index of every
// residue in order: resCols[k] = column of the k-th residue.
func residueColumns(row []byte) []int {
	out := make([]int, 0, len(row))
	for c, b := range row {
		if b != bio.Gap {
			out = append(out, c)
		}
	}
	return out
}

// QScore computes the PREFAB accuracy measure Q of a test alignment
// against a reference: the number of residue pairs aligned together in
// the reference that are also aligned together in the test, divided by
// the number of residue pairs in the reference.
//
// Rows are matched by sequence ID; the reference may cover a subset of
// the test rows (PREFAB references are pairwise). Sequences must carry
// identical residues in both alignments.
func QScore(test, ref *Alignment) (float64, error) {
	testCols := make(map[string][]int, test.NumSeqs())
	for _, s := range test.Seqs {
		testCols[s.ID] = residueColumns(s.Data)
	}
	refPairs, matched := 0, 0
	for i := 0; i < ref.NumSeqs(); i++ {
		ri := ref.Seqs[i]
		ti, ok := testCols[ri.ID]
		if !ok {
			return 0, fmt.Errorf("msa: reference row %q missing from test alignment", ri.ID)
		}
		riCols := residueColumns(ri.Data)
		if len(riCols) != len(ti) {
			return 0, fmt.Errorf("msa: row %q has %d residues in reference, %d in test",
				ri.ID, len(riCols), len(ti))
		}
		for j := i + 1; j < ref.NumSeqs(); j++ {
			rj := ref.Seqs[j]
			tj, ok := testCols[rj.ID]
			if !ok {
				return 0, fmt.Errorf("msa: reference row %q missing from test alignment", rj.ID)
			}
			rjCols := residueColumns(rj.Data)
			if len(rjCols) != len(tj) {
				return 0, fmt.Errorf("msa: row %q has %d residues in reference, %d in test",
					rj.ID, len(rjCols), len(tj))
			}
			// reference column → residue ordinal maps
			colToRes := make(map[int]int, len(rjCols))
			for k, c := range rjCols {
				colToRes[c] = k
			}
			// test column → residue ordinal for row j
			tjColToRes := make(map[int]int, len(tj))
			for k, c := range tj {
				tjColToRes[c] = k
			}
			for ki, c := range riCols {
				kj, ok := colToRes[c]
				if !ok {
					continue // residue of i aligned to a gap in j
				}
				refPairs++
				// the pair (residue ki of i, residue kj of j): aligned in test?
				if kt, ok := tjColToRes[ti[ki]]; ok && kt == kj {
					matched++
				}
			}
		}
	}
	if refPairs == 0 {
		return 0, fmt.Errorf("msa: reference alignment has no residue pairs")
	}
	return float64(matched) / float64(refPairs), nil
}
