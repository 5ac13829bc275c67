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
// Exact SP is O(N²·W); refinement's objective samples pairs instead
// above 63 rows (spObjective).
func SPScore(a *Alignment, sub *submat.Matrix, gap submat.Gap, workers int) float64 {
	n := a.NumSeqs()
	sc := newPairScorer(sub, gap)
	codes := sc.encode(a.Rows())
	scores := make([]float64, n)
	par.For(n, 1, workers, func(i, _ int) {
		var s float64
		for j := i + 1; j < n; j++ {
			s += sc.score(codes[i], codes[j])
		}
		scores[i] = s
	})
	var total float64
	for _, s := range scores {
		total += s
	}
	return total
}

// gapCode is a gap's class code; a residue's is its alphabet index, or
// the alphabet's length for any byte outside it.
const gapCode = 0xff

// pairScorer scores row pairs on class-coded rows: every byte becomes
// its class once (encode), and a residue pair reads its score from one
// flat (L+1)² table that holds the floats sub.Score returns — the
// alphabet's scores, and sub.Unknown() against class L — so a pair adds
// the same floats in the same order as scoring the bytes would.
type pairScorer struct {
	class [256]uint8
	tab   []float64 // tab[x·l1+y] is the score of classes x and y
	l1    int
	gap   submat.Gap
}

func newPairScorer(sub *submat.Matrix, gap submat.Gap) *pairScorer {
	alpha := sub.Alphabet()
	L := alpha.Len()
	sc := &pairScorer{tab: make([]float64, (L+1)*(L+1)), l1: L + 1, gap: gap}
	for b := range sc.class {
		switch idx := alpha.Index(byte(b)); {
		case byte(b) == bio.Gap:
			sc.class[b] = gapCode
		case idx >= 0:
			sc.class[b] = uint8(idx)
		default:
			sc.class[b] = uint8(L)
		}
	}
	for x := 0; x <= L; x++ {
		for y := 0; y <= L; y++ {
			v := sub.Unknown()
			if x < L && y < L {
				v = sub.ScoreIdx(x, y)
			}
			sc.tab[x*sc.l1+y] = v
		}
	}
	return sc
}

// encode returns the class codes of equal-length rows in one slab, each
// row followed by one gapCode past its last column: a dual gap to any
// pair, and the column a merged row reads where its side has a gap
// (splitWork.realign).
func (sc *pairScorer) encode(rows [][]byte) [][]uint8 {
	out := make([][]uint8, len(rows))
	if len(rows) == 0 {
		return out
	}
	w := len(rows[0]) + 1
	slab := make([]uint8, len(rows)*w)
	for i, row := range rows {
		dst := slab[i*w : (i+1)*w : (i+1)*w]
		for c, b := range row {
			dst[c] = sc.class[b]
		}
		dst[len(row)] = gapCode
		out[i] = dst
	}
	return out
}

// score scores one coded row pair under the affine model, ignoring
// dual-gap columns.
func (sc *pairScorer) score(x, y []uint8) float64 {
	var s float64
	inX, inY := false, false
	y = y[:len(x)]
	for c, cx := range x {
		cy := y[c]
		gx, gy := cx == gapCode, cy == gapCode
		switch {
		case gx && gy:
			// dual gap: no cost, but keeps gap runs open
		case gx:
			if !inX {
				s -= sc.gap.Open
			}
			s -= sc.gap.Extend
			inX, inY = true, false
		case gy:
			if !inY {
				s -= sc.gap.Open
			}
			s -= sc.gap.Extend
			inX, inY = false, true
		default:
			s += sc.tab[int(cx)*sc.l1+int(cy)]
			inX, inY = false, false
		}
	}
	return s
}

// drawPairs returns the row pairs the sampled objective sums, in draw
// order: `pairs` uniform draws of i, then of j ≠ i, from n ≥ 2 rows. Repeats
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
