package dpkern

import (
	"math"
	"sync"

	"repro/internal/submat"
)

// The scale-2 image and why int64 is exact on it with no length bound.
// Scores are scaled by scale (half-integral scores become integers),
// and every scaled substitution score and gap cost must lie within
// ±maxStep. A path through an n×m lattice takes at most n+m steps, each
// adding one substitution score or one gap open and extend, so with
// n+m < 2^31 every real DP value and every one-step candidate stays
// below (n+m+1)·2^21 < 2^53 in magnitude: int64 computes it exactly,
// and so does float64 at scale 1 (a multiple of ½ below 2^52). Neg, the
// −inf sentinel, is −2^62: a value derived from it moves at most 2^53
// away, so it can neither wrap past −2^63 nor rise to a real value, and
// every comparison between a real cell and an unreachable one falls the
// way the float64 DP's comparison with −inf does. The int64 DP therefore
// takes the float64 DP's choice at every reachable cell: same path, and
// the same score times two.
const (
	scale   = 2
	neg     = -1 << 62 // −inf sentinel
	maxStep = 1 << 20  // bound on |scaled score| and scaled gap cost
)

// Table is the scaled-integer image of one (substitution matrix, gap
// model) pair: an (L+1)×(L+1) int64 score table, indexed by residue
// class (alphabet index, or L for any other byte), whose last row and
// column hold the matrix's unknown-residue score, and the scaled gap
// costs. Tables are immutable and cached; a nil *Table means the pair
// has no exact image (a score off the half-unit grid, a negative gap
// cost or one beyond maxStep).
type Table struct {
	L      int     // alphabet length; row L scores unknown residues
	scores []int64 // (L+1)×(L+1), row-major, scaled
	open   int64   // scaled gap open
	ext    int64   // scaled extend
}

type tableKey struct {
	sub *submat.Matrix
	gap submat.Gap
}

var tables sync.Map // tableKey → *Table (nil when not representable)

// For returns the cached scale-2 table for the matrix and gap model, or
// nil when the pair has no exact image.
func For(sub *submat.Matrix, gap submat.Gap) *Table {
	key := tableKey{sub, gap}
	if v, ok := tables.Load(key); ok {
		t, _ := v.(*Table)
		return t
	}
	t := build(sub, gap)
	v, _ := tables.LoadOrStore(key, t)
	tt, _ := v.(*Table)
	return tt
}

func build(sub *submat.Matrix, gap submat.Gap) *Table {
	alpha := sub.Alphabet()
	L := alpha.Len()
	if L < 1 || L > 64 {
		return nil
	}
	ok := true
	quant := func(v float64) int64 {
		s := v * scale
		if s != math.Trunc(s) || s < -maxStep || s > maxStep {
			ok = false
			return 0
		}
		return int64(s)
	}
	L1 := L + 1
	t := &Table{L: L, scores: make([]int64, L1*L1)}
	for i := 0; i < L; i++ {
		for j := 0; j < L; j++ {
			t.scores[i*L1+j] = quant(sub.ScoreIdx(i, j))
		}
	}
	u := quant(sub.Unknown())
	for k := 0; k < L1; k++ {
		t.scores[L*L1+k] = u
		t.scores[k*L1+L] = u
	}
	t.open, t.ext = quant(gap.Open), quant(gap.Extend)
	if !ok || t.open < 0 || t.ext < 0 {
		return nil
	}
	return t
}

// Gap returns the scaled gap costs and the value the DP holds for −inf.
func (t *Table) Gap() (open, ext, negInf int64) { return t.open, t.ext, neg }

// Unscale converts a scaled DP score back to the matrix's units.
func (t *Table) Unscale(v int64) float64 { return float64(v) / scale }

// Profile fills qp, of length (L+1)·len(cb), with the query profile of
// residue classes cb: one contiguous score row per class, so a DP's
// inner loop does a single indexed load per cell.
func (t *Table) Profile(qp []int64, cb []byte) {
	m := len(cb)
	L1 := t.L + 1
	for r := 0; r < L1; r++ {
		srow := t.scores[r*L1 : (r+1)*L1]
		qrow := qp[r*m : (r+1)*m]
		for j, c := range cb {
			qrow[j] = srow[c]
		}
	}
}
