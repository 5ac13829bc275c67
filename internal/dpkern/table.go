package dpkern

import (
	"math"
	"sync"

	"repro/internal/dp"
	"repro/internal/submat"
)

// Quantization bounds. Scores are scaled by scale (half-integral scores
// become integers); neg is the −inf sentinel. The bounds are chosen so
// that no reachable arithmetic can wrap int16:
//
//   - real DP values and their one-step candidates stay within ±maxReal
//     (enforced a priori by Fits);
//   - −inf-derived values stay well below every real value and above
//     −32768 (dead chains are at most two extensions deep), so a
//     comparison between a real and an unreachable cell falls the way
//     the float64 DP's comparison with −inf does.
const (
	scale      = 2
	neg        = int16(-31000) // −inf sentinel
	maxReal    = 28000         // bound on |real value| and one-step candidates
	maxStep    = 2000          // bound on |scaled substitution score|
	maxGapStep = 1500          // bound on scaled open + 2·extend
)

// Table is the scaled-integer image of one (substitution matrix, gap
// model) pair: an (L+1)×(L+1) int16 score table, indexed by residue
// class (alphabet index, or L for any other byte), whose last row and
// column hold the matrix's unknown-residue score, and the scaled gap
// costs. Tables are immutable and cached; a nil *Table means the pair
// has no exact int16 representation and the caller must run the DP in
// float64.
type Table struct {
	L      int     // alphabet length; row L scores unknown residues
	scores []int16 // (L+1)×(L+1), row-major, scaled
	open   int16   // scaled gap open
	ext    int16   // scaled extend

	maxPos int64 // max positive scaled score (0 if none)
	maxAbs int64 // max |scaled score|
}

type tableKey struct {
	sub *submat.Matrix
	gap submat.Gap
}

var tables sync.Map // tableKey → *Table (nil when not representable)

// For returns the cached quantization table for the matrix and gap
// model, or nil when the pair is not exactly representable in scaled
// int16 (the caller then runs the DP in float64).
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
	quant := func(v float64) int16 {
		s := v * scale
		if s != math.Trunc(s) || s < -maxStep || s > maxStep {
			ok = false
			return 0
		}
		return int16(s)
	}
	L1 := L + 1
	t := &Table{L: L, scores: make([]int16, L1*L1)}
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
	open, ext := quant(gap.Open), quant(gap.Extend)
	if !ok || open < 0 || ext < 0 || int(open)+2*int(ext) > maxGapStep {
		return nil
	}
	t.open, t.ext = open, ext
	for _, v := range t.scores {
		sv := int64(v)
		if sv > t.maxPos {
			t.maxPos = sv
		}
		if sv < 0 {
			sv = -sv
		}
		if sv > t.maxAbs {
			t.maxAbs = sv
		}
	}
	return t
}

// Fits reports whether an n×m full-matrix global DP is guaranteed to
// stay within the int16 value bounds. Every real prefix value is at
// most min(n,m)·maxPos and at least the two-open boundary-path bound,
// so both sides are checked with one step of headroom for candidate
// values that feed a max before being stored.
func (t *Table) Fits(n, m int) bool {
	if t == nil || n < 1 || m < 1 {
		return false
	}
	mn := int64(m)
	if n < m {
		mn = int64(n)
	}
	if (mn+1)*t.maxPos > maxReal {
		return false
	}
	return 3*int64(t.open+t.ext)+int64(n+m+1)*int64(t.ext)+2*t.maxAbs <= maxReal
}

// Gap returns the scaled gap costs and the value the int16 DP holds
// for −inf.
func (t *Table) Gap() (open, ext, negInf int16) { return t.open, t.ext, neg }

// Unscale converts a scaled DP score back to the matrix's units.
func (t *Table) Unscale(v int16) float64 { return float64(v) / scale }

// Profile builds the query profile of residue classes cb: one
// contiguous int16 score row per class, so a DP's inner loop does a
// single indexed load per cell.
func (t *Table) Profile(w *dp.Workspace, cb []byte) []int16 {
	m := len(cb)
	L1 := t.L + 1
	qp := w.Int16s(L1 * m)
	for r := 0; r < L1; r++ {
		srow := t.scores[r*L1 : (r+1)*L1]
		qrow := qp[r*m : (r+1)*m]
		for j, c := range cb {
			qrow[j] = srow[c]
		}
	}
	return qp
}
