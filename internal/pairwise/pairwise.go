// Package pairwise implements global alignment of two sequences with
// affine gap penalties (Gotoh), the DP behind the CLUSTALW and T-Coffee
// engines' pairwise passes.
//
// Scores are maximised; gap penalties are supplied as positive costs and a
// gap of length g costs Open + g·Extend.
//
// The DP runs in int64 on the scale-2 image of internal/dpkern. Every
// shipped matrix and gap model is half-integral, so that is the float64
// DP computed exactly, at any length; a matrix or gap model with no such
// image makes Global panic.
//
// The DP runs on pooled dp.Workspace scratch memory, so repeated calls
// (a progressive alignment makes thousands) allocate only their results,
// not their O(n·m) traceback planes.
package pairwise

import (
	"fmt"

	"repro/internal/bio"
	"repro/internal/dp"
	"repro/internal/dpkern"
	"repro/internal/submat"
)

// Aligner bundles the substitution matrix and gap model used by the
// alignment kernels. The zero value is not usable; construct with fields.
type Aligner struct {
	Sub *submat.Matrix
	Gap submat.Gap
}

// NewProtein returns an aligner with BLOSUM62 and the default protein
// gap penalties.
func NewProtein() Aligner {
	return Aligner{Sub: submat.BLOSUM62, Gap: submat.DefaultProteinGap}
}

// Result is an alignment of two sequences: equal-length gapped rows and
// the alignment score.
type Result struct {
	A, B  []byte
	Score float64
}

// traceback states (shared with the dp package's packed traceback)
const (
	stM = dp.M // match/mismatch
	stX = dp.X // gap in B (A residue over '-')
	stY = dp.Y // gap in A ('-' over B residue)
)

// Global aligns a and b end to end with affine gap penalties and returns
// the optimal-score alignment.
func (al Aligner) Global(a, b []byte) Result {
	var r Result
	dp.With(func(w *dp.Workspace) {
		state, score := al.globalInto(w, a, b)
		r.A, r.B = traceAffine(w.TB, a, b, state)
		r.Score = score
	})
	return r
}

// globalInto fills the workspace's traceback plane for the global
// alignment of a and b and returns the optimal end state and score. The
// DP runs in int64 on the scale-2 image of internal/dpkern, which is
// exact at every length, so plane and score are the float64 DP's. It
// panics when the matrix or gap model has no such image (no shipped
// matrix or gap model is one).
func (al Aligner) globalInto(w *dp.Workspace, a, b []byte) (byte, float64) {
	t := dpkern.For(al.Sub, al.Gap)
	if t == nil {
		panic(fmt.Sprintf("pairwise: matrix %s with gap %+v has no exact half-unit integer image", al.Sub.Name(), al.Gap))
	}
	dpkern.NoteStriped()
	n, m := len(a), len(b)
	w.ReserveTB((n + 1) * (m + 1))
	ca, cb := al.classes(w, a), al.classes(w, b)
	// One arena take holds the query profile and the rolling rows, so a
	// fresh workspace grows its int64 arena once.
	np := (t.L + 1) * m
	buf := w.Int64s(np + 6*(m+1))
	qp, rows := buf[:np], buf[np:]
	t.Profile(qp, cb)
	open, ext, neg := t.Gap()
	state, score := gotoh(w.TB, ca, qp, rows, m, open, ext, neg)
	return state, t.Unscale(score)
}

// classes maps each residue of s to its score-table row: the alphabet
// index of a letter, L for any other byte (Matrix.Score's unknown rule).
func (al Aligner) classes(w *dp.Workspace, s []byte) []byte {
	alpha := al.Sub.Alphabet()
	unknown := byte(alpha.Len())
	c := w.Bytes(len(s))
	for i, r := range s {
		if k := alpha.Index(r); k >= 0 {
			c[i] = byte(k)
		} else {
			c[i] = unknown
		}
	}
	return c
}

// gotoh is the affine-gap global DP: it fills the traceback plane tb
// ((len(ca)+1)×(m+1), row-major) for residue classes ca against the
// length-m sequence whose query profile is qp, and returns the end
// state and score, all on a dpkern.Table's scale. M is the last pair
// aligned, X a gap in b, Y a gap in a; neg stands for −inf.
//
// Scores live in two rolling rows per state, carved from rows
// (6·(m+1) values): DP row i is in half i&1. Each row runs in two passes: pass 1 computes M and
// X, which read only the row above; pass 2 runs the serial Y chain and
// folds its choices into the traceback bytes pass 1 wrote.
func gotoh(tb, ca []byte, qp, rows []int64, m int, open, ext, neg int64) (byte, int64) {
	cols := m + 1
	half := func(i int) (mm, xx, yy []int64) {
		r := rows[(i&1)*3*cols:]
		return r[:cols], r[cols:][:cols], r[2*cols:][:cols]
	}

	pm, px, py := half(0)
	pm[0], px[0], py[0] = 0, neg, neg
	for j := 1; j < cols; j++ {
		pm[j], px[j] = neg, neg
		py[j] = -(open + int64(j)*ext)
		tb[j] = dp.PackTB(stM, stM, stY)
	}
	for i := 1; i <= len(ca); i++ {
		pm, px, py := half(i - 1)
		cm, cx, cy := half(i)
		tr := tb[i*cols:][:cols]
		q := qp[int(ca[i-1])*m:][:m]
		cm[0], cy[0] = neg, neg
		cx[0] = -(open + int64(i)*ext)
		tr[0] = dp.PackTB(stM, stX, stM)

		for j := 1; j < cols; j++ {
			bm, bs := stM, pm[j-1]
			if v := px[j-1]; v > bs {
				bm, bs = stX, v
			}
			if v := py[j-1]; v > bs {
				bm, bs = stY, v
			}
			cm[j] = bs + q[j-1]
			vx, bx := pm[j]-open-ext, stM
			if v := px[j] - ext; vx < v {
				vx, bx = v, stX
			}
			cx[j] = vx
			tr[j] = bm | bx<<2
		}

		vy := cy[0]
		for j := 1; j < cols; j++ {
			y, by := cm[j-1]-open-ext, stM
			if v := vy - ext; y < v {
				y, by = v, stY
			}
			vy, cy[j] = y, y
			tr[j] |= by << 4
		}
	}

	em, ex, ey := half(len(ca))
	state, score := stM, em[m]
	if ex[m] > score {
		state, score = stX, ex[m]
	}
	if ey[m] > score {
		state, score = stY, ey[m]
	}
	return state, score
}

// GlobalIdentityInto computes the fractional identity of the optimal
// global alignment of a and b (exactly Identity applied to Global's
// rows) without materialising the gapped rows: it walks the traceback
// plane in the supplied workspace, so batch callers — the CLUSTALW
// %-identity distance matrix — allocate nothing per pair.
func (al Aligner) GlobalIdentityInto(w *dp.Workspace, a, b []byte) float64 {
	state, _ := al.globalInto(w, a, b)
	i, j := len(a), len(b)
	same, pairs := 0, 0
	for i > 0 || j > 0 {
		cell := w.TB[i*(len(b)+1)+j]
		switch state {
		case stM:
			pairs++
			if a[i-1] == b[j-1] {
				same++
			}
			i--
			j--
			state = dp.TBM(cell)
		case stX:
			i--
			state = dp.TBX(cell)
		default:
			j--
			state = dp.TBY(cell)
		}
	}
	if pairs == 0 {
		return 0
	}
	return float64(same) / float64(pairs)
}

// traceAffine follows the packed traceback plane ((len(a)+1)×(len(b)+1),
// row-major) from (len(a), len(b)) back to the origin, emitting the
// gapped rows.
func traceAffine(tb, a, b []byte, state byte) ([]byte, []byte) {
	n, m := len(a), len(b)
	ra := make([]byte, 0, n+m)
	rb := make([]byte, 0, n+m)
	i, j := n, m
	for i > 0 || j > 0 {
		cell := tb[i*(m+1)+j]
		switch state {
		case stM:
			ra = append(ra, a[i-1])
			rb = append(rb, b[j-1])
			i--
			j--
			state = dp.TBM(cell)
		case stX:
			ra = append(ra, a[i-1])
			rb = append(rb, bio.Gap)
			i--
			state = dp.TBX(cell)
		default: // stY
			ra = append(ra, bio.Gap)
			rb = append(rb, b[j-1])
			j--
			state = dp.TBY(cell)
		}
	}
	reverse(ra)
	reverse(rb)
	return ra, rb
}

func reverse(b []byte) {
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
}

// Identity returns the fractional identity of two aligned rows: identical
// residue pairs divided by the number of columns where both rows hold a
// residue. Returns 0 when no such column exists.
func Identity(a, b []byte) float64 {
	if len(a) != len(b) {
		return 0
	}
	same, pairs := 0, 0
	for i := range a {
		if a[i] == bio.Gap || b[i] == bio.Gap {
			continue
		}
		pairs++
		if a[i] == b[i] {
			same++
		}
	}
	if pairs == 0 {
		return 0
	}
	return float64(same) / float64(pairs)
}
