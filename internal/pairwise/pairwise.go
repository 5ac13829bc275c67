// Package pairwise implements the dynamic-programming sequence alignment
// kernel every higher layer builds on: global alignment with affine gap
// penalties (Gotoh).
//
// Scores are maximised; gap penalties are supplied as positive costs and a
// gap of length g costs Open + g·Extend.
//
// All kernels run on pooled dp.Workspace scratch memory, so repeated
// calls (a progressive alignment makes thousands) allocate only their
// results, not their O(n·m) DP planes.
package pairwise

import (
	"math"

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

var negInf = math.Inf(-1)

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
		r.A, r.B = traceAffine(w, a, b, state)
		r.Score = score
	})
	return r
}

// globalInto fills the workspace's traceback plane for the global
// alignment of a and b and returns the optimal end state and score.
// This is the one place a DP kernel is chosen: the int16 kernel of
// internal/dpkern where its exactness bounds hold, globalScalar
// otherwise. The traceback plane and score are identical whichever ran.
func (al Aligner) globalInto(w *dp.Workspace, a, b []byte) (byte, float64) {
	n, m := len(a), len(b)
	if t := dpkern.For(al.Sub, al.Gap); t.Fits(n, m) {
		dpkern.NoteStriped()
		w.ReserveInt(n+1, m+1)
		ra := t.MapRows(w, a)
		rb := t.MapRows(w, b)
		return t.Global(w, ra, rb)
	}
	dpkern.NoteEscape()
	return al.globalScalar(w, a, b)
}

// globalScalar is the float64 Gotoh kernel: the only one for matrices
// with no exact int16 image and for inputs past the int16 bounds, and
// the reference the int16 kernel is tested against.
func (al Aligner) globalScalar(w *dp.Workspace, a, b []byte) (byte, float64) {
	n, m := len(a), len(b)
	open, ext := al.Gap.Open, al.Gap.Extend

	// DP planes. M: last pair aligned; X: gap in b; Y: gap in a.
	w.Reserve(n+1, m+1)
	M, X, Y, tb := w.MP, w.XP, w.YP, w.TB
	cols := m + 1

	M[0] = 0
	X[0], Y[0] = negInf, negInf
	for i := 1; i <= n; i++ {
		idx := i * cols
		M[idx], Y[idx] = negInf, negInf
		X[idx] = -(open + float64(i)*ext)
		tb[idx] = dp.PackTB(stM, stX, stM)
	}
	for j := 1; j <= m; j++ {
		M[j], X[j] = negInf, negInf
		Y[j] = -(open + float64(j)*ext)
		tb[j] = dp.PackTB(stM, stM, stY)
	}

	for i := 1; i <= n; i++ {
		row := i * cols
		prev := row - cols
		for j := 1; j <= m; j++ {
			s := al.Sub.Score(a[i-1], b[j-1])
			// M from best of three diagonal predecessors
			d := prev + j - 1
			bm, bs := stM, M[d]
			if X[d] > bs {
				bm, bs = stX, X[d]
			}
			if Y[d] > bs {
				bm, bs = stY, Y[d]
			}
			M[row+j] = bs + s

			// X: consume a[i-1] against a gap
			up := prev + j
			bx := stM
			openX := M[up] - open - ext
			if extX := X[up] - ext; openX >= extX {
				X[row+j] = openX
			} else {
				X[row+j] = extX
				bx = stX
			}

			// Y: consume b[j-1] against a gap
			left := row + j - 1
			by := stM
			openY := M[left] - open - ext
			if extY := Y[left] - ext; openY >= extY {
				Y[row+j] = openY
			} else {
				Y[row+j] = extY
				by = stY
			}
			tb[row+j] = dp.PackTB(bm, bx, by)
		}
	}

	// choose the best final state
	end := n*cols + m
	state, score := stM, M[end]
	if X[end] > score {
		state, score = stX, X[end]
	}
	if Y[end] > score {
		state, score = stY, Y[end]
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
		cell := w.TB[w.At(i, j)]
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

// traceAffine follows the packed traceback plane from (len(a), len(b))
// back to the origin, emitting the gapped rows.
func traceAffine(w *dp.Workspace, a, b []byte, state byte) ([]byte, []byte) {
	n, m := len(a), len(b)
	ra := make([]byte, 0, n+m)
	rb := make([]byte, 0, n+m)
	i, j := n, m
	for i > 0 || j > 0 {
		cell := w.TB[w.At(i, j)]
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
