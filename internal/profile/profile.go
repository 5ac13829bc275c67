// Package profile implements alignment profiles — position-specific
// weighted residue frequency summaries of a multiple alignment — and the
// profile–profile dynamic-programming alignment (PSP scoring, affine
// gaps) that progressive MSA, ancestor construction and Sample-Align-D's
// global-ancestor fine-tuning are all built on.
package profile

import (
	"fmt"
	"math"

	"repro/internal/bio"
	"repro/internal/dp"
	"repro/internal/dpkern"
	"repro/internal/submat"
)

// Column holds the weighted residue counts of one alignment column.
type Column struct {
	Counts []float64 // per alphabet letter, weighted occurrence counts
	Gaps   float64   // weighted gap count
}

// Occupancy returns the fraction of (weighted) rows holding a residue in
// this column.
func (c *Column) Occupancy() float64 {
	var res float64
	for _, v := range c.Counts {
		res += v
	}
	tot := res + c.Gaps
	if tot == 0 {
		return 0
	}
	return res / tot
}

// Residues returns the total weighted residue count of the column.
func (c *Column) Residues() float64 {
	var res float64
	for _, v := range c.Counts {
		res += v
	}
	return res
}

// Profile is a sequence of columns over an alphabet together with the
// total row weight it summarises.
type Profile struct {
	Alpha  *bio.Alphabet
	Cols   []Column
	Weight float64 // total weight of the rows summarised
}

// Len returns the number of columns.
func (p *Profile) Len() int { return len(p.Cols) }

// FromRows builds a profile from equal-length aligned rows with the
// given per-row weights (nil means unit weights).
func FromRows(alpha *bio.Alphabet, rows [][]byte, weights []float64) (*Profile, error) {
	if len(rows) == 0 {
		return &Profile{Alpha: alpha}, nil
	}
	width := len(rows[0])
	for i, r := range rows {
		if len(r) != width {
			return nil, fmt.Errorf("profile: row %d has length %d, want %d", i, len(r), width)
		}
	}
	if weights != nil && len(weights) != len(rows) {
		return nil, fmt.Errorf("profile: %d weights for %d rows", len(weights), len(rows))
	}
	p := &Profile{Alpha: alpha, Cols: newColumns(alpha, width)}
	for r, row := range rows {
		w := 1.0
		if weights != nil {
			w = weights[r]
		}
		p.Weight += w
		for c, b := range row {
			col := &p.Cols[c]
			if b == bio.Gap {
				col.Gaps += w
				continue
			}
			if idx := alpha.Index(b); idx >= 0 {
				col.Counts[idx] += w
			} else {
				// Unknown residue: spread over all letters so it is
				// near-neutral in scoring instead of silently dropped.
				frac := w / float64(alpha.Len())
				for k := range col.Counts {
					col.Counts[k] += frac
				}
			}
		}
	}
	return p, nil
}

// newColumns returns width zeroed columns whose Counts share one
// backing slab — one allocation per profile, not one per column — each
// capped at its own letters so an append cannot reach its neighbour.
func newColumns(alpha *bio.Alphabet, width int) []Column {
	L := alpha.Len()
	slab := make([]float64, width*L)
	cols := make([]Column, width)
	for c := range cols {
		cols[c].Counts = slab[c*L : (c+1)*L : (c+1)*L]
	}
	return cols
}

// FromSequence builds a single-row profile from an ungapped sequence.
func FromSequence(alpha *bio.Alphabet, seq []byte) *Profile {
	p, err := FromRows(alpha, [][]byte{seq}, nil)
	if err != nil {
		panic("profile: FromSequence: " + err.Error()) // single row cannot mismatch
	}
	return p
}

// Consensus extracts the profile's consensus ("ancestor") sequence: for
// every column whose occupancy is at least minOcc, the letter with the
// largest weighted count. This is the paper's local-ancestor extraction.
func (p *Profile) Consensus(minOcc float64) []byte {
	out := make([]byte, 0, len(p.Cols))
	for i := range p.Cols {
		col := &p.Cols[i]
		if col.Occupancy() < minOcc {
			continue
		}
		best, bestV := -1, 0.0
		for k, v := range col.Counts {
			if v > bestV {
				best, bestV = k, v
			}
		}
		if best >= 0 {
			out = append(out, p.Alpha.Letter(best))
		}
	}
	return out
}

// Op is one step of a profile alignment path.
type Op byte

const (
	OpMatch Op = iota // consume a column from both profiles
	OpA               // consume a column from A only (gap inserted in B)
	OpB               // consume a column from B only (gap inserted in A)
)

// Path is a profile alignment: the column-merge recipe for two profiles.
type Path []Op

// Validate checks that the path consumes exactly lenA and lenB columns.
func (path Path) Validate(lenA, lenB int) error {
	a, b := 0, 0
	for _, op := range path {
		switch op {
		case OpMatch:
			a++
			b++
		case OpA:
			a++
		case OpB:
			b++
		default:
			return fmt.Errorf("profile: invalid op %d", op)
		}
	}
	if a != lenA || b != lenB {
		return fmt.Errorf("profile: path consumes (%d,%d), want (%d,%d)", a, b, lenA, lenB)
	}
	return nil
}

// MergeRows applies a path to the two row sets that produced the aligned
// profiles, yielding the merged alignment rows (A's rows first).
func MergeRows(rowsA, rowsB [][]byte, path Path) [][]byte {
	width := len(path)
	out := make([][]byte, 0, len(rowsA)+len(rowsB))
	build := func(rows [][]byte, takeA bool) {
		for _, row := range rows {
			merged := make([]byte, 0, width)
			i := 0
			for _, op := range path {
				consume := op == OpMatch || (takeA && op == OpA) || (!takeA && op == OpB)
				if consume {
					merged = append(merged, row[i])
					i++
				} else {
					merged = append(merged, bio.Gap)
				}
			}
			out = append(out, merged)
		}
	}
	build(rowsA, true)
	build(rowsB, false)
	return out
}

// Aligner aligns profiles with PSP (profile sum-of-pairs) column scores
// and affine gap penalties scaled by the opposing column's occupancy, so
// gapping against a sparsely occupied column is cheap.
type Aligner struct {
	Sub *submat.Matrix
	Gap submat.Gap
	// Kernel selects the DP kernel family (see dpkern): the zero value
	// (dpkern.Auto) routes unit-leaf profile pairs — single sequences,
	// the dominant merge shape at the bottom of every guide tree —
	// through the striped int16 kernel, escaping to the scalar float64
	// path whenever the exactness contract does not hold. Paths and
	// scores are byte-identical for every setting.
	Kernel dpkern.Kernel
}

// NewAligner returns a profile aligner over the matrix's alphabet.
func NewAligner(sub *submat.Matrix, gap submat.Gap) *Aligner {
	return &Aligner{Sub: sub, Gap: gap}
}

// traceback states, aliased from the shared dp packing
const (
	sM = dp.M
	sX = dp.X
	sY = dp.Y
)

// pspScratch holds the flattened PSP scoring tables of one profile pair,
// drawn from a workspace arena so repeated alignments allocate nothing.
// A's per-column residue frequencies are stored sparsely — only the
// letters actually present in a column (faIdx/faVal, ascending letter
// order, with faOff prefix offsets), since real profile columns hold a
// handful of the 20 letters — while sbT keeps the dense expected score
// of every letter against each B column, transposed (letter-major) so
// one letter's scores against all of B are contiguous and a row of
// column scores is streamed with unit stride. occA/occB are the column
// occupancies; openB/extB the gap-in-A penalties of opening and
// extending against each B column, hoisted out of the cell loop.
type pspScratch struct {
	faOff       []int32 // n+1 prefix offsets into faIdx/faVal
	faIdx       []int32 // nonzero letter indices of A's columns
	faVal       []float64
	sbT         []float64 // sbT[x·m+j] = Σ_y fb[j][y]·S(x,y)
	occA, occB  []float64
	openB, extB []float64
	m           int
}

// pspSetup fills the scratch tables, making each DP cell O(residues
// present in its A column), at most O(alphaLen).
func (al *Aligner) pspSetup(w *dp.Workspace, a, b *Profile) pspScratch {
	n, m := a.Len(), b.Len()
	L := al.Sub.Alphabet().Len()
	sc := pspScratch{
		faOff: w.Ints(n + 1),
		faIdx: w.Ints(n * L),
		faVal: w.Floats(n * L),
		sbT:   w.Floats(m * L),
		occA:  w.Floats(n),
		occB:  w.Floats(m),
		openB: w.Floats(m),
		extB:  w.Floats(m),
		m:     m,
	}
	var nz int32
	for i := range a.Cols {
		col := &a.Cols[i]
		res := col.Residues()
		sc.occA[i] = col.Occupancy()
		sc.faOff[i] = nz
		if res == 0 {
			continue
		}
		for y, c := range col.Counts {
			if c != 0 {
				sc.faIdx[nz] = int32(y)
				sc.faVal[nz] = c / res
				nz++
			}
		}
	}
	sc.faOff[n] = nz
	open, ext := al.Gap.Open, al.Gap.Extend
	for j := range b.Cols {
		col := &b.Cols[j]
		res := col.Residues()
		occ := col.Occupancy()
		sc.occB[j] = occ
		sc.openB[j], sc.extB[j] = (open+ext)*occ, ext*occ
		if res == 0 {
			continue
		}
		for y, c := range col.Counts {
			if c == 0 {
				continue
			}
			fy := c / res
			for x := 0; x < L; x++ {
				sc.sbT[x*m+j] += fy * al.Sub.ScoreIdx(x, y)
			}
		}
	}
	return sc
}

// colScores streams the occupancy-scaled PSP scores of A column i
// against B columns [lo, lo+len(dst)) into dst: one unit-stride pass
// over sbT per letter present in the A column, letters in ascending
// order and each cell's sum started from zero — the order a per-cell
// sparse dot product adds them in, so every score is bit-identical to
// that formulation (and stays so where the compiler fuses the
// multiply-add: both are s += v·t).
func (sc *pspScratch) colScores(dst []float64, i, lo int) {
	clear(dst)
	for k := sc.faOff[i]; k < sc.faOff[i+1]; k++ {
		v := sc.faVal[k]
		col := sc.sbT[int(sc.faIdx[k])*sc.m+lo:]
		col = col[:len(dst)]
		for t, c := range col {
			dst[t] += v * c
		}
	}
	// Scale by occupancies so sparse columns influence less.
	occA := sc.occA[i]
	occB := sc.occB[lo:]
	occB = occB[:len(dst)]
	for t, ob := range occB {
		dst[t] = dst[t] * occA * ob
	}
}

// tracePath follows the packed traceback plane from (n, m) back to the
// origin and returns the alignment path in forward order.
func tracePath(w *dp.Workspace, n, m int, state byte) Path {
	rev := make(Path, 0, n+m)
	i, j := n, m
	for i > 0 || j > 0 {
		cell := w.TB[w.At(i, j)]
		switch state {
		case sM:
			rev = append(rev, OpMatch)
			i--
			j--
			state = dp.TBM(cell)
		case sX:
			rev = append(rev, OpA)
			i--
			state = dp.TBX(cell)
		default:
			rev = append(rev, OpB)
			j--
			state = dp.TBY(cell)
		}
	}
	for lo, hi := 0, len(rev)-1; lo < hi; lo, hi = lo+1, hi-1 {
		rev[lo], rev[hi] = rev[hi], rev[lo]
	}
	return rev
}

// Align computes the optimal path aligning profiles a and b and its
// score. Either profile may be empty.
func (al *Aligner) Align(a, b *Profile) (Path, float64) {
	n, m := a.Len(), b.Len()
	if n == 0 || m == 0 {
		return al.alignTrivial(n, m)
	}
	if path, score, ok := al.alignStriped(a, b, false, 0, 0); ok {
		return path, score
	}
	w := dp.GetRaw()
	defer dp.Put(w)
	return al.alignRows(w, a, b, -n, m) // every diagonal is in band
}

// alignRows is the scalar float64 PSP kernel behind Align and
// AlignBanded: the affine-gap DP over the cells with j−i ∈ [diagLo,
// diagHi] (which must contain diagonals 0 and m−n). Scores live in
// rolling rows — two of M (columns paired), two of X (consume an A
// column, gap in B) and one of Y (the reverse) updated in place — so
// score memory is O(m); the only per-cell memory is the packed
// traceback plane. Cells just outside the band are −∞ sentinels, which
// is what a full plane pre-filled with −∞ would hold there. The
// workspace arrives unreserved.
func (al *Aligner) alignRows(w *dp.Workspace, a, b *Profile, diagLo, diagHi int) (Path, float64) {
	n, m := a.Len(), b.Len()
	w.ReserveTB(n+1, m+1)
	sc := al.pspSetup(w, a, b)
	open, ext := al.Gap.Open, al.Gap.Extend
	negInf := math.Inf(-1)
	tb := w.TB
	cols := m + 1

	// Index j of a row is DP column j; slot m+1 only ever holds the
	// right-hand sentinel, so writing it needs no bounds case.
	rows := w.Floats(5 * (m + 2))
	prevM, curM := rows[:m+2], rows[m+2:2*(m+2)]
	prevX, curX := rows[2*(m+2):3*(m+2)], rows[3*(m+2):4*(m+2)]
	rowY := rows[4*(m+2):]
	srow := w.Floats(m)

	// Row 0: leading gaps in A as far as the band reaches.
	prevM[0] = 0
	prevX[0], rowY[0] = negInf, negInf
	jHi := min(diagHi, m)
	for j := 1; j <= jHi; j++ {
		prevM[j], prevX[j] = negInf, negInf
		rowY[j] = X0(j, rowY[j-1], open, ext, sc.occB[j-1])
		tb[j] = dp.PackTB(sM, sM, sY)
	}
	prevM[jHi+1], prevX[jHi+1] = negInf, negInf

	for i := 1; i <= n; i++ {
		jLo := max(i+diagLo, 1)
		jHi = min(i+diagHi, m)
		row := i * cols
		// gap in B against A column i-1: penalty scaled by how
		// occupied the gapped-against column is
		wA := sc.occA[i-1]
		openA, extA := (open+ext)*wA, ext*wA

		// The cell left of the band's first: column 0 carries the
		// leading gaps in B while the band reaches it, else a sentinel.
		curM[jLo-1], curX[jLo-1] = negInf, negInf
		if i+diagLo <= 0 {
			curX[0] = X0(i, prevX[0], open, ext, wA)
			tb[row] = dp.PackTB(sM, sX, sM)
		}
		mLeft, yLeft := negInf, negInf

		wd := jHi - jLo + 1
		s := srow[:wd]
		sc.colScores(s, i-1, jLo-1)
		// Windows of equal length over the band's cells: d* the
		// diagonal predecessors, u* the ones above, c* the cells.
		dM, dX, dY := prevM[jLo-1:][:wd], prevX[jLo-1:][:wd], rowY[jLo-1:][:wd]
		uM, uX := prevM[jLo:][:wd], prevX[jLo:][:wd]
		cM, cX := curM[jLo:][:wd], curX[jLo:][:wd]
		openB, extB := sc.openB[jLo-1:][:wd], sc.extB[jLo-1:][:wd]
		tbRow := tb[row+jLo:][:wd]
		for t := range s {
			bm, bs := sM, dM[t]
			if dX[t] > bs {
				bm, bs = sX, dX[t]
			}
			// dY[t] still holds the previous row's Y of the diagonal
			// cell: read it, then store this row's Y of that cell.
			if dY[t] > bs {
				bm, bs = sY, dY[t]
			}
			dY[t] = yLeft
			mv := negInf
			if bs > negInf {
				mv = bs + s[t]
			} else {
				bm = sM
			}
			cM[t] = mv

			bx := sM
			openX := uM[t] - openA
			if extX := uX[t] - extA; openX >= extX {
				cX[t] = openX
			} else {
				cX[t] = extX
				bx = sX
			}
			by := sM
			openY := mLeft - openB[t]
			if extY := yLeft - extB[t]; openY >= extY {
				yLeft = openY
			} else {
				yLeft = extY
				by = sY
			}
			mLeft = mv
			tbRow[t] = dp.PackTB(bm, bx, by)
		}
		rowY[jHi] = yLeft
		curM[jHi+1], curX[jHi+1] = negInf, negInf
		prevM, curM = curM, prevM
		prevX, curX = curX, prevX
	}

	state, score := sM, prevM[m]
	if prevX[m] > score {
		state, score = sX, prevX[m]
	}
	if rowY[m] > score {
		state, score = sY, rowY[m]
	}
	return tracePath(w, n, m, state), score
}

// X0 accumulates the boundary gap cost for leading gaps: first column
// pays open+ext, later ones pay ext, all scaled by occupancy.
func X0(i int, prev, open, ext, occ float64) float64 {
	if i == 1 {
		return -(open + ext) * occ
	}
	return prev - ext*occ
}

// Merge applies a path to two profiles, producing the profile of the
// merged alignment without rebuilding it from rows.
func Merge(a, b *Profile, path Path) (*Profile, error) {
	if err := path.Validate(a.Len(), b.Len()); err != nil {
		return nil, err
	}
	out := &Profile{Alpha: a.Alpha, Weight: a.Weight + b.Weight, Cols: newColumns(a.Alpha, len(path))}
	i, j := 0, 0
	for c, op := range path {
		col := &out.Cols[c]
		switch op {
		case OpMatch:
			x, y := &a.Cols[i], &b.Cols[j]
			for k := range col.Counts {
				col.Counts[k] = x.Counts[k] + y.Counts[k]
			}
			col.Gaps = x.Gaps + y.Gaps
			i++
			j++
		case OpA: // every row of b holds a gap here
			copy(col.Counts, a.Cols[i].Counts)
			col.Gaps = a.Cols[i].Gaps + b.Weight
			i++
		case OpB:
			copy(col.Counts, b.Cols[j].Counts)
			col.Gaps = a.Weight + b.Cols[j].Gaps
			j++
		}
	}
	return out, nil
}
