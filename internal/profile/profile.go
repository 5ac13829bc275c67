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
	"repro/internal/submat"
)

// Column holds the weighted residue counts of one alignment column.
type Column struct {
	Counts []float64 // per alphabet letter, weighted occurrence counts
	Gaps   float64   // weighted gap count
}

// Occupancy returns the fraction of (weighted) rows holding a residue in
// this column.
func (c *Column) Occupancy() float64 { return occupancy(c.Residues(), c.Gaps) }

// occupancy is Occupancy for a caller that already holds the column's
// residue total.
func occupancy(res, gaps float64) float64 {
	tot := res + gaps
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
// extending against each B column, hoisted out of the cell loop; zero
// is the +0 row every sum starts from.
type pspScratch struct {
	faOff       []int32 // n+1 prefix offsets into faIdx/faVal
	faIdx       []int32 // nonzero letter indices of A's columns
	faVal       []float64
	sbT         []float64 // sbT[x·m+j] = Σ_y fb[j][y]·S(x,y)
	occA, occB  []float64
	openB, extB []float64
	zero        []float64 // max(m, L) entries, all +0
	m           int
}

// pspSetup fills the scratch tables, making each DP cell O(residues
// present in its A column), at most O(alphaLen).
//
// sbT is filled a B column at a time through an alphabet-long
// accumulator: sweepLetters adds fy·S(·,y) for the letters y present,
// two unit-stride columns of the matrix (transposed once per call) per
// sweep, and the finished column goes to its L letter-major slots once.
// Every entry is still the sum over the column's letters in ascending
// order from +0 — what adding into sbT[x·m+j] letter by letter gives,
// without L read-modify-writes m entries apart per nonzero count.
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
		zero:  w.Floats(max(m, L)),
		m:     m,
	}
	var nz int32
	for i := range a.Cols {
		col := &a.Cols[i]
		res := col.Residues()
		sc.occA[i] = occupancy(res, col.Gaps)
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

	subT := w.Floats(L * L) // subT[y·L+x] = S(x,y)
	for x := 0; x < L; x++ {
		for y := 0; y < L; y++ {
			subT[y*L+x] = al.Sub.ScoreIdx(x, y)
		}
	}
	acc := w.Floats(L)
	bIdx, bVal := w.Ints(L), w.Floats(L)
	open, ext := al.Gap.Open, al.Gap.Extend
	for j := range b.Cols {
		col := &b.Cols[j]
		res := col.Residues()
		occ := occupancy(res, col.Gaps)
		sc.occB[j] = occ
		sc.openB[j], sc.extB[j] = (open+ext)*occ, ext*occ
		if res == 0 {
			continue
		}
		nb := 0
		for y, c := range col.Counts {
			if c != 0 {
				bIdx[nb], bVal[nb] = int32(y), c/res
				nb++
			}
		}
		sweepLetters(acc, sc.zero, bIdx[:nb], bVal[:nb], subT, L, 0, nil)
		for x, v := range acc {
			sc.sbT[x*m+j] = v
		}
	}
	return sc
}

// colScores streams the occupancy-scaled PSP scores of A column i
// against B columns [lo, lo+len(dst)) into dst through sweepLetters:
// unit-stride sweeps over sbT, two letters of the A column per sweep,
// in ascending order from +0, the last sweep scaling by the occupancies
// so sparse columns influence less — the order a per-cell sparse dot
// product adds and scales in, so every score is bit-identical to that
// formulation. An A column without residues scores the empty sum, +0,
// scaled.
func (sc *pspScratch) colScores(dst []float64, i, lo int) {
	k, end := sc.faOff[i], sc.faOff[i+1]
	occA, occB := sc.occA[i], sc.occB[lo:][:len(dst)]
	if k == end {
		for t, ob := range occB {
			dst[t] = 0 * occA * ob
		}
		return
	}
	sweepLetters(dst, sc.zero, sc.faIdx[k:end], sc.faVal[k:end], sc.sbT[lo:], sc.m, occA, occB)
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
func (al *Aligner) Align(a, b *Profile) (path Path, score float64) {
	n, m := a.Len(), b.Len()
	if n == 0 || m == 0 {
		return al.alignTrivial(n, m)
	}
	dp.With(func(w *dp.Workspace) {
		path, score = al.alignRows(w, a, b, -n, m) // every diagonal is in band
	})
	return path, score
}

// alignRows is the one PSP kernel, float64, behind Align and
// AlignBanded: the affine-gap DP over the cells with j−i ∈ [diagLo,
// diagHi] (which must contain diagonals 0 and m−n). It keeps rolling
// rows — two of M (columns paired), two of X (consume an A column, gap
// in B) and one of Y (the reverse) updated in place — so score memory
// is O(m); the only per-cell memory is the packed traceback plane.
// Cells just outside the band are sentinels, which is what a full plane
// pre-filled with them would hold. The workspace arrives unreserved.
//
// The rows hold costs, the negated scores, and the DP minimises: the
// compiler lowers a float64 min to three instructions and a max to that
// min between three negations. Negation is exact, so every stored value
// is bit for bit the negation of what a maximising DP holds in that
// cell (the sign of a zero aside, which no comparison sees), every
// comparison mirrors that DP's, and path and score are its own.
//
// Each row's band window is filled in two passes: rowMX computes M and
// X, which read only the previous row, so no cell waits for its left
// neighbour; rowYChain then runs the one serial dependency, Y on the M
// and Y to its left, over the row just written. rowMX's Go loop,
// rowMXFrom, is a function of its own because in a small leaf the loop
// index and slice bases stay in registers; written here, among this
// function's live slices, the same loop spills them every cell.
func (al *Aligner) alignRows(w *dp.Workspace, a, b *Profile, diagLo, diagHi int) (Path, float64) {
	n, m := a.Len(), b.Len()
	w.ReserveTB(n+1, m+1)
	sc := al.pspSetup(w, a, b)
	open, ext := al.Gap.Open, al.Gap.Extend
	inf := math.Inf(1)
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
	prevX[0], rowY[0] = inf, inf
	jHi := min(diagHi, m)
	for j := 1; j <= jHi; j++ {
		prevM[j], prevX[j] = inf, inf
		rowY[j] = -leadGap(j, -rowY[j-1], open, ext, sc.occB[j-1])
		tb[j] = dp.PackTB(sM, sM, sY)
	}
	prevM[jHi+1], prevX[jHi+1] = inf, inf

	for i := 1; i <= n; i++ {
		jLo := max(i+diagLo, 1)
		jHi = min(i+diagHi, m)
		row := i * cols
		// gap in B against A column i-1: penalty scaled by how
		// occupied the gapped-against column is
		wA := sc.occA[i-1]

		// The cell left of the band's first: column 0 carries the
		// leading gaps in B while the band reaches it, else a sentinel.
		curM[jLo-1], curX[jLo-1] = inf, inf
		if i+diagLo <= 0 {
			curX[0] = -leadGap(i, -prevX[0], open, ext, wA)
			tb[row] = dp.PackTB(sM, sX, sM)
		}

		wd := jHi - jLo + 1
		s := srow[:wd]
		sc.colScores(s, i-1, jLo-1)
		tbRow := tb[row+jLo:][:wd]
		// rowY[jLo−1:jHi] still holds the previous row: rowMX reads it
		// as the diagonal Y, then rowYChain overwrites it with this row's.
		rowMX(curM[jLo:][:wd], curX[jLo:][:wd], tbRow,
			prevM[jLo-1:][:wd+1], prevX[jLo-1:][:wd+1], rowY[jLo-1:][:wd], s,
			(open+ext)*wA, ext*wA)
		rowY[jLo-1] = inf
		rowYChain(rowY[jLo-1:][:wd+1], tbRow, curM[jLo-1:][:wd],
			sc.openB[jLo-1:][:wd], sc.extB[jLo-1:][:wd])
		curM[jHi+1], curX[jHi+1] = inf, inf
		prevM, curM = curM, prevM
		prevX, curX = curX, prevX
	}

	state, cost := sM, prevM[m]
	if prevX[m] < cost {
		state, cost = sX, prevX[m]
	}
	if rowY[m] < cost {
		state, cost = sY, rowY[m]
	}
	return tracePath(w, n, m, state), 0 - cost // not −cost: a zero cost is the score +0
}

// rowMX is pass 1 over one row's band window of len(s) cells: cell t's
// M from its diagonal predecessors pM[t], pX[t], pY[t] and the column
// score s[t], its X from the cells above, pM[t+1] and pX[t+1], and the M
// and X traceback fields of tb[t]. No cell depends on another, so on
// amd64 rowMXPairs runs the whole pairs two cells per SSE2 instruction
// and rowMXFrom the odd cell left; elsewhere rowMXFrom runs them all.
func rowMX(cM, cX []float64, tb []byte, pM, pX, pY, s []float64, openA, extA float64) {
	cM, cX, tb, pY = cM[:len(s)], cX[:len(s)], tb[:len(s)], pY[:len(s)]
	pM, pX = pM[:len(s)+1], pX[:len(s)+1]
	from := rowMXPairs(cM, cX, tb, pM, pX, pY, s, openA, extA)
	rowMXFrom(from, cM, cX, tb, pM, pX, pY, s, openA, extA)
}

// rowMXFrom is rowMX's loop over cells [from, len(s)). Values come from
// min and the traceback bits from the comparisons a branching argmin
// would make, in its order — X beats M, then Y the better of the two,
// extending a gap beats opening one, each only when strictly better —
// as 0/1 bytes, so no branch depends on the data. A cell's "above" is
// the next cell's diagonal, so each pM/pX value is loaded once. A cell
// whose diagonal predecessors are all unreachable (+∞) needs no case of
// its own: no comparison fires, so its M-predecessor reads sM, and +∞
// less a finite score is +∞. The vector pass may store a zero of the
// other sign where min's operands tie; no comparison can see that.
func rowMXFrom(from int, cM, cX []float64, tb []byte, pM, pX, pY, s []float64, openA, extA float64) {
	cM, cX, tb, pY = cM[:len(s)], cX[:len(s)], tb[:len(s)], pY[:len(s)]
	pM, pX = pM[:len(s)+1], pX[:len(s)+1]
	m0, x0 := pM[from], pX[from]
	for t := from; t < len(s); t++ {
		var gx, gy, bx byte
		if x0 < m0 {
			gx = 1
		}
		bs, y0 := min(m0, x0), pY[t]
		if y0 < bs {
			gy = 1
		}
		cM[t] = min(bs, y0) - s[t]

		m0, x0 = pM[t+1], pX[t+1]
		openX, extX := m0+openA, x0+extA
		if extX < openX {
			bx = 1
		}
		cX[t] = min(openX, extX)
		// gx&^gy | gy<<1 is sM, sX or sY; bx<<2 is sX in X's field.
		tb[t] = gx&^gy | gy<<1 | bx<<2
	}
}

// rowYChain is pass 2: y[0] is Y of the cell left of the window (+∞)
// and y[t+1] becomes Y of cell t, from M and Y of the cell to its left
// (mLeft[t], y[t]) plus the penalty of opening or extending a gap
// against B column t; an extension sets sY in the Y field of the byte
// rowMX wrote. This pass keeps its branch: every Y waits for the one
// before it, and a predicted branch takes the select off that chain,
// where min puts its whole latency on it (measured: twice the time).
func rowYChain(y []float64, tb []byte, mLeft, openB, extB []float64) {
	mLeft, openB, extB, y = mLeft[:len(tb)], openB[:len(tb)], extB[:len(tb)], y[:len(tb)+1]
	yl := y[0]
	for t := range tb {
		openY, extY := mLeft[t]+openB[t], yl+extB[t]
		if extY < openY {
			yl = extY
			tb[t] |= sY << 4
		} else {
			yl = openY
		}
		y[t+1] = yl
	}
}

// leadGap accumulates the boundary gap cost for leading gaps: first
// column pays open+ext, later ones pay ext, all scaled by occupancy.
func leadGap(i int, prev, open, ext, occ float64) float64 {
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
