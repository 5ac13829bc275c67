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
// diagHi] (which must contain diagonals 0 and m−n). Scores live in
// three rolling rows — M (columns paired), X (consume an A column, gap
// in B) and Y (the reverse) — so score memory is O(m); the only
// per-cell memory is the packed traceback plane. Cells just outside the
// band are sentinels, which is what a full plane pre-filled with them
// would hold. The workspace arrives unreserved.
//
// The rows hold costs, the negated scores, and the DP minimises: the
// compiler lowers a float64 min to three instructions and a max to that
// min between three negations. Negation is exact, so every stored value
// is bit for bit the negation of what a maximising DP holds in that
// cell (the sign of a zero aside, which no comparison sees), every
// comparison mirrors that DP's, and path and score are its own.
//
// Rows are filled two at a time, i and i+1, in one sweep (pairSweep)
// whose step j computes cell (i, j) in lane 0 and cell (i+1, j−1) in
// lane 1. Row i+1's M and X need row i only up to column j−1, and its Y
// needs only its own left neighbour, so the two lanes advance together:
// Y's serial chain is one add and one min per two cells, and no branch
// depends on the data. Row i is never stored. The rolling rows hold
// row i−1 ahead of the sweep and row i+1 one column behind it. The
// cells where one lane runs alone are computed here by cellStep: row
// i's cells before row i+1's window starts, and row i+1's cells after
// row i's window ends. An odd last row pairs with a discarded copy of
// itself, whose traceback goes to the extra row n+1.
func (al *Aligner) alignRows(w *dp.Workspace, a, b *Profile, diagLo, diagHi int) (Path, float64) {
	n, m := a.Len(), b.Len()
	w.ReserveTB(n+2, m+1)
	sc := al.pspSetup(w, a, b)
	open, ext := al.Gap.Open, al.Gap.Extend
	inf := math.Inf(1)
	infs := cell{inf, inf, inf}
	tb := w.TB
	cols := m + 1
	window := func(i int) (int, int) { return max(i+diagLo, 1), min(i+diagHi, m) }

	// Index j of a row is DP column j; slot m+1 only ever holds the
	// right-hand sentinel, so writing it needs no bounds case. The
	// column scores of rows i and i+1 are indexed by column − 1.
	rows := w.Floats(3 * (m + 2))
	rM, rX, rY := rows[:m+2], rows[m+2:2*(m+2)], rows[2*(m+2):]
	srows := w.Floats(2 * m)
	s0, s1 := srows[:m], srows[m:]

	// Row 0: leading gaps in A as far as the band reaches.
	rM[0], rX[0], rY[0] = 0, inf, inf
	hi := min(diagHi, m)
	for j := 1; j <= hi; j++ {
		rM[j], rX[j] = inf, inf
		rY[j] = -leadGap(j, -rY[j-1], open, ext, sc.occB[j-1])
		tb[j] = dp.PackTB(sM, sM, sY)
	}
	rM[hi+1], rX[hi+1], rY[hi+1] = inf, inf, inf

	var st sweepState
	var end cell
	for i := 1; i <= n; i += 2 {
		i1 := min(i+1, n) // the row lane 1 scores: an odd last row's copy
		lo0, hi0 := window(i)
		lo1, hi1 := window(i1)
		row0, row1 := i*cols, (i+1)*cols
		// gap in B against A column i−1: penalty scaled by how
		// occupied the gapped-against column is
		wA0, wA1 := sc.occA[i-1], sc.occA[i1-1]
		st.openA = [2]float64{(open + ext) * wA0, (open + ext) * wA1}
		st.extA = [2]float64{ext * wA0, ext * wA1}
		sc.colScores(s0[lo0-1:hi0], i-1, lo0-1)
		sc.colScores(s1[lo1-1:hi1], i1-1, lo1-1)

		// The cell left of each row's window: column 0 carries the
		// leading gaps in B while the band reaches it, else a sentinel.
		left0, left1 := infs, infs
		if i+diagLo <= 0 {
			left0.x = -leadGap(i, -rX[0], open, ext, wA0)
			tb[row0] = dp.PackTB(sM, sX, sM)
		}
		if i1+diagLo <= 0 {
			left1.x = -leadGap(i+1, -left0.x, open, ext, wA1)
			tb[row1] = dp.PackTB(sM, sX, sM)
		}

		// Row i up to the column where row i+1's window starts; ri
		// ends as row i at columns lo1−1 and lo1.
		ri := [2]cell{left0, infs}
		l := left0
		for j := lo0; j <= min(lo1, hi0); j++ {
			c, t := cellStep(cell{rM[j-1], rX[j-1], rY[j-1]}, cell{rM[j], rX[j], rY[j]}, l,
				s0[j-1], st.openA[0], st.extA[0], sc.openB[j-1], sc.extB[j-1])
			tb[row0+j] = t
			ri[j-lo1+1], l = c, c
		}
		rM[lo1-1], rX[lo1-1], rY[lo1-1] = left1.m, left1.x, left1.y

		// Both lanes: steps j = lo1+1 … hi0. After it ri is row i at
		// columns hi0−1 and hi0, and left1 row i+1 at hi0−1.
		if wd := hi0 - lo1; wd > 0 {
			st.set(cell{rM[lo1], rX[lo1], rY[lo1]}, ri[0], ri[1], left1)
			pairSweep(&st, rM[lo1:hi0+1], rX[lo1:hi0+1], rY[lo1:hi0+1],
				s0[lo1:hi0], s1[lo1-1:hi0-1], sc.openB[lo1-1:hi0], sc.extB[lo1-1:hi0],
				tb[row0+lo1+1:][:wd], tb[row1+lo1:][:wd])
			_, l0 := st.lane(0)
			d1, l1 := st.lane(1)
			ri[0], ri[1], left1 = d1, l0, l1
		}

		// Row i+1 from column jp = max(hi0, lo1) on; ri[1] is row i at jp,
		// which for the last row is its cell (n, m).
		end = ri[1]
		d, u, l := ri[0], ri[1], left1
		for j := max(hi0, lo1); j <= hi1; j++ {
			c, t := cellStep(d, u, l, s1[j-1], st.openA[1], st.extA[1], sc.openB[j-1], sc.extB[j-1])
			tb[row1+j] = t
			rM[j], rX[j], rY[j] = c.m, c.x, c.y
			d, u, l = u, infs, c
		}
		rM[hi1+1], rX[hi1+1], rY[hi1+1] = inf, inf, inf
	}
	if n%2 == 0 {
		end = cell{rM[m], rX[m], rY[m]}
	}

	state, cost := sM, end.m
	if end.x < cost {
		state, cost = sX, end.x
	}
	if end.y < cost {
		state, cost = sY, end.y
	}
	return tracePath(w, n, m, state), 0 - cost // not −cost: a zero cost is the score +0
}

// cell is one DP cell's M, X and Y costs.
type cell struct{ m, x, y float64 }

// cellStep computes one cell from its diagonal predecessor d, the cell
// above it u and the cell to its left l, its column score s, and the
// costs of opening or extending a gap against its A column (openA,
// extA) and its B column (openB, extB). Values come from min and the
// traceback bits from the comparisons a branching argmin would make, in
// its order — X beats M, then Y the better of the two, extending a gap
// beats opening one, each only when strictly better — as 0/1 bytes. A
// cell whose predecessors are all unreachable (+∞) needs no case of its
// own: no comparison fires, so it reads sM, and +∞ less a finite score
// is +∞. The vector step may store a zero of the other sign where min's
// operands tie; no comparison can see that.
func cellStep(d, u, l cell, s, openA, extA, openB, extB float64) (cell, byte) {
	var gx, gy, bx, by byte
	if d.x < d.m {
		gx = 1
	}
	bs := min(d.m, d.x)
	if d.y < bs {
		gy = 1
	}
	openX, extX := u.m+openA, u.x+extA
	if extX < openX {
		bx = 1
	}
	openY, extY := l.m+openB, l.y+extB
	c := cell{m: min(bs, d.y) - s, x: min(openX, extX), y: openY}
	if extY < openY {
		by, c.y = 1, extY
	}
	return c, tbByte(gx, gy, bx, by)
}

// tbByte packs the four comparison bits of a cell into its traceback
// byte: gx&^gy | gy<<1 is sM, sX or sY in M's field, bx<<2 is sX in X's
// and by<<5 is sY in Y's.
func tbByte(gx, gy, bx, by byte) byte { return gx&^gy | gy<<1 | bx<<2 | by<<5 }

// sweepState carries pairSweep's registers across calls, lane k of
// each pair in index k: the diagonal predecessor (dM, dX, dY) and the
// left neighbour (lM, lX, lY) of the next step's cells, and the gap
// costs against each lane's A column.
type sweepState struct {
	dM, dX, dY  [2]float64
	lM, lX, lY  [2]float64
	openA, extA [2]float64
}

// set loads the two lanes' diagonal predecessors and left neighbours.
func (st *sweepState) set(d0, d1, l0, l1 cell) {
	st.dM, st.dX, st.dY = [2]float64{d0.m, d1.m}, [2]float64{d0.x, d1.x}, [2]float64{d0.y, d1.y}
	st.lM, st.lX, st.lY = [2]float64{l0.m, l1.m}, [2]float64{l0.x, l1.x}, [2]float64{l0.y, l1.y}
}

// lane returns lane k's diagonal predecessor and left neighbour.
func (st *sweepState) lane(k int) (d, l cell) {
	return cell{st.dM[k], st.dX[k], st.dY[k]}, cell{st.lM[k], st.lX[k], st.lY[k]}
}

// pairSweepGo is pairSweep's Go form, the loop body on other
// architectures and the assembly's reference. Step t computes lane 0's
// cell from the row above at m/x/y[t+1], lane 1's from lane 0's last
// result, and stores lane 1's cell at m/x/y[t], one column behind the
// loads; lane 0's B-column gap costs are openB/extB[t+1] and lane 1's
// openB/extB[t]. The slices must have len(tb0) entries, len(tb0)+1 for
// m, x, y, openB and extB.
func pairSweepGo(st *sweepState, m, x, y, s0, s1, openB, extB []float64, tb0, tb1 []byte) {
	w := len(tb0)
	m, x, y, s0, s1, tb1 = m[:w+1], x[:w+1], y[:w+1], s0[:w], s1[:w], tb1[:w]
	openB, extB = openB[:w+1], extB[:w+1]
	d0, l0 := st.lane(0)
	d1, l1 := st.lane(1)
	for t := range tb0 {
		u0 := cell{m[t+1], x[t+1], y[t+1]}
		c0, b0 := cellStep(d0, u0, l0, s0[t], st.openA[0], st.extA[0], openB[t+1], extB[t+1])
		c1, b1 := cellStep(d1, l0, l1, s1[t], st.openA[1], st.extA[1], openB[t], extB[t])
		m[t], x[t], y[t] = c1.m, c1.x, c1.y
		tb0[t], tb1[t] = b0, b1
		d0, d1, l0, l1 = u0, l0, c0, c1
	}
	st.set(d0, d1, l0, l1)
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
