// Package profile implements alignment profiles — position-specific
// weighted residue frequency summaries of a multiple alignment — and the
// profile–profile dynamic-programming alignment (PSP scoring, affine
// gaps) that progressive MSA, ancestor construction and Sample-Align-D's
// global-ancestor fine-tuning are all built on.
package profile

import (
	"fmt"
	"math"
	"math/bits"
	"weak"

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

	slab []float64              // pooled counts storage (FromRows, Merge); nil if the caller built Cols
	ref  *weak.Pointer[Profile] // what Release pools, made on the first Release
}

// Len returns the number of columns.
func (p *Profile) Len() int { return len(p.Cols) }

// Release hands the column storage of a profile made by FromRows or
// Merge back for later profiles to reuse; the profile must not be used
// afterwards. A guide-tree merge releases its children's profiles once
// it has merged them. Release does nothing to a profile whose columns
// the caller built.
func (p *Profile) Release() {
	if p.slab == nil {
		return
	}
	p.Cols = p.Cols[:0] // until reused, a stale reference sees no columns
	colPools.Put(sizeClass(len(p.slab)), p, &p.ref)
}

// colPools recycles the profiles of FromRows and Merge with their
// column storage, weakly, one pool per size class: class k holds
// released profiles whose counts slab has room for 1<<k floats. A
// FromRows or Merge that asks before the next collection takes one
// again; otherwise that collection frees it.
var colPools dp.WeakPool[Profile]

// sizeClass returns the class of a slab of n ≥ 1 floats: the smallest
// k with 1<<k ≥ n.
func sizeClass(n int) int { return bits.Len(uint(n - 1)) }

// takeProfile returns a profile of width columns over alpha, Weight 0,
// whose Counts share one slab, each capped at its own letters so an
// append cannot reach its neighbour. It comes from the size class's
// pool when it can — then its counts and gaps hold whatever the last
// user left, and the caller must write every one — and is otherwise
// made with three allocations: profile, columns and slab.
func takeProfile(alpha *bio.Alphabet, width int) *Profile {
	if width == 0 {
		return &Profile{Alpha: alpha}
	}
	k := sizeClass(width * alpha.Len())
	p := colPools.Get(k)
	if p == nil {
		p = &Profile{slab: make([]float64, 1<<k)}
	}
	p.shape(alpha, width)
	return p
}

// shape lays width columns over alpha out on a pooled profile's slab,
// which must hold width·alpha.Len() floats, and zeroes its Weight.
func (p *Profile) shape(alpha *bio.Alphabet, width int) {
	L := alpha.Len()
	p.Alpha, p.Weight = alpha, 0
	if cap(p.Cols) < width { // new, or last shaped for more letters a column
		p.Cols = make([]Column, 0, len(p.slab)/L)
	}
	p.Cols = p.Cols[:width]
	for c := range p.Cols {
		p.Cols[c].Counts = p.slab[c*L : (c+1)*L : (c+1)*L]
	}
}

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
	return fromRows(takeProfile(alpha, width), rows, weights), nil
}

// fromRows fills p, whose columns are as wide as the rows and hold
// anything, with the rows' weighted counts.
func fromRows(p *Profile, rows [][]byte, weights []float64) *Profile {
	alpha := p.Alpha
	clear(p.slab[:len(p.Cols)*alpha.Len()])
	for c := range p.Cols {
		p.Cols[c].Gaps = 0
	}
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
	return p
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
// accumulator: one unscaled letterSums call adds fy·S(·,y) for the
// letters y present, unit-stride columns of the matrix (transposed once
// per call), and the finished column goes to its L letter-major slots
// once. Every entry is still the sum over the column's letters in
// ascending order from +0 — what adding into sbT[x·m+j] letter by letter
// gives, without L read-modify-writes m entries apart per nonzero
// count. Both letter loops take a column's nonzero letters from
// residuesMask's mask, so no branch depends on the counts.
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
		res, mask := residuesMask(col.Counts)
		sc.occA[i] = occupancy(res, col.Gaps)
		sc.faOff[i] = nz
		if res == 0 {
			continue
		}
		for ; mask != 0; mask &= mask - 1 {
			y := bits.TrailingZeros32(mask)
			sc.faIdx[nz] = int32(y)
			sc.faVal[nz] = col.Counts[y] / res
			nz++
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
		res, mask := residuesMask(col.Counts)
		occ := occupancy(res, col.Gaps)
		sc.occB[j] = occ
		sc.openB[j], sc.extB[j] = (open+ext)*occ, ext*occ
		if res == 0 {
			continue
		}
		nb := 0
		for ; mask != 0; mask &= mask - 1 {
			y := bits.TrailingZeros32(mask)
			bIdx[nb], bVal[nb] = int32(y), col.Counts[y]/res
			nb++
		}
		letterSums(acc, sc.zero, bIdx[:nb], bVal[:nb], subT, L, 0, nil)
		for x, v := range acc {
			sc.sbT[x*m+j] = v
		}
	}
	return sc
}

// colScores streams the occupancy-scaled PSP scores of A column i
// against B columns [lo, lo+len(dst)) into dst through letterSums:
// unit-stride reads of sbT, the A column's letters in ascending order
// from +0, then the scale by the occupancies so sparse columns
// influence less — the order a per-cell sparse dot product adds and
// scales in, so every score is bit-identical to that formulation. An A
// column without residues scores the empty sum, +0, scaled.
func (sc *pspScratch) colScores(dst []float64, i, lo int) {
	k, end := sc.faOff[i], sc.faOff[i+1]
	letterSums(dst, sc.zero, sc.faIdx[k:end], sc.faVal[k:end], sc.sbT[lo:], sc.m, sc.occA[i], sc.occB[lo:][:len(dst)])
}

// residuesMask reads a column's counts once for both things pspSetup
// needs of it: their sum, added as Residues adds it (from +0, in
// ascending letter order, so bit for bit the same), and a mask with bit
// y set where counts[y] is not zero (either zero), made without a
// branch on the counts. pspSetup's letter loops walk the mask with
// bits.TrailingZeros32, in ascending letter order. The alphabet must
// have at most 32 letters.
func residuesMask(counts []float64) (res float64, mask uint32) {
	if len(counts) > 32 {
		panic("profile: an alphabet of more than 32 letters")
	}
	for y, c := range counts {
		res += c
		var bit uint32
		if c != 0 {
			bit = 1
		}
		mask |= bit << y
	}
	return res, mask
}

// tbPlane lays out the packed traceback plane of alignRows, h rows to
// a block: row 0's m+1 bytes, then each block in the order its sweep
// makes them — step j's h bytes together, cell (i+k, j−k) of the block
// at row i k-th among them, for steps 0 … m+h−1 — so that a sweep
// stores one h-byte word a step, to one stream. At h = 1 it is the
// row-major plane.
type tbPlane struct{ m, h int }

// size returns the bytes the plane of an n-row DP takes.
func (p tbPlane) size(n int) int { return p.m + 1 + (n+p.h-1)/p.h*p.h*(p.m+p.h) }

// at returns the index of cell (i, j).
func (p tbPlane) at(i, j int) int {
	if i == 0 {
		return j
	}
	b, k := (i-1)/p.h, (i-1)%p.h
	return p.m + 1 + (b*(p.m+p.h)+j+k)*p.h + k
}

// trace follows the traceback plane tb of an n-row DP from (n, m) back
// to the origin and returns the alignment path in forward order.
func (p tbPlane) trace(tb []byte, n int, state byte) Path {
	rev := make(Path, 0, n+p.m)
	i, j := n, p.m
	for i > 0 || j > 0 {
		cell := tb[p.at(i, j)]
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
// Rows are filled in blocks of h, four where the CPU has AVX2
// (quadSweep) and two elsewhere (pairSweep), one sweep per block whose
// step j computes cell (i+k, j−k) in lane k. Row i+k's M and X need row
// i+k−1 only up to column j−k, and its Y only its own left neighbour,
// so the lanes advance together: Y's serial chain is one add and one
// min per h cells, and no branch depends on the data. Only the block's
// last row is stored: the rolling rows hold row i−1 ahead of the sweep
// and row i+h−1 h−1 columns behind it. A step's h traceback bytes are
// adjacent in the plane (tbPlane). The steps where some lane is outside
// its row's window — the ramps at either end of the block, all of it
// when the band is narrower than the block — run in Go, through the
// step sweepGo is made of. A last block short of h rows fills up with
// discarded copies of row n, and stops once row n is done.
func (al *Aligner) alignRows(w *dp.Workspace, a, b *Profile, diagLo, diagHi int) (Path, float64) {
	n, m := a.Len(), b.Len()
	h := 2
	if useAVX2 {
		h = 4
	}
	plane := tbPlane{m, h}
	w.ReserveTB(plane.size(n)) // indexed by plane.at
	sc := al.pspSetup(w, a, b)
	open, ext := al.Gap.Open, al.Gap.Extend
	inf := math.Inf(1)
	infs := cell{inf, inf, inf}
	tb := w.TB

	// Index j of a row is DP column j; slot m+1 only ever holds the
	// right-hand sentinel, so writing it needs no bounds case. Lane k's
	// column scores are srows[k·m + column − 1].
	rows := w.Floats(3 * (m + 2))
	rM, rX, rY := rows[:m+2], rows[m+2:2*(m+2)], rows[2*(m+2):]
	srows := w.Floats(h * m)

	// Row 0: leading gaps in A as far as the band reaches.
	rM[0], rX[0], rY[0] = 0, inf, inf
	end0 := min(diagHi, m)
	for j := 1; j <= end0; j++ {
		rM[j], rX[j] = inf, inf
		rY[j] = -leadGap(j, -rY[j-1], open, ext, sc.occB[j-1])
		tb[j] = dp.PackTB(sM, sM, sY)
	}
	rM[end0+1], rX[end0+1], rY[end0+1] = inf, inf, inf

	var st sweepState
	var lo, hi [4]int // lane k's window
	top := h - 1
	// ramp runs step j of the block at row i in Go, each lane in or
	// out of its window as it stands at that step.
	ramp := func(i, j int) {
		var s, openB, extB [4]float64
		started, ended := 0, 0
		for k := 0; k < h; k++ {
			if lo[k]+k <= j {
				started++
			}
			if hi[k]+k < j {
				ended++
			}
		}
		above := infs
		if ended == 0 {
			above = cell{rM[j], rX[j], rY[j]}
		}
		for k := ended; k < started; k++ {
			c := j - k
			s[k], openB[k], extB[k] = srows[k*m+c-1], sc.openB[c-1], sc.extB[c-1]
		}
		t := st.step(h, ended, started, above, &s, &openB, &extB)
		for k := ended; k < started; k++ {
			tb[plane.at(i+k, j-k)] = t[k]
		}
		if c := j - top; c >= lo[top]-1 {
			rM[c], rX[c], rY[c] = st.lM[top], st.lX[top], st.lY[top]
		}
	}

	for i := 1; i <= n; i += h {
		for k := 0; k < h; k++ {
			r := min(i+k, n) // the row lane k scores: past n, a copy of row n
			lo[k], hi[k] = max(r+diagLo, 1), min(r+diagHi, m)
			// gap in B against A column r−1: penalty scaled by how
			// occupied the gapped-against column is
			wA := sc.occA[r-1]
			st.openA[k], st.extA[k] = (open+ext)*wA, ext*wA
			sc.colScores(srows[k*m+lo[k]-1:k*m+hi[k]], r-1, lo[k]-1)

			// The cell left of the row's window: column 0 carries the
			// leading gaps in B while the band reaches it, else a
			// sentinel.
			left := infs
			if r+diagLo <= 0 {
				prev := rX[0]
				if k > 0 {
					prev = st.lX[k-1]
				}
				left.x = -leadGap(i+k, -prev, open, ext, wA)
				tb[plane.at(i+k, 0)] = dp.PackTB(sM, sX, sM)
			}
			st.setLane(k, infs, left)
		}
		d := lo[0] - 1
		st.dM[0], st.dX[0], st.dY[0] = rM[d], rX[d], rY[d]

		// Steps j0 … hi[0] have every lane in its window and run in
		// the sweep; the last block ends with row n's last cell.
		j0 := lo[top] + top
		last := min(n-i, top)
		for j := lo[0]; j <= hi[last]+last; j++ {
			if j == j0 && j0 <= hi[0] {
				wd := hi[0] - j0 + 1
				base := plane.at(i, j0)
				sweep(h, &st, rM[j0-h:j0+wd], rX[j0-h:j0+wd], rY[j0-h:j0+wd],
					srows[j0-1:j0-1+top*(m-1)+wd], sc.openB[j0-h:j0+wd-1], sc.extB[j0-h:j0+wd-1],
					tb[base:base+wd*h], m-1)
				j += wd - 1
				continue
			}
			ramp(i, j)
		}
		rM[hi[top]+1], rX[hi[top]+1], rY[hi[top]+1] = inf, inf, inf
	}
	_, end := st.lane((n - 1) % h)

	state, cost := sM, end.m
	if end.x < cost {
		state, cost = sX, end.x
	}
	if end.y < cost {
		state, cost = sY, end.y
	}
	return plane.trace(tb, n, state), 0 - cost // not −cost: a zero cost is the score +0
}

// sweep runs the h-row sweep, quadSweep at h = 4 and pairSweep at
// h = 2: called directly, st stays on the caller's stack.
func sweep(h int, st *sweepState, m, x, y, s, openB, extB []float64, tb []byte, sStride int) {
	if h == 4 {
		quadSweep(st, m, x, y, s, openB, extB, tb, sStride)
		return
	}
	pairSweep(st, m, x, y, s, openB, extB, tb, sStride)
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

// sweepState carries a sweep's registers across calls, lane k of each
// in index k: the diagonal predecessor (dM, dX, dY) and the left
// neighbour (lM, lX, lY) of the next step's cells, and the gap costs
// against each lane's A column. A two-row sweep uses lanes 0 and 1.
type sweepState struct {
	dM, dX, dY  [4]float64
	lM, lX, lY  [4]float64
	openA, extA [4]float64
}

// setLane loads lane k's diagonal predecessor and left neighbour.
func (st *sweepState) setLane(k int, d, l cell) {
	st.dM[k], st.dX[k], st.dY[k] = d.m, d.x, d.y
	st.lM[k], st.lX[k], st.lY[k] = l.m, l.x, l.y
}

// lane returns lane k's diagonal predecessor and left neighbour.
func (st *sweepState) lane(k int) (d, l cell) {
	return cell{st.dM[k], st.dX[k], st.dY[k]}, cell{st.lM[k], st.lX[k], st.lY[k]}
}

// step advances lanes 0 … h−1 by one step; it is the one form of a
// sweep step in Go, run alone for the ramps and in a loop by sweepGo.
// Lanes [lo, hi) are inside their row's window: lane k computes
// cellStep(d, u, l, s[k], openA, extA, openB[k], extB[k]) from its
// registers, u being above for lane 0 and lane k−1's last cell for the
// others, and returns its traceback byte in tb[k]. Lanes below lo have
// passed their window, so their cell is the sentinel right of it, +∞;
// lanes from hi on have not reached it and keep their left cell. Each
// lane's u becomes its next diagonal.
func (st *sweepState) step(h, lo, hi int, above cell, s, openB, extB *[4]float64) (tb [4]byte) {
	inf := math.Inf(1)
	u := above
	for k := 0; k < h; k++ {
		d, l := st.lane(k)
		c := l
		switch {
		case k < lo:
			c = cell{inf, inf, inf}
		case k < hi:
			c, tb[k] = cellStep(d, u, l, s[k], st.openA[k], st.extA[k], openB[k], extB[k])
		}
		st.setLane(k, u, c)
		u = l
	}
	return tb
}

// sweepGo is the h-lane sweep in Go, every lane inside its window for
// all len(m)−h steps: the loop body of pairSweep and quadSweep on other
// architectures and their assemblies' reference. Step t computes lane
// k's cell from its column score s[k·sStride+t] and its B column's gap
// costs openB/extB[t+h−1−k], lane 0's from the row above at
// m/x/y[t+h], and writes lane k's traceback byte to tb[t·h+k].
// Lane h−1's cells go to m/x/y, h−1 columns behind the loads: its left
// cell to index 0, step t's to t+1. openB and extB must hold len(m)−1
// entries.
func sweepGo(st *sweepState, h int, m, x, y, s, openB, extB []float64, tb []byte, sStride int) {
	top := h - 1
	x, y, openB, extB = x[:len(m)], y[:len(m)], openB[:len(m)-1], extB[:len(m)-1]
	m[0], x[0], y[0] = st.lM[top], st.lX[top], st.lY[top]
	for t := 0; t+h < len(m); t++ {
		var sv, ob, eb [4]float64
		for k := 0; k < h; k++ {
			sv[k], ob[k], eb[k] = s[k*sStride+t], openB[t+top-k], extB[t+top-k]
		}
		b := st.step(h, 0, h, cell{m[t+h], x[t+h], y[t+h]}, &sv, &ob, &eb)
		for k := 0; k < h; k++ {
			tb[t*h+k] = b[k]
		}
		m[t+1], x[t+1], y[t+1] = st.lM[top], st.lX[top], st.lY[top]
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
	return merge(takeProfile(a.Alpha, len(path)), a, b, path), nil
}

// merge fills out, whose columns are as wide as the path and hold
// anything, with a and b joined along the path. It writes every count
// and gap by assignment, so out's storage needs no clearing.
func merge(out, a, b *Profile, path Path) *Profile {
	out.Weight = a.Weight + b.Weight
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
	return out
}
