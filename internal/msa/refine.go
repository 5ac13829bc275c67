package msa

import (
	"context"

	"repro/internal/bio"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/profile"
	"repro/internal/tree"
)

// RefineAlignmentContext performs MUSCLE stage-3 style tree-dependent
// restricted partitioning: for every guide-tree edge, split the rows
// into the two leaf sets of the edge, delete gap-only columns inside
// each part, profile-realign the parts, and keep the result if the SP
// objective (spObjective) increases. `rounds` full passes over the
// edges are made; refinement stops early when a pass changes nothing.
// The context is checked before every chunk of split realignments; on
// cancellation the best alignment so far is returned with its error.
//
// A candidate costs its DP plus work on the order of its smaller
// side's rows times the width (splitWork.realign): the parts' profiles
// come from the smaller side's rows and the alignment's column totals,
// no row is copied, and the candidate is two column maps: its path
// applied to each part's kept columns.
// Only the rows the objective's crossing pairs read are built, as class
// codes; the merged alignment is built for the accepted candidate
// alone.
//
// Candidate splits are realigned and scored in parallel, speculatively:
// a chunk of Workers consecutive splits is evaluated against the current
// alignment, then scanned in split order; the first improving candidate
// is accepted and the rest of the chunk — now computed against a stale
// base — is discarded and re-evaluated. Acceptance decisions therefore
// follow exactly the sequential greedy order, so the result is
// byte-identical for every Workers value (including 1). Stretches
// without an accept evaluate at full parallel width; with one candidate
// in four or five accepted, the discarded share is not small at 8.
//
// The call is one `refine` span: n, splits, rounds (passes made), judged
// (candidates the greedy order looked at), accepted, pairs (the
// objective's table), rescored (pair scores recomputed for judged
// candidates, where a full re-score costs judged·pairs), walked (rows
// the judged candidates' smaller sides added up; a full build reads
// judged·n) and built (rows materialised: the code rows of judged
// candidates' crossing pairs, and the n rows of each accepted
// alignment) are the same for every Workers value; evaluated counts
// every realignment made, so evaluated − judged is the speculation
// thrown away.
func (p *Progressive) RefineAlignmentContext(ctx context.Context, aln *Alignment, gt *tree.Node, rounds int) (*Alignment, error) {
	ctx, sp := obs.Start(ctx, "refine")
	defer sp.End()
	out, st, err := p.refine(ctx, aln, gt, rounds)
	sp.SetInt("n", int64(aln.NumSeqs()))
	sp.SetInt("splits", int64(st.splits))
	sp.SetInt("rounds", int64(st.rounds))
	sp.SetInt("judged", int64(st.judged))
	sp.SetInt("accepted", int64(st.accepted))
	sp.SetInt("evaluated", int64(st.evaluated))
	sp.SetInt("pairs", int64(st.pairs))
	sp.SetInt("rescored", int64(st.rescored))
	sp.SetInt("walked", int64(st.walked))
	sp.SetInt("built", int64(st.built))
	return out, err
}

// refineStats is what one refinement call did (its span's attributes)
// and the objective value it ended on.
type refineStats struct {
	splits, rounds, pairs                 int
	evaluated, judged, accepted, rescored int
	walked, built                         int
	score                                 float64
}

// candidate is what the greedy scan reads of one split realigned
// against the base: the objective it scores and the work it took. The
// candidate itself — the merged column maps its path and the parts'
// kept columns make — stays in its slot's splitWork.
type candidate struct {
	score                   float64
	rescored, walked, built int
}

func (p *Progressive) refine(ctx context.Context, aln *Alignment, gt *tree.Node, rounds int) (*Alignment, refineStats, error) {
	var st refineStats
	n := aln.NumSeqs()
	if n < 3 || rounds <= 0 {
		return aln, st, ctx.Err()
	}
	// One side mask per guide-tree edge: the rows under its child node
	// against the rest. The root's two children give the same bipartition
	// twice (A|B, then B|A); both stay, because which part is the DP's A
	// side decides ties, so dropping one would change output.
	var splits [][]bool
	gt.PostOrder(func(nd *tree.Node) {
		if nd == gt {
			return
		}
		side, in := make([]bool, n), 0
		for _, i := range nd.Leaves() {
			if i >= 0 && i < n && !side[i] {
				side[i] = true
				in++
			}
		}
		if in > 0 && in < n {
			splits = append(splits, side)
		}
	})

	workers := p.opts.Workers
	if workers <= 0 {
		workers = par.DefaultWorkers()
	}
	sc := newPairScorer(p.sub, p.gap)
	obj := newSPObjective(n, sc)
	base := newRefineBase(aln, sc)
	table := make([]float64, len(obj.pairs))
	obj.rescore(table, base.codes, nil)
	st.splits, st.pairs, st.score = len(splits), len(table), obj.total(table)
	// One scratch per chunk slot, reused by every chunk; an accepted
	// candidate's table swaps places with the current one.
	slots := make([]*splitWork, min(workers, len(splits)))
	for i := range slots {
		slots[i] = &splitWork{table: make([]float64, len(table))}
	}
	for round := 0; round < rounds; round++ {
		st.rounds++
		improved := false
		for k := 0; k < len(splits); {
			end := min(k+workers, len(splits))
			cands := make([]candidate, end-k)
			err := par.ForCtx(ctx, end-k, 1, workers, func(i, _ int) {
				w := slots[i]
				copy(w.table, table)
				cands[i] = w.evaluate(p, base, obj, splits[k+i])
			})
			if err != nil {
				return base.aln, st, err
			}
			st.evaluated += len(cands)
			hit := -1
			for i, c := range cands {
				st.judged++
				st.rescored += c.rescored
				st.walked += c.walked
				st.built += c.built
				if c.score > st.score {
					hit = i
					break
				}
			}
			if hit < 0 {
				k = end
				continue
			}
			// Later chunk entries were evaluated against the old base;
			// resume right after the accepted split.
			w := slots[hit]
			base = newRefineBase(w.merge(base.aln, splits[k+hit]), sc)
			st.score = cands[hit].score
			table, w.table = w.table, table
			improved = true
			st.accepted++
			st.built += n
			k += hit + 1
		}
		if !improved {
			break
		}
	}
	return base.aln, st, ctx.Err()
}

// refineBase is the alignment refinement stands on, kept in the forms a
// candidate reads: its class-coded rows and, per column, the letter
// counts, the residue count and whether some residue lies outside the
// alphabet. It is rebuilt after each accept.
type refineBase struct {
	aln   *Alignment
	width int
	codes [][]uint8 // pairScorer.encode's rows: width codes and a gapCode
	tot   []float64 // tot[c·L+x]: rows holding letter x in column c
	res   []int32   // residues in column c
	unk   []bool    // column c holds a residue outside the alphabet
}

func newRefineBase(aln *Alignment, sc *pairScorer) *refineBase {
	L := sc.l1 - 1
	W := aln.Width()
	b := &refineBase{aln: aln, width: W, codes: sc.encode(aln.Rows()),
		tot: make([]float64, W*L), res: make([]int32, W), unk: make([]bool, W)}
	for _, row := range b.codes {
		for c, code := range row[:W] {
			switch {
			case int(code) < L:
				b.tot[c*L+int(code)]++
				b.res[c]++
			case code != gapCode:
				b.unk[c] = true
				b.res[c]++
			}
		}
	}
	return b
}

// splitWork is one chunk slot's scratch, reused by every candidate the
// slot evaluates: the count slabs the two sides' profiles point into,
// the candidate's column maps, its copy of the objective's table and
// the code rows its crossing pairs read.
type splitWork struct {
	walk, other  []int32          // the smaller side's rows, the other side's
	small, large []float64        // width·L letter counts of the two sides
	res          []int32          // residues per column on the smaller side
	colsS, colsO []profile.Column // the smaller side's profile columns, the other side's
	keepS, keepO []int32          // the base column behind each of them
	mapA, mapB   []int32          // the candidate (realign)
	table        []float64
	touched      []bool
	rows         [][]uint8
	slab         []uint8
}

// evaluate realigns one split against the base and scores it: the
// table (a copy of the base's) gets the split's crossing pairs
// re-scored on code rows built for just the rows they touch.
func (w *splitWork) evaluate(p *Progressive, b *refineBase, obj *spObjective, side []bool) candidate {
	w.realign(p, b, side)
	n := len(side)
	w.touched = resize(w.touched, n)
	clear(w.touched)
	built := 0
	for _, pr := range obj.pairs {
		if side[pr[0]] != side[pr[1]] {
			for _, r := range pr {
				if !w.touched[r] {
					w.touched[r] = true
					built++
				}
			}
		}
	}
	width := len(w.mapA)
	w.slab = resize(w.slab, built*width)
	w.rows = resize(w.rows, n)
	k := 0
	for r, t := range w.touched {
		w.rows[r] = nil
		if !t {
			continue
		}
		m := w.mapB
		if side[r] {
			m = w.mapA
		}
		row, src := w.slab[k*width:(k+1)*width:(k+1)*width], b.codes[r]
		for c, s := range m {
			row[c] = src[s]
		}
		w.rows[r] = row
		k++
	}
	crossing := obj.rescore(w.table, w.rows, side)
	return candidate{score: obj.total(w.table), rescored: crossing, walked: len(w.walk), built: built}
}

// realign profile-realigns the rows with side[i] set (part A) against
// the rest (part B), each without its all-gap columns, and leaves the
// candidate in w.mapA and w.mapB: for each column of the merged
// alignment, the base column A's rows (B's rows) take, or b.width, the
// gapCode past each code row's end.
func (w *splitWork) realign(p *Progressive, b *refineBase, side []bool) {
	pa, pb, keepA, keepB := w.profiles(p.sub.Alphabet(), b, side)
	path, _ := profile.NewAligner(p.sub, p.gap).Align(pa, pb)
	w.mapA, w.mapB = w.mapA[:0], w.mapB[:0]
	i, j := 0, 0
	for _, op := range path {
		ma, mb := int32(b.width), int32(b.width)
		if op != profile.OpB {
			ma = keepA[i]
			i++
		}
		if op != profile.OpA {
			mb = keepB[j]
			j++
		}
		w.mapA, w.mapB = append(w.mapA, ma), append(w.mapB, mb)
	}
}

// profiles returns the profiles of the two parts of a split, each
// without its all-gap columns, and the base column behind each of
// their columns. They are FromRows' over the parts' rows, float for
// float, with no row copied: the smaller side's rows are added up in
// row order with FromRows' unit-weight arithmetic, and the other
// side's counts are the column totals less the smaller side's. Unit
// weights make every count an integer, so that difference is exact —
// except in a column holding a residue outside the alphabet, which
// FromRows spreads as 1/L on every letter; there the other side's rows
// are added up for that column alone. Gaps are a side's rows less its
// residues, and a side keeps the columns where it has residues. The
// profiles point into w's slabs and live until its next call.
func (w *splitWork) profiles(alpha *bio.Alphabet, b *refineBase, side []bool) (pa, pb *profile.Profile, keepA, keepB []int32) {
	L, W := alpha.Len(), b.width
	nA := 0
	for _, in := range side {
		if in {
			nA++
		}
	}
	walkA := nA <= len(side)-nA
	w.walk, w.other = w.walk[:0], w.other[:0]
	for i, in := range side {
		if in == walkA {
			w.walk = append(w.walk, int32(i))
		} else {
			w.other = append(w.other, int32(i))
		}
	}
	w.small, w.large = resize(w.small, W*L), resize(w.large, W*L)
	w.res = resize(w.res, W)
	small, res := w.small, w.res
	clear(small)
	clear(res)
	frac := 1 / float64(L)
	for _, r := range w.walk {
		for c, code := range b.codes[r][:W] {
			if code != gapCode {
				addResidue(small[c*L:(c+1)*L], code, frac)
				res[c]++
			}
		}
	}
	colsS, keepS := w.colsS[:0], w.keepS[:0]
	colsO, keepO := w.colsO[:0], w.keepO[:0]
	for c := 0; c < W; c++ {
		counts := small[c*L : (c+1)*L : (c+1)*L]
		if res[c] > 0 {
			colsS = append(colsS, profile.Column{Counts: counts, Gaps: float64(len(w.walk) - int(res[c]))})
			keepS = append(keepS, int32(c))
		}
		ro := b.res[c] - res[c]
		if ro == 0 {
			continue
		}
		other := w.large[c*L : (c+1)*L : (c+1)*L]
		if b.unk[c] {
			clear(other)
			for _, r := range w.other {
				if code := b.codes[r][c]; code != gapCode {
					addResidue(other, code, frac)
				}
			}
		} else {
			for x, t := range b.tot[c*L : (c+1)*L] {
				other[x] = t - counts[x]
			}
		}
		colsO = append(colsO, profile.Column{Counts: other, Gaps: float64(len(w.other) - int(ro))})
		keepO = append(keepO, int32(c))
	}
	w.colsS, w.keepS, w.colsO, w.keepO = colsS, keepS, colsO, keepO
	pS := &profile.Profile{Alpha: alpha, Cols: colsS, Weight: float64(len(w.walk))}
	pO := &profile.Profile{Alpha: alpha, Cols: colsO, Weight: float64(len(w.other))}
	if walkA {
		return pS, pO, keepS, keepO
	}
	return pO, pS, keepO, keepS
}

// addResidue adds one residue of class code to a column's letter counts
// as FromRows does at unit weight: 1 to its letter, or frac (1/L) to
// every letter for a byte outside the alphabet.
func addResidue(counts []float64, code uint8, frac float64) {
	if int(code) < len(counts) {
		counts[code]++
		return
	}
	for x := range counts {
		counts[x] += frac
	}
}

// merge builds the alignment of the candidate w last realigned from
// aln: every row in aln's order, its side's column map applied. It has
// no all-gap column: every merged column takes a column of A or of B,
// and neither keeps one.
func (w *splitWork) merge(aln *Alignment, side []bool) *Alignment {
	width, W := len(w.mapA), aln.Width()
	slab := make([]byte, len(side)*width)
	out := &Alignment{Seqs: make([]bio.Sequence, len(side))}
	for r, s := range aln.Seqs {
		m := w.mapB
		if side[r] {
			m = w.mapA
		}
		row := slab[r*width : (r+1)*width : (r+1)*width]
		for c, src := range m {
			if int(src) < W {
				row[c] = s.Data[src]
			} else {
				row[c] = bio.Gap
			}
		}
		out.Seqs[r] = bio.Sequence{ID: s.ID, Desc: s.Desc, Data: row}
	}
	return out
}

// resize returns s with length n, reallocated only when it is short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// spObjective is the objective refinement accepts steps by: exact SP
// for small alignments, SP over a fixed sample of row pairs for large
// ones. It is kept as a table — one pair score per listed pair, in the
// order the sum is taken — so that a candidate re-scores only the pairs
// its split separates.
//
// Why the others cannot change: realigning the parts A|B of a split
// deletes, and inserts, only columns that are gaps in every row of one
// part. To two rows of the same part those are dual-gap columns, where
// a pair score neither adds to the score nor touches its gap-run state,
// so the pair walks the same scoring columns in the same order before
// and after and scores the same float64.
//
// total adds the table up in the order a full re-score adds the same
// numbers — exact, as SPScore does: each row's pairs over j, then the
// row sums in row order; sampled: one running sum over the drawn
// pairs, then the scaling. Float addition is not
// associative and acceptance is a strict >, so only that order makes a
// candidate's score bit for bit the full re-score's under any matrix
// and gap model (all-integer BLOSUM62 would forgive another order, a
// scaled matrix does not), and with it refinement accepts the same
// steps and returns the same bytes.
type spObjective struct {
	sc    *pairScorer
	n     int
	exact bool
	pairs [][2]int32 // exact: every i < j, row-major; sampled: as drawn
}

func newSPObjective(n int, sc *pairScorer) *spObjective {
	const exactLimit = 60
	const samplePairs = 2000
	// Exact also whenever the sample would cover every pair anyway.
	exact := n <= exactLimit || n*(n-1)/2 <= samplePairs
	o := &spObjective{sc: sc, n: n, exact: exact}
	if !exact {
		o.pairs = drawPairs(n, samplePairs, 1)
		return o
	}
	o.pairs = make([][2]int32, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			o.pairs = append(o.pairs, [2]int32{int32(i), int32(j)})
		}
	}
	return o
}

// rescore recomputes table[k] from the code rows for every listed pair
// whose two rows lie on opposite sides (every pair when side is nil)
// and returns how many that was.
func (o *spObjective) rescore(table []float64, rows [][]uint8, side []bool) int {
	crossing := 0
	for k, pr := range o.pairs {
		if side == nil || side[pr[0]] != side[pr[1]] {
			table[k] = o.sc.score(rows[pr[0]], rows[pr[1]])
			crossing++
		}
	}
	return crossing
}

// total sums a table in the order the full re-score would (see the type).
func (o *spObjective) total(table []float64) float64 {
	if !o.exact {
		var s float64
		for _, v := range table {
			s += v
		}
		return s * float64(o.n*(o.n-1)/2) / float64(len(table))
	}
	var total float64
	k := 0
	for i := 0; i < o.n; i++ {
		var s float64
		for j := i + 1; j < o.n; j++ {
			s += table[k]
			k++
		}
		total += s
	}
	return total
}
