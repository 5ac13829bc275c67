package msa

import (
	"context"

	"repro/internal/bio"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/profile"
	"repro/internal/submat"
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
// objective's table) and rescored (pair scores recomputed for judged
// candidates, where a full re-score costs judged·pairs) are the same
// for every Workers value; evaluated counts every realignment made, so
// evaluated − judged is the speculation thrown away.
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
	return out, err
}

// refineStats is what one refinement call did (its span's attributes)
// and the objective value it ended on.
type refineStats struct {
	splits, rounds, pairs                 int
	evaluated, judged, accepted, rescored int
	score                                 float64
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
	type candidate struct {
		aln      *Alignment
		score    float64
		rescored int
		err      error
	}
	obj := newSPObjective(n, p.sub, p.gap)
	current := aln
	table := make([]float64, len(obj.pairs))
	obj.rescore(table, current.Rows(), nil)
	st.splits, st.pairs, st.score = len(splits), len(table), obj.total(table)
	// One table per chunk slot, reused by every chunk; an accepted
	// candidate's table swaps places with the current one.
	slots := make([][]float64, min(workers, len(splits)))
	for i := range slots {
		slots[i] = make([]float64, len(table))
	}
	for round := 0; round < rounds; round++ {
		st.rounds++
		improved := false
		for k := 0; k < len(splits); {
			end := min(k+workers, len(splits))
			cands, err := par.MapCtx(ctx, end-k, workers, func(i int) candidate {
				c, err := p.realignSplit(current, splits[k+i])
				if err != nil {
					return candidate{err: err}
				}
				// Scored serially inside the already-parallel map.
				t := slots[i]
				copy(t, table)
				crossing := obj.rescore(t, c.Rows(), splits[k+i])
				return candidate{aln: c, score: obj.total(t), rescored: crossing}
			})
			if err != nil {
				return current, st, err
			}
			st.evaluated += len(cands)
			hit := -1
			for i, c := range cands {
				st.judged++
				if c.err != nil {
					continue // a failed realignment is skipped
				}
				st.rescored += c.rescored
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
			current, st.score = cands[hit].aln, cands[hit].score
			table, slots[hit] = slots[hit], table
			improved = true
			st.accepted++
			k += hit + 1
		}
		if !improved {
			break
		}
	}
	return current, st, ctx.Err()
}

// spObjective is the objective refinement accepts steps by: exact SP
// for small alignments, SP over a fixed sample of row pairs for large
// ones. It is kept as a table — one pairScore per listed pair, in the
// order the sum is taken — so that a candidate re-scores only the pairs
// its split separates.
//
// Why the others cannot change: realigning the parts A|B of a split
// deletes, and inserts, only columns that are gaps in every row of one
// part. To two rows of the same part those are dual-gap columns, where
// pairScore neither adds to the score nor touches its gap-run state, so
// the pair walks the same scoring columns in the same order before and
// after and scores the same float64.
//
// total adds the table up in the order SPScore and spScoreSampled add
// the same numbers — exact: each row's pairs over j, then the row sums
// in row order; sampled: one running sum, then the scaling. Float
// addition is not associative and acceptance is a strict >, so only
// that order makes a candidate's score bit for bit the full re-score's
// under any matrix and gap model (all-integer BLOSUM62 would forgive
// another order, a scaled matrix does not), and with it refinement
// accepts the same steps and returns the same bytes.
type spObjective struct {
	sub   *submat.Matrix
	gap   submat.Gap
	n     int
	exact bool
	pairs [][2]int32 // exact: every i < j, row-major; sampled: as drawn
}

func newSPObjective(n int, sub *submat.Matrix, gap submat.Gap) *spObjective {
	const exactLimit = 60
	const samplePairs = 2000
	// Exact also whenever the sample would cover every pair anyway.
	exact := n <= exactLimit || n*(n-1)/2 <= samplePairs
	o := &spObjective{sub: sub, gap: gap, n: n, exact: exact}
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

// rescore recomputes table[k] from rows for every listed pair whose two
// rows lie on opposite sides (every pair when side is nil) and returns
// how many that was.
func (o *spObjective) rescore(table []float64, rows [][]byte, side []bool) int {
	crossing := 0
	for k, pr := range o.pairs {
		if side == nil || side[pr[0]] != side[pr[1]] {
			table[k] = pairScore(rows[pr[0]], rows[pr[1]], o.sub, o.gap)
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

// realignSplit profile-realigns the rows with side[i] set (part A)
// against the rest (part B), both compacted first, and returns the
// merged alignment in aln's row order. It has no all-gap column: every
// merged column takes a column of A or of B, and neither has one left.
func (p *Progressive) realignSplit(aln *Alignment, side []bool) (*Alignment, error) {
	rows := aln.Rows()
	partA, partB := compactPart(rows, side, true), compactPart(rows, side, false)
	alpha := p.sub.Alphabet()
	pa, err := profile.FromRows(alpha, partA, nil)
	if err != nil {
		return nil, err
	}
	pb, err := profile.FromRows(alpha, partB, nil)
	if err != nil {
		return nil, err
	}
	palign := profile.NewAligner(p.sub, p.gap)
	path, _ := palign.Align(pa, pb)
	merged := profile.MergeRows(partA, partB, path)

	out := &Alignment{Seqs: make([]bio.Sequence, len(rows))}
	ka, kb := 0, len(partA) // merged holds A's rows, then B's
	for i, s := range aln.Seqs {
		k := &kb
		if side[i] {
			k = &ka
		}
		out.Seqs[i] = bio.Sequence{ID: s.ID, Desc: s.Desc, Data: merged[*k]}
		*k++
	}
	return out, nil
}

// compactPart copies the rows with side[i] == want, in row order, into
// one slab, leaving out the columns in which all of them hold a gap: one
// pass to mark the columns to keep, one to copy.
func compactPart(rows [][]byte, side []bool, want bool) [][]byte {
	keep := make([]bool, len(rows[0]))
	count, width := 0, 0
	for i, row := range rows {
		if side[i] != want {
			continue
		}
		count++
		for c, b := range row {
			if b != bio.Gap && !keep[c] {
				keep[c] = true
				width++
			}
		}
	}
	slab := make([]byte, 0, count*width)
	part := make([][]byte, 0, count)
	for i, row := range rows {
		if side[i] != want {
			continue
		}
		start := len(slab)
		for c, b := range row {
			if keep[c] {
				slab = append(slab, b)
			}
		}
		part = append(part, slab[start:len(slab):len(slab)])
	}
	return part
}
