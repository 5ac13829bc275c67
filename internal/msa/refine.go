package msa

import (
	"context"

	"repro/internal/bio"
	"repro/internal/par"
	"repro/internal/profile"
	"repro/internal/tree"
)

// RefineAlignment performs MUSCLE stage-3 style tree-dependent restricted
// partitioning: for every guide-tree edge, split the rows into the two
// leaf sets of the edge, delete gap-only columns inside each part,
// profile-realign the parts, and keep the result if the (weighted
// sampled) SP score does not decrease. `rounds` full passes over the
// edges are made; refinement stops early when a pass changes nothing.
func (p *Progressive) RefineAlignment(aln *Alignment, gt *tree.Node, rounds int) *Alignment {
	//lint:allow ctxflow context-free compat wrapper: delegates to the Context-bound variant
	out, _ := p.RefineAlignmentContext(context.Background(), aln, gt, rounds)
	return out
}

// RefineAlignmentContext is RefineAlignment bound to a context, checked
// before every chunk of split realignments. On cancellation it returns
// the best alignment found so far together with the context's error.
//
// Candidate splits are realigned and scored in parallel, speculatively:
// a chunk of Workers consecutive splits is evaluated against the current
// alignment, then scanned in split order; the first improving candidate
// is accepted and the rest of the chunk — now computed against a stale
// base — is discarded and re-evaluated. Acceptance decisions therefore
// follow exactly the sequential greedy order, so the result is
// byte-identical for every Workers value (including 1), while the common
// no-improvement stretches evaluate at full parallel width.
func (p *Progressive) RefineAlignmentContext(ctx context.Context, aln *Alignment, gt *tree.Node, rounds int) (*Alignment, error) {
	if aln.NumSeqs() < 3 || rounds <= 0 {
		return aln, ctx.Err()
	}
	// collect the leaf set of every internal edge (child side)
	var splits [][]int
	gt.PostOrder(func(n *tree.Node) {
		if n == gt {
			return
		}
		leaves := n.Leaves()
		if len(leaves) == 0 || len(leaves) == aln.NumSeqs() {
			return
		}
		splits = append(splits, leaves)
	})

	workers := p.opts.Workers
	if workers <= 0 {
		workers = par.DefaultWorkers()
	}
	type candidate struct {
		aln   *Alignment
		score float64
		err   error
	}
	current := aln
	currentScore := p.refineScore(current, workers)
	for round := 0; round < rounds; round++ {
		improved := false
		for k := 0; k < len(splits); {
			end := k + workers
			if end > len(splits) {
				end = len(splits)
			}
			cands, err := par.MapCtx(ctx, end-k, workers, func(i int) candidate {
				c, err := p.realignSplit(current, splits[k+i])
				if err != nil {
					return candidate{err: err}
				}
				// Score serially inside the already-parallel map: SPScore
				// is order-deterministic for any worker count, and nesting
				// would oversubscribe Workers² goroutines on Workers cores.
				return candidate{aln: c, score: p.refineScore(c, 1)}
			})
			if err != nil {
				return current, err
			}
			accepted := false
			for i, c := range cands {
				if c.err != nil {
					continue // a failed realignment is skipped, as before
				}
				if c.score > currentScore {
					current, currentScore = c.aln, c.score
					improved, accepted = true, true
					// Later chunk entries were evaluated against the old
					// base; resume right after the accepted split.
					k += i + 1
					break
				}
			}
			if !accepted {
				k = end
			}
		}
		if !improved {
			break
		}
	}
	return current, ctx.Err()
}

// refineScore is the objective used to accept refinement steps: exact SP
// for small alignments, sampled SP for large ones (deterministic seed so
// refinement is reproducible). The value is identical for any workers
// count; workers only bounds the SP computation's own parallelism.
func (p *Progressive) refineScore(a *Alignment, workers int) float64 {
	const exactLimit = 60
	const samplePairs = 2000
	n := a.NumSeqs()
	// Take the exact branch whenever SPScoreSampled would fall back to
	// exact anyway (pair count below the sample budget), so the workers
	// bound is honored on that path too.
	if n <= exactLimit || n*(n-1)/2 <= samplePairs {
		return SPScore(a, p.opts.Sub, p.opts.Gap, workers)
	}
	return SPScoreSampled(a, p.opts.Sub, p.opts.Gap, samplePairs, 1)
}

// realignSplit extracts the rows in `split` (by sequence index order of
// the alignment) and the complement, compacts both, and profile-realigns
// them.
func (p *Progressive) realignSplit(aln *Alignment, split []int) (*Alignment, error) {
	inSplit := make(map[int]bool, len(split))
	for _, i := range split {
		if i >= 0 && i < aln.NumSeqs() {
			inSplit[i] = true
		}
	}
	if len(inSplit) == 0 || len(inSplit) == aln.NumSeqs() {
		return aln, nil
	}
	var partA, partB Alignment
	var idxA, idxB []int
	for i, s := range aln.Seqs {
		if inSplit[i] {
			partA.Seqs = append(partA.Seqs, s.Clone())
			idxA = append(idxA, i)
		} else {
			partB.Seqs = append(partB.Seqs, s.Clone())
			idxB = append(idxB, i)
		}
	}
	partA.RemoveAllGapColumns()
	partB.RemoveAllGapColumns()

	alpha := p.opts.Sub.Alphabet()
	pa, err := partA.Profile(alpha)
	if err != nil {
		return nil, err
	}
	pb, err := partB.Profile(alpha)
	if err != nil {
		return nil, err
	}
	palign := profile.NewAligner(p.opts.Sub, p.opts.Gap)
	palign.Kernel = p.opts.Kernel
	path, _ := palign.Align(pa, pb)
	merged := profile.MergeRows(partA.Rows(), partB.Rows(), path)

	out := &Alignment{Seqs: make([]bio.Sequence, aln.NumSeqs())}
	for k, i := range idxA {
		out.Seqs[i] = bio.Sequence{ID: aln.Seqs[i].ID, Desc: aln.Seqs[i].Desc, Data: merged[k]}
	}
	for k, i := range idxB {
		out.Seqs[i] = bio.Sequence{ID: aln.Seqs[i].ID, Desc: aln.Seqs[i].Desc, Data: merged[len(idxA)+k]}
	}
	out.RemoveAllGapColumns()
	return out, nil
}
