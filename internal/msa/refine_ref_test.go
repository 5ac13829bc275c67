package msa

import (
	"repro/internal/bio"
	"repro/internal/profile"
	"repro/internal/tree"
)

// The refinement oracle: the objective and the split realignment
// RefineAlignmentContext used before its objective kept a pair-score
// table — every candidate re-scored in full, every split cloned,
// compacted in place and re-scanned — with the plain sequential greedy
// loop over them. The two function bodies are verbatim copies; the
// tests in refine_test.go hold the table-keeping code to them byte for
// byte and bit for bit.

// refRefineScore is the objective used to accept refinement steps: exact SP
// for small alignments, sampled SP for large ones (deterministic seed so
// refinement is reproducible). The value is identical for any workers
// count; workers only bounds the SP computation's own parallelism.
func (p *Progressive) refRefineScore(a *Alignment, workers int) float64 {
	const exactLimit = 60
	const samplePairs = 2000
	n := a.NumSeqs()
	// Take the exact branch whenever spScoreSampled would fall back to
	// exact anyway (pair count below the sample budget), so the workers
	// bound is honored on that path too.
	if n <= exactLimit || n*(n-1)/2 <= samplePairs {
		return SPScore(a, p.opts.Sub, p.opts.Gap, workers)
	}
	return spScoreSampled(a, p.opts.Sub, p.opts.Gap, samplePairs, 1)
}

// refRealignSplit extracts the rows in `split` (by sequence index order of
// the alignment) and the complement, compacts both, and profile-realigns
// them.
func (p *Progressive) refRealignSplit(aln *Alignment, split []int) (*Alignment, error) {
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

// refRefine is the greedy loop without speculation: every guide-tree
// edge in post-order, each candidate realigned against the alignment
// as it stands and accepted if it scores strictly higher, for `rounds`
// passes or until a pass changes nothing. It returns the final
// objective value beside the alignment.
func (p *Progressive) refRefine(aln *Alignment, gt *tree.Node, rounds int) (*Alignment, float64) {
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
	current := aln
	currentScore := p.refRefineScore(current, 1)
	for round := 0; round < rounds; round++ {
		improved := false
		for _, split := range splits {
			c, err := p.refRealignSplit(current, split)
			if err != nil {
				continue
			}
			if score := p.refRefineScore(c, 1); score > currentScore {
				current, currentScore = c, score
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return current, currentScore
}
