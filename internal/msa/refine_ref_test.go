package msa

import (
	"repro/internal/bio"
	"repro/internal/profile"
	"repro/internal/submat"
	"repro/internal/tree"
)

// The refinement oracle: the objective and the split realignment
// RefineAlignmentContext used before its objective kept a pair-score
// table — every candidate re-scored in full on its byte rows, every
// split cloned, compacted in place, re-scanned and merged row by row —
// with the plain sequential greedy loop over them. pairScore,
// mergeRows (profile.MergeRows then) and refRealignSplit, which calls
// it, are verbatim copies of the code of that time; refRefineScore
// inlines the SPScore and sampled-SP bodies it called, on pairScore.
// The tests in refine_test.go hold the table-keeping code to them byte
// for byte and bit for bit.

// refRefineScore is the objective used to accept refinement steps: exact SP
// for small alignments, sampled SP for large ones (deterministic seed so
// refinement is reproducible).
func (p *Progressive) refRefineScore(a *Alignment) float64 {
	const exactLimit = 60
	const samplePairs = 2000
	n := a.NumSeqs()
	rows := a.Rows()
	if n <= exactLimit || n*(n-1)/2 <= samplePairs {
		var total float64
		for i := 0; i < n; i++ {
			var s float64
			for j := i + 1; j < n; j++ {
				s += pairScore(rows[i], rows[j], p.sub, p.gap)
			}
			total += s
		}
		return total
	}
	var s float64
	for _, pr := range drawPairs(n, samplePairs, 1) {
		s += pairScore(rows[pr[0]], rows[pr[1]], p.sub, p.gap)
	}
	return s * float64(n*(n-1)/2) / float64(samplePairs)
}

// pairScore scores one row pair under the affine model, ignoring
// dual-gap columns.
func pairScore(x, y []byte, sub *submat.Matrix, gap submat.Gap) float64 {
	var s float64
	inX, inY := false, false
	for c := range x {
		gx, gy := x[c] == bio.Gap, y[c] == bio.Gap
		switch {
		case gx && gy:
			// dual gap: no cost, but keeps gap runs open
		case gx:
			if !inX {
				s -= gap.Open
			}
			s -= gap.Extend
			inX, inY = true, false
		case gy:
			if !inY {
				s -= gap.Open
			}
			s -= gap.Extend
			inX, inY = false, true
		default:
			s += sub.Score(x[c], y[c])
			inX, inY = false, false
		}
	}
	return s
}

// mergeRows applies a path to the two row sets that produced the aligned
// profiles, yielding the merged alignment rows (A's rows first).
func mergeRows(rowsA, rowsB [][]byte, path profile.Path) [][]byte {
	width := len(path)
	out := make([][]byte, 0, len(rowsA)+len(rowsB))
	build := func(rows [][]byte, takeA bool) {
		for _, row := range rows {
			merged := make([]byte, 0, width)
			i := 0
			for _, op := range path {
				consume := op == profile.OpMatch || (takeA && op == profile.OpA) || (!takeA && op == profile.OpB)
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

	alpha := p.sub.Alphabet()
	pa, err := partA.Profile(alpha)
	if err != nil {
		return nil, err
	}
	pb, err := partB.Profile(alpha)
	if err != nil {
		return nil, err
	}
	palign := profile.NewAligner(p.sub, p.gap)
	path, _ := palign.Align(pa, pb)
	merged := mergeRows(partA.Rows(), partB.Rows(), path)

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
	currentScore := p.refRefineScore(current)
	for round := 0; round < rounds; round++ {
		improved := false
		for _, split := range splits {
			c, err := p.refRealignSplit(current, split)
			if err != nil {
				continue
			}
			if score := p.refRefineScore(c); score > currentScore {
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
