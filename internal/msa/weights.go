package msa

import (
	"repro/internal/tree"
)

// treeWeights computes CLUSTALW-style sequence weights from a guide
// tree (Thompson, Higgins & Gibson 1994): each branch's length is shared
// equally among the leaves below it, so sequences in crowded subtrees are
// down-weighted and divergent outliers up-weighted. Weights are
// normalised to mean 1; a degenerate tree (all zero branch lengths)
// yields unit weights.
func treeWeights(gt *tree.Node, n int) []float64 {
	w := make([]float64, n)
	var walk func(node *tree.Node, acc float64)
	walk = func(node *tree.Node, acc float64) {
		if node == nil {
			return
		}
		if node.IsLeaf() {
			if node.ID >= 0 && node.ID < n {
				w[node.ID] = acc
			}
			return
		}
		nl := float64(node.Left.LeafCount())
		nr := float64(node.Right.LeafCount())
		walk(node.Left, acc+node.LeftLen/nl)
		walk(node.Right, acc+node.RightLen/nr)
	}
	walk(gt, 0)

	var sum float64
	for _, v := range w {
		sum += v
	}
	if sum <= 0 {
		for i := range w {
			w[i] = 1
		}
		return w
	}
	scale := float64(n) / sum
	for i := range w {
		w[i] *= scale
		if w[i] <= 0 {
			w[i] = 1e-3 // keep every sequence minimally represented
		}
	}
	return w
}
