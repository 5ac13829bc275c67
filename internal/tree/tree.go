// Package tree builds the guide trees used by progressive alignment:
// UPGMA (as in MUSCLE's draft stage) and neighbour-joining (as in
// CLUSTALW), plus Newick serialisation.
package tree

import (
	"fmt"
	"strings"

	"repro/internal/kmer"
	"repro/internal/par"
)

// Node is a rooted binary phylogenetic tree node. Leaves carry the index
// of the sequence they represent (into whatever slice the distance matrix
// was built from); internal nodes have ID == -1 and two children.
type Node struct {
	ID          int // leaf: sequence index; internal: -1
	Name        string
	Left, Right *Node
	LeftLen     float64 // branch length to Left
	RightLen    float64 // branch length to Right
	Height      float64 // ultrametric height (UPGMA) or 0
}

// IsLeaf reports whether n is a leaf.
func (n *Node) IsLeaf() bool { return n.Left == nil && n.Right == nil }

// LeafCount returns the number of leaves under n.
func (n *Node) LeafCount() int {
	if n == nil {
		return 0
	}
	if n.IsLeaf() {
		return 1
	}
	return n.Left.LeafCount() + n.Right.LeafCount()
}

// Leaves appends the leaf IDs under n left to right.
func (n *Node) Leaves() []int {
	var out []int
	n.walkLeaves(&out)
	return out
}

func (n *Node) walkLeaves(out *[]int) {
	if n == nil {
		return
	}
	if n.IsLeaf() {
		*out = append(*out, n.ID)
		return
	}
	n.Left.walkLeaves(out)
	n.Right.walkLeaves(out)
}

// PostOrder visits every internal node after its children; progressive
// alignment merges profiles in exactly this order.
func (n *Node) PostOrder(visit func(*Node)) {
	if n == nil {
		return
	}
	n.Left.PostOrder(visit)
	n.Right.PostOrder(visit)
	visit(n)
}

// Newick renders the tree in Newick format with branch lengths.
func (n *Node) Newick() string {
	var b strings.Builder
	n.newick(&b)
	b.WriteByte(';')
	return b.String()
}

func (n *Node) newick(b *strings.Builder) {
	if n.IsLeaf() {
		if n.Name != "" {
			b.WriteString(escapeName(n.Name))
		} else {
			fmt.Fprintf(b, "L%d", n.ID)
		}
		return
	}
	b.WriteByte('(')
	n.Left.newick(b)
	fmt.Fprintf(b, ":%.6g,", n.LeftLen)
	n.Right.newick(b)
	fmt.Fprintf(b, ":%.6g)", n.RightLen)
	if n.Name != "" {
		b.WriteString(escapeName(n.Name))
	}
}

func escapeName(s string) string {
	if strings.ContainsAny(s, "():;, \t") {
		return "'" + strings.ReplaceAll(s, "'", "''") + "'"
	}
	return s
}

// parMinClusters is the active-set size below which the tree builders
// run their scans on one worker: a hand-off to another core costs more
// than a short cache-refresh scan. A scan makes the same call either
// way, so the cutover is invisible in the output.
const parMinClusters = 96

// rowBlock is how many rows of the distance matrix one dispatched block
// of a scan covers.
const rowBlock = 16

// scanWorkers is the worker count for a scan over m active clusters.
func scanWorkers(m, workers int) int {
	if m < parMinClusters {
		return 1
	}
	return workers
}

// UPGMAWorkers builds a rooted ultrametric guide tree by repeatedly
// joining the closest cluster pair; cluster distances are size-weighted
// averages. names may be nil. Runs in O(n²) using nearest-neighbour
// caching, with the O(n) cache scans — the dominant cost — spread over
// workers shared-memory workers. Every scan resolves distance ties by the
// lower cluster index and the global pick resolves score ties by the
// lower cluster index too, so the merge order, and therefore the tree,
// is identical for every workers value (workers <= 0 selects all
// cores; 1 runs every scan on the calling goroutine).
func UPGMAWorkers(d *kmer.Matrix, names []string, workers int) *Node {
	n := d.N
	if n == 0 {
		return nil
	}
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		nodes[i] = &Node{ID: i, Name: nameOf(names, i)}
	}
	if n == 1 {
		return nodes[0]
	}

	// working copy of distances between active clusters
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
		for j := range dist[i] {
			dist[i][j] = d.At(i, j)
		}
	}
	size := make([]int, n)
	active := make([]bool, n)
	nearest := make([]int, n) // index of nearest active cluster
	nearestD := make([]float64, n)
	for i := range size {
		size[i] = 1
		active[i] = true
	}
	// recomputeNearest writes only cluster i's cache slots and reads the
	// shared dist/active state, which is never mutated while refreshes
	// are in flight — so distinct clusters refresh concurrently without
	// locks. The strict < keeps the lowest index on distance ties, one
	// half of the deterministic (score, lower-index) tie-break.
	recomputeNearest := func(i int) {
		nearest[i] = -1
		best := 0.0
		for j := 0; j < n; j++ {
			if j == i || !active[j] {
				continue
			}
			if nearest[i] == -1 || dist[i][j] < best {
				nearest[i], best = j, dist[i][j]
			}
		}
		nearestD[i] = best
	}
	par.For(n, rowBlock, scanWorkers(n, workers), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			recomputeNearest(i)
		}
	})

	stale := make([]int, 0, n) // bi, and the clusters whose cached nearest died this merge
	remaining := n
	for remaining > 1 {
		// pick the globally closest pair via the nearest caches; strict <
		// keeps the lowest index on ties (the other half of the
		// deterministic tie-break).
		bi := -1
		for i := 0; i < n; i++ {
			if !active[i] || nearest[i] == -1 {
				continue
			}
			if bi == -1 || nearestD[i] < nearestD[bi] {
				bi = i
			}
		}
		bj := nearest[bi]
		h := dist[bi][bj] / 2
		parent := &Node{
			ID:       -1,
			Left:     nodes[bi],
			Right:    nodes[bj],
			LeftLen:  h - nodes[bi].Height,
			RightLen: h - nodes[bj].Height,
			Height:   h,
		}
		// merge bj into bi
		si, sj := float64(size[bi]), float64(size[bj])
		for k := 0; k < n; k++ {
			if k == bi || k == bj || !active[k] {
				continue
			}
			nd := (si*dist[bi][k] + sj*dist[bj][k]) / (si + sj)
			dist[bi][k], dist[k][bi] = nd, nd
		}
		active[bj] = false
		nodes[bi] = parent
		size[bi] += size[bj]
		remaining--
		if remaining == 1 {
			return parent
		}
		// Refresh the caches invalidated by the merge: clusters that had
		// bi or bj as their nearest need a full O(n) rescan; everyone
		// else at most adopts the merged cluster with an O(1) check. The
		// rescans are independent (each writes its own slots), so they
		// run concurrently; the merged cluster bi rescans alongside.
		stale = append(stale[:0], bi)
		for k := 0; k < n; k++ {
			if !active[k] || k == bi {
				continue
			}
			if nearest[k] == bi || nearest[k] == bj {
				stale = append(stale, k)
			} else if dist[k][bi] < nearestD[k] {
				nearest[k], nearestD[k] = bi, dist[k][bi]
			}
		}
		par.For(len(stale), 1, scanWorkers(remaining, workers), func(lo, hi int) {
			for _, k := range stale[lo:hi] {
				recomputeNearest(k)
			}
		})
	}
	return nodes[0]
}

// NeighborJoiningWorkers builds a guide tree with the classic NJ
// criterion and roots it at the final join. O(n³); intended for the
// CLUSTALW-like pipeline on modest set sizes. Each iteration's O(m²)
// row-sum and Q-minimisation scans are spread over workers shared-memory
// workers. Each row's scan is sequential (so its float accumulation
// order never changes) and ties are resolved to the lexicographically
// first (a, b) pair, as one nested double loop would — the
// join order, and therefore the tree, is identical for every workers
// value (workers <= 0 selects all cores; 1 runs every scan on the
// calling goroutine).
func NeighborJoiningWorkers(d *kmer.Matrix, names []string, workers int) *Node {
	n := d.N
	if n == 0 {
		return nil
	}
	nodes := make([]*Node, 0, n)
	for i := 0; i < n; i++ {
		nodes = append(nodes, &Node{ID: i, Name: nameOf(names, i)})
	}
	if n == 1 {
		return nodes[0]
	}
	if n == 2 {
		return &Node{ID: -1, Left: nodes[0], Right: nodes[1],
			LeftLen: d.At(0, 1) / 2, RightLen: d.At(0, 1) / 2}
	}

	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
		for j := range dist[i] {
			dist[i][j] = d.At(i, j)
		}
	}
	activeIdx := make([]int, n)
	for i := range activeIdx {
		activeIdx[i] = i
	}
	// per-iteration scratch, hoisted so the O(n) iterations reuse it
	r := make([]float64, n)    // row sums over the active set
	rowQ := make([]float64, n) // per-row minimal Q
	rowArg := make([]int, n)   // argmin b of rowQ (first on ties)

	for len(activeIdx) > 2 {
		m := len(activeIdx)
		// Row sums over the active set. Each row accumulates in
		// ascending b order; rows are independent.
		rowSums := func(lo, hi int) {
			for a := lo; a < hi; a++ {
				var sum float64
				da := dist[activeIdx[a]]
				for b := 0; b < m; b++ {
					sum += da[activeIdx[b]]
				}
				r[a] = sum
			}
		}
		// Minimise Q(a,b) = (m-2)d(a,b) - r_a - r_b: each row finds its
		// first-minimal b, then a sequential scan over rows picks the
		// first-minimal a — the same lexicographic tie-break as one
		// nested loop.
		rowScan := func(lo, hi int) {
			for a := lo; a < hi; a++ {
				rowArg[a] = -1
				var best float64
				da := dist[activeIdx[a]]
				for b := a + 1; b < m; b++ {
					q := float64(m-2)*da[activeIdx[b]] - r[a] - r[b]
					if rowArg[a] == -1 || q < best {
						rowArg[a], best = b, q
					}
				}
				rowQ[a] = best
			}
		}
		w := scanWorkers(m, workers)
		par.For(m, rowBlock, w, rowSums)
		par.For(m, rowBlock, w, rowScan)
		bestA, bestB, bestQ := -1, -1, 0.0
		for a := 0; a < m; a++ {
			if rowArg[a] == -1 {
				continue // last row has no b > a
			}
			if bestA == -1 || rowQ[a] < bestQ {
				bestA, bestB, bestQ = a, rowArg[a], rowQ[a]
			}
		}
		ia, ib := activeIdx[bestA], activeIdx[bestB]
		dab := dist[ia][ib]
		la := dab/2 + (r[bestA]-r[bestB])/(2*float64(m-2))
		lb := dab - la
		if la < 0 {
			la = 0
		}
		if lb < 0 {
			lb = 0
		}
		parent := &Node{ID: -1, Left: nodes[ia], Right: nodes[ib], LeftLen: la, RightLen: lb}
		// distances from the new node (stored in slot ia)
		for c := 0; c < m; c++ {
			ic := activeIdx[c]
			if ic == ia || ic == ib {
				continue
			}
			nd := (dist[ia][ic] + dist[ib][ic] - dab) / 2
			if nd < 0 {
				nd = 0
			}
			dist[ia][ic], dist[ic][ia] = nd, nd
		}
		nodes[ia] = parent
		// drop bestB from the active list
		activeIdx = append(activeIdx[:bestB], activeIdx[bestB+1:]...)
	}
	ia, ib := activeIdx[0], activeIdx[1]
	half := dist[ia][ib] / 2
	return &Node{ID: -1, Left: nodes[ia], Right: nodes[ib], LeftLen: half, RightLen: half}
}

func nameOf(names []string, i int) string {
	if i < len(names) {
		return names[i]
	}
	return ""
}
