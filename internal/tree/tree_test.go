package tree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/kmer"
)

// matFrom builds a kmer.Matrix from a dense symmetric table.
func matFrom(t *testing.T, table [][]float64) *kmer.Matrix {
	t.Helper()
	m := kmer.NewMatrix(len(table))
	for i := range table {
		for j := i + 1; j < len(table); j++ {
			if table[i][j] != table[j][i] {
				t.Fatalf("test table asymmetric at (%d,%d)", i, j)
			}
			m.Set(i, j, table[i][j])
		}
	}
	return m
}

func TestUPGMAKnownTopology(t *testing.T) {
	// 0 and 1 are close; 2 is far from both; 3 is farthest.
	d := matFrom(t, [][]float64{
		{0, 1, 6, 10},
		{1, 0, 6, 10},
		{6, 6, 0, 10},
		{10, 10, 10, 0},
	})
	root := UPGMAWorkers(d, []string{"a", "b", "c", "d"}, 1)
	if root.LeafCount() != 4 {
		t.Fatalf("leaf count = %d", root.LeafCount())
	}
	// First join must be {0,1}: find the internal node covering exactly them.
	var pair []int
	root.PostOrder(func(n *Node) {
		if !n.IsLeaf() && n.LeafCount() == 2 {
			ls := n.Leaves()
			sort.Ints(ls)
			if pair == nil {
				pair = ls
			}
		}
	})
	if len(pair) != 2 || pair[0] != 0 || pair[1] != 1 {
		t.Fatalf("first join = %v, want [0 1]", pair)
	}
	// Root height is half the weighted average distance; sanity bound.
	if root.Height <= 0 || root.Height > 5 {
		t.Fatalf("root height = %g", root.Height)
	}
}

func TestUPGMAUltrametric(t *testing.T) {
	// For any UPGMA tree, the distance from every leaf to the root is the
	// root height (ultrametric property).
	rng := rand.New(rand.NewSource(5))
	n := 20
	m := kmer.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.Set(i, j, 0.1+rng.Float64())
		}
	}
	root := UPGMAWorkers(m, nil, 1)
	var check func(n *Node, acc float64)
	check = func(node *Node, acc float64) {
		if node.IsLeaf() {
			if math.Abs(acc-root.Height) > 1e-9 {
				t.Fatalf("leaf %d at depth %g, root height %g", node.ID, acc, root.Height)
			}
			return
		}
		check(node.Left, acc+node.LeftLen)
		check(node.Right, acc+node.RightLen)
	}
	check(root, 0)
}

func TestUPGMACoversAllLeaves(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 3, 7, 50} {
		m := kmer.NewMatrix(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				m.Set(i, j, rng.Float64()+0.01)
			}
		}
		root := UPGMAWorkers(m, nil, 1)
		leaves := root.Leaves()
		sort.Ints(leaves)
		if len(leaves) != n {
			t.Fatalf("n=%d: %d leaves", n, len(leaves))
		}
		for i, id := range leaves {
			if id != i {
				t.Fatalf("n=%d: leaf set %v", n, leaves)
			}
		}
	}
}

// TestGuideTreeWorkersDeterminism pins the tentpole invariant: UPGMA
// and NJ build bit-identical trees (compared as Newick, which encodes
// topology, order and branch lengths) for every worker count. The
// matrices are big enough to cross the parallel cutover and heavily
// quantized so distance ties are common — the (score, lower-index)
// tie-break, not luck, must make the merge order stable.
func TestGuideTreeWorkersDeterminism(t *testing.T) {
	for _, n := range []int{40, 97, 150} {
		rng := rand.New(rand.NewSource(int64(19 + n)))
		m := kmer.NewMatrix(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				// multiples of 0.05: plenty of exact ties
				m.Set(i, j, 0.05*float64(1+rng.Intn(20)))
			}
		}
		names := make([]string, n)
		for i := range names {
			names[i] = "s" + string(rune('A'+i%26)) + "_" + string(rune('0'+i%10))
		}
		upgmaRef := UPGMAWorkers(m, names, 1).Newick()
		njRef := NeighborJoiningWorkers(m, names, 1).Newick()
		for _, w := range []int{0, 2, 4, 8} {
			if got := UPGMAWorkers(m, names, w).Newick(); got != upgmaRef {
				t.Fatalf("n=%d: UPGMA workers=%d differs from workers=1", n, w)
			}
			if got := NeighborJoiningWorkers(m, names, w).Newick(); got != njRef {
				t.Fatalf("n=%d: NJ workers=%d differs from workers=1", n, w)
			}
		}
	}
}

func TestNeighborJoiningAdditiveTree(t *testing.T) {
	// Distances from a known additive tree: ((a:2,b:3):1,(c:4,d:5):1)
	// pairwise: ab=5, ac=8, ad=9, bc=9, bd=10, cd=9. NJ must recover the
	// split {a,b} | {c,d}.
	d := matFrom(t, [][]float64{
		{0, 5, 8, 9},
		{5, 0, 9, 10},
		{8, 9, 0, 9},
		{9, 10, 9, 0},
	})
	root := NeighborJoiningWorkers(d, []string{"a", "b", "c", "d"}, 1)
	if root.LeafCount() != 4 {
		t.Fatalf("leaf count = %d", root.LeafCount())
	}
	var pairs [][]int
	root.PostOrder(func(n *Node) {
		if !n.IsLeaf() && n.LeafCount() == 2 {
			ls := n.Leaves()
			sort.Ints(ls)
			pairs = append(pairs, ls)
		}
	})
	found := false
	for _, p := range pairs {
		if (p[0] == 0 && p[1] == 1) || (p[0] == 2 && p[1] == 3) {
			found = true
		}
	}
	if !found {
		t.Fatalf("NJ did not recover {a,b}|{c,d}: cherries %v", pairs)
	}
}

func TestNeighborJoiningSmall(t *testing.T) {
	d := matFrom(t, [][]float64{{0, 4}, {4, 0}})
	root := NeighborJoiningWorkers(d, nil, 1)
	if root.LeafCount() != 2 || root.LeftLen != 2 || root.RightLen != 2 {
		t.Fatalf("2-leaf NJ: %+v", root)
	}
	single := kmer.NewMatrix(1)
	if NeighborJoiningWorkers(single, nil, 1).LeafCount() != 1 {
		t.Fatal("1-leaf NJ")
	}
}

func TestNeighborJoiningCoversAllLeaves(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{3, 5, 12, 40} {
		m := kmer.NewMatrix(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				m.Set(i, j, rng.Float64()+0.05)
			}
		}
		root := NeighborJoiningWorkers(m, nil, 1)
		leaves := root.Leaves()
		sort.Ints(leaves)
		if len(leaves) != n {
			t.Fatalf("n=%d: %d leaves", n, len(leaves))
		}
		for i, id := range leaves {
			if id != i {
				t.Fatalf("n=%d: leaf set %v", n, leaves)
			}
		}
	}
}

func TestPostOrderVisitsChildrenFirst(t *testing.T) {
	d := matFrom(t, [][]float64{
		{0, 1, 4},
		{1, 0, 4},
		{4, 4, 0},
	})
	root := UPGMAWorkers(d, nil, 1)
	seen := map[*Node]bool{}
	root.PostOrder(func(n *Node) {
		if !n.IsLeaf() {
			if !seen[n.Left] || !seen[n.Right] {
				t.Fatal("internal node visited before a child")
			}
		}
		seen[n] = true
	})
	if !seen[root] {
		t.Fatal("root not visited")
	}
}

func TestDepth(t *testing.T) {
	d := matFrom(t, [][]float64{
		{0, 1, 2, 8},
		{1, 0, 2, 8},
		{2, 2, 0, 8},
		{8, 8, 8, 0},
	})
	root := UPGMAWorkers(d, nil, 1)
	var depth func(n *Node) int // edges from n to its deepest leaf
	depth = func(n *Node) int {
		if n.IsLeaf() {
			return 0
		}
		return 1 + max(depth(n.Left), depth(n.Right))
	}
	if got := depth(root); got != 3 {
		t.Fatalf("depth = %d, want 3 (caterpillar)", got)
	}
}
