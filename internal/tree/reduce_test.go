package tree

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/kmer"
)

func randomTree(t *testing.T, n int, seed int64) *Node {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := kmer.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.Set(i, j, rng.Float64())
		}
	}
	return UPGMA(m, nil)
}

func TestParallelReduceCountsLeaves(t *testing.T) {
	root := randomTree(t, 97, 7)
	leaf := func(n *Node) (int, error) { return 1, nil }
	merge := func(_ Merge, l, r int) (int, error) { return l + r, nil }
	for _, workers := range []int{1, 2, 8} {
		got, err := ParallelReduce(context.Background(), root, workers, leaf, merge)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got != root.LeafCount() {
			t.Fatalf("workers=%d: counted %d leaves, want %d", workers, got, root.LeafCount())
		}
	}
}

func TestParallelReduceDeterministicOrder(t *testing.T) {
	// The reduced value of a non-commutative merge (string of the leaf
	// order) must not depend on the worker count.
	root := randomTree(t, 41, 11)
	leaf := func(n *Node) (string, error) { return fmt.Sprintf("%d", n.ID), nil }
	merge := func(_ Merge, l, r string) (string, error) { return "(" + l + "," + r + ")", nil }
	ref, err := ParallelReduce(context.Background(), root, 1, leaf, merge)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		got, err := ParallelReduce(context.Background(), root, workers, leaf, merge)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got != ref {
			t.Fatalf("workers=%d: shape %s != serial %s", workers, got, ref)
		}
	}
}

func TestParallelReduceLeafError(t *testing.T) {
	root := randomTree(t, 16, 3)
	boom := errors.New("bad leaf")
	leaf := func(n *Node) (int, error) {
		if n.ID == 5 {
			return 0, boom
		}
		return 1, nil
	}
	merge := func(_ Merge, l, r int) (int, error) { return l + r, nil }
	for _, workers := range []int{1, 4} {
		if _, err := ParallelReduce(context.Background(), root, workers, leaf, merge); !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want bad leaf", workers, err)
		}
	}
}

func TestParallelReduceMergeInfo(t *testing.T) {
	// Every merge must see its own node at the correct depth: the root
	// merge at depth 0, children one deeper, down the whole tree.
	root := randomTree(t, 33, 5)
	wantDepth := map[*Node]int{}
	var walk func(n *Node, d int)
	walk = func(n *Node, d int) {
		if n == nil || n.IsLeaf() {
			return
		}
		wantDepth[n] = d
		walk(n.Left, d+1)
		walk(n.Right, d+1)
	}
	walk(root, 0)
	leaf := func(n *Node) (int, error) { return 1, nil }
	seen := map[*Node]int{}
	merge := func(m Merge, l, r int) (int, error) {
		if m.Node == nil {
			t.Error("merge with nil node")
		} else {
			seen[m.Node] = m.Depth
		}
		return l + r, nil
	}
	if _, err := ParallelReduce(context.Background(), root, 1, leaf, merge); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(wantDepth) {
		t.Fatalf("saw %d merges, want %d", len(seen), len(wantDepth))
	}
	for n, d := range wantDepth {
		if seen[n] != d {
			t.Fatalf("node %v: depth %d, want %d", n, seen[n], d)
		}
	}
}

func TestParallelReduceNilAndSingle(t *testing.T) {
	leaf := func(n *Node) (int, error) { return n.ID, nil }
	merge := func(_ Merge, l, r int) (int, error) { return l + r, nil }
	got, err := ParallelReduce(context.Background(), nil, 4, leaf, merge)
	if err != nil || got != 0 {
		t.Fatalf("nil root: %d, %v", got, err)
	}
	got, err = ParallelReduce(context.Background(), &Node{ID: 9}, 4, leaf, merge)
	if err != nil || got != 9 {
		t.Fatalf("single leaf: %d, %v", got, err)
	}
}

// frontierPeak reduces root and returns the most results that were ever
// alive at once: made by a leaf or a merge and not yet consumed by one.
func frontierPeak(t *testing.T, root *Node, workers int) int64 {
	t.Helper()
	var alive, peak atomic.Int64
	made := func() {
		v := alive.Add(1)
		for p := peak.Load(); v > p && !peak.CompareAndSwap(p, v); p = peak.Load() {
		}
	}
	leaf := func(*Node) (int, error) { made(); return 1, nil }
	merge := func(_ Merge, l, r int) (int, error) {
		alive.Add(-2)
		made()
		return l + r, nil
	}
	got, err := ParallelReduce(context.Background(), root, workers, leaf, merge)
	if err != nil || got != root.LeafCount() {
		t.Fatalf("reduced to %d (err %v), want %d", got, err, root.LeafCount())
	}
	return peak.Load()
}

// TestParallelReduceFrontierBound: the reduction walks depth-first,
// heavy child first, so the results waiting for their sibling stay few
// — for progressive alignment each is a whole profile. A caterpillar
// whose spine hangs to the right is the shape that tells heavy-first
// from left-first: left-first runs every leaf before the first merge.
func TestParallelReduceFrontierBound(t *testing.T) {
	caterpillar := func(n int, spineRight bool) *Node {
		spine := &Node{ID: 0}
		for i := 1; i < n; i++ {
			leaf := &Node{ID: i}
			if spineRight {
				spine = &Node{ID: -1, Left: leaf, Right: spine}
			} else {
				spine = &Node{ID: -1, Left: spine, Right: leaf}
			}
		}
		return spine
	}
	var balanced func(lo, hi int) *Node
	balanced = func(lo, hi int) *Node {
		if hi-lo == 1 {
			return &Node{ID: lo}
		}
		mid := (lo + hi) / 2
		return &Node{ID: -1, Left: balanced(lo, mid), Right: balanced(mid, hi)}
	}
	for _, tc := range []struct {
		name  string
		root  *Node
		bound int64 // with one worker; workers times that with more
	}{
		{"caterpillar256/spine-left", caterpillar(256, false), 3},
		{"caterpillar256/spine-right", caterpillar(256, true), 3},
		{"balanced1024", balanced(0, 1024), 11},
	} {
		for _, workers := range []int{1, 4} {
			if peak, limit := frontierPeak(t, tc.root, workers), tc.bound*int64(workers); peak > limit {
				t.Errorf("%s workers=%d: %d results alive at once, want ≤ %d", tc.name, workers, peak, limit)
			}
		}
	}
}
