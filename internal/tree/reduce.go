package tree

import (
	"context"

	"repro/internal/par"
)

// ParallelReduce performs a post-order reduction over a binary tree on a
// dependency-aware task scheduler (par.Sched): every internal node is a
// task that combines its children's values with merge (a leaf child's
// value is made with leaf by the merge that consumes it), and nodes
// whose subtrees are disjoint run concurrently. This is the execution
// shape of progressive alignment — the strictly sequential recursion
// over the guide tree becomes a DAG whose width is the number of
// independent subtrees at each level.
//
// The result is identical for every workers value: each node's value
// depends only on its children's values, never on execution order.
// workers <= 0 selects par.DefaultWorkers(); workers == 1 reduces inline
// with no goroutines. On a task error or context cancellation the
// reduction stops (in-flight nodes finish) and the error is returned.
//
// The order is chosen for memory: for progressive alignment a value
// waiting for its sibling is a whole profile. At every node the child
// with more leaves is registered first, and par.Sched runs what a
// completion enables before anything older, so each worker walks
// depth-first, heavy child first, and what waits along its path is each
// time the smaller half of what is below: at most log2(leaves)+1 values
// alive per worker, 2 on a caterpillar — where light child first on a
// caterpillar, or level by level on any tree, keeps one per leaf.
// Leaves are not tasks of their own for the same reason: idle workers
// would run them all ahead of the merges.
//
// Each merge receives a Merge describing its position in the tree, so
// callers can attach per-node observability (e.g. depth-sampled trace
// spans) without re-deriving the topology.
func ParallelReduce[T any](ctx context.Context, root *Node, workers int,
	leaf func(*Node) (T, error), merge func(m Merge, left, right T) (T, error)) (T, error) {
	var zero T
	if root == nil {
		return zero, ctx.Err()
	}
	if root.IsLeaf() {
		v, err := leaf(root)
		if err != nil {
			return zero, err
		}
		return v, ctx.Err()
	}
	leaves := make(map[*Node]int) // a nil child counts 0, so a leaf 1
	root.PostOrder(func(n *Node) { leaves[n] = max(1, leaves[n.Left]+leaves[n.Right]) })
	s := par.NewSched()
	// reg registers internal node n's task after those of its internal
	// children and returns the slot its value will be in.
	var reg func(n *Node, depth int) (par.TaskID, *T)
	reg = func(n *Node, depth int) (par.TaskID, *T) {
		kids, order := [2]*Node{n.Left, n.Right}, [2]int{0, 1}
		if leaves[n.Right] > leaves[n.Left] {
			order = [2]int{1, 0}
		}
		var slots [2]*T // nil for a leaf
		var deps []par.TaskID
		for _, k := range order {
			if !kids[k].IsLeaf() {
				id, slot := reg(kids[k], depth+1)
				slots[k], deps = slot, append(deps, id)
			}
		}
		out := new(T)
		m := Merge{Node: n, Depth: depth}
		id := s.Add(func() error {
			var vals [2]T
			for k, slot := range slots {
				if slot == nil {
					v, err := leaf(kids[k])
					if err != nil {
						return err
					}
					vals[k] = v
					continue
				}
				// Move the value out: a node has one parent, so its slot
				// is dead now, and left filled it would stay reachable
				// through the task closures until Run returns.
				vals[k], *slot = *slot, zero
			}
			v, err := merge(m, vals[0], vals[1])
			if err != nil {
				return err
			}
			*out = v
			return nil
		}, deps...)
		return id, out
	}
	_, rootVal := reg(root, 0)
	if err := s.Run(ctx, workers); err != nil {
		return zero, err
	}
	return *rootVal, nil
}

// Merge identifies one internal node of a ParallelReduce: the node
// being merged and its depth below the root (root merge = 0).
type Merge struct {
	Node  *Node
	Depth int
}
