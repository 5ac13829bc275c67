// Package par provides the shared-memory parallelism used by the
// compute kernels: one blocked loop over an index range (ForCtx, and For
// for callers that hold no context) and the task DAG scheduler it runs
// on (Sched). Sched.Run is the only worker pool. Distribution across
// "cluster nodes" is the job of internal/mpi; par only exploits the
// cores inside one node.
package par

import (
	"context"
	"runtime"
)

// DefaultWorkers returns the worker count used when a caller passes
// workers <= 0: the number of usable CPUs.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// ForCtx runs body(lo, hi) over the consecutive blocks [0,block),
// [block,2·block), … of [0,n), the last one cut short at n, on the given
// number of workers (<= 0 selects DefaultWorkers). The blocks are a flat
// fan-out on a Sched, so idle workers take the next block in ascending
// order, which balances blocks of uneven cost; with one worker they run
// inline in that order. block <= 0 means 1 and n <= 0 runs nothing.
//
// When ctx is cancelled no new block starts and ForCtx returns ctx.Err()
// once the running ones finish, also when every block had already run.
// A nil error means every block ran.
func ForCtx(ctx context.Context, n, block, workers int, body func(lo, hi int)) error {
	block = max(block, 1)
	s := NewSched()
	for lo := 0; lo < n; lo += block {
		hi := min(lo+block, n)
		s.Add(func() error {
			body(lo, hi)
			return nil
		})
	}
	return s.Run(ctx, workers)
}

// For is ForCtx without a context: every block runs.
func For(n, block, workers int, body func(lo, hi int)) {
	//lint:allow ctxflow for callers that hold no context: the tree scans, kmer.Counter.Profiles and SPScore
	_ = ForCtx(context.Background(), n, block, workers, body)
}
