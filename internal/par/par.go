// Package par provides the small shared-memory parallelism helpers used
// by the compute kernels: a parallel for-loop over an index range and a
// bounded worker pool. Distribution across "cluster nodes" is the job of
// internal/mpi; par only exploits the cores inside one node.
//
// The *Ctx variants stop dispatching new indices once their context is
// cancelled and return the context's error; already-running body calls
// finish first, so bodies never observe a half-cancelled loop.
package par

import (
	"context"
	"runtime"
	"sync"
)

// DefaultWorkers returns the worker count used when a caller passes
// workers <= 0: the number of usable CPUs.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// For runs body(i) for every i in [0,n) using the given number of
// workers. Indices are handed out in contiguous blocks to preserve cache
// locality. For blocks until every call returns. workers <= 0 selects
// DefaultWorkers(); n <= 0 is a no-op.
func For(n, workers int, body func(i int)) {
	//lint:allow ctxflow for callers that hold no context: tree scans, and kmer.Profiles and SPScore through Map
	_ = forCtx(context.Background(), n, workers, body)
}

// forCtx is For bound to a context: when ctx is cancelled the workers
// stop picking up new indices and forCtx returns ctx.Err() (indices
// already dispatched complete). A nil error means every index ran.
func forCtx(ctx context.Context, n, workers int, body func(i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	done := ctx.Done()
	if workers == 1 {
		for i := 0; i < n; i++ {
			if done != nil {
				select {
				case <-done:
					return ctx.Err()
				default:
				}
			}
			body(i)
		}
		return ctx.Err()
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				if done != nil {
					select {
					case <-done:
						return
					default:
					}
				}
				body(i)
			}
		}(lo, hi)
	}
	wg.Wait()
	return ctx.Err()
}

// ForDynamicCtx is like forCtx but hands out indices one at a time from
// a shared counter, which balances load when per-index cost varies
// wildly (for example, distance-matrix rows of decreasing length). The
// dispatcher stops handing out indices once ctx is cancelled and
// ForDynamicCtx returns ctx.Err() (in-flight body calls complete first).
func ForDynamicCtx(ctx context.Context, n, workers int, body func(i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	done := ctx.Done()
	if workers == 1 {
		for i := 0; i < n; i++ {
			if done != nil {
				select {
				case <-done:
					return ctx.Err()
				default:
				}
			}
			body(i)
		}
		return ctx.Err()
	}
	next := make(chan int)
	go func() {
		defer close(next)
		for i := 0; i < n; i++ {
			select {
			case next <- i:
			case <-done:
				return
			}
		}
	}()
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				body(i)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// ForBlocks runs body(lo, hi) over contiguous blocks of [0,n) of the
// given block size, dynamically scheduled across workers. Blocking
// amortises dispatch overhead when the per-index work is small (row
// sums, nearest-neighbour cache refreshes) while keeping the dynamic
// load balance of ForDynamicCtx for blocks of uneven cost.
func ForBlocks(n, block, workers int, body func(lo, hi int)) {
	//lint:allow ctxflow for callers that hold no context: the tree builders' row scans
	_ = ForBlocksCtx(context.Background(), n, block, workers, body)
}

// ForBlocksCtx is ForBlocks bound to a context: the dispatcher stops
// handing out blocks once ctx is cancelled and ForBlocksCtx returns
// ctx.Err() (in-flight blocks complete first).
func ForBlocksCtx(ctx context.Context, n, block, workers int, body func(lo, hi int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	if block <= 0 {
		block = 1
	}
	blocks := (n + block - 1) / block
	return ForDynamicCtx(ctx, blocks, workers, func(b int) {
		lo := b * block
		hi := lo + block
		if hi > n {
			hi = n
		}
		body(lo, hi)
	})
}

// Map applies f to every element index of a length-n virtual slice and
// collects results in order.
func Map[T any](n, workers int, f func(i int) T) []T {
	out := make([]T, n)
	For(n, workers, func(i int) { out[i] = f(i) })
	return out
}

// MapCtx is Map bound to a context: on cancellation the returned slice
// is partially filled and the context's error is returned.
func MapCtx[T any](ctx context.Context, n, workers int, f func(i int) T) ([]T, error) {
	out := make([]T, n)
	err := forCtx(ctx, n, workers, func(i int) { out[i] = f(i) })
	return out, err
}
