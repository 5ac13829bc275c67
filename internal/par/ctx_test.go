package par

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

func TestForCtxCompletesWithoutCancel(t *testing.T) {
	var n int64
	if err := ForCtx(context.Background(), 100, 3, 4, func(lo, hi int) {
		atomic.AddInt64(&n, int64(hi-lo))
	}); err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("ran %d of 100", n)
	}
}

func TestForCtxCoversEveryIndexOnce(t *testing.T) {
	n := 523
	seen := make([]int32, n)
	if err := ForCtx(context.Background(), n, 1, 7, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&seen[i], 1)
		}
	}); err != nil {
		t.Fatal(err)
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestForCtxAscendingAtOneWorker(t *testing.T) {
	var got []int
	if err := ForCtx(context.Background(), 50, 4, 1, func(lo, hi int) {
		got = append(got, lo, hi)
	}); err != nil {
		t.Fatal(err)
	}
	var want []int
	for lo := 0; lo < 50; lo += 4 {
		want = append(want, lo, min(lo+4, 50))
	}
	if !slices.Equal(got, want) {
		t.Fatalf("blocks ran as %v, want %v", got, want)
	}
}

func TestForCtxStopsOnCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var n int64
		err := ForCtx(ctx, 1000, 1, workers, func(lo, hi int) {
			if atomic.AddInt64(&n, 1) == 8 {
				cancel()
			}
			time.Sleep(time.Millisecond)
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		if got := atomic.LoadInt64(&n); got >= 1000 {
			t.Fatalf("workers=%d: cancel did not stop dispatch: ran all %d", workers, got)
		}
	}
}

// TestForDynamicCtxStopsOnCancel holds the dynamic dispatch of ForCtx to
// its cancellation promise with blocks of uneven cost: once cancel
// returns no worker takes another block, so besides the block that
// cancelled only the workers-1 blocks already taken may still start.
func TestForDynamicCtxStopsOnCancel(t *testing.T) {
	const workers, at = 4, 8
	ctx, cancel := context.WithCancel(context.Background())
	var n int64
	err := ForCtx(ctx, 1000, 1, workers, func(lo, hi int) {
		if atomic.AddInt64(&n, 1) == at {
			cancel()
		}
		time.Sleep(time.Duration(lo%3) * time.Millisecond)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if got := atomic.LoadInt64(&n); got > at+workers-1 {
		t.Fatalf("cancel did not stop dispatch: %d blocks started, at most %d may", got, at+workers-1)
	}
}

func TestForCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		for _, n := range []int{0, 50} {
			var ran int64
			err := ForCtx(ctx, n, 10, workers, func(int, int) { atomic.AddInt64(&ran, 1) })
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d n=%d: err = %v", workers, n, err)
			}
			if ran != 0 {
				t.Fatalf("workers=%d n=%d: pre-cancelled loop ran %d blocks", workers, n, ran)
			}
		}
	}
}

// TestForBlocksCtxCancel cancels inside the last block: every block ran,
// and the cancellation is still reported.
func TestForBlocksCtxCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran int64
	err := ForCtx(ctx, 100, 10, 1, func(lo, hi int) {
		atomic.AddInt64(&ran, 1)
		if hi == 100 {
			cancel()
		}
	})
	if ran != 10 {
		t.Fatalf("ran %d of 10 blocks", ran)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want the cancellation", err)
	}
}
