package par

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

// cover runs For and returns how often each index of [0,n) was visited,
// failing on any block outside [0,n), empty, or longer than block.
func cover(t *testing.T, n, block, workers int) []int64 {
	t.Helper()
	hits := make([]int64, max(n, 0))
	For(n, block, workers, func(lo, hi int) {
		if lo < 0 || hi > n || lo >= hi || hi-lo > max(block, 1) {
			t.Errorf("n=%d block=%d: bad block [%d,%d)", n, block, lo, hi)
			return
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt64(&hits[i], 1)
		}
	})
	return hits
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 100} {
		for _, block := range []int{1, 16} {
			for i, c := range cover(t, 977, block, workers) {
				if c != 1 {
					t.Fatalf("workers=%d block=%d: index %d visited %d times", workers, block, i, c)
				}
			}
		}
	}
}

// TestForBlocksCoversEveryIndexOnce includes block <= 0 (which means 1)
// and workers > n.
func TestForBlocksCoversEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct{ n, block, workers int }{
		{100, 7, 4}, {100, 1, 8}, {100, 100, 4}, {100, 1000, 2}, {3, 2, 0},
		{0, 4, 4}, {10, 0, 3}, {10, -5, 3}, {1, 1, 16},
	} {
		for i, h := range cover(t, tc.n, tc.block, tc.workers) {
			if h != 1 {
				t.Fatalf("n=%d block=%d workers=%d: index %d ran %d times",
					tc.n, tc.block, tc.workers, i, h)
			}
		}
	}
}

func TestForEdgeCases(t *testing.T) {
	ran := false
	For(0, 1, 4, func(int, int) { ran = true })
	For(-3, 1, 4, func(int, int) { ran = true })
	if ran {
		t.Fatal("body ran for n<=0")
	}
	count := 0 // workers > n: one block, run once
	For(1, 1, 16, func(lo, hi int) { count += hi - lo })
	if count != 1 {
		t.Fatalf("n=1 ran %d times", count)
	}
}

func TestForDefaultWorkers(t *testing.T) {
	var total int64
	For(1000, 7, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt64(&total, int64(i))
		}
	})
	if total != 999*1000/2 {
		t.Fatalf("sum = %d", total)
	}
}

func TestForMatchesSequentialProperty(t *testing.T) {
	f := func(n, block, workers uint8) bool {
		nn := int(n)
		var par64, seq64 int64
		For(nn, int(block)%9, int(workers)%9, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt64(&par64, int64(i*i+1))
			}
		})
		for i := 0; i < nn; i++ {
			seq64 += int64(i*i + 1)
		}
		return par64 == seq64
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
