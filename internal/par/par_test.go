package par

import (
	"context"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 100} {
		n := 977
		seen := make([]int32, n)
		For(n, workers, func(i int) { atomic.AddInt32(&seen[i], 1) })
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForDynamicCoversEveryIndexOnce(t *testing.T) {
	n := 523
	seen := make([]int32, n)
	_ = ForDynamicCtx(context.Background(), n, 7, func(i int) { atomic.AddInt32(&seen[i], 1) })
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestForEdgeCases(t *testing.T) {
	ran := false
	For(0, 4, func(int) { ran = true })
	For(-3, 4, func(int) { ran = true })
	if ran {
		t.Fatal("body ran for n<=0")
	}
	count := 0
	For(1, 16, func(int) { count++ })
	if count != 1 {
		t.Fatalf("n=1 ran %d times", count)
	}
}

func TestForDefaultWorkers(t *testing.T) {
	var total int64
	For(1000, 0, func(i int) { atomic.AddInt64(&total, int64(i)) })
	if total != 999*1000/2 {
		t.Fatalf("sum = %d", total)
	}
}

func TestMapOrdering(t *testing.T) {
	out := Map(100, 8, func(i int) int { return i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestForMatchesSequentialProperty(t *testing.T) {
	f := func(n uint8, workers uint8) bool {
		nn := int(n)
		var par64, seq64 int64
		For(nn, int(workers)%9, func(i int) { atomic.AddInt64(&par64, int64(i*i+1)) })
		for i := 0; i < nn; i++ {
			seq64 += int64(i*i + 1)
		}
		return par64 == seq64
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestForBlocksCoversEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct{ n, block, workers int }{
		{100, 7, 4}, {100, 1, 8}, {100, 100, 4}, {100, 1000, 2}, {3, 2, 0}, {0, 4, 4},
	} {
		hits := make([]int64, tc.n)
		ForBlocks(tc.n, tc.block, tc.workers, func(lo, hi int) {
			if lo < 0 || hi > tc.n || lo >= hi {
				t.Errorf("n=%d block=%d: bad range [%d,%d)", tc.n, tc.block, lo, hi)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt64(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d block=%d workers=%d: index %d ran %d times",
					tc.n, tc.block, tc.workers, i, h)
			}
		}
	}
}

func TestForBlocksCtxCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := int64(0)
	err := ForBlocksCtx(ctx, 1000, 10, 4, func(lo, hi int) { atomic.AddInt64(&ran, 1) })
	if err == nil {
		t.Fatal("cancelled ForBlocksCtx returned nil error")
	}
}
