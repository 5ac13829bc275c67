package par

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestForCtxCompletesWithoutCancel(t *testing.T) {
	var n int64
	if err := forCtx(context.Background(), 100, 4, func(i int) {
		atomic.AddInt64(&n, 1)
	}); err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("ran %d of 100", n)
	}
}

func TestForCtxStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var n int64
	err := forCtx(ctx, 1000, 4, func(i int) {
		if atomic.AddInt64(&n, 1) == 8 {
			cancel()
		}
		time.Sleep(time.Millisecond)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if got := atomic.LoadInt64(&n); got >= 1000 {
		t.Fatalf("cancel did not stop dispatch: ran all %d", got)
	}
}

func TestForDynamicCtxStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var n int64
	err := ForDynamicCtx(ctx, 1000, 4, func(i int) {
		if atomic.AddInt64(&n, 1) == 8 {
			cancel()
		}
		time.Sleep(time.Millisecond)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if got := atomic.LoadInt64(&n); got >= 1000 {
		t.Fatalf("cancel did not stop dispatch: ran all %d", got)
	}
}

func TestForCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var n int64
	// workers==1 path
	if err := forCtx(ctx, 50, 1, func(i int) { atomic.AddInt64(&n, 1) }); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if n != 0 {
		t.Fatalf("pre-cancelled loop ran %d bodies", n)
	}
	if err := ForDynamicCtx(ctx, 50, 1, func(i int) { atomic.AddInt64(&n, 1) }); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if n != 0 {
		t.Fatalf("pre-cancelled dynamic loop ran %d bodies", n)
	}
}

func TestMapCtx(t *testing.T) {
	out, err := MapCtx(context.Background(), 10, 3, func(i int) int { return i * i })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}
