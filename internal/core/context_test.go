package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/bio"
	"repro/internal/mpi"
	"repro/internal/msa"
)

// blockingAligner blocks inside AlignContext until its context is
// cancelled, modelling a bucket MSA that would run "forever". The first
// call signals readiness on started.
type blockingAligner struct {
	started chan struct{}
	once    sync.Once
}

func (b *blockingAligner) Name() string { return "blocking" }

func (b *blockingAligner) AlignContext(ctx context.Context, seqs []bio.Sequence) (*msa.Alignment, error) {
	b.once.Do(func() { close(b.started) })
	<-ctx.Done()
	return nil, ctx.Err()
}

// waitGoroutines polls until the goroutine count drops back to at most
// base+slack, failing the test if it never does (leaked workers).
func waitGoroutines(t *testing.T, base int, slack int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base+slack {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, started with %d", n, base)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestAlignInprocContextCancelMidRun(t *testing.T) {
	seqs := testFamily(t, 24, 40, 300, 33)
	base := runtime.NumGoroutine()

	blocker := &blockingAligner{started: make(chan struct{})}
	cfg := Config{NewLocalAligner: func(int) msa.Aligner { return blocker }}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	done := make(chan error, 1)
	go func() {
		_, err := AlignInprocContext(ctx, seqs, 4, cfg)
		done <- err
	}()
	<-blocker.started // at least one rank is deep inside its bucket MSA
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled AlignInprocContext never returned")
	}
	waitGoroutines(t, base, 2)
}

func TestAlignInprocContextAllRanksReportCancel(t *testing.T) {
	// Drive the ranks directly so every rank's error is observable: all
	// of them must come back context.Canceled, whether they were blocked
	// in a collective or in the bucket aligner.
	seqs := testFamily(t, 24, 40, 300, 34)
	parts, origs := SplitBlocks(seqs, 3)
	blocker := &blockingAligner{started: make(chan struct{})}
	cfg := Config{NewLocalAligner: func(int) msa.Aligner { return blocker }}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-blocker.started
		cancel()
	}()

	var mu sync.Mutex
	rankErrs := make(map[int]error)
	_ = mpi.RunContext(ctx, 3, func(c mpi.Comm) error {
		_, _, err := alignTagged(ctx, c, parts[c.Rank()], origs[c.Rank()], cfg, true)
		mu.Lock()
		rankErrs[c.Rank()] = err
		mu.Unlock()
		return err
	})
	for rank := 0; rank < 3; rank++ {
		if !errors.Is(rankErrs[rank], context.Canceled) {
			t.Fatalf("rank %d err = %v, want context.Canceled", rank, rankErrs[rank])
		}
	}
}

func TestAlignInprocContextPreCancelled(t *testing.T) {
	seqs := testFamily(t, 8, 30, 300, 35)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := AlignInprocContext(ctx, seqs, 2, Config{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestAlignInprocContextDeadline(t *testing.T) {
	seqs := testFamily(t, 24, 40, 300, 36)
	blocker := &blockingAligner{started: make(chan struct{})}
	cfg := Config{NewLocalAligner: func(int) msa.Aligner { return blocker }}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := AlignInprocContext(ctx, seqs, 2, cfg); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}
