package samplealign

import (
	"context"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func waitGoroutines(t *testing.T, base, slack int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base+slack {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, started with %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestAlignContextPreCancelled(t *testing.T) {
	seqs := testSeqs(t, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := AlignContext(ctx, seqs, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestAlignContextDeadlineMidRun(t *testing.T) {
	// A large diverse set takes far longer than the deadline; the run
	// must unwind every rank and report the deadline error, leaking no
	// goroutines.
	seqs, err := GenerateDiverseSet(300, 200, 17)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	_, _, err = AlignContext(ctx, seqs, 4)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	waitGoroutines(t, base, 2)
}

func TestAlignContextCompletesUncancelled(t *testing.T) {
	seqs := testSeqs(t, 12)
	aln, report, err := AlignContext(context.Background(), seqs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if aln.NumSeqs() != len(seqs) {
		t.Fatalf("%d rows", aln.NumSeqs())
	}
	if report == nil || report.Procs != 2 {
		t.Fatalf("report: %+v", report)
	}
}

func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

func TestAlignTCPContextCancelMidRun(t *testing.T) {
	// Two TCP ranks share a context that is cancelled while the (large)
	// alignment is in flight: both ranks must return context.Canceled and
	// all connection/reader goroutines must drain. The input is sized
	// so an uncancelled run takes seconds, far past the cancel point.
	seqs, err := GenerateDiverseSet(2400, 300, 19)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	addrs := freeAddrs(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	half := len(seqs) / 2
	shards := [][]Sequence{seqs[:half], seqs[half:]}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for rank := 0; rank < 2; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			_, errs[rank] = AlignTCPContext(ctx,
				TCPRankConfig{Rank: rank, Addrs: addrs}, shards[rank])
		}(rank)
	}
	time.Sleep(150 * time.Millisecond) // let the mesh form and the run start
	cancel()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("cancelled TCP ranks never returned")
	}
	for rank, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("rank %d err = %v, want context.Canceled", rank, err)
		}
	}
	waitGoroutines(t, base, 2)
}

func TestSummaryReportsBothDirections(t *testing.T) {
	seqs := testSeqs(t, 16)
	_, report, err := Align(seqs, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := report.Summary()
	if !strings.Contains(s, "bytes sent") || !strings.Contains(s, "bytes received") {
		t.Fatalf("summary missing traffic directions: %s", s)
	}
}
