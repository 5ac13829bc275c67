package serve

import (
	"errors"
	"testing"
	"time"
)

func TestCoalescingSharesOneRun(t *testing.T) {
	fe := &fakeExec{block: make(chan struct{}), started: make(chan struct{}, 4)}
	s := newTestServer(t, Config{Executor: fe, MaxConcurrent: 1})
	defer s.Close()
	seqs := testSeqs(6, 40, 80)

	j1, err := s.Submit(seqs, Options{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	<-fe.started // j1 is inside the executor
	// Identical submissions attach to the running flight instead of
	// queueing duplicates.
	j2, err := s.Submit(seqs, Options{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	j3, err := s.Submit(seqs, Options{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if v := j2.View(); !v.Coalesced || v.State != StateRunning {
		t.Fatalf("j2 view: %+v, want coalesced+running", v)
	}
	if j1.View().Coalesced {
		t.Fatal("the first submitter reported coalesced")
	}
	// Different workers coalesce too (not result-affecting)…
	j4, err := s.Submit(seqs, Options{Procs: 2, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !j4.View().Coalesced {
		t.Fatal("worker-count variant did not coalesce")
	}
	// …but a different rank count is a different computation.
	j5, err := s.Submit(seqs, Options{Procs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if j5.View().Coalesced {
		t.Fatal("different procs coalesced onto the wrong flight")
	}

	close(fe.block)
	for _, j := range []*Job{j1, j2, j3, j4} {
		v := waitState(t, j, StateDone)
		if v.Result == nil || v.Result.NumSeqs != 6 {
			t.Fatalf("job %s result: %+v", j.ID, v.Result)
		}
	}
	waitState(t, j5, StateDone)
	if got := fe.Runs(); got != 2 { // one for the shared flight, one for j5
		t.Fatalf("runs = %d, want 2", got)
	}
	if got := s.metrics.Coalesced.Value(); got != 3 {
		t.Fatalf("coalesced counter = %d, want 3", got)
	}
	// All waiters share one payload.
	p1, _ := s.resultPayload(j1, j1.View().Result)
	p2, _ := s.resultPayload(j2, j2.View().Result)
	if string(p1) != string(p2) || len(p1) == 0 {
		t.Fatal("coalesced jobs returned different payloads")
	}
}

func TestCoalescedCancelOnlyDetachesOneWaiter(t *testing.T) {
	fe := &fakeExec{block: make(chan struct{}), started: make(chan struct{}, 4)}
	defer close(fe.block)
	s := newTestServer(t, Config{Executor: fe, MaxConcurrent: 1})
	defer s.Close()
	seqs := testSeqs(6, 40, 81)

	j1, err := s.Submit(seqs, Options{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	<-fe.started
	j2, err := s.Submit(seqs, Options{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Canceling one waiter must not kill the computation the other
	// still wants.
	if live, err := s.Cancel(j1.ID, errors.New("impatient client")); err != nil || !live {
		t.Fatalf("cancel j1: live=%v err=%v", live, err)
	}
	waitState(t, j1, StateCanceled)
	select {
	case <-j2.Done():
		t.Fatalf("j2 terminal (%s) after a sibling cancel", j2.View().State)
	case <-time.After(50 * time.Millisecond):
	}
	// Canceling the last waiter propagates into the executor.
	if live, err := s.Cancel(j2.ID, nil); err != nil || !live {
		t.Fatalf("cancel j2: live=%v err=%v", live, err)
	}
	waitState(t, j2, StateCanceled)
	if fe.Runs() != 1 {
		t.Fatalf("runs = %d, want 1", fe.Runs())
	}
	// The flight is gone: a fresh identical submission computes anew.
	j3, err := s.Submit(seqs, Options{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	<-fe.started
	if j3.View().Coalesced {
		t.Fatal("new submission attached to a dead flight")
	}
	s.Cancel(j3.ID, nil)
	waitState(t, j3, StateCanceled)
}

func TestCancelQueuedRemovesFromFIFOImmediately(t *testing.T) {
	fe := &fakeExec{block: make(chan struct{}), started: make(chan struct{}, 4)}
	s := newTestServer(t, Config{Executor: fe, MaxConcurrent: 1, MaxQueued: 4})
	defer s.Close()

	j1, err := s.Submit(testSeqs(4, 30, 82), Options{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-fe.started
	j2, err := s.Submit(testSeqs(4, 30, 83), Options{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if q := s.Stats().Queued; q != 1 {
		t.Fatalf("queued = %d, want 1", q)
	}
	// Canceling the queued job frees its FIFO slot *now*, not when a
	// dispatcher would have reached it.
	if live, err := s.Cancel(j2.ID, nil); err != nil || !live {
		t.Fatalf("cancel queued: live=%v err=%v", live, err)
	}
	waitState(t, j2, StateCanceled)
	if q := s.Stats().Queued; q != 0 {
		t.Fatalf("queued = %d after cancel, want 0 (removed from FIFO)", q)
	}
	j3, err := s.Submit(testSeqs(4, 30, 84), Options{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	close(fe.block)
	waitState(t, j1, StateDone)
	waitState(t, j3, StateDone)
	if fe.Runs() != 2 {
		t.Fatalf("runs = %d, want 2 (the canceled queued job never ran)", fe.Runs())
	}
}

func TestDrainWaitsForRunningAndRefusesNew(t *testing.T) {
	fe := &fakeExec{block: make(chan struct{}), started: make(chan struct{}, 2)}
	s := newTestServer(t, Config{Executor: fe, MaxConcurrent: 1})
	defer s.Close()
	j1, err := s.Submit(testSeqs(4, 30, 85), Options{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-fe.started

	drained := make(chan bool, 1)
	go func() { drained <- s.Drain(30 * time.Second) }()
	// Wait until draining is visible, then verify admission is closed.
	deadline := time.Now().Add(10 * time.Second)
	for !s.Stats().Draining {
		if time.Now().After(deadline) {
			t.Fatal("draining never became visible")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(testSeqs(4, 30, 86), Options{Procs: 1}); !errors.Is(err, errClosed) {
		t.Fatalf("submit while draining: %v, want errClosed", err)
	}
	// The running job finishes and the drain completes.
	close(fe.block)
	waitState(t, j1, StateDone)
	select {
	case ok := <-drained:
		if !ok {
			t.Fatal("drain reported timeout despite the pool emptying")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("drain never returned")
	}
}

func TestDrainTimesOutOnStuckJob(t *testing.T) {
	fe := &fakeExec{block: make(chan struct{}), started: make(chan struct{}, 2)}
	defer close(fe.block)
	s := newTestServer(t, Config{Executor: fe, MaxConcurrent: 1})
	defer s.Close()
	j1, err := s.Submit(testSeqs(4, 30, 87), Options{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-fe.started
	if s.Drain(100 * time.Millisecond) {
		t.Fatal("drain reported success with a stuck job")
	}
	// Close still tears the job down.
	s.Close()
	waitState(t, j1, StateCanceled)
}
