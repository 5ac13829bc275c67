package serve

import (
	"context"
	"errors"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/internal/fasta"
)

// startServeOn runs s.serveOn on a loopback port of its own and returns
// the base URL, the cancel that starts the shutdown and the channel
// serveOn's error arrives on.
func startServeOn(t *testing.T, s *Server) (string, context.CancelFunc, <-chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	errc := make(chan error, 1)
	go func() { errc <- s.serveOn(ctx, ln) }()
	return "http://" + ln.Addr().String(), cancel, errc
}

func waitServed(t *testing.T, errc <-chan error) error {
	t.Helper()
	select {
	case err := <-errc:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("serveOn never returned")
		return nil
	}
}

func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestListenAndServeDrainsOnCancel: once ctx is cancelled, a new submit
// gets 503 while status and result reads keep answering 200; releasing
// the running job ends the drain, and serveOn returns nil with the job
// done and the server closed.
func TestListenAndServeDrainsOnCancel(t *testing.T) {
	he := &holdExec{release: make(chan struct{})}
	s := newTestServer(t, Config{Executor: he, MaxConcurrent: 1})
	url, cancel, errc := startServeOn(t, s)

	finished := decodeView(t, postFASTA(t, url+"/v1/jobs", fasta.FormatString(testSeqs(4, 30, 601))))
	fj, _ := s.Job(finished.ID)
	waitState(t, fj, StateDone)
	held := decodeView(t, postFASTA(t, url+"/v1/jobs", fasta.FormatString(testSeqs(holdSeqs, 30, 602))))
	hj, _ := s.Job(held.ID)

	cancel()
	deadline := time.Now().Add(10 * time.Second)
	for !s.Stats().Draining {
		if time.Now().After(deadline) {
			t.Fatal("draining never became visible")
		}
		time.Sleep(time.Millisecond)
	}
	resp := postFASTA(t, url+"/v1/jobs", fasta.FormatString(testSeqs(4, 30, 603)))
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", resp.StatusCode)
	}
	if code := getStatus(t, url+"/v1/jobs/"+held.ID); code != http.StatusOK {
		t.Fatalf("status read while draining = %d, want 200", code)
	}
	if code := getStatus(t, url+"/v1/jobs/"+finished.ID+"/result"); code != http.StatusOK {
		t.Fatalf("result read while draining = %d, want 200", code)
	}
	select {
	case err := <-errc:
		t.Fatalf("serveOn returned %v with a job still running", err)
	default:
	}

	close(he.release)
	if err := waitServed(t, errc); err != nil {
		t.Fatalf("serveOn = %v, want nil", err)
	}
	if v := hj.View(); v.State != StateDone {
		t.Fatalf("held job %s (err %q), want done", v.State, v.Error)
	}
	if _, err := s.Submit(testSeqs(4, 30, 604), Options{}); !errors.Is(err, errClosed) {
		t.Fatalf("submit after serveOn returned: %v, want errClosed", err)
	}
}

// TestListenAndServeNoDrain: with DrainTimeout < 0, cancelling ctx
// returns promptly and the running job ends interrupted.
func TestListenAndServeNoDrain(t *testing.T) {
	fe := &fakeExec{block: make(chan struct{}), started: make(chan struct{}, 1)}
	defer close(fe.block)
	s := newTestServer(t, Config{Executor: fe, DrainTimeout: -1})
	url, cancel, errc := startServeOn(t, s)

	v := decodeView(t, postFASTA(t, url+"/v1/jobs", fasta.FormatString(testSeqs(4, 30, 611))))
	<-fe.started
	j, _ := s.Job(v.ID)

	start := time.Now()
	cancel()
	if err := waitServed(t, errc); err != nil {
		t.Fatalf("serveOn = %v, want nil", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("serveOn took %v without a drain", d)
	}
	got := waitState(t, j, StateCanceled)
	if got.Error != errInterrupted.Error() {
		t.Fatalf("running job error %q, want %q", got.Error, errInterrupted)
	}
}

// TestListenAndServeAddrInUse: an address already bound is an error
// from ListenAndServe, not a server that never listens.
func TestListenAndServeAddrInUse(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	s := newTestServer(t, Config{Executor: &fakeExec{}})
	if err := s.ListenAndServe(context.Background(), ln.Addr().String()); err == nil {
		t.Fatal("ListenAndServe on a bound address returned nil")
	}
	if _, err := s.Submit(testSeqs(4, 30, 621), Options{}); !errors.Is(err, errClosed) {
		t.Fatalf("submit after a failed ListenAndServe: %v, want errClosed", err)
	}
}
