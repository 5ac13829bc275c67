package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

// sseFrame is one parsed frame off a /v1/jobs/{id}/events stream.
type sseFrame struct {
	id int64 // SSE id line (bus sequence); 0 for synthesized events
	ev Event
}

// sseClient reads a live SSE stream in the background so tests can
// consume frames with timeouts instead of blocking on the socket.
type sseClient struct {
	header http.Header
	frames chan sseFrame
	cancel context.CancelFunc
}

// openSSE subscribes to url and starts parsing frames. The frames
// channel closes when the server ends the stream (terminal event) or
// the client disconnects via close().
func openSSE(t *testing.T, url, lastEventID string) *sseClient {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		cancel()
		t.Fatalf("events status = %d: %s", resp.StatusCode, body)
	}
	c := &sseClient{header: resp.Header, frames: make(chan sseFrame, 256), cancel: cancel}
	go func() {
		defer close(c.frames)
		defer resp.Body.Close()
		br := bufio.NewReader(resp.Body)
		var f sseFrame
		var seen bool
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				return
			}
			line = strings.TrimRight(line, "\r\n")
			switch {
			case line == "":
				if seen {
					c.frames <- f
				}
				f, seen = sseFrame{}, false
			case strings.HasPrefix(line, "id: "):
				f.id, _ = strconv.ParseInt(line[len("id: "):], 10, 64)
			case strings.HasPrefix(line, "data: "):
				if json.Unmarshal([]byte(line[len("data: "):]), &f.ev) == nil {
					seen = true
				}
			}
			// "event: T" repeats data's type; ": ping" comments skipped.
		}
	}()
	return c
}

func (c *sseClient) close() { c.cancel() }

// next returns the next frame, failing the test on a stall; ok is
// false once the server has ended the stream.
func (c *sseClient) next(t *testing.T) (sseFrame, bool) {
	t.Helper()
	select {
	case f, ok := <-c.frames:
		return f, ok
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for an SSE frame")
		return sseFrame{}, false
	}
}

// drain consumes frames until the server ends the stream.
func (c *sseClient) drain(t *testing.T) []sseFrame {
	t.Helper()
	var out []sseFrame
	for {
		f, ok := c.next(t)
		if !ok {
			return out
		}
		out = append(out, f)
	}
}

func eventTypes(frames []sseFrame) []string {
	types := make([]string, len(frames))
	for i, f := range frames {
		types[i] = f.ev.Type
	}
	return types
}

// TestEventsStreamLifecycle subscribes mid-job: the replayed history
// (queued, started) arrives first, then the live terminal event when
// the executor is released, and the stream ends by itself.
func TestEventsStreamLifecycle(t *testing.T) {
	fe := &fakeExec{block: make(chan struct{}), started: make(chan struct{}, 1)}
	s, ts := httpServer(t, Config{Executor: fe})
	job, err := s.Submit(testSeqs(6, 30, 50), Options{})
	if err != nil {
		t.Fatal(err)
	}
	<-fe.started // executor running, queued+started already on the bus

	c := openSSE(t, ts.URL+"/v1/jobs/"+job.ID+"/events", "")
	defer c.close()
	if got := c.header.Get("X-Job-Id"); got != job.ID {
		t.Fatalf("X-Job-Id = %q, want %q", got, job.ID)
	}
	if got := c.header.Get("X-Trace-Id"); got != job.Trace {
		t.Fatalf("X-Trace-Id = %q, want %q", got, job.Trace)
	}

	f1, _ := c.next(t)
	if f1.ev.Type != eventQueued || f1.ev.Job != job.ID || f1.id == 0 {
		t.Fatalf("first frame = %+v, want replayed queued for %s", f1, job.ID)
	}
	if f1.ev.Trace != job.Trace {
		t.Fatalf("queued trace = %q, want %q", f1.ev.Trace, job.Trace)
	}
	f2, _ := c.next(t)
	if f2.ev.Type != eventStarted || f2.id <= f1.id {
		t.Fatalf("second frame = %+v, want started after id %d", f2, f1.id)
	}

	close(fe.block)
	f3, _ := c.next(t)
	if f3.ev.Type != eventDone || f3.ev.Job != job.ID {
		t.Fatalf("terminal frame = %+v, want done for %s", f3, job.ID)
	}
	if _, ok := c.next(t); ok {
		t.Fatal("stream did not end after the job's terminal event")
	}
	waitState(t, job, StateDone)
}

// TestEventsDisconnectDoesNotCancelJob drops the only subscriber of a
// running job: unlike the synchronous align endpoint, an events
// subscriber is an observer, and its disconnect must not cancel
// anything.
func TestEventsDisconnectDoesNotCancelJob(t *testing.T) {
	fe := &fakeExec{block: make(chan struct{}), started: make(chan struct{}, 1)}
	s, ts := httpServer(t, Config{Executor: fe})
	job, err := s.Submit(testSeqs(6, 30, 51), Options{})
	if err != nil {
		t.Fatal(err)
	}
	<-fe.started

	c := openSSE(t, ts.URL+"/v1/jobs/"+job.ID+"/events", "")
	if f, _ := c.next(t); f.ev.Type != eventQueued {
		t.Fatalf("first frame = %+v", f)
	}
	c.close() // client walks away mid-stream

	// Give a buggy disconnect-cancel path time to fire, then prove the
	// job is still running and completes normally.
	time.Sleep(50 * time.Millisecond)
	if st := job.View().State; st != StateRunning {
		t.Fatalf("job state after subscriber disconnect = %s, want running", st)
	}
	close(fe.block)
	waitState(t, job, StateDone)
}

// TestEventsReplayAfterCompletion subscribes after the job finished: the
// bus history replays the whole stream — queued through every pipeline
// stage and rank to done — with strictly increasing ids.
func TestEventsReplayAfterCompletion(t *testing.T) {
	s, ts := httpServer(t, Config{}) // real in-process executor
	job, err := s.Submit(testSeqs(18, 60, 52), Options{Procs: 3})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, job, StateDone)

	frames := openSSE(t, ts.URL+"/v1/jobs/"+job.ID+"/events", "").drain(t)
	if len(frames) < 4 {
		t.Fatalf("replay produced %d frames: %v", len(frames), eventTypes(frames))
	}
	if frames[0].ev.Type != eventQueued || frames[1].ev.Type != eventStarted {
		t.Fatalf("replay starts %v, want [queued started ...]", eventTypes(frames[:2]))
	}
	last := frames[len(frames)-1]
	if last.ev.Type != eventDone || last.ev.Job != job.ID {
		t.Fatalf("replay ends %+v, want done for %s", last.ev, job.ID)
	}

	stages := map[string]bool{}
	ranks := map[int]bool{}
	var prev int64
	for _, f := range frames {
		if f.id <= prev {
			t.Fatalf("ids not strictly increasing: %d after %d", f.id, prev)
		}
		prev = f.id
		if f.ev.Trace != job.Trace {
			t.Fatalf("frame trace = %q, want %q: %+v", f.ev.Trace, job.Trace, f.ev)
		}
		switch f.ev.Type {
		case eventStage:
			if !pipelineStages[f.ev.Stage] {
				t.Fatalf("stage event with non-canonical stage %q", f.ev.Stage)
			}
			if f.ev.DurationNs < 0 {
				t.Fatalf("negative stage duration: %+v", f.ev)
			}
			stages[f.ev.Stage] = true
		case eventRank:
			if f.ev.Rank == nil {
				t.Fatalf("rank event without rank attribute: %+v", f.ev)
			}
			ranks[*f.ev.Rank] = true
		}
	}
	for _, want := range pipelineStageNames {
		if !stages[want] {
			t.Fatalf("stream missing stage %q (saw %v)", want, stages)
		}
	}
	for r := 0; r < 3; r++ {
		if !ranks[r] {
			t.Fatalf("stream missing rank %d event (saw %v)", r, ranks)
		}
	}
}

// TestEventsLastEventIDResume reconnects with Last-Event-ID (and the
// ?after= fallback) and must only see events past that sequence.
func TestEventsLastEventIDResume(t *testing.T) {
	s, ts := httpServer(t, Config{Executor: &fakeExec{}})
	job, err := s.Submit(testSeqs(6, 30, 53), Options{})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, job, StateDone)

	full := openSSE(t, ts.URL+"/v1/jobs/"+job.ID+"/events", "").drain(t)
	if len(full) < 3 { // queued, started, done
		t.Fatalf("full replay has %d frames: %v", len(full), eventTypes(full))
	}
	cut := full[0].id

	resumed := openSSE(t, ts.URL+"/v1/jobs/"+job.ID+"/events", strconv.FormatInt(cut, 10)).drain(t)
	if len(resumed) != len(full)-1 {
		t.Fatalf("resume after id %d replayed %d frames, want %d", cut, len(resumed), len(full)-1)
	}
	for _, f := range resumed {
		if f.id <= cut {
			t.Fatalf("resume leaked id %d <= Last-Event-ID %d", f.id, cut)
		}
	}

	viaQuery := openSSE(t, ts.URL+"/v1/jobs/"+job.ID+"/events?after="+strconv.FormatInt(cut, 10), "").drain(t)
	if len(viaQuery) != len(resumed) {
		t.Fatalf("?after= replayed %d frames, header replayed %d", len(viaQuery), len(resumed))
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/events?after=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad ?after= status = %d, want 400", resp.StatusCode)
	}
}

// TestEventsCoalescedRidersShareStream: a rider coalesced onto a running
// flight sees the shared stream (including history from before it
// joined); canceling the rider ends only the rider's stream, and the
// original job's stream sails past the rider's terminal event.
func TestEventsCoalescedRidersShareStream(t *testing.T) {
	fe := &fakeExec{block: make(chan struct{}), started: make(chan struct{}, 1)}
	s, ts := httpServer(t, Config{Executor: fe})
	seqs := testSeqs(6, 30, 54)
	job1, err := s.Submit(seqs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	<-fe.started
	job2, err := s.Submit(seqs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if job2.ID == job1.ID || job2.Trace != job1.Trace {
		t.Fatalf("second submit not coalesced: %s/%s vs %s/%s", job2.ID, job2.Trace, job1.ID, job1.Trace)
	}

	c1 := openSSE(t, ts.URL+"/v1/jobs/"+job1.ID+"/events", "")
	defer c1.close()
	c2 := openSSE(t, ts.URL+"/v1/jobs/"+job2.ID+"/events", "")
	defer c2.close()

	// The rider's stream replays the shared flight history: job1's
	// queued, started, then its own coalesced queued.
	var rider []sseFrame
	for len(rider) < 3 {
		f, ok := c2.next(t)
		if !ok {
			t.Fatalf("rider stream ended early: %v", eventTypes(rider))
		}
		rider = append(rider, f)
	}
	if rider[0].ev.Job != job1.ID || rider[0].ev.Type != eventQueued {
		t.Fatalf("rider frame 0 = %+v, want job1's queued", rider[0].ev)
	}
	if rider[1].ev.Type != eventStarted {
		t.Fatalf("rider frame 1 = %+v, want started", rider[1].ev)
	}
	if rider[2].ev.Type != eventQueued || rider[2].ev.Job != job2.ID || !rider[2].ev.Coalesced {
		t.Fatalf("rider frame 2 = %+v, want job2's coalesced queued", rider[2].ev)
	}

	// Cancel the rider: its stream ends on its own canceled event while
	// the flight keeps running for job1.
	if _, err := s.Cancel(job2.ID, errors.New("rider bailed")); err != nil {
		t.Fatal(err)
	}
	var sawCancel bool
	for {
		f, ok := c2.next(t)
		if !ok {
			break
		}
		if f.ev.Type == eventCanceled && f.ev.Job == job2.ID {
			sawCancel = true
		}
	}
	if !sawCancel {
		t.Fatal("rider stream ended without its canceled event")
	}
	waitState(t, job2, StateCanceled)

	// job1's subscriber sees the rider's cancellation pass by without
	// its stream ending, then its own done.
	close(fe.block)
	frames := c1.drain(t)
	var riderCancelSeen bool
	last := frames[len(frames)-1]
	for _, f := range frames {
		if f.ev.Type == eventCanceled && f.ev.Job == job2.ID {
			riderCancelSeen = true
		}
	}
	if !riderCancelSeen {
		t.Fatalf("job1 stream missing rider's canceled event: %v", eventTypes(frames))
	}
	if last.ev.Type != eventDone || last.ev.Job != job1.ID {
		t.Fatalf("job1 stream ended on %+v, want its own done", last.ev)
	}
	waitState(t, job1, StateDone)
}

// TestEventsCacheHitStream: a job served from cache still offers a
// stream — a single done event marked cached.
func TestEventsCacheHitStream(t *testing.T) {
	s, ts := httpServer(t, Config{Executor: &fakeExec{}})
	seqs := testSeqs(6, 30, 55)
	first, err := s.Submit(seqs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, first, StateDone)
	hit, err := s.Submit(seqs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, hit, StateDone)

	frames := openSSE(t, ts.URL+"/v1/jobs/"+hit.ID+"/events", "").drain(t)
	if len(frames) != 1 {
		t.Fatalf("cache-hit stream has %d frames: %v", len(frames), eventTypes(frames))
	}
	f := frames[0]
	if f.ev.Type != eventDone || f.ev.Job != hit.ID || !f.ev.Cached {
		t.Fatalf("cache-hit frame = %+v, want cached done", f.ev)
	}
	if f.ev.Trace != first.Trace {
		t.Fatalf("cache-hit trace = %q, want the original %q", f.ev.Trace, first.Trace)
	}
}

// TestEventsRestartSynthesizesTerminal: a journal-restored job has no
// retained bus, but its stream still converges on the outcome — one
// synthesized terminal event (no SSE id) and a clean end.
func TestEventsRestartSynthesizesTerminal(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t, Config{DataDir: dir, Executor: &fakeExec{}})
	job, err := s1.Submit(testSeqs(6, 30, 56), Options{})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, job, StateDone)
	s1.Close()

	s2, ts := httpServer(t, Config{DataDir: dir, Executor: &fakeExec{}})
	if _, ok := s2.Job(job.ID); !ok {
		t.Fatalf("job %s not restored from journal", job.ID)
	}
	frames := openSSE(t, ts.URL+"/v1/jobs/"+job.ID+"/events", "").drain(t)
	if len(frames) != 1 {
		t.Fatalf("restored stream has %d frames: %v", len(frames), eventTypes(frames))
	}
	f := frames[0]
	if f.ev.Type != eventDone || f.ev.Job != job.ID {
		t.Fatalf("restored frame = %+v, want synthesized done", f.ev)
	}
	if f.id != 0 {
		t.Fatalf("synthesized event carries bus id %d, want none", f.id)
	}
}

func TestEventsUnknownJob(t *testing.T) {
	_, ts := httpServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/jobs/nope/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job events status = %d, want 404", resp.StatusCode)
	}
}
