package serve

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// retained returns every entry st holds, oldest first.
func retained(st *stream) []entry {
	got, _, _ := st.read(0, nil)
	return got
}

// awaitEvent reads st from its start until an event satisfies match,
// failing the test if the stream closes first or nothing matches
// within 30 s.
func awaitEvent(t *testing.T, st *stream, match func(Event) bool) {
	t.Helper()
	timeout := time.After(30 * time.Second)
	var after int64
	for {
		batch, _, wait := st.read(after, nil)
		for _, e := range batch {
			if match(e.ev) {
				return
			}
			after = e.seq
		}
		if len(batch) > 0 {
			continue
		}
		if wait == nil {
			t.Fatal("stream closed without the awaited event")
		}
		select {
		case <-wait:
		case <-timeout:
			t.Fatal("timed out waiting for an event")
		}
	}
}

// stageEvent is a distinguishable event for stream tests.
func stageEvent(i int) Event { return Event{Type: eventStage, Stage: fmt.Sprint(i)} }

// checkEntries compares entries with the stage events numbered by
// their sequence numbers first..last.
func checkEntries(t *testing.T, got []entry, first, last int64) {
	t.Helper()
	if int64(len(got)) != last-first+1 {
		t.Fatalf("read %d entries, want seq %d..%d", len(got), first, last)
	}
	for i, e := range got {
		want := first + int64(i)
		if e.seq != want || e.ev.Stage != fmt.Sprint(want) {
			t.Fatalf("entry %d = seq %d stage %q, want seq %d", i, e.seq, e.ev.Stage, want)
		}
	}
}

// Sequence numbers start at 1, rise by one per publish and stay with
// their event, in publish order.
func TestStreamSequenceNumbersAreStable(t *testing.T) {
	st := new(stream)
	for i := 1; i <= 5; i++ {
		st.publish(stageEvent(i))
	}
	checkEntries(t, retained(st), 1, 5)
}

// A read returns exactly the entries after its cursor, and a later
// read from the new cursor returns only what was published since.
func TestStreamReadAfterCursor(t *testing.T) {
	st := new(stream)
	for i := 1; i <= 5; i++ {
		st.publish(stageEvent(i))
	}
	got, lost, wait := st.read(3, nil)
	checkEntries(t, got, 4, 5)
	if lost != 0 || wait != nil {
		t.Fatalf("read(3): lost %d, wait %v; want 0, nil", lost, wait)
	}
	st.publish(stageEvent(6))
	got, _, _ = st.read(5, nil)
	checkEntries(t, got, 6, 6)
}

// The stream keeps its last eventHistory entries, and a read from
// before them reports how many it can no longer return.
func TestStreamHistoryTrimsToLimit(t *testing.T) {
	st := new(stream)
	for i := 1; i <= eventHistory+10; i++ {
		st.publish(stageEvent(i))
	}
	got, lost, _ := st.read(0, nil)
	checkEntries(t, got, 11, eventHistory+10)
	if lost != 10 {
		t.Fatalf("lost = %d, want 10", lost)
	}
	if got, lost, _ := st.read(20, nil); lost != 0 || len(got) != eventHistory-10 {
		t.Fatalf("read(20): %d entries, lost %d; want %d, 0", len(got), lost, eventHistory-10)
	}
}

// A reader that arrives after the close still gets the history, then
// reads as finished.
func TestStreamReplayAfterClose(t *testing.T) {
	st := new(stream)
	st.publish(stageEvent(1))
	st.publish(stageEvent(2))
	st.close()
	got, _, wait := st.read(0, nil)
	checkEntries(t, got, 1, 2)
	if wait != nil {
		t.Fatal("a read of a closed stream returned a wait channel")
	}
	if got, _, wait := st.read(2, nil); len(got) != 0 || wait != nil {
		t.Fatalf("read past the end of a closed stream: %d entries, wait %v", len(got), wait)
	}
}

// A reader waiting when the stream closes is woken, reads what was
// published before the close and then the end; closing twice is
// harmless and publishing after the close is a no-op.
func TestStreamCloseEndsAfterHistory(t *testing.T) {
	st := new(stream)
	_, _, waiting := st.read(0, nil)
	st.publish(stageEvent(1))
	st.publish(stageEvent(2))
	st.close()
	st.close()
	st.publish(stageEvent(3))
	select {
	case <-waiting:
	default:
		t.Fatal("the waiting reader was not woken")
	}
	got, _, wait := st.read(0, nil)
	checkEntries(t, got, 1, 2)
	if wait != nil {
		t.Fatal("a read of a closed stream returned a wait channel")
	}
	if got, _, wait := st.read(2, nil); len(got) != 0 || wait != nil {
		t.Fatalf("read past the end of a closed stream: %d entries, wait %v", len(got), wait)
	}
}

// A reader with nothing to read waits on one channel, which the next
// publish closes; a close wakes it too.
func TestStreamWakesWaitingReader(t *testing.T) {
	st := new(stream)
	_, _, wait := st.read(0, nil)
	if _, _, again := st.read(0, nil); again != wait {
		t.Fatal("two waiting readers got different wake channels")
	}
	st.publish(stageEvent(1))
	select {
	case <-wait:
	default:
		t.Fatal("publish did not wake the waiting reader")
	}
	_, _, wait = st.read(1, nil)
	st.close()
	select {
	case <-wait:
	default:
		t.Fatal("close did not wake the waiting reader")
	}
}

// Once the history is full, a publish with no waiting reader allocates
// nothing.
func TestStreamPublishAllocatesNothing(t *testing.T) {
	st := new(stream)
	for i := 0; i < eventHistory; i++ {
		st.publish(stageEvent(i))
	}
	ev := stageEvent(0)
	if n := testing.AllocsPerRun(100, func() { st.publish(ev) }); n != 0 {
		t.Fatalf("publish allocated %.1f times, want 0", n)
	}
}

// Concurrent publishers and readers: every reader sees strictly rising
// sequence numbers, and what it read plus what it lost is every entry.
func TestStreamConcurrentPublishRead(t *testing.T) {
	st := new(stream)
	const publishers, each = 4, 100
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				st.publish(stageEvent(i))
			}
		}()
	}
	var rg sync.WaitGroup
	for r := 0; r < 3; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			var after, seen, lost int64
			var batch []entry
			for {
				var n int64
				var wait <-chan struct{}
				batch, n, wait = st.read(after, batch[:0])
				lost += n
				for _, e := range batch {
					if e.seq <= after {
						t.Errorf("seq %d after %d", e.seq, after)
						return
					}
					after = e.seq
					seen++
				}
				if len(batch) > 0 {
					continue
				}
				if wait == nil {
					break
				}
				<-wait
			}
			if seen+lost != publishers*each {
				t.Errorf("read %d and lost %d of %d entries", seen, lost, publishers*each)
			}
		}()
	}
	wg.Wait()
	st.close()
	rg.Wait()
	if h := retained(st); h[len(h)-1].seq != publishers*each {
		t.Fatalf("last seq = %d, want %d", h[len(h)-1].seq, publishers*each)
	}
}

// pipeResponse is a streaming ResponseWriter whose writes block until
// the test reads them, so a test decides how far behind its reader is.
type pipeResponse struct {
	h http.Header
	*io.PipeWriter
}

func (p *pipeResponse) Header() http.Header { return p.h }
func (p *pipeResponse) WriteHeader(int)     {}
func (p *pipeResponse) Flush()              {}

// slowEvents starts handleEvents for job on a pipe and reads the
// stream's first frame and the id line of its second (queued, started):
// the handler then blocks writing the rest of the started frame. It
// returns the reader of the remaining stream.
func slowEvents(t *testing.T, s *Server, job *Job) *bufio.Reader {
	t.Helper()
	pr, pw := io.Pipe()
	t.Cleanup(func() { pr.Close() })
	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+job.ID+"/events", nil)
	req.SetPathValue("id", job.ID)
	go func() {
		s.handleEvents(&pipeResponse{http.Header{}, pw}, req)
		pw.Close()
	}()
	br := bufio.NewReader(pr)
	for _, want := range []string{"id: 1", "event: queued", "data: ", "", "id: 2"} {
		line, err := br.ReadString('\n')
		if err != nil || !strings.HasPrefix(line, want) {
			t.Fatalf("stream line %q (%v), want %q", line, err, want)
		}
	}
	return br
}

// readFrames parses SSE frames off br until the stream ends or, with a
// non-nil until, until it accepts a frame.
func readFrames(t *testing.T, br *bufio.Reader, until func(sseFrame) bool) []sseFrame {
	t.Helper()
	var out []sseFrame
	var f sseFrame
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return out
		}
		line = strings.TrimSuffix(line, "\n")
		switch {
		case line == "":
			out = append(out, f)
			if until != nil && until(f) {
				return out
			}
			f = sseFrame{}
		case strings.HasPrefix(line, "id: "):
			fmt.Sscan(line[len("id: "):], &f.id)
		case strings.HasPrefix(line, "event: "):
			f.ev.Type = line[len("event: "):]
		}
	}
}

// checkStageFrames holds frames to the stage events published as
// sequence numbers first..last.
func checkStageFrames(t *testing.T, frames []sseFrame, first, last int64) {
	t.Helper()
	if int64(len(frames)) != last-first+1 {
		t.Fatalf("received %d stage frames, want seq %d..%d", len(frames), first, last)
	}
	for i, f := range frames {
		if want := first + int64(i); f.id != want || f.ev.Type != eventStage {
			t.Fatalf("frame %d = id %d %s, want id %d stage", i, f.id, f.ev.Type, want)
		}
	}
}

// A reader that falls 100 events behind a running flight catches up
// from the history: it receives every event, and nothing is counted
// dropped.
func TestEventsSlowReaderCatchesUp(t *testing.T) {
	fe := &fakeExec{block: make(chan struct{}), started: make(chan struct{}, 1)}
	s := newTestServer(t, Config{Executor: fe})
	defer s.Close()
	job, err := s.Submit(testSeqs(6, 30, 57), Options{})
	if err != nil {
		t.Fatal(err)
	}
	<-fe.started
	br := slowEvents(t, s, job)
	for i := 0; i < 100; i++ {
		job.stream.publish(Event{Type: eventStage, Stage: "merge", Trace: job.Trace})
	}
	close(fe.block)
	frames := readFrames(t, br, nil)
	if len(frames) != 102 {
		t.Fatalf("received %d frames after the queued one, want started, 100 stages, done", len(frames))
	}
	if f := frames[0]; f.ev.Type != eventStarted {
		t.Fatalf("first frame %+v, want the rest of started", f)
	}
	checkStageFrames(t, frames[1:101], 3, 102)
	if f := frames[101]; f.id != 103 || f.ev.Type != eventDone {
		t.Fatalf("last frame = id %d %s, want id 103 done", f.id, f.ev.Type)
	}
	if n := s.metrics.EventsDropped.Value(); n != 0 {
		t.Fatalf("events dropped = %d, want 0", n)
	}
}

// A reader more than eventHistory behind gets the retained entries,
// and the dropped counter adds exactly the entries it skipped.
func TestEventsReaderPastHistoryCountsGap(t *testing.T) {
	fe := &fakeExec{block: make(chan struct{}), started: make(chan struct{}, 1)}
	s := newTestServer(t, Config{Executor: fe})
	defer s.Close()
	job, err := s.Submit(testSeqs(6, 30, 58), Options{})
	if err != nil {
		t.Fatal(err)
	}
	<-fe.started
	br := slowEvents(t, s, job)
	const behind = 300
	for i := 0; i < behind; i++ {
		job.stream.publish(Event{Type: eventStage, Stage: "merge", Trace: job.Trace})
	}
	// queued and started, then behind stages: the history keeps the
	// last eventHistory, and the reader had written up to seq 2.
	last := int64(2 + behind)
	first := last - eventHistory + 1
	if f := readFrames(t, br, func(sseFrame) bool { return true }); len(f) != 1 || f[0].ev.Type != eventStarted {
		t.Fatalf("frames %v, want the rest of started", eventTypes(f))
	}
	// The handler has taken its next read once it writes the first
	// stage frame's id; the job's done event comes after that read.
	line, err := br.ReadString('\n')
	if err != nil || line != fmt.Sprintf("id: %d\n", first) {
		t.Fatalf("next line %q (%v), want id %d", line, err, first)
	}
	close(fe.block)
	frames := readFrames(t, br, nil)
	if len(frames) > 0 {
		frames[0].id = first
	}
	if len(frames) != eventHistory+1 {
		t.Fatalf("received %d frames after started, want %d stages and done", len(frames), eventHistory)
	}
	checkStageFrames(t, frames[:eventHistory], first, last)
	if f := frames[eventHistory]; f.id != last+1 || f.ev.Type != eventDone {
		t.Fatalf("last frame = id %d %s, want id %d done", f.id, f.ev.Type, last+1)
	}
	if n, want := s.metrics.EventsDropped.Value(), first-3; n != want {
		t.Fatalf("events dropped = %d, want the gap %d", n, want)
	}
}
