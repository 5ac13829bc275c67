package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// Live job progress streaming. Every flight owns one event stream: the
// tracer's span-close hook feeds stage and rank transitions into it,
// the job lifecycle feeds queued/terminal transitions, and GET
// /v1/jobs/{id}/events serves it as Server-Sent Events. The stream is
// the flight's last eventHistory entries and nothing per reader: each
// SSE handler reads it from its own cursor (the last sequence number it
// wrote), so a reader that falls behind catches up from the history,
// and only entries the history moved past before it read them are lost,
// counted in samplealign_events_dropped_total. Coalesced riders share
// their flight's stream; each job's terminal event carries the job ID,
// letting a rider's stream end on its own outcome while the flight runs
// on for the others. Publishing never waits for a reader.

// Event is one entry on a job's live progress stream, serialized as
// the SSE data payload. The SSE id line carries the stream sequence
// number; the SSE event line repeats Type.
type Event struct {
	Type       string    `json:"type"`
	Time       time.Time `json:"time"`
	Job        string    `json:"job,omitempty"`      // set on job-scoped events (queued, done, failed, canceled)
	Trace      string    `json:"trace_id,omitempty"` // flight's trace ID
	Stage      string    `json:"stage,omitempty"`    // stage events: canonical pipeline stage name
	Rank       *int      `json:"rank,omitempty"`     // rank-attributed events
	DurationNs int64     `json:"duration_ns,omitempty"`
	Remote     bool      `json:"remote,omitempty"` // span adopted from a worker rank's tracer
	Cached     bool      `json:"cached,omitempty"`
	Coalesced  bool      `json:"coalesced,omitempty"`
	Recovered  bool      `json:"recovered,omitempty"`
	Error      string    `json:"error,omitempty"`
}

// Event types, in the order a simple job emits them.
const (
	eventQueued   = "queued"   // job accepted (or attached to an in-flight computation)
	eventStarted  = "started"  // flight dispatched to an executor
	eventStage    = "stage"    // one pipeline stage finished (span close)
	eventRank     = "rank"     // one rank's share of the pipeline finished
	eventDone     = "done"     // job finished with a result
	eventFailed   = "failed"   // job finished with an error
	eventCanceled = "canceled" // job canceled (caller, deadline, disconnect, shutdown)
)

// eventHistory bounds the entries a flight's stream retains; older
// entries are gone for readers that had not reached them.
const eventHistory = 256

// entry is one published event stamped with its stream sequence
// number. Sequence numbers start at 1 and rise by one per publish.
type entry struct {
	seq int64
	ev  Event
}

// stream is a flight's event history. The zero value is an empty open
// stream; a nil *stream (a journal-restored job's) takes no events.
type stream struct {
	mu     sync.Mutex
	hist   []entry // the last eventHistory entries, ascending seq
	seq    int64
	closed bool
	wake   chan struct{} // made by a reader about to wait, closed by the next publish or close
}

// publish stamps ev and appends it to the history. Publishing on a
// closed or nil stream is a no-op.
func (st *stream) publish(ev Event) {
	if st == nil {
		return
	}
	ev.Time = time.Now()
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return
	}
	st.seq++
	st.hist = append(st.hist, entry{st.seq, ev})
	if len(st.hist) > eventHistory {
		// Shift rather than reslice so the backing array stays bounded.
		copy(st.hist, st.hist[len(st.hist)-eventHistory:])
		st.hist = st.hist[:eventHistory]
	}
	st.wakeLocked()
}

// close ends the stream: readers see no more entries after the
// retained ones. Closing twice is a no-op.
func (st *stream) close() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.closed = true
	st.wakeLocked()
}

func (st *stream) wakeLocked() {
	if st.wake != nil {
		close(st.wake)
		st.wake = nil
	}
}

// read appends to buf the retained entries with sequence numbers above
// after, and counts in lost those above after that the history dropped
// before this read. When it appends none, wait is a channel the next
// publish or close closes, or nil if the stream is closed.
func (st *stream) read(after int64, buf []entry) (got []entry, lost int64, wait <-chan struct{}) {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := len(buf)
	if len(st.hist) > 0 {
		first := st.hist[0].seq
		lost = max(first-1-after, 0)
		buf = append(buf, st.hist[min(max(after-first+1, 0), int64(len(st.hist))):]...)
	}
	if len(buf) > n || st.closed {
		return buf, lost, nil
	}
	if st.wake == nil {
		st.wake = make(chan struct{})
	}
	return buf, lost, st.wake
}

// publishSpanEvent maps one finished span onto the live stream:
// canonical pipeline stages become stage events, per-rank pipeline
// roots become rank events, everything else stays trace-only. Shaped to
// close over a flight's stream and serve as an obs.New span-close hook.
func (st *stream) publishSpan(trace string, sc obs.SpanClose) {
	var ev Event
	switch {
	case pipelineStages[sc.Name]:
		ev = Event{Type: eventStage, Stage: sc.Name}
	case sc.Name == "rank":
		ev = Event{Type: eventRank}
	default:
		return
	}
	ev.Trace = trace
	ev.DurationNs = sc.DurationNs
	ev.Remote = sc.Remote
	for _, a := range sc.Attrs {
		if a.Key == "rank" {
			if r, err := strconv.Atoi(a.Value); err == nil {
				ev.Rank = &r
			}
			break
		}
	}
	st.publish(ev)
}

// terminalEvent synthesizes a job's terminal event from its view, for
// readers whose stream no longer holds the published one (it left the
// history) or never had it (a journal-restored job has no stream).
func terminalEvent(v JobView) Event {
	ev := Event{Job: v.ID, Trace: v.TraceID, Cached: v.Cached, Time: time.Now()}
	switch v.State {
	case StateDone:
		ev.Type = eventDone
	case StateCanceled:
		ev.Type = eventCanceled
		ev.Error = v.Error
	default:
		ev.Type = eventFailed
		ev.Error = v.Error
	}
	return ev
}

// writeSSE frames one event: id (stream sequence, for Last-Event-ID
// resume; omitted for synthesized events), event type, JSON data.
func writeSSE(w io.Writer, seq int64, ev Event) {
	data, err := json.Marshal(ev)
	if err != nil {
		return
	}
	if seq > 0 {
		fmt.Fprintf(w, "id: %d\n", seq)
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
}

// handleEvents streams a job's progress as Server-Sent Events until the
// job reaches a terminal state (the stream then ends) or the client
// disconnects. Disconnecting only ends the stream — it never cancels
// the job (unlike the synchronous align endpoint, an events reader is
// an observer, not a waiter). Reconnecting clients resume without
// duplicates by sending Last-Event-ID (or ?after=N); events older than
// the flight's retained history are skipped, and a stream that no
// longer holds its job's terminal event synthesizes one from the job
// record.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "connection does not support streaming")
		return
	}
	var after int64
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			after = n
		}
	}
	if v := r.URL.Query().Get("after"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "query after=%q: %v", v, err)
			return
		}
		after = n
	}
	after = max(after, 0)

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	h.Set("X-Job-Id", job.ID)
	if job.Trace != "" {
		h.Set("X-Trace-Id", job.Trace)
	}
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	synth := func() {
		if v := job.View(); v.State.Terminal() {
			writeSSE(w, 0, terminalEvent(v))
			flusher.Flush()
		}
	}
	if job.stream == nil {
		// No retained stream for this job (restored from the journal
		// after a restart): its history is gone, but consumers still
		// converge on the outcome.
		synth()
		return
	}
	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	var batch []entry
	for first, done := true, false; ; first = false {
		var lost int64
		var wait <-chan struct{}
		batch, lost, wait = job.stream.read(after, batch[:0])
		if !first {
			s.metrics.EventsDropped.Add(lost)
		}
		for _, e := range batch {
			writeSSE(w, e.seq, e.ev)
			flusher.Flush()
			// The stream ends on this job's own terminal event; riders
			// on the same flight see each other's cancellations pass by.
			if e.ev.Job == job.ID && e.ev.Type != eventQueued {
				return
			}
			after = e.seq
		}
		if len(batch) > 0 {
			continue
		}
		if wait == nil || done {
			// The stream closed, or the job ended (its terminal event is
			// published before Done closes, so this read saw all it
			// will), without this job's terminal event.
			synth()
			return
		}
		select {
		case <-wait:
		case <-job.Done():
			done = true
		case <-heartbeat.C:
			// Comment line: keeps proxies from idling out a quiet job.
			if _, err := io.WriteString(w, ": ping\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}
