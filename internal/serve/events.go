package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/events"
	"repro/internal/obs"
)

// Live job progress streaming. Every flight owns one bounded event bus
// (internal/events); the tracer's span-close hook feeds stage and rank
// transitions into it, the job lifecycle feeds queued/terminal
// transitions, and GET /v1/jobs/{id}/events serves the bus as
// Server-Sent Events. Coalesced riders share their flight's bus, so
// they see one stream; each job's terminal event carries the job ID,
// letting a rider's stream end on its own outcome while the flight
// runs on for the others. Slow consumers never block the pipeline:
// overflow drops are counted in samplealign_events_dropped_total and
// a reconnecting client resynchronizes via SSE Last-Event-ID replay
// or the job's terminal state.

// Event is one entry on a job's live progress stream, serialized as
// the SSE data payload. The SSE id line carries the bus sequence
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

const (
	// eventHistory bounds the entries a flight's bus retains for
	// Last-Event-ID replay; older entries are gone for late subscribers.
	eventHistory = 256
	// eventSubBuffer bounds one SSE subscriber's delivery buffer; a
	// consumer further behind than this misses entries (accounted).
	eventSubBuffer = 64
)

// newEventBus builds a flight's bus with drop accounting wired to the
// server metrics.
func (s *Server) newEventBus() *events.Bus[Event] {
	return events.NewBus[Event](eventHistory, func(n int64) { s.metrics.EventsDropped.Add(n) })
}

// publish stamps and publishes ev; nil buses (events disabled for this
// job) are a no-op.
func (s *Server) publish(bus *events.Bus[Event], ev Event) {
	if bus == nil {
		return
	}
	ev.Time = time.Now()
	bus.Publish(ev)
}

// publishSpanEvent maps one finished span onto the live stream:
// canonical pipeline stages become stage events, per-rank pipeline
// roots become rank events, everything else stays trace-only. Shaped to
// close over a flight's bus and serve as an obs.New span-close hook.
func (s *Server) publishSpanEvent(bus *events.Bus[Event], trace string, sc obs.SpanClose) {
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
	s.publish(bus, ev)
}

// terminalEvent synthesizes a job's terminal event from its view, for
// subscribers whose stream missed the published one (slow-consumer
// drop) or whose job predates the bus (journal-restored).
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

// writeSSE frames one event: id (bus sequence, for Last-Event-ID
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
// the job (unlike the synchronous align endpoint, an events subscriber
// is an observer, not a waiter). Reconnecting clients resume without
// duplicates by sending Last-Event-ID (or ?after=N); events older than
// the bus's retained history are replayed as gaps, and a stream that
// missed its job's terminal event synthesizes one from the job record.
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

	emit := func(seq int64, ev Event) bool {
		writeSSE(w, seq, ev)
		flusher.Flush()
		// The stream ends on this job's own terminal event; riders on
		// the same bus see each other's cancellations pass by.
		return ev.Job == job.ID && ev.Type != eventQueued
	}
	synth := func() {
		if v := job.View(); v.State.Terminal() {
			emit(0, terminalEvent(v))
		}
	}

	bus := job.bus
	if bus == nil {
		// No retained stream for this job (restored from the journal
		// after a restart): its history is gone, but consumers still
		// converge on the outcome.
		synth()
		return
	}
	sub := bus.Subscribe(after, eventSubBuffer)
	defer sub.Close()
	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	for {
		select {
		case e, open := <-sub.C():
			if !open {
				// Bus closed with the flight; if this job's terminal
				// event was dropped for us, synthesize it.
				synth()
				return
			}
			if emit(e.Seq, e.V) {
				return
			}
		case <-job.Done():
			// The terminal event is published before Done closes, so it
			// is already buffered for us unless we fell behind: drain,
			// then synthesize if it never surfaces.
			for {
				select {
				case e, open := <-sub.C():
					if !open {
						synth()
						return
					}
					if emit(e.Seq, e.V) {
						return
					}
				default:
					synth()
					return
				}
			}
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
