// Package serve turns the Sample-Align-D pipeline into a long-running
// alignment service: a bounded asynchronous job queue with admission
// control, a content-addressed result cache (an in-memory LRU backed
// by an optional on-disk store), a write-ahead submit journal with
// crash recovery, pluggable executors (in-process ranks by default, a
// pre-connected TCP rank cluster optionally) and an HTTP/JSON API (see
// Handler).
//
// Lifecycle of a job: every live submission goes through one function,
// admit (admit.go) — Submit is a batch of one, SubmitBatch adds only the
// "input N:" error prefix and the batch counters. admit canonicalizes
// the input and options, consults the cache tiers (a hit completes the
// job instantly), coalesces onto an identical in-flight computation if
// one exists, applies all-or-nothing admission control (full queue ⇒
// ErrOverloaded, which the HTTP layer maps to 429), journals the whole
// admission as one commit group, and enqueues; every admitted job logs
// one lifecycle line, batch member or not. A fixed pool of dispatchers executes queued flights FIFO; every job
// attached to a flight completes with its result. Cancellation —
// explicit, caller deadline, or client disconnect on the synchronous
// endpoint — detaches one job; only when the last waiter detaches does
// it propagate through the flight's context into the rank world, so a
// thundering herd sharing one computation cannot be killed by a single
// impatient client.
//
// With Config.DataDir set, every accepted job is journaled before it
// can run and every finished result is persisted content-addressed on
// disk: a restart replays the journal, re-enqueues unfinished jobs and
// restores finished ones, and large results are streamed from disk
// instead of buffered (see the store package).
package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"repro/internal/bio"
	"repro/internal/events"
	"repro/internal/fasta"
	"repro/internal/msa"
	"repro/internal/obs"
	"repro/internal/store"
)

// Errors the HTTP layer maps to status codes.
var (
	ErrOverloaded = errors.New("serve: queue full, try again later") // → 429
	ErrClosed     = errors.New("serve: server is shutting down")     // → 503
	ErrNotFound   = errors.New("serve: no such job")                 // → 404

	// ErrInterrupted is the cancellation cause Close applies to jobs
	// still queued or running when the server stops (a drain window
	// that expired, or no drain at all). Jobs killed with this cause
	// are journaled as interrupted, not canceled, so the next boot
	// re-enqueues them like crash victims instead of reporting them
	// terminally canceled.
	ErrInterrupted = errors.New("serve: interrupted by shutdown")
)

// BadRequestError marks client errors (malformed input or options) so
// the HTTP layer can answer 400 instead of 500.
type BadRequestError struct{ Err error }

func (e *BadRequestError) Error() string { return e.Err.Error() }
func (e *BadRequestError) Unwrap() error { return e.Err }

func badRequest(format string, args ...any) error {
	return &BadRequestError{Err: fmt.Errorf(format, args...)}
}

// State is a job's lifecycle phase.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Config parameterises a Server. The zero value is usable: in-process
// executor, 2 concurrent jobs, 64 queued, 256-entry/64 MiB cache, no
// persistence.
type Config struct {
	Defaults      Options  // server-side option defaults for requests
	Limits        Limits   // per-job procs/workers bounds
	MaxConcurrent int      // jobs aligning at once (default 2)
	MaxQueued     int      // flights waiting beyond the running ones (default 64)
	CacheEntries  int      // result cache entry bound (default 256; -1 disables)
	CacheBytes    int64    // result cache byte bound (default 64 MiB; -1 unbounded)
	MaxJobs       int      // finished-job records retained for status (default 1024)
	Executor      Executor // default Inproc{}

	// DataDir enables durability: a write-ahead submit journal
	// (replayed on startup) plus a content-addressed on-disk result
	// store that backs the in-memory cache as a second tier and serves
	// streaming result reads. Empty = fully in-memory (byte-identical
	// behaviour to a server without persistence).
	DataDir      string
	StoreEntries int   // disk store entry bound (default 4096; -1 disables the disk result tier)
	StoreBytes   int64 // disk store byte bound (default 1 GiB; -1 unbounded)

	// Logger receives structured operational logs (job lifecycle,
	// journal I/O errors, recovery notes), keyed by job/trace IDs. Nil
	// means silent.
	Logger *slog.Logger

	// NoTrace disables per-job span tracing: no tracer enters the
	// pipeline context (the disabled path costs one context lookup),
	// /v1/jobs/{id}/trace answers 404 and the per-stage histograms stay
	// empty. Alignment bytes are identical either way.
	NoTrace bool
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = 2
	}
	if c.MaxQueued == 0 {
		c.MaxQueued = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.MaxJobs == 0 {
		c.MaxJobs = 1024
	}
	if c.Executor == nil {
		c.Executor = Inproc{}
	}
	if c.StoreEntries == 0 {
		c.StoreEntries = 4096
	}
	if c.StoreBytes == 0 {
		c.StoreBytes = 1 << 30
	}
	return c
}

// flight is one alignment computation: the input, the options it runs
// under, and every job waiting on it. Multiple concurrent submissions
// of the same content address attach to one flight (request
// coalescing), so identical work runs once. state and jobs are guarded
// by Server.mu.
type flight struct {
	key      string
	trace    string // trace ID: one per computation, shared by coalesced jobs
	seqs     []bio.Sequence
	opts     Resolved
	ctx      context.Context
	cancel   context.CancelCauseFunc
	bus      *events.Bus[Event] // live progress stream, shared by coalesced jobs
	enqueued time.Time          // admission time, for queue-age accounting

	state      State
	jobs       []*Job
	queuedSlot bool        // holds one of the MaxQueued admission slots
	tracer     *obs.Tracer // live tracer while running (guarded by Server.mu); nil when queued, finished or NoTrace
}

// Job is one submitted alignment request. Jobs sharing a flight
// complete together; each still has its own ID, deadline and
// cancellation. Mutable state is guarded by mu; done closes exactly
// once on reaching a terminal state.
type Job struct {
	ID        string
	Key       string // content address (cache key)
	Trace     string // trace ID of the computation this job rides (may be empty)
	Opts      Resolved
	Submitted time.Time
	NumSeqs   int

	fl   *flight // guarded by Server.mu; nil once detached or terminal
	done chan struct{}
	bus  *events.Bus[Event] // the flight's event stream; immutable once the job is visible; nil for journal-restored terminal jobs

	mu        sync.Mutex
	state     State
	started   time.Time
	finished  time.Time
	cached    bool
	coalesced bool
	recovered bool
	timer     *time.Timer // pending deadline, stopped at finalization
	result    *Result
	err       error
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// JobView is an immutable snapshot of a job for status reporting.
type JobView struct {
	ID        string     `json:"id"`
	State     State      `json:"state"`
	Cached    bool       `json:"cached"`
	Coalesced bool       `json:"coalesced,omitempty"` // attached to an identical in-flight job
	Recovered bool       `json:"recovered,omitempty"` // re-enqueued by journal replay after a restart
	Key       string     `json:"cache_key"`
	TraceID   string     `json:"trace_id,omitempty"` // span tree at /v1/jobs/{id}/trace once done
	NumSeqs   int        `json:"num_seqs"`
	Opts      Resolved   `json:"options"`
	Submitted time.Time  `json:"submitted_at"`
	Started   *time.Time `json:"started_at,omitempty"`
	Finished  *time.Time `json:"finished_at,omitempty"`
	Error     string     `json:"error,omitempty"`
	Result    *Result    `json:"result,omitempty"`
}

// View snapshots the job.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:        j.ID,
		State:     j.state,
		Cached:    j.cached,
		Coalesced: j.coalesced,
		Recovered: j.recovered,
		Key:       j.Key,
		TraceID:   j.Trace,
		NumSeqs:   j.NumSeqs,
		Opts:      j.Opts,
		Submitted: j.Submitted,
		Result:    j.result,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	return v
}

// result returns the stored result if the job is done.
func (j *Job) resultIfDone() (*Result, State, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.state, j.err
}

// summaryOf strips the payload from a result for the job record.
func summaryOf(res *Result) *Result {
	summary := *res
	summary.FASTA = nil
	return &summary
}

// retainedResult decides what the job record keeps: only the summary
// when a cache tier (memory or disk) owns the payload — their bounds
// then govern result memory — or the full result when the job is the
// payload's only home.
func (s *Server) retainedResult(res *Result) *Result {
	if s.cache.Enabled() || s.results != nil {
		return summaryOf(res)
	}
	return res
}

// resultPayload returns the aligned FASTA for a done job: from the job
// record when no cache tier holds it, else from the memory cache or
// the disk store. ok is false when every tier has since evicted it.
func (s *Server) resultPayload(job *Job, res *Result) ([]byte, bool) {
	if res != nil && res.FASTA != nil {
		return res.FASTA, true
	}
	if full, ok := s.lookupResult(job.Key); ok {
		return full.FASTA, true
	}
	return nil, false
}

// lookupResult consults the cache tiers: the in-memory LRU first, then
// the disk store (promoting a disk hit into memory, bounded by the
// memory cache's own limits).
func (s *Server) lookupResult(key string) (*Result, bool) {
	if res, ok := s.cache.Get(key); ok {
		return res, true
	}
	if s.results == nil {
		return nil, false
	}
	meta, payload, ok := s.results.Get(key)
	if !ok {
		return nil, false
	}
	res, err := resultFromMeta(meta, payload)
	if err != nil {
		s.log.Warn("result meta unreadable", "key", key, "err", err)
		return nil, false
	}
	s.metrics.StoreHits.Inc()
	s.cache.Put(key, res)
	return res, true
}

// Server owns the queue, the dispatcher pool, the cache tiers, the
// journal and the job table. Construct with New, serve HTTP via
// Handler, stop with Drain (optional) + Close.
type Server struct {
	cfg     Config
	cache   *Cache
	metrics *Metrics
	log     *slog.Logger
	started time.Time

	journal   *store.Journal
	results   *store.Results
	traces    *store.Results // finished span trees, keyed like results
	unlockDir func()
	recovery  RecoveryInfo

	baseCtx    context.Context
	baseCancel context.CancelCauseFunc
	wg         sync.WaitGroup

	mu       sync.Mutex
	cond     *sync.Cond // signals fifo pushes and close
	closed   bool
	draining bool
	fifo     []*flight
	queued   int // flights admitted but not yet picked up
	active   int // flights currently executing
	inflight map[string]*flight
	jobs     map[string]*Job
	order    []string // submission order, for bounded retention
}

// New builds and starts a Server (its dispatcher pool runs until
// Close). With cfg.DataDir set it locks the directory, replays the
// journal — re-enqueueing unfinished jobs and restoring finished ones
// — and compacts it; the error is non-nil only for persistence setup
// failures.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	//lint:allow ctxflow server-lifetime root context, cancelled by (*Server).Close
	ctx, cancel := context.WithCancelCause(context.Background())
	// CacheEntries < 0 disables caching entirely, whatever the byte
	// bound says (a negative byte bound alone only means "no byte cap").
	cacheEntries, cacheBytes := cfg.CacheEntries, cfg.CacheBytes
	if cacheEntries < 0 {
		cacheEntries, cacheBytes = -1, -1
	}
	s := &Server{
		cfg:        cfg,
		cache:      NewCache(cacheEntries, cacheBytes),
		metrics:    NewMetrics(),
		log:        orDiscard(cfg.Logger),
		started:    time.Now(),
		baseCtx:    ctx,
		baseCancel: cancel,
		inflight:   make(map[string]*flight),
		jobs:       make(map[string]*Job),
	}
	s.cond = sync.NewCond(&s.mu)
	if cfg.DataDir != "" {
		if err := s.openPersistence(); err != nil {
			cancel(nil)
			return nil, err
		}
	}
	for i := 0; i < cfg.MaxConcurrent; i++ {
		s.wg.Add(1)
		go s.dispatch()
	}
	return s, nil
}

// Drain stops admission — new submissions fail with ErrClosed (HTTP
// 503) while status and result reads keep working — and waits up to
// timeout for every queued and running job to finish. It reports
// whether the server drained fully; leftovers are canceled by Close.
// timeout <= 0 marks draining without waiting.
func (s *Server) Drain(timeout time.Duration) bool {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.metrics.Draining.Set(1)
	deadline := time.Now().Add(timeout)
	for {
		s.mu.Lock()
		idle := s.queued == 0 && s.active == 0
		s.mu.Unlock()
		if idle {
			return true
		}
		if timeout <= 0 || !time.Now().Before(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Close cancels every queued and running job, waits for the dispatcher
// pool to drain, journals a clean-shutdown record and releases the
// data directory. For a graceful stop call Drain first.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	// Shutdown is the cancellation cause: every job this kills is
	// journaled as interrupted (see journalFinish), so the next boot
	// re-enqueues it like a crash victim.
	s.baseCancel(ErrInterrupted)
	s.wg.Wait()
	if s.journal != nil {
		s.journalAppend(store.Record{Type: store.RecShutdown, Time: time.Now()})
		if err := s.journal.Close(); err != nil {
			s.log.Warn("closing journal", "err", err)
		}
	}
	if s.unlockDir != nil {
		s.unlockDir()
		s.unlockDir = nil
	}
}

// orDiscard returns l, or a logger that drops everything when l is nil.
func orDiscard(l *slog.Logger) *slog.Logger {
	if l == nil {
		return slog.New(slog.DiscardHandler)
	}
	return l
}

func randomID(prefix string) string {
	var b [9]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand never fails on supported platforms
	}
	return prefix + hex.EncodeToString(b[:])
}

func newJobID() string   { return randomID("j") }
func newTraceID() string { return randomID("t") }

// rememberLocked stores the job record, pruning the oldest terminal
// jobs beyond MaxJobs: a live job is never dropped, whatever the cap,
// and neither is the job being remembered. Server.mu must be held.
func (s *Server) rememberLocked(job *Job) {
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	excess := len(s.order) - s.cfg.MaxJobs
	// The oldest record is nearly always terminal: pop it off the head.
	for excess > 0 && s.order[0] != job.ID && s.dropIfTerminalLocked(s.order[0]) {
		s.order[0] = "" // the backing array outlives the reslice
		s.order = s.order[1:]
		excess--
	}
	if excess <= 0 {
		return
	}
	// A live job heads the table: look past it for terminal records.
	kept := s.order[:0]
	for _, id := range s.order {
		if excess > 0 && id != job.ID && s.dropIfTerminalLocked(id) {
			excess--
			continue
		}
		kept = append(kept, id)
	}
	clear(s.order[len(kept):])
	s.order = kept
}

// dropIfTerminalLocked deletes the record of job id if the job has
// finished, and reports whether it did. Server.mu must be held.
func (s *Server) dropIfTerminalLocked(id string) bool {
	j := s.jobs[id]
	j.mu.Lock()
	terminal := j.state.Terminal()
	j.mu.Unlock()
	if terminal {
		delete(s.jobs, id)
	}
	return terminal
}

// Job looks up a job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Cancel requests cancellation of a queued or running job. It returns
// ErrNotFound for unknown IDs and reports whether the job was still
// live (false: it had already finished).
func (s *Server) Cancel(id string, cause error) (bool, error) {
	j, ok := s.Job(id)
	if !ok {
		return false, ErrNotFound
	}
	return s.cancelJob(j, cause), nil
}

// cancelJob detaches one job from its flight and finalizes it as
// canceled. A queued flight whose last waiter detaches is removed from
// the FIFO immediately (it never starts); a running one has its
// context canceled, unwinding the rank world — but only when no other
// coalesced waiter still wants the result.
func (s *Server) cancelJob(j *Job, cause error) bool {
	if cause == nil {
		cause = context.Canceled
	}
	now := time.Now()
	s.mu.Lock()
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		s.mu.Unlock()
		return false
	}
	wasQueued := j.state == StateQueued
	fl := j.fl
	j.fl = nil
	var lastDetach, flightCanceled bool
	if fl != nil {
		for i, w := range fl.jobs {
			if w == j {
				fl.jobs = append(fl.jobs[:i], fl.jobs[i+1:]...)
				break
			}
		}
		if len(fl.jobs) == 0 && !fl.state.Terminal() {
			lastDetach = true
			if s.inflight[fl.key] == fl {
				delete(s.inflight, fl.key)
			}
			if fl.state == StateQueued {
				// Still waiting: pull it out of the FIFO so it never
				// occupies a dispatcher, and free its admission slot —
				// unless a dispatcher already popped it (the slot is
				// gone and run() will skip the now-canceled flight).
				fl.state = StateCanceled
				flightCanceled = true
				if fl.queuedSlot {
					for i, qf := range s.fifo {
						if qf == fl {
							s.fifo = append(s.fifo[:i], s.fifo[i+1:]...)
							break
						}
					}
					fl.queuedSlot = false
					s.queued--
				}
				fl.seqs = nil
			}
		}
	}
	if j.timer != nil {
		j.timer.Stop()
		j.timer = nil
	}
	j.state = StateCanceled
	j.err = cause
	j.finished = now
	j.mu.Unlock()
	s.mu.Unlock()
	if lastDetach {
		fl.cancel(cause) // unwinds the rank world if running
	}
	if wasQueued {
		s.metrics.QueueWait.Observe("canceled", now.Sub(j.Submitted).Seconds())
	}
	s.publish(j.bus, Event{Type: EventCanceled, Job: j.ID, Trace: j.Trace, Error: cause.Error()})
	if flightCanceled {
		// The flight died in the queue: no dispatcher will ever run it,
		// so the stream ends here.
		fl.bus.Close()
	}
	close(j.done)
	s.metrics.Canceled.Inc()
	s.journalFinish(j.ID, j.Key, StateCanceled, cause, nil, now)
	s.log.Info("job canceled", "job", j.ID, "key", j.Key, "trace", j.Trace, "cause", cause)
	return true
}

// dispatch is one worker of the executor pool.
func (s *Server) dispatch() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.fifo) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.fifo) == 0 { // closed and fully drained
			s.mu.Unlock()
			return
		}
		fl := s.fifo[0]
		s.fifo = s.fifo[1:]
		fl.queuedSlot = false
		s.queued--
		s.active++
		s.mu.Unlock()
		s.run(fl)
		s.mu.Lock()
		s.active--
		s.mu.Unlock()
	}
}

// run executes one dequeued flight to a terminal state and fans the
// outcome out to every job still attached.
func (s *Server) run(fl *flight) {
	s.mu.Lock()
	if fl.state != StateQueued { // canceled between push and pop
		s.mu.Unlock()
		return
	}
	fl.state = StateRunning
	jobs := append([]*Job(nil), fl.jobs...)
	s.mu.Unlock()

	started := time.Now()
	startRecs := make([]store.Record, 0, len(jobs))
	for _, j := range jobs {
		j.mu.Lock()
		if !j.state.Terminal() {
			j.state = StateRunning
			j.started = started
		}
		j.mu.Unlock()
		s.metrics.QueueWait.Observe("dispatched", started.Sub(j.Submitted).Seconds())
		startRecs = append(startRecs, store.Record{Type: store.RecStart, Job: j.ID, Key: fl.key, Time: started})
	}
	// One fsync covers every coalesced job's start record.
	s.journalAppendBatch(startRecs)
	s.publish(fl.bus, Event{Type: EventStarted, Trace: fl.trace})

	var (
		res *Result
		err error
	)
	if err = fl.ctx.Err(); err == nil {
		// Tracing: one tracer per flight, its ID shared by every
		// coalesced job. Finished spans feed the per-stage histograms and
		// the live event stream as they end; the whole tree is serialized
		// into the result below. The tracer rides the context — alignment
		// code sees only obs.Start calls, which are inert when NoTrace
		// leaves it out.
		ctx := fl.ctx
		var tr *obs.Tracer
		var trace []byte
		if !s.cfg.NoTrace {
			tr = obs.New(obs.Options{
				ID:        fl.trace,
				OnSpanEnd: s.metrics.ObserveStage,
				OnSpanClose: func(sc obs.SpanClose) {
					s.publishSpanEvent(fl.bus, fl.trace, sc)
				},
			})
			ctx = obs.WithTracer(ctx, tr)
			// Published under the lock so the trace endpoint can serve
			// in-progress snapshots of this flight.
			s.mu.Lock()
			fl.tracer = tr
			s.mu.Unlock()
		}
		jctx, root := obs.Start(ctx, "job")
		if root != nil {
			root.SetStr("executor", s.cfg.Executor.Name())
			root.SetStr("aligner", fl.opts.Aligner)
			root.SetInt("procs", int64(fl.opts.Procs))
			root.SetInt("num_seqs", int64(len(fl.seqs)))
		}
		var aln *msa.Alignment
		var rep ExecReport
		aln, rep, err = s.cfg.Executor.Align(jctx, fl.seqs, fl.opts)
		if root != nil {
			root.SetBool("ok", err == nil)
			root.End()
		}
		if tr != nil {
			doc := tr.Document()
			s.metrics.TraceDropped.Add(doc.DroppedSpans)
			if err == nil {
				if b, derr := json.Marshal(doc); derr == nil {
					trace = b
				}
			}
		}
		if err == nil {
			res = &Result{
				FASTA:     []byte(fasta.FormatString(aln.Seqs)),
				NumSeqs:   aln.NumSeqs(),
				Width:     aln.Width(),
				Procs:     rep.Procs,
				BytesSent: rep.BytesSent,
				BytesRecv: rep.BytesRecv,
				TraceID:   fl.trace,
				Trace:     trace,
			}
			s.metrics.CommSent.Add(rep.BytesSent)
			s.metrics.CommRecv.Add(rep.BytesRecv)
		}
	}
	finished := time.Now()
	elapsed := finished.Sub(started)

	var outcome State
	var cause error
	switch {
	case err == nil:
		res.Elapsed = elapsed
		outcome = StateDone
		// Persist before publishing completion: both tiers hold the
		// result by the time any waiter (or a new submission racing the
		// inflight-map removal below) looks for it.
		s.cache.Put(fl.key, res)
		s.storePut(fl.key, res)
		s.storePutTrace(fl.key, res)
	case wasCanceled(fl.ctx, err):
		outcome = StateCanceled
		cause = cancelCause(fl.ctx, err)
	default:
		outcome = StateFailed
		cause = err
	}

	s.mu.Lock()
	if s.inflight[fl.key] == fl {
		delete(s.inflight, fl.key)
	}
	fl.state = outcome
	fl.tracer = nil // live-snapshot window over; the trace now lives in the result
	jobs = fl.jobs
	fl.jobs = nil
	fl.seqs = nil
	s.mu.Unlock()

	s.metrics.RunSeconds.Observe(elapsed.Seconds())
	switch outcome {
	case StateDone:
		s.log.Info("flight finished", "key", fl.key, "trace", fl.trace,
			"elapsed", elapsed, "jobs", len(jobs))
	default:
		s.log.Warn("flight ended without result", "key", fl.key, "trace", fl.trace,
			"state", string(outcome), "elapsed", elapsed, "err", cause)
	}
	for _, j := range jobs {
		s.finalizeJob(j, outcome, res, cause, finished)
	}
	fl.bus.Close() // ends every /events stream still riding this flight
	fl.cancel(nil) // release the context resources
}

// finalizeJob moves one job to a terminal state (if it has not already
// been detached/canceled), publishes the outcome and journals it.
func (s *Server) finalizeJob(j *Job, outcome State, res *Result, cause error, finished time.Time) {
	j.mu.Lock()
	if j.state.Terminal() { // detached (canceled) while the flight ran
		j.mu.Unlock()
		return
	}
	if j.timer != nil {
		j.timer.Stop()
		j.timer = nil
	}
	j.state = outcome
	j.finished = finished
	var summary *Result
	if outcome == StateDone {
		j.result = s.retainedResult(res)
		summary = summaryOf(res)
	} else {
		j.err = cause
	}
	j.mu.Unlock()
	s.mu.Lock()
	j.fl = nil
	s.mu.Unlock()
	// Publish before Done closes: an /events subscriber woken by Done
	// finds its terminal event already buffered (or synthesizes one).
	ev := Event{Job: j.ID, Trace: j.Trace}
	switch outcome {
	case StateDone:
		ev.Type = EventDone
	case StateCanceled:
		ev.Type = EventCanceled
	default:
		ev.Type = EventFailed
	}
	if cause != nil {
		ev.Error = cause.Error()
	}
	s.publish(j.bus, ev)
	close(j.done)
	s.journalFinish(j.ID, j.Key, outcome, cause, summary, finished)
	switch outcome {
	case StateDone:
		s.metrics.Completed.Inc()
	case StateCanceled:
		s.metrics.Canceled.Inc()
		if errors.Is(cause, ErrInterrupted) {
			s.metrics.Interrupted.Inc()
		}
	default:
		s.metrics.Failed.Inc()
	}
}

// wasCanceled decides whether err is the flight's own cancellation
// (vs. a genuine alignment failure).
func wasCanceled(ctx context.Context, err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	// Executors surface cancellation in transport-specific clothing
	// (closed communicators, peer-death); trust the context's verdict.
	return ctx.Err() != nil
}

// cancelCause prefers the recorded cancellation cause over the bare
// context error, so status reports say *why* ("client disconnected",
// "job deadline (2s) exceeded") rather than just "context canceled".
func cancelCause(ctx context.Context, err error) error {
	if cause := context.Cause(ctx); cause != nil && !errors.Is(cause, context.Canceled) {
		return cause
	}
	if err != nil {
		return err
	}
	return context.Canceled
}

// QueueStats is the health endpoint's view of the pool.
type QueueStats struct {
	Queued          int     `json:"queued"`
	Active          int     `json:"active"`
	OldestQueuedAge float64 `json:"oldest_queued_age_s"` // seconds the head-of-line flight has waited; 0 with an empty queue
	MaxQueued       int     `json:"max_queued"`
	MaxConcurrent   int     `json:"max_concurrent"`
	Draining        bool    `json:"draining,omitempty"`
	Jobs            int     `json:"jobs_tracked"`
	CacheEntries    int     `json:"cache_entries"`
	CacheBytes      int64   `json:"cache_bytes"`
}

// Stats snapshots the queue.
func (s *Server) Stats() QueueStats {
	s.mu.Lock()
	q, a, n, d := s.queued, s.active, len(s.jobs), s.draining
	var oldest float64
	if len(s.fifo) > 0 { // FIFO order is admission order: the head waited longest
		oldest = time.Since(s.fifo[0].enqueued).Seconds()
	}
	s.mu.Unlock()
	return QueueStats{
		Queued:          q,
		Active:          a,
		OldestQueuedAge: oldest,
		MaxQueued:       s.cfg.MaxQueued,
		MaxConcurrent:   s.cfg.MaxConcurrent,
		Draining:        d,
		Jobs:            n,
		CacheEntries:    s.cache.Len(),
		CacheBytes:      s.cache.Bytes(),
	}
}

// liveTracer returns the tracer of the flight the job is riding, while
// it is actually executing — the source of in-progress trace snapshots.
// Nil when the job is queued, terminal, detached, or tracing is off.
func (s *Server) liveTracer(j *Job) *obs.Tracer {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.fl == nil {
		return nil
	}
	return j.fl.tracer
}
