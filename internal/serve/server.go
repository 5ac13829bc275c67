// Package serve turns the Sample-Align-D pipeline into a long-running
// alignment service: a bounded asynchronous job queue with admission
// control, a content-addressed result cache (an in-memory LRU backed
// by an optional on-disk store), a write-ahead submit journal with
// crash recovery, pluggable executors (in-process ranks by default, a
// pre-connected TCP rank cluster optionally) and an HTTP/JSON API (see
// Handler).
//
// A job rides a flight: one computation shared by every identical
// submission in flight (admit.go). Every change to a job's or a
// flight's state is a row of this table, made in lifecycle.go:
//
//	job       event                 next state              effects
//	new       attach                queued, or running¹     remember
//	new       cache hit             done (cached)           end²
//	new       replayed outcome      the journal's outcome   record, close Done
//	queued    flight pop            running                 journal start³, publish started
//	queued    cancel, deadline      canceled                detach⁴, end
//	running   cancel, deadline      canceled                detach⁴, end
//	running   flight verdict        done, failed, canceled  end³
//	terminal  any                   terminal                none
//
//	flight    event                 next state              effects
//	new       admit, replay         queued                  take a queue slot
//	queued    dispatcher pop        running                 give the slot back; riders start
//	queued    last waiter detaches  canceled                give the slot back, leave the queue, close the stream
//	running   last waiter detaches  running                 cancel its context: the executor unwinds
//	running   executor returns      done, failed, canceled  riders end³, close the stream
//
// "end" runs the terminal effects in one order: stop the deadline
// timer, record the outcome, journal, count, publish the terminal
// event, close Done, log. A job seen Done, or whose terminal event was
// published, is journaled and counted. ¹ when the flight already runs.
// ² no journal effect: its records ride the admission's commit group.
// ³ one journal commit group per flight. ⁴ only the last waiter to
// leave stops the flight, so one impatient client cannot kill a
// computation others wait for. Close ends every live job canceled with
// errInterrupted, journaled as an interrupt the next boot re-enqueues.
//
// With Config.DataDir set, every accepted job is journaled before it
// can run and every finished result is persisted content-addressed on
// disk: a restart replays the journal, re-enqueues unfinished jobs and
// restores finished ones, and large results are streamed from disk
// instead of buffered (see the store package).
package serve

import (
	"cmp"
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
	"repro/internal/kmer"
	"repro/internal/obs"
	"repro/internal/store"
)

// Errors the HTTP layer maps to status codes.
var (
	errOverloaded = errors.New("serve: queue full, try again later") // → 429
	errClosed     = errors.New("serve: server is shutting down")     // → 503
	errNotFound   = errors.New("serve: no such job")                 // → 404

	// errInterrupted is the cause Close ends live jobs with (a drain
	// window that expired, or no drain at all). They are journaled as
	// interrupts, not cancels: the next boot re-enqueues them.
	errInterrupted = errors.New("serve: interrupted by shutdown")
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

// Config parameterises a Server. The zero value is usable: every unset
// field takes the default WithDefaults writes.
type Config struct {
	Defaults      Options  // server-side option defaults for requests
	Limits        Limits   // per-job procs/workers bounds
	MaxConcurrent int      // jobs aligning at once (default 2)
	MaxQueued     int      // flights waiting beyond the running ones (default 64)
	CacheEntries  int      // result cache entry bound (default 256; -1 disables)
	CacheBytes    int64    // result cache byte bound (default 64 MiB; -1 unbounded)
	Executor      Executor // default Inproc{}

	// DataDir enables durability: a write-ahead submit journal
	// (replayed on startup) plus a content-addressed on-disk result
	// store that backs the in-memory cache as a second tier and serves
	// streaming result reads. Empty = fully in-memory (byte-identical
	// behaviour to a server without persistence).
	//
	// StoreEntries and StoreBytes bound the results/ store and, apart,
	// the traces/ store beside it, so the data dir can hold twice each
	// bound (plus the journal); the samplealign_store_* gauges count
	// results only.
	DataDir      string
	StoreEntries int   // entry bound per disk store (default 4096; -1 disables the disk result tier)
	StoreBytes   int64 // byte bound per disk store (default 1 GiB; -1 unbounded)

	// DrainTimeout bounds the graceful-shutdown drain: how long
	// ListenAndServe waits for queued and running jobs to finish after
	// its context is canceled before hard-canceling the rest (default
	// 30s; < 0 skips draining).
	DrainTimeout time.Duration

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

// WithDefaults returns c with every unset field given its default. It
// is the one table of service defaults: New applies it, and the
// samplealignsrv flags read theirs from Config{}.WithDefaults().
func (c Config) WithDefaults() Config {
	d := &c.Defaults
	d.Procs = cmp.Or(d.Procs, 4)
	d.Workers = cmp.Or(d.Workers, 1)
	d.Aligner = cmp.Or(d.Aligner, "muscle")
	d.K = cmp.Or(d.K, kmer.DefaultK)
	c.Limits.MaxProcs = cmp.Or(c.Limits.MaxProcs, 64)
	c.MaxConcurrent = cmp.Or(c.MaxConcurrent, 2)
	c.MaxQueued = cmp.Or(c.MaxQueued, 64)
	c.CacheEntries = cmp.Or(c.CacheEntries, 256)
	c.CacheBytes = cmp.Or(c.CacheBytes, 64<<20)
	if c.Executor == nil {
		c.Executor = Inproc{}
	}
	c.StoreEntries = cmp.Or(c.StoreEntries, 4096)
	c.StoreBytes = cmp.Or(c.StoreBytes, 1<<30)
	c.DrainTimeout = cmp.Or(c.DrainTimeout, 30*time.Second)
	return c
}

// maxJobs is how many finished-job records the server retains for
// status queries.
const maxJobs = 1024

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

	state  State
	jobs   []*Job
	tracer *obs.Tracer // live tracer while running (guarded by Server.mu); nil when queued, finished or NoTrace
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
	bus  *events.Bus[Event] // the flight's event stream (a hit's own); immutable once the job is visible; nil for journal-restored jobs

	mu        sync.Mutex
	state     State
	started   time.Time
	finished  time.Time
	cached    bool
	coalesced bool
	recovered bool
	timer     *time.Timer // pending deadline, stopped when the job ends
	result    *Result
	err       error
}

// Done returns a channel closed when the job reaches a terminal state,
// by which time its outcome is journaled and counted.
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

// resultIfDone returns the job's result, state and error in one
// snapshot; the result is set only once the job is done.
func (j *Job) resultIfDone() (*Result, State, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.state, j.err
}

// retainedResult decides what the job record keeps: only the summary
// when a cache tier (memory or disk) owns the payload — their bounds
// then govern result memory — or the full result when the job is the
// payload's only home.
func (s *Server) retainedResult(res *Result) *Result {
	if s.cache != nil || s.results != nil {
		return summaryOf(res)
	}
	return res
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
	res := &Result{FASTA: payload}
	if err := json.Unmarshal(meta, res); err != nil {
		s.log.Warn("result meta unreadable", "key", key, "err", err)
		return nil, false
	}
	s.metrics.StoreHits.Inc()
	s.cache.Put(key, res, res.sizeBytes())
	return res, true
}

// Server owns the queue, the dispatcher pool, the cache tiers, the
// journal and the job table. Construct with New, serve HTTP via
// Handler, stop with Drain (optional) + Close.
type Server struct {
	cfg     Config
	cache   *store.LRU[*Result] // memory tier; nil when disabled
	maxJobs int                 // finished-job records retained; tests lower it
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
// Close). It first resolves an empty request against the defaulted
// config, so defaults no request could run under — an unknown aligner,
// a bad K, procs above MaxProcs — fail here rather than as a 400 on
// every request. With cfg.DataDir set it then locks the directory,
// replays the journal — re-enqueueing unfinished jobs and restoring
// finished ones — and compacts it.
func New(cfg Config) (*Server, error) {
	cfg = cfg.WithDefaults()
	if _, err := resolve(Options{}, cfg.Defaults, cfg.Limits, cfg.Executor.FixedProcs()); err != nil {
		return nil, fmt.Errorf("serve: default options: %w", err)
	}
	//lint:allow ctxflow server-lifetime root context, cancelled by (*Server).Close
	ctx, cancel := context.WithCancelCause(context.Background())
	s := &Server{
		cfg:        cfg,
		maxJobs:    maxJobs,
		metrics:    newMetrics(),
		log:        orDiscard(cfg.Logger),
		started:    time.Now(),
		baseCtx:    ctx,
		baseCancel: cancel,
		inflight:   make(map[string]*flight),
		jobs:       make(map[string]*Job),
	}
	s.cond = sync.NewCond(&s.mu)
	if cfg.CacheEntries >= 0 { // -1 disables the memory tier
		s.cache = store.NewLRU[*Result](cfg.CacheEntries, cfg.CacheBytes)
	}
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

// Drain stops admission — new submissions fail with errClosed (HTTP
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
	s.baseCancel(errInterrupted) // every job this kills ends as an interrupt
	s.wg.Wait()
	if s.journal != nil {
		s.journalAppendBatch([]store.Record{{Type: store.RecShutdown, Time: time.Now()}})
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

// Job looks up a job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Cancel requests cancellation of a queued or running job. It returns
// errNotFound for unknown IDs and reports whether the job was still
// live (false: it had already finished).
func (s *Server) Cancel(id string, cause error) (bool, error) {
	j, ok := s.Job(id)
	if !ok {
		return false, errNotFound
	}
	return s.cancelJob(j, cause), nil
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
		now := time.Now()
		fl, riders := s.popLocked(now)
		s.active++
		s.mu.Unlock()
		s.run(fl, riders, now)
		s.mu.Lock()
		s.active--
		s.mu.Unlock()
	}
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
