package samplealign

import (
	"context"
	"log/slog"
	"net"
	"net/http"
	"time"

	"repro/internal/serve"
)

// ServerConfig configures the alignment job service (see NewServer).
// The zero value serves in-process alignments with 2 concurrent jobs,
// a 64-job queue and a 256-entry / 64 MiB result cache.
type ServerConfig struct {
	// Default options applied to requests that omit them.
	DefaultProcs   int    // ranks per job (default 4)
	DefaultWorkers int    // shared-memory workers per rank (default 1)
	DefaultAligner string // bucket aligner name (default "muscle")

	// Admission control and per-job resource bounds.
	MaxConcurrent int // jobs aligning at once (default 2)
	MaxQueued     int // jobs waiting beyond the running ones (default 64);
	//                   submissions past this get 429
	MaxProcs     int // reject requests asking for more ranks (0 = no cap)
	WorkerBudget int // clamp procs×workers per job (0 = no cap)

	// Content-addressed result cache (identical input + options are
	// answered without re-running the alignment).
	CacheEntries int   // entry bound (default 256; -1 disables)
	CacheBytes   int64 // byte bound (default 64 MiB; -1 unbounded)

	// DataDir enables durability: accepted jobs are journaled to a
	// write-ahead log before they can run (replayed on startup, so a
	// restart re-enqueues unfinished jobs and keeps finished ones
	// visible) and results are persisted content-addressed on disk,
	// backing the in-memory cache as a second tier and serving result
	// downloads as streams. Empty = fully in-memory, exactly the
	// pre-persistence behaviour.
	DataDir      string
	StoreEntries int   // disk store entry bound (default 4096; -1 disables the disk tier)
	StoreBytes   int64 // disk store byte bound (default 1 GiB; -1 unbounded)

	// DrainTimeout bounds the graceful-shutdown drain: how long
	// ListenAndServe waits for queued and running jobs to finish after
	// its context is canceled before hard-canceling the rest (default
	// 30s; < 0 skips draining).
	DrainTimeout time.Duration

	// Logger receives structured operational logs (job lifecycle keyed
	// by job/trace IDs, journal I/O errors, recovery notes). Nil means
	// silent.
	Logger *slog.Logger

	// NoTrace disables per-job span tracing: /v1/jobs/{id}/trace
	// answers 404 and the per-stage histograms on /metrics stay empty.
	// Alignment output is byte-identical with tracing on or off.
	NoTrace bool

	// Optional TCP rank cluster: when ClusterWorkers lists samplealignd
	// worker daemons (their -worker-ctrl addresses), jobs fan out to
	// them with this server as rank 0. Each job binds its own mesh
	// ports, so up to MaxConcurrent cluster jobs run at once.
	ClusterWorkers []string
}

// Server is a long-running alignment job service: a bounded async
// queue with admission control in front of the Sample-Align-D
// pipeline, plus a content-addressed result cache. Obtain the HTTP API
// with Handler and serve it with any http.Server; Close drains it.
type Server struct {
	inner        *serve.Server
	drainTimeout time.Duration
}

// NewServer builds and starts a job service (its worker pool runs until
// Close). See ServerConfig for the knobs and Handler for the API.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.DefaultAligner != "" {
		if _, err := NewAligner(cfg.DefaultAligner, 1); err != nil {
			return nil, err
		}
	}
	sc := serve.Config{
		Defaults: serve.Options{
			Procs:   cfg.DefaultProcs,
			Workers: cfg.DefaultWorkers,
			Aligner: cfg.DefaultAligner,
		},
		Limits: serve.Limits{
			MaxProcs:     cfg.MaxProcs,
			WorkerBudget: cfg.WorkerBudget,
		},
		MaxConcurrent: cfg.MaxConcurrent,
		MaxQueued:     cfg.MaxQueued,
		CacheEntries:  cfg.CacheEntries,
		CacheBytes:    cfg.CacheBytes,
		DataDir:       cfg.DataDir,
		StoreEntries:  cfg.StoreEntries,
		StoreBytes:    cfg.StoreBytes,
		Logger:        cfg.Logger,
		NoTrace:       cfg.NoTrace,
	}
	if len(cfg.ClusterWorkers) > 0 {
		sc.Executor = &serve.Cluster{Workers: cfg.ClusterWorkers}
	}
	inner, err := serve.New(sc)
	if err != nil {
		return nil, err
	}
	drain := cfg.DrainTimeout
	if drain == 0 {
		drain = 30 * time.Second
	}
	return &Server{inner: inner, drainTimeout: drain}, nil
}

// RecoveryInfo summarises what the write-ahead journal replay
// reconstructed at startup (see ServerConfig.DataDir): whether a
// DataDir is configured, the intact journal records replayed, the
// terminal jobs restored, the unfinished jobs re-enqueued (of which
// Interrupted were ended by the previous shutdown) and whether the
// previous process closed cleanly.
type RecoveryInfo = serve.RecoveryInfo

// Recovery reports what startup journal replay found; the zero value
// (Enabled false) without a DataDir.
func (s *Server) Recovery() RecoveryInfo { return s.inner.Recovery() }

// Drain stops admission (new submissions get 503 while status and
// result reads keep working) and waits up to timeout for queued and
// running jobs to finish; it reports whether the server drained fully.
func (s *Server) Drain(timeout time.Duration) bool { return s.inner.Drain(timeout) }

// Handler returns the HTTP API:
//
//	POST   /v1/jobs             submit (async) → 202 + job status JSON
//	POST   /v1/batch            submit many inputs in one request
//	                            (all-or-nothing admission, one journal
//	                            commit group) → per-input job statuses
//	GET    /v1/jobs/{id}        status
//	GET    /v1/jobs/{id}/result aligned FASTA
//	GET    /v1/jobs/{id}/trace  span-tree JSON of the finished run (a
//	                            live snapshot, marked X-Trace-Incomplete,
//	                            while it runs)
//	GET    /v1/jobs/{id}/events live progress stream (Server-Sent
//	                            Events); disconnecting never cancels
//	DELETE /v1/jobs/{id}        cancel
//	POST   /v1/align            submit + wait; disconnect cancels the job
//	GET    /healthz             liveness + queue stats
//	GET    /metrics             Prometheus text metrics
//
// Submit bodies are raw FASTA (plain or gzip) with options as query
// parameters, or JSON {"fasta": "...", "options": {...}}.
func (s *Server) Handler() http.Handler { return s.inner.Handler() }

// Close cancels all queued and running jobs and waits for the pool to
// drain.
func (s *Server) Close() { s.inner.Close() }

// ListenAndServe runs the job service on addr until ctx is cancelled,
// then shuts down gracefully: new submissions are refused with 503
// while queued and running jobs drain (up to DrainTimeout; status and
// result reads keep being served), the HTTP listener closes, and the
// pool is torn down — with a DataDir, a clean-shutdown record is
// journaled last.
func ListenAndServe(ctx context.Context, addr string, cfg ServerConfig) error {
	srv, err := NewServer(cfg)
	if err != nil {
		return err
	}
	return srv.ListenAndServe(ctx, addr)
}

// ListenAndServe runs an already-constructed server on addr until ctx
// is cancelled (see the package-level ListenAndServe), then closes it.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	defer s.Close()
	hs := &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return context.WithoutCancel(ctx) },
	}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	select {
	case <-ctx.Done():
		// Refuse new work but keep the listener up while jobs drain, so
		// waiting clients can still poll status and fetch results.
		if s.drainTimeout >= 0 {
			s.Drain(s.drainTimeout)
		}
		//lint:allow ctxflow bounded graceful-shutdown timeout: the caller's ctx is already done here
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(shutCtx)
		<-errCh // always http.ErrServerClosed after Shutdown
		return nil
	case err := <-errCh:
		return err
	}
}
