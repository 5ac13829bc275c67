package samplealign

import (
	"log/slog"
	"time"

	"repro/internal/serve"
)

// ServerConfig configures the alignment job service (see NewServer).
// Each field maps onto one serve.Config field, and a zero field takes
// the default serve.Config.WithDefaults writes (in parentheses below).
type ServerConfig struct {
	// Default options applied to requests that omit them.
	DefaultProcs   int    // ranks per job (default 4)
	DefaultWorkers int    // shared-memory workers per rank (default 1)
	DefaultAligner string // bucket aligner name (default "muscle")

	// Admission control and per-job resource bounds.
	MaxConcurrent int // jobs aligning at once (default 2)
	MaxQueued     int // jobs waiting beyond the running ones (default 64);
	//                   submissions past this get 429
	MaxProcs     int // reject requests asking for more ranks (default 64; -1 = no cap)
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
	//
	// StoreEntries and StoreBytes bound that store: one file per
	// result, holding its job's trace too, counted at its whole size.
	// A trace is served while its result is.
	DataDir      string
	StoreEntries int   // result file bound (default 4096; -1 disables the disk tier)
	StoreBytes   int64 // byte bound over the result files (default 1 GiB; -1 unbounded)

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

// Server is the alignment job service: a bounded async queue with
// admission control in front of the Sample-Align-D pipeline, plus a
// content-addressed result cache. Handler serves its HTTP API,
// ListenAndServe runs it with graceful shutdown, Close stops it.
type Server = serve.Server

// NewServer builds and starts a job service (its worker pool runs until
// Close). See ServerConfig for the knobs; defaults no request could run
// under (an unknown aligner, procs above MaxProcs) are an error here.
func NewServer(cfg ServerConfig) (*Server, error) {
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
		DrainTimeout:  cfg.DrainTimeout,
		Logger:        cfg.Logger,
		NoTrace:       cfg.NoTrace,
	}
	if len(cfg.ClusterWorkers) > 0 {
		sc.Executor = &serve.Cluster{Workers: cfg.ClusterWorkers}
	}
	return serve.New(sc)
}

// RecoveryInfo summarises what the write-ahead journal replay
// reconstructed at startup (see ServerConfig.DataDir): whether a
// DataDir is configured, the intact journal records replayed, the
// terminal jobs restored, the unfinished jobs re-enqueued (of which
// Interrupted were ended by the previous shutdown) and whether the
// previous process closed cleanly.
type RecoveryInfo = serve.RecoveryInfo
