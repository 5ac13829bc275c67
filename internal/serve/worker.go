package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fasta"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// WorkerConfig configures one cluster worker daemon.
type WorkerConfig struct {
	CtrlAddr string         // control listen address (coordinator dials this)
	Metrics  *WorkerMetrics // rank-local metrics (-metrics-addr); nil disables
	Logger   *slog.Logger   // structured logs; nil = silent
}

// RunWorker serves cluster jobs on cfg.CtrlAddr until ctx is cancelled,
// each control connection a job on a mesh of its own, side by side;
// admission control belongs to the coordinator. It returns once every
// job in flight has unwound.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	ln, err := net.Listen("tcp", cfg.CtrlAddr)
	if err != nil {
		return fmt.Errorf("serve: worker listen %s: %w", cfg.CtrlAddr, err)
	}
	return serveWorker(ctx, ln, cfg)
}

// serveWorker is RunWorker's accept loop; it closes ln.
func serveWorker(ctx context.Context, ln net.Listener, cfg WorkerConfig) error {
	logger := orDiscard(cfg.Logger)
	defer context.AfterFunc(ctx, func() { _ = ln.Close() })() // unblock Accept
	defer func() { _ = ln.Close() }()
	var jobs sync.WaitGroup
	defer jobs.Wait()
	logger.Info("worker listening", "ctrl", ln.Addr().String())
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("serve: worker accept: %w", err)
		}
		jobs.Add(1)
		go func() {
			defer jobs.Done()
			if err := handleWorkerJob(ctx, conn, cfg, logger); err != nil && ctx.Err() == nil {
				logger.Warn("worker job failed", "err", err)
			}
		}()
	}
}

// handleWorkerJob runs one job's rank over the given control
// connection. The returned error is also reported to the coordinator in
// the final ack when the connection still works.
func handleWorkerJob(ctx context.Context, conn net.Conn, cfg WorkerConfig, logger *slog.Logger) error {
	defer func() { _ = conn.Close() }()
	// The worker shutting down closes conn, unblocking any I/O on it.
	defer context.AfterFunc(ctx, func() { _ = conn.Close() })()
	dec := json.NewDecoder(conn)
	enc := json.NewEncoder(conn)

	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var prep prepareMsg
	if err := dec.Decode(&prep); err != nil {
		return fmt.Errorf("prepare: %w", err)
	}
	if prep.Proto != clusterProto {
		enc.Encode(helloMsg{Error: fmt.Sprintf("unsupported protocol %d (want %d)", prep.Proto, clusterProto)})
		return fmt.Errorf("unsupported protocol %d", prep.Proto)
	}
	// This job's mesh port; the communicator takes it over, and the
	// deferred close covers every return before that.
	ln, err := listenBeside(conn)
	if err != nil {
		enc.Encode(helloMsg{Error: fmt.Sprintf("mesh listen: %v", err)})
		return fmt.Errorf("mesh listen: %w", err)
	}
	defer func() { _ = ln.Close() }()
	if err := enc.Encode(helloMsg{Mesh: ln.Addr().String()}); err != nil {
		return fmt.Errorf("hello: %w", err)
	}
	// The spec carries the rank's whole FASTA shard; give a large
	// transfer more room than the prepare handshake while still not
	// trusting a hung coordinator forever.
	conn.SetReadDeadline(time.Now().Add(5 * time.Minute))
	var spec jobSpec
	if err := dec.Decode(&spec); err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	conn.SetReadDeadline(time.Time{})

	// The spec came off the network, from a coordinator that may be a
	// different build: refuse what this binary cannot run before the
	// mesh is dialled, and stay up for the next job.
	coreCfg, err := spec.Options.CoreConfig()
	if err != nil {
		enc.Encode(jobAck{Error: fmt.Sprintf("options: %v", err)})
		return fmt.Errorf("options: %w", err)
	}
	shard, err := fasta.Read(strings.NewReader(spec.FASTA))
	if err != nil {
		enc.Encode(jobAck{Error: fmt.Sprintf("parsing shard: %v", err)})
		return fmt.Errorf("parsing shard: %w", err)
	}
	logger.Info("worker job starting", "rank", spec.Rank, "procs", len(spec.Addrs),
		"local_seqs", len(shard), "trace", spec.TraceID)

	// The control connection doubles as the cancellation channel: the
	// coordinator closing it (job cancelled, coordinator died) cancels
	// this rank, whose communicator, made under ctx, closes: that
	// unwinds its collectives and closes the job's mesh port. The
	// deferred close unblocks the reader before waiting for it.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	watchDone := make(chan struct{})
	defer func() { _ = conn.Close(); <-watchDone }()
	go func() {
		defer close(watchDone)
		conn.Read(make([]byte, 1)) // blocks until EOF/reset (no payload is expected)
		cancel()
	}()

	comm, err := mpi.DialTCPContext(ctx, mpi.TCPConfig{Rank: spec.Rank, Addrs: spec.Addrs, Listener: ln})
	if err != nil {
		enc.Encode(jobAck{Error: fmt.Sprintf("mesh: %v", err)})
		return fmt.Errorf("mesh: %w", err)
	}
	// Rank-local tracing: when the coordinator asked for it, this rank
	// runs its own tracer under the propagated ID and ships the finished
	// tree back in the ack (the coordinator grafts it into the job's
	// tree). Worker metrics feed off the same spans; when no tree is to
	// be shipped they get a hook-only tracer, which builds none.
	var onClose func(obs.SpanClose)
	if cfg.Metrics != nil {
		onClose = cfg.Metrics.ObserveStage
	}
	var tr *obs.Tracer
	switch {
	case spec.TraceID != "":
		tr = obs.New(spec.TraceID, onClose)
	case onClose != nil:
		tr = obs.NewHook(onClose)
	}
	runCtx := obs.WithTracer(ctx, tr)
	cfg.Metrics.JobStarted()
	_, _, runErr := core.AlignContext(runCtx, comm, shard, coreCfg)
	_ = comm.Close()
	if runErr != nil {
		cfg.Metrics.JobFinished(false)
		enc.Encode(jobAck{Error: runErr.Error()})
		return fmt.Errorf("rank %d: %w", spec.Rank, runErr)
	}
	cfg.Metrics.JobFinished(true)
	ack := jobAck{OK: true}
	if spec.TraceID != "" {
		if doc, derr := json.Marshal(tr.Document()); derr == nil {
			ack.Trace = doc
		}
	}
	logger.Info("worker job done", "rank", spec.Rank, "trace", spec.TraceID)
	return enc.Encode(ack)
}
