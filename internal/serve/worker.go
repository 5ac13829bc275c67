package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fasta"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// WorkerConfig configures one cluster worker daemon.
type WorkerConfig struct {
	CtrlAddr string         // control listen address (coordinator dials this)
	MeshAddr string         // fixed rank mesh listen address, advertised per job
	Metrics  *WorkerMetrics // rank-local metrics (-metrics-addr); nil disables
	Logger   *slog.Logger   // structured logs; nil = silent
}

// RunWorker serves cluster jobs until ctx is cancelled: accept one
// control connection, run one rank, repeat. Jobs are strictly serial —
// the mesh address is fixed — so a worker is claimed for the duration
// of a job; admission control belongs to the coordinator.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	logger := orDiscard(cfg.Logger)
	if cfg.MeshAddr == "" {
		return fmt.Errorf("serve: worker needs a mesh address")
	}
	var lc net.ListenConfig
	ln, err := lc.Listen(ctx, "tcp", cfg.CtrlAddr)
	if err != nil {
		return fmt.Errorf("serve: worker listen %s: %w", cfg.CtrlAddr, err)
	}
	defer func() { _ = ln.Close() }()
	go func() {
		<-ctx.Done()
		_ = ln.Close() // unblock Accept
	}()
	logger.Info("worker listening", "ctrl", ln.Addr().String(), "mesh", cfg.MeshAddr)
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("serve: worker accept: %w", err)
		}
		if err := handleWorkerJob(ctx, conn, cfg, logger); err != nil && ctx.Err() == nil {
			logger.Warn("worker job failed", "err", err)
		}
	}
}

// handleWorkerJob runs one job's rank over the given control
// connection. The returned error is also reported to the coordinator in
// the final ack when the connection still works.
func handleWorkerJob(ctx context.Context, conn net.Conn, cfg WorkerConfig, logger *slog.Logger) error {
	defer func() { _ = conn.Close() }()
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
	if err := enc.Encode(helloMsg{Mesh: cfg.MeshAddr}); err != nil {
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
	traceID := ""
	if spec.Trace != nil {
		traceID = spec.Trace.ID
	}
	logger.Info("worker job starting", "rank", spec.Rank, "procs", len(spec.Addrs),
		"local_seqs", len(shard), "trace", traceID)

	// The control connection doubles as the cancellation channel: the
	// coordinator closing it (job cancelled, coordinator died) cancels
	// this rank, which unwinds its collectives via the mpi context
	// plumbing and frees the mesh port for the next job.
	jobCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	watchDone := make(chan struct{})
	// Unblock the reader (it sits in conn.Read) before waiting for it;
	// double-closing conn is harmless and the outer defer still covers
	// early returns above.
	defer func() { _ = conn.Close(); <-watchDone }()
	go func() {
		defer close(watchDone)
		var one [1]byte
		conn.Read(one[:]) // blocks until EOF/reset (no payload is expected)
		cancel()
	}()

	comm, err := mpi.DialTCPContext(jobCtx, mpi.TCPConfig{Rank: spec.Rank, Addrs: spec.Addrs})
	if err != nil {
		enc.Encode(jobAck{Error: fmt.Sprintf("mesh: %v", err)})
		return fmt.Errorf("mesh: %w", err)
	}
	commWatch := make(chan struct{})
	go func() {
		select {
		case <-jobCtx.Done():
			_ = comm.Close()
		case <-commWatch:
		}
	}()
	// Rank-local tracing: when the coordinator asked for it, this rank
	// runs its own tracer under the propagated ID and bounds and ships
	// the finished tree back in the ack (the coordinator grafts it into
	// the job's tree). Worker metrics feed off the same spans.
	runCtx := jobCtx
	var tr *obs.Tracer
	if spec.Trace != nil || cfg.Metrics != nil {
		o := obs.Options{}
		if spec.Trace != nil {
			o.ID = spec.Trace.ID
			o.MaxSpans = spec.Trace.MaxSpans
			o.SampleDepth = spec.Trace.SampleDepth
		}
		if cfg.Metrics != nil {
			o.OnSpanEnd = cfg.Metrics.ObserveStage
		}
		tr = obs.New(o)
		runCtx = obs.WithTracer(runCtx, tr)
	}
	cfg.Metrics.JobStarted()
	_, _, runErr := core.AlignContext(runCtx, comm, shard, coreCfg)
	close(commWatch)
	_ = comm.Close()
	if runErr != nil {
		cfg.Metrics.JobFinished(false)
		enc.Encode(jobAck{Error: runErr.Error()})
		return fmt.Errorf("rank %d: %w", spec.Rank, runErr)
	}
	cfg.Metrics.JobFinished(true)
	ack := jobAck{OK: true}
	if spec.Trace != nil && tr != nil {
		if doc, derr := json.Marshal(tr.Document()); derr == nil {
			ack.Trace = doc
		}
	}
	logger.Info("worker job done", "rank", spec.Rank, "trace", traceID)
	return enc.Encode(ack)
}
