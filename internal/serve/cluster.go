package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/bio"
	"repro/internal/core"
	"repro/internal/fasta"
	"repro/internal/mpi"
	"repro/internal/msa"
	"repro/internal/obs"
)

// The cluster job protocol: one TCP control connection per worker per
// job, JSON messages both ways.
//
//	coordinator → worker : prepare{}            (claims the worker)
//	worker → coordinator : hello{mesh}          (the worker's rank mesh address)
//	coordinator → worker : jobSpec{rank, addrs, options, fasta-shard}
//	worker → coordinator : jobAck{ok, error}    (after the rank finishes)
//
// Between spec and ack, both sides participate in a normal
// mpi.DialTCPContext mesh; worker failure therefore surfaces twice —
// as a broken control connection and as mpi peer-death on rank 0 —
// and either one fails the job instead of hanging it. Closing the
// control connection mid-job cancels the worker's rank.

type prepareMsg struct {
	Proto int `json:"proto"` // protocol version: clusterProto
}

type helloMsg struct {
	Mesh  string `json:"mesh"` // address this worker's rank will listen on
	Error string `json:"error,omitempty"`
}

type jobSpec struct {
	Rank    int        `json:"rank"`
	Addrs   []string   `json:"addrs"`
	Options Resolved   `json:"options"`
	Trace   *traceSpec `json:"trace,omitempty"` // nil = tracing off for this job
	FASTA   string     `json:"fasta"`           // this rank's input shard
}

// traceSpec propagates the coordinator's tracing configuration to one
// worker rank: the worker runs its own obs.Tracer under the same trace
// ID and bounds, and ships the finished span tree back in its ack. The
// whole job then renders as one tree — the coordinator grafts each
// remote tree under a per-rank child span (obs.Span.AttachRemote).
type traceSpec struct {
	ID          string `json:"id"`
	MaxSpans    int    `json:"max_spans"`
	SampleDepth int    `json:"sample_depth"`
}

type jobAck struct {
	OK    bool            `json:"ok"`
	Error string          `json:"error,omitempty"`
	Trace json.RawMessage `json:"trace,omitempty"` // the rank's obs.Document, when the spec asked for tracing
}

// clusterProto is the version both ends of the control connection must
// name in prepare. It covers what the ranks say to each other on the
// mesh as well as the control messages, so builds on either side of a
// change refuse each other here, before a mesh is dialled, instead of
// failing to decode each other's first collective: 2 was mpi's binary
// wire format (1 was gob); 3 dropped the ablation options from the job
// spec — a 2 coordinator could ask for a pipeline this build no longer
// has — and renumbered core's message tags.
const clusterProto = 3

// Cluster executes jobs on a pre-connected set of samplealignd worker
// daemons (started with -worker-ctrl/-worker-mesh): the server itself
// is rank 0 and each worker one further rank. Jobs are serialized
// through the cluster (one at a time) because every worker has a single
// fixed mesh address; run several servers or worker sets for parallel
// cluster jobs.
type Cluster struct {
	Workers     []string      // worker control addresses (world size = len+1)
	SelfAddr    string        // rank-0 mesh listen address of this server
	DialTimeout time.Duration // control-connection dial timeout (default 5s)

	mu sync.Mutex // one job at a time: mesh ports are fixed per worker
}

// Name identifies the executor in /healthz.
func (c *Cluster) Name() string {
	return fmt.Sprintf("tcp-cluster(p=%d)", len(c.Workers)+1)
}

// FixedProcs is the cluster's world size: the set of connected workers,
// not the request, decides the rank count. Submit folds this into the
// resolved options before keying the cache, so every request for the
// same input shares one cache entry and reports the procs actually run.
func (c *Cluster) FixedProcs() int { return len(c.Workers) + 1 }

// Align satisfies Executor. opts.Procs is forced to the world size for
// direct callers; jobs coming through Submit already arrive normalized.
func (c *Cluster) Align(ctx context.Context, seqs []bio.Sequence, opts Resolved) (*msa.Alignment, ExecReport, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, ExecReport{}, err
	}
	cfg, err := opts.CoreConfig()
	if err != nil {
		return nil, ExecReport{}, err
	}

	p := len(c.Workers) + 1
	opts.Procs = p
	dialTimeout := c.DialTimeout
	if dialTimeout == 0 {
		dialTimeout = 5 * time.Second
	}

	// Distributed tracing: when the job context carries a tracer, every
	// worker runs its own under the same ID and bounds and ships its
	// span tree back in the ack; a per-rank "worker" span here covers
	// claim-to-ack and adopts the remote tree, so the job renders as one
	// tree over all p ranks. Span Start/End/AttachRemote are all nil-safe,
	// so the untraced path stays branch-free.
	tr := obs.FromContext(ctx)
	var tspec *traceSpec
	if tr != nil {
		maxSpans, sampleDepth := tr.Bounds()
		tspec = &traceSpec{ID: tr.ID(), MaxSpans: maxSpans, SampleDepth: sampleDepth}
	}
	wspans := make([]*obs.Span, len(c.Workers))
	defer func() {
		for _, sp := range wspans { // close spans left open by error paths (End is idempotent)
			sp.End()
		}
	}()

	// Phase 1: claim every worker and learn its mesh address. The
	// conn-closing watcher is armed before the first write and stays
	// for the whole call, so a job cancel or deadline unwinds even a
	// write stalled on a wedged worker and, in phase 3, tells every
	// worker to cancel its rank; per-operation I/O deadlines bound
	// stalls that the context never sees.
	var connsMu sync.Mutex
	conns := make([]net.Conn, len(c.Workers))
	closeConns := func() {
		connsMu.Lock()
		defer connsMu.Unlock()
		for _, conn := range conns {
			if conn != nil {
				_ = conn.Close()
			}
		}
	}
	defer closeConns()
	watch := make(chan struct{})
	defer close(watch)
	go func() {
		select {
		case <-ctx.Done():
			closeConns()
		case <-watch:
		}
	}()

	addrs := make([]string, p)
	addrs[0] = c.SelfAddr
	for i, ctrl := range c.Workers {
		d := net.Dialer{Timeout: dialTimeout}
		conn, err := d.DialContext(ctx, "tcp", ctrl)
		if err != nil {
			return nil, ExecReport{}, fmt.Errorf("serve: cluster worker %d (%s): %w", i+1, ctrl, err)
		}
		connsMu.Lock()
		conns[i] = conn
		connsMu.Unlock()
		conn.SetDeadline(time.Now().Add(dialTimeout))
		if err := json.NewEncoder(conn).Encode(prepareMsg{Proto: clusterProto}); err != nil {
			return nil, ExecReport{}, fmt.Errorf("serve: cluster worker %d (%s): prepare: %w", i+1, ctrl, err)
		}
		var hello helloMsg
		if err := json.NewDecoder(conn).Decode(&hello); err != nil {
			return nil, ExecReport{}, fmt.Errorf("serve: cluster worker %d (%s): hello: %w", i+1, ctrl, err)
		}
		conn.SetDeadline(time.Time{})
		if hello.Error != "" {
			return nil, ExecReport{}, fmt.Errorf("serve: cluster worker %d (%s): %s", i+1, ctrl, hello.Error)
		}
		addrs[i+1] = hello.Mesh
		_, wsp := obs.Start(ctx, "worker")
		wsp.SetInt("rank", int64(i+1))
		wsp.SetStr("ctrl", ctrl)
		wspans[i] = wsp
	}

	// Phase 2: ship each worker its rank, the mesh and its input shard.
	// The shard can be large; the write deadline matches the worker's
	// spec read deadline.
	shards, _ := core.SplitBlocks(seqs, p)
	for i, conn := range conns {
		spec := jobSpec{
			Rank:    i + 1,
			Addrs:   addrs,
			Options: opts,
			Trace:   tspec,
			FASTA:   fasta.FormatString(shards[i+1]),
		}
		conn.SetWriteDeadline(time.Now().Add(5 * time.Minute))
		if err := json.NewEncoder(conn).Encode(spec); err != nil {
			return nil, ExecReport{}, fmt.Errorf("serve: cluster worker %d: spec: %w", i+1, err)
		}
		conn.SetWriteDeadline(time.Time{})
	}

	// Phase 3: run rank 0 here while collecting worker acks. If ctx is
	// cancelled, the communicator (made under ctx) and the control
	// connections (phase 1's watcher) close, which unwinds everything:
	// workers see EOF on control and cancel too.
	comm, err := mpi.DialTCPContext(ctx, mpi.TCPConfig{Rank: 0, Addrs: addrs})
	if err != nil {
		return nil, ExecReport{}, fmt.Errorf("serve: cluster mesh: %w", err)
	}
	defer func() { _ = comm.Close() }() // teardown; run errors surface from AlignContext

	ackCh := make(chan error, len(conns))
	for i, conn := range conns {
		go func(i int, conn net.Conn) {
			var ack jobAck
			if err := json.NewDecoder(conn).Decode(&ack); err != nil {
				wspans[i].End()
				ackCh <- fmt.Errorf("worker %d: control connection lost: %w", i+1, err)
				return
			}
			if !ack.OK {
				wspans[i].SetStr("error", ack.Error)
				wspans[i].End()
				ackCh <- fmt.Errorf("worker %d: %s", i+1, ack.Error)
				return
			}
			if len(ack.Trace) > 0 {
				var doc obs.Document
				if err := json.Unmarshal(ack.Trace, &doc); err == nil {
					wspans[i].SetInt("remote_spans", int64(doc.SpanCount))
					wspans[i].AttachRemote(&doc)
				} else {
					wspans[i].SetStr("trace_error", err.Error())
				}
			}
			wspans[i].End()
			ackCh <- nil
		}(i, conn)
	}

	aln, rankStats, err := core.AlignContext(ctx, comm, shards[0], cfg)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ExecReport{}, ctxErr
		}
		return nil, ExecReport{}, fmt.Errorf("serve: cluster rank 0: %w", err)
	}
	// The glue already completed on rank 0; acks only confirm orderly
	// worker shutdown (and surface worker-side errors for the log).
	var ackErr error
	for range conns {
		select {
		case e := <-ackCh:
			if e != nil && ackErr == nil {
				ackErr = e
			}
		case <-ctx.Done():
			return nil, ExecReport{}, ctx.Err()
		}
	}
	if ackErr != nil {
		return nil, ExecReport{}, fmt.Errorf("serve: cluster: %w", ackErr)
	}
	rep := ExecReport{Procs: p}
	if rankStats != nil {
		rep.BytesSent = rankStats.Comm.BytesSent
		rep.BytesRecv = rankStats.Comm.BytesRecv
	}
	return aln, rep, nil
}
