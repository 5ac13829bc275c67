package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
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
//	coordinator → worker : prepare{}            (claims the worker for one job)
//	worker → coordinator : hello{mesh}          (this job's rank mesh address)
//	coordinator → worker : jobSpec{rank, addrs, options, fasta-shard}
//	worker → coordinator : jobAck{ok, error}    (after the rank finishes)
//
// Every job has a mesh of its own: each worker, and rank 0 here, binds
// an ephemeral port beside its control connection (listenBeside) for
// that job only, so jobs run side by side on one set of workers.
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
	Mesh  string `json:"mesh"` // address this worker's rank listens on for this job
	Error string `json:"error,omitempty"`
}

// jobSpec is one rank's job. A non-empty TraceID asks the worker to run
// its own obs.Tracer under that ID and ship the finished span tree back
// in its ack; the whole job then renders as one tree — the coordinator
// grafts each remote tree under a per-rank child span
// (obs.Span.AttachRemote).
type jobSpec struct {
	Rank    int      `json:"rank"`
	Addrs   []string `json:"addrs"`
	Options Resolved `json:"options"`
	TraceID string   `json:"trace_id,omitempty"` // empty = tracing off for this job
	FASTA   string   `json:"fasta"`              // this rank's input shard
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
// has — and renumbered core's message tags; 4 added a digest of the
// address list to the mesh hello, which a 3 worker would not send; 5
// replaced the spec's trace settings with a bare trace ID, which a 4
// worker would read as an untraced job.
const clusterProto = 5

// ctrlTimeout bounds dialling a worker and its prepare/hello exchange.
const ctrlTimeout = 5 * time.Second

// Cluster executes jobs on a pre-connected set of samplealignd worker
// daemons (started with -worker-ctrl): the server itself is rank 0 and
// each worker one further rank. Jobs share the workers at once, each on
// a mesh of its own; the server's MaxConcurrent bounds them.
type Cluster struct {
	Workers []string // worker control addresses (world size = len+1)
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
	if err := ctx.Err(); err != nil {
		return nil, ExecReport{}, err
	}
	cfg, err := opts.CoreConfig()
	if err != nil {
		return nil, ExecReport{}, err
	}

	p := len(c.Workers) + 1
	opts.Procs = p

	// Distributed tracing: when the job context carries a tracer, every
	// worker runs its own under the same ID and ships its span tree back
	// in the ack; a per-rank "worker" span here covers claim-to-ack and
	// adopts the remote tree, so the job renders as one tree over all p
	// ranks. Span Start/End/AttachRemote are all nil-safe, so the
	// untraced path stays branch-free. An ID is what turns a worker's
	// tracing on, so a coordinator tracer with an empty ID traces this
	// rank alone.
	var traceID string
	if tr := obs.FromContext(ctx); tr != nil {
		traceID = tr.ID()
	}
	wspans := make([]*obs.Span, len(c.Workers))
	defer func() {
		for _, sp := range wspans { // close spans left open by error paths (End is idempotent)
			sp.End()
		}
	}()

	// Phase 1: claim every worker and learn its mesh address. Each
	// connection's closing hook is armed before the first write and
	// stays for the whole call, so a job cancel or deadline unwinds even
	// a write stalled on a wedged worker and, in phase 3, tells every
	// worker to cancel its rank; per-operation I/O deadlines bound
	// stalls that the context never sees.
	conns := make([]net.Conn, len(c.Workers))
	addrs := make([]string, p)
	var ln net.Listener // rank 0's mesh port; the communicator takes it over
	for i, ctrl := range c.Workers {
		d := net.Dialer{Timeout: ctrlTimeout}
		conn, err := d.DialContext(ctx, "tcp", ctrl)
		if err != nil {
			return nil, ExecReport{}, fmt.Errorf("serve: cluster worker %d (%s): %w", i+1, ctrl, err)
		}
		conns[i] = conn
		defer func() { _ = conn.Close() }()
		defer context.AfterFunc(ctx, func() { _ = conn.Close() })()
		if i == 0 { // beside the control connection to worker 1
			if ln, err = listenBeside(conn); err != nil {
				return nil, ExecReport{}, fmt.Errorf("serve: cluster mesh listen: %w", err)
			}
			defer func() { _ = ln.Close() }() // until the communicator takes it over
			addrs[0] = ln.Addr().String()
		}
		conn.SetDeadline(time.Now().Add(ctrlTimeout))
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
			TraceID: traceID,
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
	// connections (phase 1's hooks) close, which unwinds everything:
	// workers see EOF on control and cancel too.
	comm, err := mpi.DialTCPContext(ctx, mpi.TCPConfig{Rank: 0, Addrs: addrs, Listener: ln})
	if err != nil {
		return nil, ExecReport{}, fmt.Errorf("serve: cluster mesh: %w", err)
	}
	defer func() { _ = comm.Close() }() // teardown; run errors surface from AlignContext

	ackCh := make(chan error, len(conns))
	for i, conn := range conns {
		go func() {
			var ack jobAck
			err := json.NewDecoder(conn).Decode(&ack)
			switch {
			case err != nil:
				err = fmt.Errorf("worker %d: control connection lost: %w", i+1, err)
			case !ack.OK:
				wspans[i].SetStr("error", ack.Error)
				err = fmt.Errorf("worker %d: %s", i+1, ack.Error)
			case len(ack.Trace) > 0:
				var doc obs.Document
				if uerr := json.Unmarshal(ack.Trace, &doc); uerr == nil {
					wspans[i].SetInt("remote_spans", int64(doc.SpanCount))
					wspans[i].AttachRemote(&doc)
				} else {
					wspans[i].SetStr("trace_error", uerr.Error())
				}
			}
			wspans[i].End()
			ackCh <- err
		}()
	}

	aln, rankStats, err := core.AlignContext(ctx, comm, shards[0], cfg)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ExecReport{}, ctxErr
		}
		return nil, ExecReport{}, fmt.Errorf("serve: cluster rank 0: %w", err)
	}
	// The glue already completed on rank 0; acks only confirm orderly
	// worker shutdown (and surface worker-side errors for the log). Every
	// ack comes: ctx ending closes the control connections.
	var ackErr error
	for range conns {
		if e := <-ackCh; ackErr == nil {
			ackErr = e
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, ExecReport{}, err
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

// listenBeside binds an ephemeral port on conn's local address, which
// conn's peer, and so the job's other ranks, already reach this host on.
func listenBeside(conn net.Conn) (net.Listener, error) {
	host, _, err := net.SplitHostPort(conn.LocalAddr().String())
	if err != nil {
		return nil, err
	}
	return net.Listen("tcp", net.JoinHostPort(host, "0"))
}
