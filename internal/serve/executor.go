package serve

import (
	"context"
	"encoding/json"

	"repro/internal/bio"
	"repro/internal/core"
	"repro/internal/fasta"
	"repro/internal/msa"
	"repro/internal/obs"
)

// ExecReport is what an executor learned about one run, for the status
// endpoint and /metrics.
type ExecReport struct {
	Procs     int   // ranks actually used
	BytesSent int64 // communication volume across ranks
	BytesRecv int64
}

// Executor runs one alignment job. Implementations must honour ctx:
// cancellation has to unwind the run and release its workers (the queue
// relies on this for client-disconnect and deadline handling).
// FixedProcs returns a rank count the executor imposes on every job
// (0 = the request's procs are used as asked). Submit normalizes
// resolved options against it *before* computing the cache key, so a
// fixed-size cluster caches identical inputs under one key whatever
// procs the requests asked for.
type Executor interface {
	Name() string
	FixedProcs() int
	Align(ctx context.Context, seqs []bio.Sequence, opts Resolved) (*msa.Alignment, ExecReport, error)
}

// Inproc executes jobs with in-process ranks on the server itself — the
// default executor.
type Inproc struct{}

// Name identifies the executor in /healthz.
func (Inproc) Name() string { return "inproc" }

// FixedProcs reports that in-process jobs honour the requested procs.
func (Inproc) FixedProcs() int { return 0 }

// Align satisfies Executor via core.AlignInprocContext.
func (Inproc) Align(ctx context.Context, seqs []bio.Sequence, opts Resolved) (*msa.Alignment, ExecReport, error) {
	// Procs passes through untouched so a job is bit-for-bit the same
	// run the samplealign CLI would do with -p: the HTTP surface must
	// never return a different alignment than the batch surface.
	procs := opts.Procs
	cfg, err := opts.CoreConfig()
	if err != nil {
		return nil, ExecReport{}, err
	}
	res, err := core.AlignInprocContext(ctx, seqs, procs, cfg)
	if err != nil {
		return nil, ExecReport{}, err
	}
	rep := ExecReport{Procs: procs}
	for _, s := range res.Stats {
		if s == nil {
			continue
		}
		rep.BytesSent += s.Comm.BytesSent
		rep.BytesRecv += s.Comm.BytesRecv
	}
	return res.Alignment, rep, nil
}

// execute runs one flight on the configured executor and renders its
// result. Tracing: one tracer per flight, its ID shared by every
// coalesced job. Finished spans feed the per-stage histograms and the
// live event stream as they end; the whole tree is serialized into the
// result. The tracer rides the context — alignment code sees only
// obs.Start calls, which are inert when NoTrace leaves it out.
func (s *Server) execute(fl *flight) (*Result, error) {
	if err := fl.ctx.Err(); err != nil {
		return nil, err
	}
	ctx := fl.ctx
	var tr *obs.Tracer
	if !s.cfg.NoTrace {
		tr = obs.New(fl.trace, func(sc obs.SpanClose) {
			s.metrics.ObserveStage(sc)
			fl.stream.publishSpan(fl.trace, sc)
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
	aln, rep, err := s.cfg.Executor.Align(jctx, fl.seqs, fl.opts)
	if root != nil {
		root.SetBool("ok", err == nil)
		root.End()
	}
	var trace []byte
	if tr != nil {
		doc := tr.Document()
		s.metrics.TraceDropped.Add(doc.DroppedSpans)
		if err == nil {
			if b, derr := json.Marshal(doc); derr == nil {
				trace = b
			}
		}
	}
	if err != nil {
		return nil, err
	}
	s.metrics.CommSent.Add(rep.BytesSent)
	s.metrics.CommRecv.Add(rep.BytesRecv)
	return &Result{
		FASTA:     []byte(fasta.FormatString(aln.Seqs)),
		NumSeqs:   aln.NumSeqs(),
		Width:     aln.Width(),
		Procs:     rep.Procs,
		BytesSent: rep.BytesSent,
		BytesRecv: rep.BytesRecv,
		TraceID:   fl.trace,
		Trace:     trace,
	}, nil
}
