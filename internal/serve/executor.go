package serve

import (
	"context"

	"repro/internal/bio"
	"repro/internal/core"
	"repro/internal/msa"
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
