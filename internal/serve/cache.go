package serve

import "time"

// Result is the stored outcome of a successful alignment job: the
// rendered FASTA plus the summary numbers the status endpoint reports.
// Results are immutable once stored, so cache and jobs share them.
type Result struct {
	FASTA     []byte        `json:"-"`
	NumSeqs   int           `json:"num_seqs"`
	Width     int           `json:"width"`
	Procs     int           `json:"procs"`
	BytesSent int64         `json:"bytes_sent"`
	BytesRecv int64         `json:"bytes_recv"`
	Elapsed   time.Duration `json:"elapsed_ns"`
	TraceID   string        `json:"trace_id,omitempty"`
	Trace     []byte        `json:"-"` // span-tree JSON (obs.Document); served at /v1/jobs/{id}/trace
}

// summaryOf is res without its FASTA payload and its trace: what a job
// record keeps while a cache tier holds the rest, so the job serves its
// result and its trace from the same place.
func summaryOf(res *Result) *Result {
	summary := *res
	summary.FASTA, summary.Trace = nil, nil
	return &summary
}

// sizeBytes is the accounting size of a result in the memory tier, a
// store.LRU bounded by entry count and total FASTA bytes. Traces are
// deliberately excluded: they are bounded by the tracer's span cap and
// tiny next to alignments, and counting them would perturb the cache's
// deterministic hit/evict sequence between tracing-on and -off runs.
func (r *Result) sizeBytes() int64 { return int64(len(r.FASTA)) }
