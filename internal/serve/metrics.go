package serve

import (
	"strconv"
	"strings"

	"repro/internal/stats"
)

// Metrics are the service counters and latency histograms exposed at
// /metrics (Prometheus text format). All fields are goroutine-safe.
type Metrics struct {
	Submitted   stats.Counter // jobs accepted by Submit (incl. cache hits)
	Completed   stats.Counter // jobs finished successfully (incl. cache hits)
	Failed      stats.Counter
	Canceled    stats.Counter
	Rejected    stats.Counter // admission-control 429s
	CacheHits   stats.Counter // submissions answered from a cache tier
	CacheMisses stats.Counter // submissions that started a new computation
	Coalesced   stats.Counter // submissions attached to an identical in-flight job
	StoreHits   stats.Counter // cache hits served by the disk tier
	Streamed    stats.Counter // results streamed from the disk store
	Recovered   stats.Counter // jobs re-enqueued by journal replay at boot
	Interrupted stats.Counter // jobs hard-canceled by shutdown (journaled for requeue at next boot)
	Draining    stats.Gauge   // 1 while the server refuses new submissions to drain

	BatchSubmitted stats.Counter // POST /v1/batch requests admitted
	BatchJobs      stats.Counter // jobs admitted via batch requests
	BatchRejected  stats.Counter // batch requests rejected whole (all-or-nothing admission)

	CommSent stats.Counter // MPI payload bytes sent across all finished jobs
	CommRecv stats.Counter // MPI payload bytes received across all finished jobs

	TraceDropped  stats.Counter // spans dropped at the tracer's MaxSpans bound (remote drops folded in)
	EventsDropped stats.Counter // live-stream events dropped on slow subscribers

	QueueWait    *stats.LabeledHistograms // seconds from submit to leaving the queue, by outcome (dispatched/canceled/coalesced)
	RunSeconds   *stats.LatencyHistogram  // execution wall-clock
	Stages       *stats.LabeledHistograms // per-pipeline-stage wall-clock, fed by trace spans
	GroupRecords *stats.LatencyHistogram  // records per journal commit group, fed by the journal's flush hook
}

// newMetrics builds the metric set with the default latency bounds.
func newMetrics() *Metrics {
	return &Metrics{
		QueueWait:  stats.MustLabeledHistograms(stats.DefaultLatencyBounds()),
		RunSeconds: stats.MustLatencyHistogram(stats.DefaultLatencyBounds()),
		Stages:     stats.MustLabeledHistograms(stats.DefaultLatencyBounds()),
		// Power-of-two record counts: group commit is interesting in
		// exactly how far above 1 record per fsync it gets.
		GroupRecords: stats.MustLatencyHistogram([]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}),
	}
}

// pipelineStages is the canonical stage-name set fed into the Stages
// histogram family: only spans with these names become label values, so
// metric cardinality stays bounded no matter what the tracer records.
var pipelineStages = map[string]bool{
	"distmatrix":  true, // pairwise distance matrix (k-mer or PID)
	"guidetree":   true, // UPGMA / neighbor-joining construction
	"decompose":   true, // sampling, pivot selection, all-to-all exchange
	"bucketalign": true, // local MSA of one rank's bucket
	"merge":       true, // ancestor alignment, fine-tune, glue
}

// ObserveStage feeds one finished span into the per-stage histograms if
// its name is a canonical pipeline stage. Shaped to plug directly into
// obs.Options.OnSpanEnd.
func (m *Metrics) ObserveStage(name string, seconds float64) {
	if pipelineStages[name] {
		m.Stages.Observe(name, seconds)
	}
}

// PersistGauges are the durability-layer gauges sampled at render time;
// nil sections are omitted from the exposition (no DataDir configured).
type PersistGauges struct {
	StoreEntries   int64
	StoreBytes     int64
	StoreEvictions int64
	JournalRecords int64
	JournalBytes   int64
	// Group-commit counters: fsyncs ÷ flushed records is the realized
	// fsyncs-per-record (1.0 means no batching is happening).
	JournalFsyncs         int64
	JournalFlushedRecords int64
}

// Render writes the Prometheus text exposition, folding in the queue,
// cache and persistence gauges sampled at call time.
func (m *Metrics) Render(q QueueStats, evictions int64, persist *PersistGauges) string {
	var b strings.Builder
	counter := func(name, help string, v int64) {
		b.WriteString("# HELP " + name + " " + help + "\n")
		b.WriteString("# TYPE " + name + " counter\n")
		writeMetricLine(&b, name, v)
	}
	gauge := func(name, help string, v int64) {
		b.WriteString("# HELP " + name + " " + help + "\n")
		b.WriteString("# TYPE " + name + " gauge\n")
		writeMetricLine(&b, name, v)
	}
	gaugeF := func(name, help string, v float64) {
		b.WriteString("# HELP " + name + " " + help + "\n")
		b.WriteString("# TYPE " + name + " gauge\n")
		b.WriteString(name)
		b.WriteByte(' ')
		b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		b.WriteByte('\n')
	}
	counter("samplealign_jobs_submitted_total", "Jobs accepted by submit.", m.Submitted.Value())
	counter("samplealign_jobs_completed_total", "Jobs finished successfully.", m.Completed.Value())
	counter("samplealign_jobs_failed_total", "Jobs finished with an error.", m.Failed.Value())
	counter("samplealign_jobs_canceled_total", "Jobs canceled by caller, deadline or disconnect.", m.Canceled.Value())
	counter("samplealign_jobs_rejected_total", "Submissions rejected by admission control (429).", m.Rejected.Value())
	counter("samplealign_jobs_coalesced_total", "Submissions attached to an identical in-flight job.", m.Coalesced.Value())
	counter("samplealign_jobs_recovered_total", "Jobs re-enqueued by journal replay at startup.", m.Recovered.Value())
	counter("samplealign_jobs_interrupted_total", "Jobs hard-canceled by shutdown, journaled for requeue at next boot.", m.Interrupted.Value())
	counter("samplealign_batch_requests_total", "POST /v1/batch requests admitted.", m.BatchSubmitted.Value())
	counter("samplealign_batch_jobs_total", "Jobs admitted via batch requests.", m.BatchJobs.Value())
	counter("samplealign_batch_rejected_total", "Batch requests rejected whole by all-or-nothing admission.", m.BatchRejected.Value())
	counter("samplealign_cache_hits_total", "Submissions answered from the result cache tiers.", m.CacheHits.Value())
	counter("samplealign_cache_misses_total", "Submissions that started a new computation.", m.CacheMisses.Value())
	counter("samplealign_cache_evictions_total", "Results evicted from the in-memory cache.", evictions)
	counter("samplealign_store_hits_total", "Cache hits served by the on-disk result store.", m.StoreHits.Value())
	counter("samplealign_results_streamed_total", "Results streamed to clients from the on-disk store.", m.Streamed.Value())
	counter("samplealign_comm_sent_bytes_total", "MPI payload bytes sent across all finished jobs.", m.CommSent.Value())
	counter("samplealign_comm_recv_bytes_total", "MPI payload bytes received across all finished jobs.", m.CommRecv.Value())
	counter("samplealign_trace_dropped_spans_total", "Trace spans dropped at the tracer's MaxSpans bound.", m.TraceDropped.Value())
	counter("samplealign_events_dropped_total", "Live-stream events dropped on slow subscribers.", m.EventsDropped.Value())
	gauge("samplealign_queue_depth", "Flights admitted and waiting.", int64(q.Queued))
	gaugeF("samplealign_queue_oldest_age_seconds", "Seconds the head-of-line flight has waited; 0 with an empty queue.", q.OldestQueuedAge)
	gauge("samplealign_jobs_running", "Flights currently executing.", int64(q.Active))
	gauge("samplealign_draining", "1 while the server refuses new submissions to drain.", m.Draining.Value())
	gauge("samplealign_cache_entries", "Results held in the in-memory cache.", int64(q.CacheEntries))
	gauge("samplealign_cache_bytes", "FASTA bytes held in the in-memory cache.", q.CacheBytes)
	if persist != nil {
		gauge("samplealign_store_entries", "Results held in the on-disk store.", persist.StoreEntries)
		gauge("samplealign_store_bytes", "FASTA bytes held in the on-disk store.", persist.StoreBytes)
		counter("samplealign_store_evictions_total", "Results evicted from the on-disk store.", persist.StoreEvictions)
		gauge("samplealign_journal_records", "Records in the write-ahead journal.", persist.JournalRecords)
		gauge("samplealign_journal_bytes", "Size of the write-ahead journal.", persist.JournalBytes)
		counter("samplealign_journal_fsyncs_total", "Journal write+fsync cycles (one per commit group).", persist.JournalFsyncs)
		counter("samplealign_journal_flushed_records_total", "Journal records made durable by group commits.", persist.JournalFlushedRecords)
	}
	m.QueueWait.WritePrometheus(&b, "samplealign_job_queue_wait_seconds",
		"Seconds from submit to leaving the queue, by outcome (dispatched, canceled, coalesced).", "outcome")
	m.RunSeconds.Snapshot().WritePrometheus(&b, "samplealign_job_run_seconds",
		"Execution wall-clock seconds per job.")
	m.Stages.WritePrometheus(&b, "samplealign_stage_seconds",
		"Wall-clock seconds per pipeline stage, one observation per traced span.", "stage")
	m.GroupRecords.Snapshot().WritePrometheus(&b, "samplealign_journal_group_records",
		"Records per journal commit group (each group costs one fsync).")
	return b.String()
}

func writeMetricLine(b *strings.Builder, name string, v int64) {
	b.WriteString(name)
	b.WriteByte(' ')
	b.WriteString(strconv.FormatInt(v, 10))
	b.WriteByte('\n')
}
