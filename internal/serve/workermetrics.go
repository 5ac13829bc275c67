package serve

import (
	"io"
	"net/http"
	"strings"

	"repro/internal/dpkern"
	"repro/internal/obs"
	"repro/internal/stats"
)

// WorkerMetrics is the rank-local metric set a samplealignd worker
// daemon exposes on its own -metrics-addr listener (the same
// separate-listener pattern as -pprof-addr): jobs served, per-stage
// wall-clock for this rank's shard of the pipeline, and the
// process-wide DP-kernel dispatch tallies. A nil *WorkerMetrics is a
// valid no-op sink, so the daemon's hot path never branches on whether
// metrics are enabled.
type WorkerMetrics struct {
	Jobs       stats.Counter // rank jobs started
	JobsFailed stats.Counter // rank jobs that ended in error (cancellation included)
	Stages     *stats.LabeledHistograms
}

// NewWorkerMetrics builds the metric set with the default latency
// bounds.
func NewWorkerMetrics() *WorkerMetrics {
	return &WorkerMetrics{Stages: stats.MustLabeledHistograms(stats.DefaultLatencyBounds())}
}

// ObserveStage feeds one finished span into the rank-local stage
// histograms if its name is a canonical pipeline stage. Shaped to plug
// into obs.Options.OnSpanClose; safe on a nil receiver.
func (m *WorkerMetrics) ObserveStage(sc obs.SpanClose) {
	if m == nil {
		return
	}
	if pipelineStages[sc.Name] {
		m.Stages.Observe(sc.Name, float64(sc.DurationNs)/1e9)
	}
}

// JobStarted counts one rank job beginning. Safe on a nil receiver.
func (m *WorkerMetrics) JobStarted() {
	if m == nil {
		return
	}
	m.Jobs.Inc()
}

// JobFinished counts one rank job's outcome. Safe on a nil receiver.
func (m *WorkerMetrics) JobFinished(ok bool) {
	if m == nil {
		return
	}
	if !ok {
		m.JobsFailed.Inc()
	}
}

// Render writes the Prometheus text exposition, folding in the
// process-wide integer-DP call tally sampled at call time.
func (m *WorkerMetrics) Render() string {
	var b strings.Builder
	counter := func(name, help string, v int64) {
		b.WriteString("# HELP " + name + " " + help + "\n")
		b.WriteString("# TYPE " + name + " counter\n")
		writeMetricLine(&b, name, v)
	}
	counter("samplealign_worker_jobs_total", "Rank jobs started on this worker.", m.Jobs.Value())
	counter("samplealign_worker_jobs_failed_total", "Rank jobs that ended in error on this worker.", m.JobsFailed.Value())
	counter("samplealign_kernel_striped_calls_total", "Pairwise DP calls, every one run by the integer kernel.", dpkern.TallySnapshot().Striped)
	m.Stages.WritePrometheus(&b, "samplealign_stage_seconds",
		"Wall-clock seconds per pipeline stage on this rank, one observation per traced span.", "stage")
	return b.String()
}

// Handler serves the exposition at /metrics (plus a bare /healthz), for
// mounting on a dedicated listener via obs.Serve.
func (m *WorkerMetrics) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		io.WriteString(w, m.Render())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	return mux
}
