package stats

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a goroutine-safe monotonically increasing counter, the
// unit of the job service's /metrics endpoint.
type Counter struct{ n atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds delta (delta < 0 is a programming error and is ignored).
func (c *Counter) Add(delta int64) {
	if delta > 0 {
		c.n.Add(delta)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Gauge is a goroutine-safe settable value, for /metrics gauges whose
// truth lives in the instrumented component rather than in a sampled
// snapshot (e.g. "is the server draining", store occupancy).
type Gauge struct{ n atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.n.Store(v) }

// Add adjusts the value by delta (negative deltas allowed).
func (g *Gauge) Add(delta int64) { g.n.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.n.Load() }

// LatencyHistogram is a goroutine-safe fixed-bucket histogram of
// durations (in seconds). Buckets are cumulative in the exposition
// (Prometheus "le" convention): bucket i counts observations ≤
// Bounds[i], with a final implicit +Inf bucket. The zero value is not
// usable; construct with MustLatencyHistogram.
type LatencyHistogram struct {
	bounds []float64 // strictly increasing upper bounds, seconds

	mu     sync.Mutex
	counts []uint64 // len(bounds)+1; counts[len(bounds)] is +Inf
	sum    float64
	total  uint64
}

// DefaultLatencyBounds covers request latencies from 1 ms to ~4 min in
// roughly 4× steps — wide enough for both cache hits and full
// alignments.
func DefaultLatencyBounds() []float64 {
	return []float64{0.001, 0.004, 0.016, 0.064, 0.25, 1, 4, 16, 64, 256}
}

// newLatencyHistogram builds a histogram over the given strictly
// increasing upper bounds (seconds). An empty or unsorted bounds slice
// is rejected.
func newLatencyHistogram(bounds []float64) (*LatencyHistogram, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("stats: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("stats: histogram bounds not strictly increasing at %d (%g after %g)",
				i, bounds[i], bounds[i-1])
		}
	}
	return &LatencyHistogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}, nil
}

// MustLatencyHistogram is newLatencyHistogram that panics on bad bounds;
// for package-level metric construction with literal bounds.
func MustLatencyHistogram(bounds []float64) *LatencyHistogram {
	h, err := newLatencyHistogram(bounds)
	if err != nil {
		panic(err)
	}
	return h
}

// Observe records one observation of d seconds. NaN is ignored;
// negative values count into the first bucket.
func (h *LatencyHistogram) Observe(d float64) {
	if math.IsNaN(d) {
		return
	}
	// Binary search for the first bound >= d; linear would do for ~10
	// buckets, but the invariant (sorted bounds) makes this free.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < d {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.mu.Lock()
	h.counts[lo]++
	h.sum += d
	h.total++
	h.mu.Unlock()
}

// HistogramSnapshot is a consistent point-in-time copy of a
// LatencyHistogram.
type HistogramSnapshot struct {
	Bounds     []float64 // upper bounds, seconds (the +Inf bucket is implicit)
	Counts     []uint64  // per-bucket (non-cumulative) counts, len(Bounds)+1
	Sum        float64   // sum of all observations, seconds
	Total      uint64    // number of observations
	Cumulative []uint64  // cumulative counts aligned with Bounds, plus +Inf last
}

// Snapshot returns a consistent copy of the histogram state.
func (h *LatencyHistogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	counts := append([]uint64(nil), h.counts...)
	sum, total := h.sum, h.total
	h.mu.Unlock()
	cum := make([]uint64, len(counts))
	var run uint64
	for i, c := range counts {
		run += c
		cum[i] = run
	}
	return HistogramSnapshot{
		Bounds:     append([]float64(nil), h.bounds...),
		Counts:     counts,
		Sum:        sum,
		Total:      total,
		Cumulative: cum,
	}
}

// WritePrometheus renders the histogram in Prometheus text exposition
// format under the given metric name (no labels), with HELP and TYPE
// headers.
func (s HistogramSnapshot) WritePrometheus(b *strings.Builder, name, help string) {
	fmt.Fprintf(b, "# HELP %s %s\n", name, help)
	fmt.Fprintf(b, "# TYPE %s histogram\n", name)
	s.writeSeries(b, name, "")
}

// writeSeries emits the bucket/sum/count sample lines for one series.
// labels, when non-empty, is a rendered `key="value"` fragment inserted
// before the le label (e.g. `stage="guidetree"`).
func (s HistogramSnapshot) writeSeries(b *strings.Builder, name, labels string) {
	sep := ""
	if labels != "" {
		sep = labels + ","
	}
	for i, bound := range s.Bounds {
		fmt.Fprintf(b, "%s_bucket{%sle=\"%g\"} %d\n", name, sep, bound, s.Cumulative[i])
	}
	fmt.Fprintf(b, "%s_bucket{%sle=\"+Inf\"} %d\n", name, sep, s.Total)
	if labels != "" {
		fmt.Fprintf(b, "%s_sum{%s} %g\n", name, labels, s.Sum)
		fmt.Fprintf(b, "%s_count{%s} %d\n", name, labels, s.Total)
		return
	}
	fmt.Fprintf(b, "%s_sum %g\n", name, s.Sum)
	fmt.Fprintf(b, "%s_count %d\n", name, s.Total)
}
