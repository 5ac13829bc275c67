package stats

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestLatencyHistogramBucketing(t *testing.T) {
	h, err := newLatencyHistogram([]float64{0.1, 1, 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []float64{0.05, 0.1, 0.5, 2, 100, -1} {
		h.Observe(d)
	}
	h.Observe(math.NaN()) // ignored
	s := h.Snapshot()
	if s.Total != 6 {
		t.Fatalf("total = %d, want 6", s.Total)
	}
	// buckets: ≤0.1 gets 0.05, 0.1 and -1; (0.1,1] gets 0.5; (1,10] gets 2; +Inf gets 100
	want := []uint64{3, 1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("counts = %v, want %v", s.Counts, want)
		}
	}
	wantCum := []uint64{3, 4, 5, 6}
	for i, w := range wantCum {
		if s.Cumulative[i] != w {
			t.Fatalf("cumulative = %v, want %v", s.Cumulative, wantCum)
		}
	}
	if got := s.Sum; math.Abs(got-101.65) > 1e-9 {
		t.Fatalf("sum = %g, want 101.65", got)
	}
}

func TestLatencyHistogramValidation(t *testing.T) {
	if _, err := newLatencyHistogram(nil); err == nil {
		t.Fatal("empty bounds accepted")
	}
	if _, err := newLatencyHistogram([]float64{1, 1}); err == nil {
		t.Fatal("non-increasing bounds accepted")
	}
	if _, err := newLatencyHistogram([]float64{2, 1}); err == nil {
		t.Fatal("decreasing bounds accepted")
	}
}

func TestLatencyHistogramConcurrent(t *testing.T) {
	h := MustLatencyHistogram(DefaultLatencyBounds())
	var wg sync.WaitGroup
	const per = 1000
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(g*i%300) / 100)
			}
		}(g)
	}
	wg.Wait()
	if s := h.Snapshot(); s.Total != 8*per {
		t.Fatalf("total = %d, want %d", s.Total, 8*per)
	}
}

func TestLatencyHistogramPrometheus(t *testing.T) {
	h := MustLatencyHistogram([]float64{0.5, 1})
	h.Observe(0.2)
	h.Observe(0.7)
	h.Observe(5)
	var b strings.Builder
	h.Snapshot().WritePrometheus(&b, "job_seconds", "Job wall-clock.")
	out := b.String()
	for _, want := range []string{
		"# HELP job_seconds Job wall-clock.",
		"# TYPE job_seconds histogram",
		`job_seconds_bucket{le="0.5"} 1`,
		`job_seconds_bucket{le="1"} 2`,
		`job_seconds_bucket{le="+Inf"} 3`,
		"job_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(7)
	g.Add(-3)
	g.Add(1)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	g.Set(0)
	if got := g.Value(); got != 0 {
		t.Fatalf("gauge after reset = %d, want 0", got)
	}
}
