package stats

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// LabeledHistograms is a family of LatencyHistograms keyed by one label
// value — the shape of samplealign_stage_seconds{stage="..."}. Series
// are created on first observation; callers are expected to keep the
// label set bounded (the serve layer filters span names to the
// canonical pipeline stages before observing).
type LabeledHistograms struct {
	bounds []float64

	mu sync.Mutex
	m  map[string]*LatencyHistogram
}

// newLabeledHistograms builds a family whose series all share bounds.
// Bounds are validated once here with the same rules as
// newLatencyHistogram.
func newLabeledHistograms(bounds []float64) (*LabeledHistograms, error) {
	if _, err := newLatencyHistogram(bounds); err != nil {
		return nil, err
	}
	return &LabeledHistograms{
		bounds: append([]float64(nil), bounds...),
		m:      make(map[string]*LatencyHistogram),
	}, nil
}

// MustLabeledHistograms is newLabeledHistograms that panics on bad
// bounds, for package-level metric construction.
func MustLabeledHistograms(bounds []float64) *LabeledHistograms {
	l, err := newLabeledHistograms(bounds)
	if err != nil {
		panic(err)
	}
	return l
}

// Observe records one observation of d seconds under the given label
// value, creating the series on first use.
func (l *LabeledHistograms) Observe(label string, d float64) {
	l.mu.Lock()
	h := l.m[label]
	if h == nil {
		h = MustLatencyHistogram(l.bounds)
		l.m[label] = h
	}
	l.mu.Unlock()
	h.Observe(d)
}

// Labels returns the label values with at least one series, sorted.
func (l *LabeledHistograms) Labels() []string {
	l.mu.Lock()
	out := make([]string, 0, len(l.m))
	for k := range l.m {
		out = append(out, k)
	}
	l.mu.Unlock()
	sort.Strings(out)
	return out
}

// Snapshot returns a consistent copy of one series, and whether it
// exists.
func (l *LabeledHistograms) Snapshot(label string) (HistogramSnapshot, bool) {
	l.mu.Lock()
	h := l.m[label]
	l.mu.Unlock()
	if h == nil {
		return HistogramSnapshot{}, false
	}
	return h.Snapshot(), true
}

// WritePrometheus renders the whole family under one metric name with
// HELP/TYPE headers, one bucket/sum/count series per label value in
// sorted label order. Nothing is written when no series exist yet
// (Prometheus treats an absent metric as absent, not zero).
func (l *LabeledHistograms) WritePrometheus(b *strings.Builder, name, help, labelName string) {
	labels := l.Labels()
	if len(labels) == 0 {
		return
	}
	fmt.Fprintf(b, "# HELP %s %s\n", name, help)
	fmt.Fprintf(b, "# TYPE %s histogram\n", name)
	for _, lv := range labels {
		snap, ok := l.Snapshot(lv)
		if !ok {
			continue
		}
		snap.writeSeries(b, name, fmt.Sprintf("%s=%q", labelName, lv))
	}
}
