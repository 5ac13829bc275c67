package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one bench-side span: the interval of one call from the bench
// into a layer's public function. Spans inside the program are a later
// change (ROADMAP E); until then layers are measured from outside.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0: no parent
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"` // since the traced pass began
	EndNs    int64  `json:"end_ns"`
}

// tracer keeps the traced pass's spans in memory until the pass ends.
// The pass runs its replays one after another on one goroutine, so the
// innermost open span is the parent of the next one.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	open     []int // IDs of the open spans, innermost last
}

func newTracer(workload string) *tracer { return &tracer{workload: workload, t0: time.Now()} }

// do runs fn inside a span and returns the span's duration in seconds.
func (t *tracer) do(layer, name string, fn func() error) (float64, error) {
	s := span{ID: len(t.spans) + 1, Name: name, Layer: layer, Workload: t.workload}
	if len(t.open) > 0 {
		s.Parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, s)
	t.open = append(t.open, s.ID)
	start := time.Since(t.t0)
	err := fn()
	end := time.Since(t.t0)
	t.open = t.open[:len(t.open)-1]
	t.spans[s.ID-1].StartNs, t.spans[s.ID-1].EndNs = start.Nanoseconds(), end.Nanoseconds()
	return (end - start).Seconds(), err
}

// selfSeconds is every layer's self time: its spans' durations minus
// the part their child spans cover.
func (t *tracer) selfSeconds() map[string]float64 {
	children := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		children[s.Parent] += s.EndNs - s.StartNs
	}
	self := map[string]float64{}
	for _, s := range t.spans {
		self[s.Layer] += time.Duration(s.EndNs - s.StartNs - children[s.ID]).Seconds()
	}
	return self
}

// write stores the spans and the per-layer self times as
// dir/trace-<workload>.json.
func (t *tracer) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	doc, err := json.MarshalIndent(struct {
		Workload    string             `json:"workload"`
		SelfSeconds map[string]float64 `json:"self_seconds_by_layer"`
		Spans       []span             `json:"spans"`
	}{t.workload, t.selfSeconds(), t.spans}, "", " ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+t.workload+".json")
	return path, os.WriteFile(path, append(doc, '\n'), 0o644)
}
