// Package obs is the pipeline's tracing layer: a context-propagated
// span tracer that records, per pipeline stage, wall time plus a small
// bag of attributes (worker count, kernel dispatch, comm bytes, cache
// outcome). A finished trace renders as a JSON span tree that the serve
// layer exposes on GET /v1/jobs/{id}/trace and persists alongside the
// job result.
//
// Design constraints, in order:
//
//  1. Zero cost when disabled. Start on a context with no tracer is a
//     single context lookup returning (ctx, nil); every Span method is
//     nil-safe, so instrumented code never branches. The disabled path
//     performs no allocations (BenchmarkStartEndDisabled enforces this).
//  2. Observation only. Spans are write-only sinks from the pipeline's
//     point of view: alignment code may Start/Set*/End spans but must
//     never read timing back (Tracer.Document) — durations come from
//     a wall clock and would break the byte-identical determinism
//     contract if they influenced output. The determinism
//     lint analyzer enforces this split for the pipeline packages.
//  3. Bounded. A tracer caps its span count (maxSpans) and drops
//     per-merge-node spans deeper than a fixed depth (sampleDepth), so
//     a 10k-sequence progressive merge cannot balloon the trace.
//
// Wall-clock access stays centralized: clock.go holds this package's
// only time calls, the second audited clock in the repo next to
// internal/core/clock.go.
package obs

import (
	"context"
	"strconv"
	"sync"
	"time"
)

type tracerKey struct{}
type spanKey struct{}

// maxSpans caps a trace's recorded spans; once reached, Start returns
// nil spans and the document reports the dropped count.
const maxSpans = 4096

// sampleDepth is StartDepth's threshold: it records spans with depth ≤ 3
// (the top four levels of a merge tree) and drops deeper ones.
const sampleDepth = 3

// SpanClose is the snapshot handed to a tracer's onClose hook when a span
// finishes: the name, the wall duration, and the attributes recorded up
// to End. Remote marks spans adopted from another rank's tracer via
// AttachRemote rather than ended locally.
type SpanClose struct {
	Name       string
	DurationNs int64
	Attrs      []Attr
	Remote     bool
}

// Tracer collects one job's span tree. All methods are safe for
// concurrent use: the in-process driver runs p rank goroutines against
// one tracer, and progressive merges end spans from worker goroutines.
type Tracer struct {
	id       string
	spanCap  int // maxSpans, except where a test starves the tracer
	onClose  func(SpanClose)
	hookOnly bool // NewHook: spans feed onClose and join no tree
	t0       time.Time

	mu      sync.Mutex
	spans   int
	dropped int64
	roots   []*Span
}

// New builds a tracer named id (the serve layer uses the flight's trace
// ID). onClose, when non-nil, is invoked synchronously from Span.End
// (and once per span adopted via AttachRemote) with a snapshot of the
// finished span, attributes included; the serve layer uses it to feed
// the per-stage latency histograms and the live job event stream. It
// must be safe for concurrent use; it is called outside the tracer lock.
func New(id string, onClose func(SpanClose)) *Tracer {
	return &Tracer{id: id, spanCap: maxSpans, onClose: onClose, t0: now()}
}

// NewHook builds a tracer for a caller that wants only the hook: the
// samplealignd worker and batch mode feed their stage histograms from
// it when no trace is to be shipped. Its spans time themselves and
// reach onClose with their attributes, as New's do, but they are never
// linked into a tree, so none counts against the span cap and the
// Document holds none.
func NewHook(onClose func(SpanClose)) *Tracer {
	return &Tracer{onClose: onClose, hookOnly: true, t0: now()}
}

// ID returns the trace identifier the tracer was created with.
func (t *Tracer) ID() string { return t.id }

// WithTracer installs t as the collector for spans started under the
// returned context. Installing nil returns ctx unchanged.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey{}, t)
}

// FromContext returns the tracer installed by WithTracer, or nil.
func FromContext(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	return t
}

// Start opens a span named name as a child of the current span (or as a
// root if none is open) and returns a context carrying it. With no
// tracer installed it returns (ctx, nil) with zero allocations; the nil
// span accepts every Span method as a no-op.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	if t == nil {
		return ctx, nil
	}
	parent, _ := ctx.Value(spanKey{}).(*Span)
	sp := t.newSpan(name, parent)
	if sp == nil {
		return ctx, nil
	}
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// Current returns the open span ctx carries, or nil when there is none,
// so a callee can record attributes on its caller's span without
// opening one of its own.
func Current(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// StartDepth is Start gated by the sampling threshold: spans requested
// at a depth greater than sampleDepth are not recorded. Progressive
// aligners use it for per-merge-node spans so deep merge trees stay
// bounded.
func StartDepth(ctx context.Context, name string, depth int) (context.Context, *Span) {
	if depth > sampleDepth {
		return ctx, nil
	}
	return Start(ctx, name)
}

func (t *Tracer) newSpan(name string, parent *Span) *Span {
	sp := &Span{tr: t, name: name, startNs: sinceNs(t.t0)}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.linkLocked(sp, parent) {
		return nil
	}
	return sp
}

// linkLocked adds sp to the tree under parent, or as a root when parent
// is nil, and reports false, counting sp dropped, when the span cap is
// reached. A hook-only tracer links nothing and drops nothing. t.mu
// must be held.
func (t *Tracer) linkLocked(sp, parent *Span) bool {
	switch {
	case t.hookOnly:
		return true
	case t.spans >= t.spanCap:
		t.dropped++
		return false
	}
	t.spans++
	if parent != nil {
		parent.children = append(parent.children, sp)
	} else {
		t.roots = append(t.roots, sp)
	}
	return true
}

// Attr is one span attribute. Attributes keep insertion order so trace
// JSON is stable for a fixed instrumentation path.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed region of the pipeline. The zero value of *Span
// (nil) is a valid no-op span: all methods may be called on it.
type Span struct {
	tr      *Tracer
	name    string
	startNs int64

	// guarded by tr.mu
	durNs    int64
	ended    bool
	attrs    []Attr
	children []*Span
}

// SetStr records a string attribute. No-op on a nil span.
func (s *Span) SetStr(key, value string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.tr.mu.Unlock()
}

// SetInt records an integer attribute. No-op on a nil span.
func (s *Span) SetInt(key string, value int64) {
	if s == nil {
		return
	}
	s.SetStr(key, strconv.FormatInt(value, 10))
}

// SetBool records a boolean attribute. No-op on a nil span.
func (s *Span) SetBool(key string, value bool) {
	if s == nil {
		return
	}
	s.SetStr(key, strconv.FormatBool(value))
}

// End closes the span, fixing its duration. Ending twice is a no-op, as
// is ending a nil span. If the tracer has an onClose hook it fires
// here (outside the tracer lock), once per span.
func (s *Span) End() {
	if s == nil {
		return
	}
	dur := sinceNs(s.tr.t0) - s.startNs
	if dur < 0 {
		dur = 0
	}
	s.tr.mu.Lock()
	if s.ended {
		s.tr.mu.Unlock()
		return
	}
	s.ended = true
	s.durNs = dur
	hook := s.tr.onClose
	var sc SpanClose
	if hook != nil {
		sc = SpanClose{Name: s.name, DurationNs: dur, Attrs: append([]Attr(nil), s.attrs...)}
	}
	s.tr.mu.Unlock()
	if hook != nil {
		hook(sc)
	}
}

// AttachRemote grafts a remotely collected span tree — a worker rank's
// serialized Document — under s as already-ended child spans. Adopted
// spans count against this tracer's span cap: once the cap is
// reached, remaining subtrees are dropped and accounted, and the remote
// document's own dropped count carries over. Span timings inside the
// adopted subtree stay relative to the remote tracer's start time, not
// this one's; consumers read them as durations, not as a shared
// timeline. The tracer's onClose hook fires once per adopted span
// (children before parents, mirroring live End order), so stage
// histograms and event streams cover remote ranks too; on a hook-only
// tracer (NewHook) that is all it does. No-op on a nil span or nil
// document.
func (s *Span) AttachRemote(doc *Document) {
	if s == nil || doc == nil {
		return
	}
	t := s.tr
	var closed []SpanClose
	t.mu.Lock()
	if !t.hookOnly { // which keeps no tree to have dropped spans from
		t.dropped += doc.DroppedSpans
	}
	var adopt func(parent *Span, d *SpanDoc)
	adopt = func(parent *Span, d *SpanDoc) {
		sp := &Span{tr: t, name: d.Name, startNs: d.StartNs, durNs: d.DurationNs, ended: true}
		if !t.linkLocked(sp, parent) {
			t.dropped += int64(docSpanCount(d)) - 1 // linkLocked counted sp
			return
		}
		if len(d.Attrs) > 0 {
			sp.attrs = append([]Attr(nil), d.Attrs...)
		}
		for _, c := range d.Children {
			adopt(sp, c)
		}
		if t.onClose != nil {
			closed = append(closed, SpanClose{
				Name:       sp.name,
				DurationNs: sp.durNs,
				Attrs:      append([]Attr(nil), sp.attrs...),
				Remote:     true,
			})
		}
	}
	for _, r := range doc.Spans {
		adopt(s, r)
	}
	t.mu.Unlock()
	for _, sc := range closed {
		t.onClose(sc)
	}
}

// docSpanCount counts the spans in a subtree, for drop accounting when
// an adopted tree overflows the span cap.
func docSpanCount(d *SpanDoc) int {
	n := 1
	for _, c := range d.Children {
		n += docSpanCount(c)
	}
	return n
}

// SpanDoc is the JSON form of one span.
type SpanDoc struct {
	Name       string     `json:"name"`
	StartNs    int64      `json:"start_ns"`
	DurationNs int64      `json:"duration_ns"`
	Attrs      []Attr     `json:"attrs,omitempty"`
	Children   []*SpanDoc `json:"children,omitempty"`
}

// Document is the JSON form of a finished trace.
type Document struct {
	TraceID      string     `json:"trace_id"`
	SpanCount    int        `json:"span_count"`
	DroppedSpans int64      `json:"dropped_spans,omitempty"`
	Spans        []*SpanDoc `json:"spans"`
}

// Document snapshots the tracer's span tree. Unended spans appear with
// a zero duration. This is a timing reader: calling it from a
// determinism-audited pipeline package is a lint error, because span
// timings must never influence alignment bytes.
func (t *Tracer) Document() *Document {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	doc := &Document{
		TraceID:      t.id,
		SpanCount:    t.spans,
		DroppedSpans: t.dropped,
		Spans:        make([]*SpanDoc, 0, len(t.roots)),
	}
	for _, r := range t.roots {
		doc.Spans = append(doc.Spans, r.docLocked())
	}
	return doc
}

func (s *Span) docLocked() *SpanDoc {
	d := &SpanDoc{
		Name:       s.name,
		StartNs:    s.startNs,
		DurationNs: s.durNs,
	}
	if len(s.attrs) > 0 {
		d.Attrs = append([]Attr(nil), s.attrs...)
	}
	for _, c := range s.children {
		d.Children = append(d.Children, c.docLocked())
	}
	return d
}
