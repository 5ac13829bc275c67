package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestDisabledPathIsInert(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := Start(ctx, "stage")
	if ctx2 != ctx {
		t.Fatal("Start without a tracer must return the context unchanged")
	}
	if sp != nil {
		t.Fatal("Start without a tracer must return a nil span")
	}
	// Every method must be a safe no-op on the nil span.
	sp.SetStr("k", "v")
	sp.SetInt("n", 7)
	sp.SetBool("b", true)
	sp.End()
	sp.End()
	if got := sp.Wall(); got != 0 {
		t.Fatalf("nil span Wall = %v, want 0", got)
	}
	if FromContext(ctx) != nil {
		t.Fatal("FromContext must be nil without a tracer")
	}
}

func TestDisabledPathAllocs(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		ctx2, sp := Start(ctx, "stage")
		sp.SetInt("workers", 4)
		sp.End()
		_, sp2 := StartDepth(ctx2, "mergenode", 9)
		sp2.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer path allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestSpanTreeNesting(t *testing.T) {
	tr := New(Options{ID: "t1"})
	ctx := WithTracer(context.Background(), tr)
	if FromContext(ctx) == nil {
		t.Fatal("FromContext must be non-nil with a tracer installed")
	}
	ctx, root := Start(ctx, "job")
	root.SetStr("aligner", "muscle")
	cctx, child := Start(ctx, "bucketalign")
	child.SetInt("seqs", 40)
	_, grand := Start(cctx, "distmatrix")
	grand.End()
	child.End()
	// Sibling of bucketalign under the same root.
	_, sib := Start(ctx, "merge")
	sib.End()
	root.End()

	doc := tr.Document()
	if doc.TraceID != "t1" {
		t.Fatalf("trace id = %q", doc.TraceID)
	}
	if doc.SpanCount != 4 {
		t.Fatalf("span count = %d, want 4", doc.SpanCount)
	}
	if len(doc.Spans) != 1 || doc.Spans[0].Name != "job" {
		t.Fatalf("want single root span 'job', got %+v", doc.Spans)
	}
	r := doc.Spans[0]
	if len(r.Children) != 2 || r.Children[0].Name != "bucketalign" || r.Children[1].Name != "merge" {
		t.Fatalf("root children = %+v", r.Children)
	}
	if len(r.Children[0].Children) != 1 || r.Children[0].Children[0].Name != "distmatrix" {
		t.Fatalf("bucketalign children = %+v", r.Children[0].Children)
	}
	if len(r.Attrs) != 1 || r.Attrs[0] != (Attr{Key: "aligner", Value: "muscle"}) {
		t.Fatalf("root attrs = %+v", r.Attrs)
	}
	if got := r.Children[0].Attrs[0]; got != (Attr{Key: "seqs", Value: "40"}) {
		t.Fatalf("SetInt attr = %+v", got)
	}
}

func TestSpanDurations(t *testing.T) {
	tr := New(Options{})
	ctx := WithTracer(context.Background(), tr)
	_, sp := Start(ctx, "work")
	time.Sleep(2 * time.Millisecond)
	sp.End()
	if w := sp.Wall(); w <= 0 {
		t.Fatalf("Wall = %v, want > 0", w)
	}
	doc := tr.Document()
	if doc.Spans[0].DurationNs <= 0 {
		t.Fatalf("duration_ns = %d, want > 0", doc.Spans[0].DurationNs)
	}
	if doc.Spans[0].StartNs < 0 {
		t.Fatalf("start_ns = %d, want >= 0", doc.Spans[0].StartNs)
	}
}

func TestEndIdempotentAndHookOnce(t *testing.T) {
	var mu sync.Mutex
	calls := map[string]int{}
	tr := New(Options{OnSpanEnd: func(name string, sec float64) {
		mu.Lock()
		calls[name]++
		mu.Unlock()
		if sec < 0 {
			t.Errorf("negative duration for %s", name)
		}
	}})
	ctx := WithTracer(context.Background(), tr)
	_, sp := Start(ctx, "stage")
	sp.End()
	sp.End()
	sp.End()
	if calls["stage"] != 1 {
		t.Fatalf("OnSpanEnd fired %d times, want 1", calls["stage"])
	}
}

func TestSpanCap(t *testing.T) {
	tr := New(Options{MaxSpans: 3})
	ctx := WithTracer(context.Background(), tr)
	ctx, root := Start(ctx, "root")
	var kept int
	for i := 0; i < 10; i++ {
		_, sp := Start(ctx, "child")
		if sp != nil {
			kept++
			sp.End()
		}
	}
	root.End()
	if kept != 2 {
		t.Fatalf("kept %d children, want 2 (cap 3 minus root)", kept)
	}
	doc := tr.Document()
	if doc.SpanCount != 3 {
		t.Fatalf("span count = %d, want 3", doc.SpanCount)
	}
	if doc.DroppedSpans != 8 {
		t.Fatalf("dropped = %d, want 8", doc.DroppedSpans)
	}
}

func TestStartDepthSampling(t *testing.T) {
	tr := New(Options{SampleDepth: 2})
	ctx := WithTracer(context.Background(), tr)
	for depth, want := range map[int]bool{0: true, 1: true, 2: true, 3: false, 10: false} {
		_, sp := StartDepth(ctx, "mergenode", depth)
		if got := sp != nil; got != want {
			t.Fatalf("depth %d recorded=%v, want %v", depth, got, want)
		}
		sp.End()
	}
	// Negative SampleDepth disables depth-gated spans entirely.
	tr2 := New(Options{SampleDepth: -1})
	ctx2 := WithTracer(context.Background(), tr2)
	if _, sp := StartDepth(ctx2, "mergenode", 0); sp != nil {
		t.Fatal("SampleDepth<0 must drop all StartDepth spans")
	}
	// Default threshold records the top levels.
	tr3 := New(Options{})
	ctx3 := WithTracer(context.Background(), tr3)
	if _, sp := StartDepth(ctx3, "mergenode", defaultSampleDepth); sp == nil {
		t.Fatal("default threshold must record depth == defaultSampleDepth")
	}
	if _, sp := StartDepth(ctx3, "mergenode", defaultSampleDepth+1); sp != nil {
		t.Fatal("default threshold must drop depth == defaultSampleDepth+1")
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := New(Options{MaxSpans: -1})
	ctx := WithTracer(context.Background(), tr)
	ctx, root := Start(ctx, "job")
	var wg sync.WaitGroup
	const ranks = 8
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rctx, sp := Start(ctx, "rank")
			sp.SetInt("rank", int64(r))
			for j := 0; j < 50; j++ {
				_, c := Start(rctx, "phase")
				c.SetInt("j", int64(j))
				c.End()
			}
			sp.End()
		}(r)
	}
	wg.Wait()
	root.End()
	doc := tr.Document()
	if doc.SpanCount != 1+ranks+ranks*50 {
		t.Fatalf("span count = %d, want %d", doc.SpanCount, 1+ranks+ranks*50)
	}
	if len(doc.Spans[0].Children) != ranks {
		t.Fatalf("root has %d children, want %d", len(doc.Spans[0].Children), ranks)
	}
	for _, rank := range doc.Spans[0].Children {
		if len(rank.Children) != 50 {
			t.Fatalf("rank span has %d children, want 50", len(rank.Children))
		}
	}
}

func TestDocumentJSONRoundTrip(t *testing.T) {
	tr := New(Options{ID: "abc123"})
	ctx := WithTracer(context.Background(), tr)
	ctx, root := Start(ctx, "job")
	_, sp := Start(ctx, "guidetree")
	sp.SetStr("method", "upgma")
	sp.End()
	root.End()
	raw, err := json.Marshal(tr.Document())
	if err != nil {
		t.Fatal(err)
	}
	var back Document
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("trace JSON does not round-trip: %v", err)
	}
	if back.TraceID != "abc123" || len(back.Spans) != 1 {
		t.Fatalf("round-trip mismatch: %+v", back)
	}
	if !strings.Contains(string(raw), `"name":"guidetree"`) {
		t.Fatalf("JSON missing span name: %s", raw)
	}
}

func TestBounds(t *testing.T) {
	maxSpans, sampleDepth := New(Options{}).Bounds()
	if maxSpans != DefaultMaxSpans || sampleDepth != defaultSampleDepth {
		t.Fatalf("default Bounds = (%d, %d), want (%d, %d)",
			maxSpans, sampleDepth, DefaultMaxSpans, defaultSampleDepth)
	}
	maxSpans, sampleDepth = New(Options{MaxSpans: -1, SampleDepth: 7}).Bounds()
	if maxSpans != -1 || sampleDepth != 7 {
		t.Fatalf("Bounds = (%d, %d), want (-1, 7)", maxSpans, sampleDepth)
	}
}

func TestOnSpanCloseHook(t *testing.T) {
	var mu sync.Mutex
	var closes []SpanClose
	tr := New(Options{OnSpanClose: func(sc SpanClose) {
		mu.Lock()
		closes = append(closes, sc)
		mu.Unlock()
	}})
	ctx := WithTracer(context.Background(), tr)
	ctx, root := Start(ctx, "job")
	_, sp := Start(ctx, "guidetree")
	sp.SetStr("method", "upgma")
	sp.End()
	sp.End() // idempotent: the hook must not fire again
	root.End()

	if len(closes) != 2 {
		t.Fatalf("OnSpanClose fired %d times, want 2", len(closes))
	}
	first := closes[0]
	if first.Name != "guidetree" || first.Remote {
		t.Fatalf("first close = %+v, want local guidetree", first)
	}
	if first.DurationNs < 0 {
		t.Fatalf("negative close duration: %d", first.DurationNs)
	}
	if len(first.Attrs) != 1 || first.Attrs[0] != (Attr{Key: "method", Value: "upgma"}) {
		t.Fatalf("close attrs = %+v", first.Attrs)
	}
	if closes[1].Name != "job" {
		t.Fatalf("second close = %+v, want job", closes[1])
	}
}

func TestAttachRemote(t *testing.T) {
	// A "worker rank" produces a finished document under the shared ID...
	remote := New(Options{ID: "shared"})
	rctx := WithTracer(context.Background(), remote)
	rctx, rank := Start(rctx, "rank")
	rank.SetInt("rank", 2)
	_, st := Start(rctx, "distmatrix")
	st.End()
	rank.End()
	rdoc := remote.Document()

	// ...and the coordinator grafts it under a per-rank wrapper span,
	// replaying the adopted spans through both hooks with Remote set.
	var mu sync.Mutex
	endCalls := map[string]int{}
	var remoteCloses []SpanClose
	tr := New(Options{
		ID:        "shared",
		OnSpanEnd: func(name string, sec float64) { mu.Lock(); endCalls[name]++; mu.Unlock() },
		OnSpanClose: func(sc SpanClose) {
			if sc.Remote {
				mu.Lock()
				remoteCloses = append(remoteCloses, sc)
				mu.Unlock()
			}
		},
	})
	ctx := WithTracer(context.Background(), tr)
	ctx, job := Start(ctx, "job")
	_, worker := Start(ctx, "worker")
	worker.AttachRemote(rdoc)
	worker.End()
	job.End()

	doc := tr.Document()
	if doc.SpanCount != 4 { // job + worker + adopted rank + adopted distmatrix
		t.Fatalf("span count = %d, want 4", doc.SpanCount)
	}
	w := doc.Spans[0].Children[0]
	if len(w.Children) != 1 || w.Children[0].Name != "rank" {
		t.Fatalf("worker children = %+v, want adopted rank span", w.Children)
	}
	adopted := w.Children[0]
	if len(adopted.Attrs) != 1 || adopted.Attrs[0] != (Attr{Key: "rank", Value: "2"}) {
		t.Fatalf("adopted rank attrs = %+v", adopted.Attrs)
	}
	if len(adopted.Children) != 1 || adopted.Children[0].Name != "distmatrix" {
		t.Fatalf("adopted rank children = %+v", adopted.Children)
	}
	// Remote timings are preserved verbatim, not re-measured.
	if adopted.DurationNs != rdoc.Spans[0].DurationNs {
		t.Fatalf("adopted duration %d != remote %d", adopted.DurationNs, rdoc.Spans[0].DurationNs)
	}
	if endCalls["distmatrix"] != 1 || endCalls["rank"] != 1 {
		t.Fatalf("OnSpanEnd calls for adopted spans = %v", endCalls)
	}
	if len(remoteCloses) != 2 {
		t.Fatalf("remote OnSpanClose fired %d times, want 2", len(remoteCloses))
	}
}

func TestAttachRemoteRespectsSpanCap(t *testing.T) {
	remote := New(Options{MaxSpans: -1})
	rctx := WithTracer(context.Background(), remote)
	rctx, rank := Start(rctx, "rank")
	for i := 0; i < 5; i++ {
		_, sp := Start(rctx, "phase")
		sp.End()
	}
	rank.End()
	rdoc := remote.Document()
	rdoc.DroppedSpans = 3 // the remote side already shed spans

	tr := New(Options{MaxSpans: 4})
	ctx := WithTracer(context.Background(), tr)
	_, worker := Start(ctx, "worker")
	worker.AttachRemote(rdoc)
	worker.End()

	doc := tr.Document()
	if doc.SpanCount != 4 {
		t.Fatalf("span count = %d, want cap 4", doc.SpanCount)
	}
	// 6 remote spans minus 3 adopted, plus the remote side's own 3.
	if doc.DroppedSpans != 6 {
		t.Fatalf("dropped = %d, want 6", doc.DroppedSpans)
	}
}

func TestAttachRemoteNilSafety(t *testing.T) {
	var sp *Span
	sp.AttachRemote(&Document{Spans: []*SpanDoc{{Name: "rank"}}}) // nil span: no-op
	tr := New(Options{})
	ctx := WithTracer(context.Background(), tr)
	_, real := Start(ctx, "worker")
	real.AttachRemote(nil) // nil doc: no-op
	real.End()
	if got := tr.Document().SpanCount; got != 1 {
		t.Fatalf("span count = %d, want 1", got)
	}
}

func TestServePprofSeparateListener(t *testing.T) {
	addr, srv, err := ServePprof("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/pprof/", addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status = %d", resp.StatusCode)
	}
	// The debug mux must not expose the public API routes.
	resp2, err := http.Get(fmt.Sprintf("http://%s/v1/jobs", addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("debug listener serves /v1/jobs with %d, want 404", resp2.StatusCode)
	}
}

func BenchmarkStartEndDisabled(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx2, sp := Start(ctx, "stage")
		sp.SetInt("workers", 4)
		sp.End()
		_ = ctx2
	}
}

func BenchmarkStartEndEnabled(b *testing.B) {
	tr := New(Options{MaxSpans: -1})
	ctx := WithTracer(context.Background(), tr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, sp := Start(ctx, "stage")
		sp.End()
	}
}
