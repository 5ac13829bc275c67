package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
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
	tr := New("t1", nil)
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
	tr := New("", nil)
	ctx := WithTracer(context.Background(), tr)
	_, sp := Start(ctx, "work")
	time.Sleep(2 * time.Millisecond)
	sp.End()
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
	tr := New("", func(sc SpanClose) {
		mu.Lock()
		calls[sc.Name]++
		mu.Unlock()
		if sc.DurationNs < 0 {
			t.Errorf("negative duration for %s", sc.Name)
		}
	})
	ctx := WithTracer(context.Background(), tr)
	_, sp := Start(ctx, "stage")
	sp.End()
	sp.End()
	sp.End()
	if calls["stage"] != 1 {
		t.Fatalf("OnSpanClose fired %d times, want 1", calls["stage"])
	}
}

func TestSpanCap(t *testing.T) {
	tr := NewCapped("", 3)
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
	tr := New("", nil)
	ctx := WithTracer(context.Background(), tr)
	for depth, want := range map[int]bool{0: true, 1: true, 2: true, 3: true, 4: false, 10: false} {
		_, sp := StartDepth(ctx, "mergenode", depth)
		if got := sp != nil; got != want {
			t.Fatalf("depth %d recorded=%v, want %v", depth, got, want)
		}
		sp.End()
	}
	if got := tr.Document().SpanCount; got != sampleDepth+1 {
		t.Fatalf("span count = %d, want %d (depths 0..sampleDepth)", got, sampleDepth+1)
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := New("", nil)
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
	tr := New("abc123", nil)
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

func TestOnSpanCloseHook(t *testing.T) {
	var mu sync.Mutex
	var closes []SpanClose
	tr := New("", func(sc SpanClose) {
		mu.Lock()
		closes = append(closes, sc)
		mu.Unlock()
	})
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

// TestHookOnlyTracerLinksNoSpan: a NewHook tracer reports every span it
// opens or adopts to its hook, with its attributes and well past the
// span cap, and its Document holds none of them and counts none
// dropped, not even those the adopted document dropped.
func TestHookOnlyTracerLinksNoSpan(t *testing.T) {
	remote := New("r", nil)
	remote.spanCap = 2
	rctx, rank := Start(WithTracer(context.Background(), remote), "rank")
	_, st := Start(rctx, "distmatrix")
	st.End()
	_, lost := Start(rctx, "glue") // past the remote's cap
	lost.End()
	rank.End()
	if d := remote.Document().DroppedSpans; d != 1 {
		t.Fatalf("remote document dropped %d spans, want 1", d)
	}

	var mu sync.Mutex
	closes := map[string]int{}
	tr := NewHook(func(sc SpanClose) {
		mu.Lock()
		defer mu.Unlock()
		closes[sc.Name]++
		if sc.Name == "merge" && (len(sc.Attrs) != 1 || sc.Attrs[0] != (Attr{Key: "node", Value: "7"})) {
			t.Errorf("merge closed with attrs %+v", sc.Attrs)
		}
	})
	ctx, job := Start(WithTracer(context.Background(), tr), "job")
	const merges = maxSpans + 10
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range merges / 4 {
				_, sp := StartDepth(ctx, "merge", sampleDepth)
				sp.SetInt("node", 7)
				sp.End()
			}
		}()
	}
	wg.Wait()
	job.AttachRemote(remote.Document())
	job.End()

	want := map[string]int{"job": 1, "merge": merges / 4 * 4, "rank": 1, "distmatrix": 1}
	if fmt.Sprint(closes) != fmt.Sprint(want) {
		t.Fatalf("hook saw %v, want %v", closes, want)
	}
	if doc := tr.Document(); doc.SpanCount != 0 || doc.DroppedSpans != 0 || len(doc.Spans) != 0 {
		t.Fatalf("hook-only document holds %d spans (%d dropped, %d roots)", doc.SpanCount, doc.DroppedSpans, len(doc.Spans))
	}
}

func TestAttachRemote(t *testing.T) {
	// A "worker rank" produces a finished document under the shared ID...
	remote := New("shared", nil)
	rctx := WithTracer(context.Background(), remote)
	rctx, rank := Start(rctx, "rank")
	rank.SetInt("rank", 2)
	_, st := Start(rctx, "distmatrix")
	st.End()
	rank.End()
	rdoc := remote.Document()

	// ...and the coordinator grafts it under a per-rank wrapper span,
	// replaying the adopted spans through the hook with Remote set.
	var mu sync.Mutex
	closeCalls := map[string]int{}
	var remoteCloses []SpanClose
	tr := New("shared", func(sc SpanClose) {
		mu.Lock()
		defer mu.Unlock()
		closeCalls[sc.Name]++
		if sc.Remote {
			remoteCloses = append(remoteCloses, sc)
		}
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
	if closeCalls["distmatrix"] != 1 || closeCalls["rank"] != 1 {
		t.Fatalf("OnSpanClose calls for adopted spans = %v", closeCalls)
	}
	if len(remoteCloses) != 2 {
		t.Fatalf("remote OnSpanClose fired %d times, want 2", len(remoteCloses))
	}
}

func TestAttachRemoteRespectsSpanCap(t *testing.T) {
	remote := New("", nil)
	rctx := WithTracer(context.Background(), remote)
	rctx, rank := Start(rctx, "rank")
	for i := 0; i < 5; i++ {
		_, sp := Start(rctx, "phase")
		sp.End()
	}
	rank.End()
	rdoc := remote.Document()
	rdoc.DroppedSpans = 3 // the remote side already shed spans

	tr := NewCapped("", 4)
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
	tr := New("", nil)
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
	tr := NewCapped("", math.MaxInt)
	ctx := WithTracer(context.Background(), tr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, sp := Start(ctx, "stage")
		sp.End()
	}
}
