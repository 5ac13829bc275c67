package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/fasta"
	"repro/internal/obs"
)

// pipelineStageNames is the canonical five-stage set every successful
// job's trace must cover (mirrors the pipelineStages metric filter).
var pipelineStageNames = []string{"distmatrix", "guidetree", "decompose", "bucketalign", "merge"}

// collectSpans flattens a span tree into name → first span seen.
func collectSpans(spans []*obs.SpanDoc, into map[string]*obs.SpanDoc) {
	for _, sp := range spans {
		if _, ok := into[sp.Name]; !ok {
			into[sp.Name] = sp
		}
		collectSpans(sp.Children, into)
	}
}

func fetchTrace(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func runHTTPJob(t *testing.T, ts *httptest.Server, in string) JobView {
	t.Helper()
	resp := postFASTA(t, ts.URL+"/v1/jobs?procs=3", in)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	v := decodeView(t, resp)
	deadline := time.Now().Add(30 * time.Second)
	for !v.State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", v.State)
		}
		time.Sleep(5 * time.Millisecond)
		r, err := http.Get(ts.URL + "/v1/jobs/" + v.ID)
		if err != nil {
			t.Fatal(err)
		}
		v = decodeView(t, r)
	}
	if v.State != StateDone {
		t.Fatalf("job finished %s: %s", v.State, v.Error)
	}
	return v
}

// TestTraceEndpointSpanTree runs a real in-process alignment and
// asserts the finished job serves a span tree covering all five
// pipeline stages with positive durations.
func TestTraceEndpointSpanTree(t *testing.T) {
	_, ts := httpServer(t, Config{MaxConcurrent: 1})
	v := runHTTPJob(t, ts, fasta.FormatString(testSeqs(18, 60, 91)))
	if v.TraceID == "" {
		t.Fatal("done job carries no trace_id")
	}

	resp, body := fetchTrace(t, ts.URL+"/v1/jobs/"+v.ID+"/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status = %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("trace Content-Type = %q", ct)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != v.TraceID {
		t.Fatalf("X-Trace-Id = %q, job trace_id = %q", got, v.TraceID)
	}

	var doc obs.Document
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.TraceID != v.TraceID {
		t.Fatalf("document trace_id = %q, job trace_id = %q", doc.TraceID, v.TraceID)
	}
	byName := map[string]*obs.SpanDoc{}
	collectSpans(doc.Spans, byName)
	if _, ok := byName["job"]; !ok {
		t.Fatal("no root job span in trace")
	}
	for _, stage := range pipelineStageNames {
		sp, ok := byName[stage]
		if !ok {
			t.Errorf("stage %q missing from trace", stage)
			continue
		}
		if sp.DurationNs <= 0 {
			t.Errorf("stage %q duration = %dns, want > 0", stage, sp.DurationNs)
		}
	}
}

// TestTraceEndpointStatuses covers the non-done paths: unknown job,
// running job (a live snapshot marked incomplete), queued job (no
// tracer yet → 409), canceled job, and tracing disabled.
func TestTraceEndpointStatuses(t *testing.T) {
	fe := &fakeExec{block: make(chan struct{}), started: make(chan struct{}, 1)}
	s, ts := httpServer(t, Config{Executor: fe, MaxConcurrent: 1})

	if resp, _ := fetchTrace(t, ts.URL+"/v1/jobs/nosuch/trace"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job trace status = %d, want 404", resp.StatusCode)
	}

	job, err := s.Submit(testSeqs(6, 40, 7), Options{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	<-fe.started
	// Running: a live in-progress snapshot, not a 409 — marked by the
	// X-Trace-Incomplete header, carrying the flight's trace ID and the
	// still-open job root span.
	resp, body := fetchTrace(t, ts.URL+"/v1/jobs/"+job.ID+"/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("running job trace status = %d, want 200: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Trace-Incomplete") == "" {
		t.Fatal("running job snapshot has no X-Trace-Incomplete header")
	}
	var doc obs.Document
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("running job snapshot is not valid JSON: %v", err)
	}
	if doc.TraceID != job.Trace {
		t.Fatalf("snapshot trace_id = %q, want %q", doc.TraceID, job.Trace)
	}
	byName := map[string]*obs.SpanDoc{}
	collectSpans(doc.Spans, byName)
	if _, ok := byName["job"]; !ok {
		t.Fatal("no job root span in the in-progress snapshot")
	}

	// Queued behind the blocked flight: no tracer exists yet → 409.
	queued, err := s.Submit(testSeqs(7, 40, 11), Options{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	resp, _ = fetchTrace(t, ts.URL+"/v1/jobs/"+queued.ID+"/trace")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("queued job trace status = %d, want 409", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("409 trace response has no Retry-After")
	}
	if _, err := s.Cancel(queued.ID, nil); err != nil {
		t.Fatal(err)
	}

	// Cancel the blocked job: its trace answers 410.
	if _, err := s.Cancel(job.ID, nil); err != nil {
		t.Fatal(err)
	}
	waitState(t, job, StateCanceled)
	if resp, _ := fetchTrace(t, ts.URL+"/v1/jobs/"+job.ID+"/trace"); resp.StatusCode != http.StatusGone {
		t.Fatalf("canceled job trace status = %d, want 410", resp.StatusCode)
	}
	close(fe.block)
}

// TestTraceEndpointDisabled: with NoTrace the job completes normally
// and keeps its trace ID (it still keys log lines), but no span tree
// is recorded and the endpoint answers 404.
func TestTraceEndpointDisabled(t *testing.T) {
	_, ts := httpServer(t, Config{Executor: &fakeExec{}, NoTrace: true})
	v := runHTTPJob(t, ts, fasta.FormatString(testSeqs(8, 40, 13)))
	if v.TraceID == "" {
		t.Fatal("NoTrace job lost its log-correlation trace_id")
	}
	resp, body := fetchTrace(t, ts.URL+"/v1/jobs/"+v.ID+"/trace")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("NoTrace trace status = %d: %s", resp.StatusCode, body)
	}
}

// TestTracePersistsAcrossRestart: the trace store under DataDir keeps
// span trees alongside results, so a finished job's trace is still
// served after a clean restart.
func TestTracePersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	seqs := testSeqs(12, 50, 29)

	s1 := newTestServer(t, Config{DataDir: dir})
	job1, err := s1.Submit(seqs, Options{Procs: 3})
	if err != nil {
		t.Fatal(err)
	}
	v1 := waitState(t, job1, StateDone)
	if v1.TraceID == "" {
		t.Fatal("done job carries no trace_id")
	}
	s1.Close()

	s2 := newTestServer(t, Config{DataDir: dir})
	defer s2.Close()
	ts := httptest.NewServer(s2.Handler())
	defer ts.Close()

	resp, body := fetchTrace(t, ts.URL+"/v1/jobs/"+job1.ID+"/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered trace status = %d: %s", resp.StatusCode, body)
	}
	var doc obs.Document
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("recovered trace is not valid JSON: %v", err)
	}
	if doc.TraceID != v1.TraceID {
		t.Fatalf("recovered trace_id = %q, want %q", doc.TraceID, v1.TraceID)
	}
	byName := map[string]*obs.SpanDoc{}
	collectSpans(doc.Spans, byName)
	for _, stage := range pipelineStageNames {
		if _, ok := byName[stage]; !ok {
			t.Errorf("stage %q missing from recovered trace", stage)
		}
	}

	// The restored job view still reports the original trace ID.
	j2, ok := s2.Job(job1.ID)
	if !ok {
		t.Fatal("job lost across restart")
	}
	if got := j2.View().TraceID; got != v1.TraceID {
		t.Fatalf("restored job trace_id = %q, want %q", got, v1.TraceID)
	}
}

// TestTraceAfterRestartReadsOnlyTheMeta: after a restart a job's trace
// comes from the meta block of its result file, byte-identical to the
// answer before the restart, without reading the payload into the
// memory tier or counting a store hit.
func TestTraceAfterRestartReadsOnlyTheMeta(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := httpServer(t, Config{Executor: &fakeExec{}, DataDir: dir})
	job, err := s1.Submit(testSeqs(6, 40, 30), Options{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, job, StateDone)
	resp, before := fetchTrace(t, ts1.URL+"/v1/jobs/"+job.ID+"/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace before the restart: %d %s", resp.StatusCode, before)
	}
	ts1.Close()
	s1.Close()

	s2, ts2 := httpServer(t, Config{Executor: &fakeExec{}, DataDir: dir})
	resp, after := fetchTrace(t, ts2.URL+"/v1/jobs/"+job.ID+"/trace")
	if resp.StatusCode != http.StatusOK || string(after) != string(before) {
		t.Fatalf("trace after the restart: %d, %d bytes; want 200 and the %d bytes served before", resp.StatusCode, len(after), len(before))
	}
	if n, hits := s2.cache.Len(), s2.metrics.StoreHits.Value(); n != 0 || hits != 0 {
		t.Fatalf("a trace request left %d memory-tier entries and %d store hits, want 0 and 0", n, hits)
	}
}

var (
	sampleLineRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (.+)$`)
	helpLineRe   = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) .+$`)
	typeLineRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)
	leRe         = regexp.MustCompile(`le="([^"]*)"`)
	lePairRe     = regexp.MustCompile(`,?le="[^"]*"`)
)

// stripLe drops the le pair from a label set so bucket samples group
// with their series' _sum/_count samples: {stage="x",le="0.1"} →
// {stage="x"}, {le="0.1"} → "".
func stripLe(labels string) string {
	s := lePairRe.ReplaceAllString(labels, "")
	s = strings.ReplaceAll(s, "{,", "{")
	s = strings.ReplaceAll(s, ",}", "}")
	if s == "{}" {
		return ""
	}
	return s
}

// familyOf maps a sample name to its metric family: histogram samples
// carry _bucket/_sum/_count suffixes on the family name.
func familyOf(name string, families map[string]string) (string, bool) {
	if _, ok := families[name]; ok {
		return name, true
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base != name && families[base] == "histogram" {
			return base, true
		}
	}
	return "", false
}

// TestMetricsPrometheusConformance runs a real job, then validates the
// full /metrics payload against the Prometheus text exposition format:
// every line parses, every sample belongs to a family with HELP and
// TYPE declared exactly once before its samples, and every histogram
// series has cumulative counts over le-sorted buckets ending at +Inf
// with a matching _count.
func TestMetricsPrometheusConformance(t *testing.T) {
	_, ts := httpServer(t, Config{MaxConcurrent: 1})
	runHTTPJob(t, ts, fasta.FormatString(testSeqs(14, 50, 57)))

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}

	families := map[string]string{} // family → type
	helps := map[string]int{}
	types := map[string]int{}
	sampled := map[string]bool{} // families that already emitted a sample

	type bucketSeries struct {
		les    []float64
		counts []uint64
	}
	buckets := map[string]*bucketSeries{} // "name|labels-without-le" → series
	counts := map[string]uint64{}         // "_count" sample per labelset

	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if line == "" {
			t.Fatal("blank line in metrics output")
		}
		if m := helpLineRe.FindStringSubmatch(line); m != nil {
			helps[m[1]]++
			if sampled[m[1]] {
				t.Errorf("HELP for %s after its samples", m[1])
			}
			continue
		}
		if m := typeLineRe.FindStringSubmatch(line); m != nil {
			types[m[1]]++
			families[m[1]] = m[2]
			if sampled[m[1]] {
				t.Errorf("TYPE for %s after its samples", m[1])
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unparseable comment line: %q", line)
			continue
		}
		m := sampleLineRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparseable sample line: %q", line)
			continue
		}
		name, labels, value := m[1], m[2], m[3]
		fam, ok := familyOf(name, families)
		if !ok {
			t.Errorf("sample %s has no declared family", name)
			continue
		}
		sampled[fam] = true
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Errorf("sample %s value %q does not parse: %v", name, value, err)
			continue
		}
		switch {
		case strings.HasSuffix(name, "_bucket") && families[fam] == "histogram":
			le := leRe.FindStringSubmatch(labels)
			if le == nil {
				t.Errorf("bucket sample without le label: %q", line)
				continue
			}
			bound, err := strconv.ParseFloat(le[1], 64)
			if err != nil {
				t.Errorf("bucket le %q does not parse: %v", le[1], err)
				continue
			}
			key := fam + "|" + stripLe(labels)
			bs := buckets[key]
			if bs == nil {
				bs = &bucketSeries{}
				buckets[key] = bs
			}
			bs.les = append(bs.les, bound)
			bs.counts = append(bs.counts, uint64(v))
		case strings.HasSuffix(name, "_count") && families[fam] == "histogram":
			counts[fam+"|"+stripLe(labels)] = uint64(v)
		}
	}

	for fam, typ := range families {
		if helps[fam] != 1 {
			t.Errorf("family %s (%s): HELP appears %d times, want 1", fam, typ, helps[fam])
		}
		if types[fam] != 1 {
			t.Errorf("family %s (%s): TYPE appears %d times, want 1", fam, typ, types[fam])
		}
	}
	for fam, n := range helps {
		if _, ok := families[fam]; !ok {
			t.Errorf("HELP for %s (%d times) with no TYPE", fam, n)
		}
	}

	if len(buckets) == 0 {
		t.Fatal("no histogram bucket series on /metrics")
	}
	for key, bs := range buckets {
		for i := 1; i < len(bs.les); i++ {
			if !(bs.les[i] > bs.les[i-1]) {
				t.Errorf("series %s: le bounds not strictly increasing: %v", key, bs.les)
				break
			}
		}
		for i := 1; i < len(bs.counts); i++ {
			if bs.counts[i] < bs.counts[i-1] {
				t.Errorf("series %s: bucket counts not cumulative: %v", key, bs.counts)
				break
			}
		}
		last := len(bs.les) - 1
		if last < 0 || !isInf(bs.les[last]) {
			t.Errorf("series %s: final bucket is not le=\"+Inf\": %v", key, bs.les)
			continue
		}
		total, ok := counts[key]
		if !ok {
			t.Errorf("series %s: no matching _count sample", key)
		} else if bs.counts[last] != total {
			t.Errorf("series %s: +Inf bucket %d != _count %d", key, bs.counts[last], total)
		}
	}

	// The job above must have populated every pipeline-stage series.
	for _, stage := range pipelineStageNames {
		key := `samplealign_stage_seconds|{stage="` + stage + `"}`
		if buckets[key] == nil {
			t.Errorf("no samplealign_stage_seconds buckets for stage %q (have %v)", stage, bucketKeys(buckets))
		}
	}
}

func isInf(f float64) bool { return f > 1e308 }

func bucketKeys[V any](m map[string]*V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
