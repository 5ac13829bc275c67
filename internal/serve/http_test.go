package serve

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/fasta"
)

func httpServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := newTestServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postFASTA(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "text/x-fasta", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeView(t *testing.T, resp *http.Response) JobView {
	t.Helper()
	defer resp.Body.Close()
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestHTTPMaxProcsDefault: a server built from a zero Config caps procs
// at 64, so procs=65 is a 400 before any rank is allocated; MaxProcs -1
// lifts the cap.
func TestHTTPMaxProcsDefault(t *testing.T) {
	in := fasta.FormatString(testSeqs(4, 30, 41))
	_, ts := httpServer(t, Config{})
	resp := postFASTA(t, ts.URL+"/v1/jobs?procs=65", in)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("procs=65 on a default server: status %d, want 400", resp.StatusCode)
	}

	s, ts := httpServer(t, Config{Limits: Limits{MaxProcs: -1}, Executor: &fakeExec{}})
	resp = postFASTA(t, ts.URL+"/v1/jobs?procs=65", in)
	if resp.StatusCode != http.StatusAccepted {
		resp.Body.Close()
		t.Fatalf("procs=65 with MaxProcs -1: status %d, want 202", resp.StatusCode)
	}
	j, _ := s.Job(decodeView(t, resp).ID)
	if v := waitState(t, j, StateDone); v.Opts.Procs != 65 {
		t.Fatalf("job procs = %d, want 65", v.Opts.Procs)
	}
}

func TestHTTPSubmitPollResult(t *testing.T) {
	_, ts := httpServer(t, Config{})
	in := fasta.FormatString(testSeqs(12, 50, 40))

	resp := postFASTA(t, ts.URL+"/v1/jobs?procs=2", in)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	v := decodeView(t, resp)
	if v.ID == "" || v.State == "" {
		t.Fatalf("bad submit response: %+v", v)
	}

	// Poll to completion.
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

	// Fetch the result and check it is a valid alignment of the input.
	r, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("result status = %d", r.StatusCode)
	}
	if got := r.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("X-Cache = %q, want miss", got)
	}
	body, _ := io.ReadAll(r.Body)
	rows, err := fasta.Read(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("result has %d rows, want 12", len(rows))
	}

	// Resubmission: same bytes, same options → instant cached 200.
	resp2 := postFASTA(t, ts.URL+"/v1/jobs?procs=2", in)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("cached submit status = %d, want 200", resp2.StatusCode)
	}
	v2 := decodeView(t, resp2)
	if !v2.Cached || v2.State != StateDone {
		t.Fatalf("resubmission not served from cache: %+v", v2)
	}
}

func TestHTTPSyncAlignAndJSONSubmit(t *testing.T) {
	_, ts := httpServer(t, Config{})
	seqs := testSeqs(8, 40, 41)
	body, _ := json.Marshal(SubmitRequest{
		FASTA:   fasta.FormatString(seqs),
		Options: Options{Procs: 2, Aligner: "muscle"},
	})
	resp, err := http.Post(ts.URL+"/v1/align", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("sync align status = %d: %s", resp.StatusCode, b)
	}
	out, _ := io.ReadAll(resp.Body)
	rows, err := fasta.Read(bytes.NewReader(out))
	if err != nil || len(rows) != 8 {
		t.Fatalf("sync result: %d rows, err %v", len(rows), err)
	}
}

// The DP kernel was once a request option ("kernel" in the options
// object, kernel= in the query). It selected nothing that changed a
// byte, so it went; a client that still sends it — any value — gets the
// alignment, cache key and cache entry of one that does not.
func TestHTTPRetiredKernelOptionIsIgnored(t *testing.T) {
	_, ts := httpServer(t, Config{})
	in := fasta.FormatString(testSeqs(8, 40, 42))
	align := func(url, body string) (key, cache string, out []byte) {
		t.Helper()
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ = io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, out)
		}
		return resp.Header.Get("X-Cache-Key"), resp.Header.Get("X-Cache"), out
	}
	fastaJSON, _ := json.Marshal(in)
	key, _, want := align(ts.URL+"/v1/align",
		`{"fasta":`+string(fastaJSON)+`,"options":{"procs":2}}`)
	oldKey, cache, got := align(ts.URL+"/v1/align?kernel=banana",
		`{"fasta":`+string(fastaJSON)+`,"options":{"procs":2,"kernel":"scalar"}}`)
	if oldKey != key || cache != "hit" {
		t.Fatalf("old-client submit: cache key %s (%s), want %s served as a hit", oldKey, cache, key)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("old-client submit returned different bytes (%d vs %d)", len(got), len(want))
	}
}

// The ablation switches changed the alignment, so — unlike kernel — a
// request that still sets one is refused by name on every way in: the
// query string, the options object of a submit, and both levels of a
// batch. Setting one false asks for the pipeline that remains.
func TestHTTPRetiredAblationOptionsAreRefused(t *testing.T) {
	fe := &fakeExec{}
	_, ts := httpServer(t, Config{Executor: fe})
	fastaJSON, _ := json.Marshal(fasta.FormatString(testSeqs(4, 30, 44)))
	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(out)
	}
	submit := `{"fasta":` + string(fastaJSON) + `}`
	for _, name := range retiredOptions {
		for what, req := range map[string][2]string{
			"query":                               {"/v1/jobs?" + name + "=true", submit},
			"sync query":                          {"/v1/align?" + name + "=1", submit},
			"options":                             {"/v1/jobs", `{"fasta":` + string(fastaJSON) + `,"options":{"` + name + `":true}}`},
			"options, the decoder's case folding": {"/v1/jobs", `{"fasta":` + string(fastaJSON) + `,"options":{"` + strings.ToUpper(name) + `":true}}`},
			"batch member":                        {"/v1/batch", `{"inputs":[` + submit + `,{"fasta":` + string(fastaJSON) + `,"options":{"procs":2,"` + name + `":true}}]}`},
			"batch level":                         {"/v1/batch", `{"inputs":[` + submit + `],"options":{"` + name + `":true}}`},
		} {
			if code, out := post(req[0], req[1]); code != http.StatusBadRequest || !strings.Contains(out, name) {
				t.Errorf("%s, %s: status %d, body %s; want a 400 naming the option", name, what, code, out)
			}
		}
		if code, out := post("/v1/align?"+name+"=false", `{"fasta":`+string(fastaJSON)+`,"options":{"`+name+`":false}}`); code != http.StatusOK {
			t.Errorf("%s=false: status %d, body %s; want the alignment", name, code, out)
		}
	}
	if fe.Runs() != 1 {
		t.Errorf("executor ran %d times, want 1: every accepted request is the same job", fe.Runs())
	}
}

func TestHTTPGzipSubmit(t *testing.T) {
	_, ts := httpServer(t, Config{})
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte(fasta.FormatString(testSeqs(6, 40, 42))))
	zw.Close()
	resp, err := http.Post(ts.URL+"/v1/align?procs=2", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("gzip align status = %d: %s", resp.StatusCode, b)
	}
}

func TestHTTPClientDisconnectCancelsJob(t *testing.T) {
	fe := &fakeExec{block: make(chan struct{}), started: make(chan struct{}, 2)}
	defer close(fe.block)
	s, ts := httpServer(t, Config{Executor: fe, MaxConcurrent: 1})

	ctx, cancel := context.WithCancel(context.Background())
	body := fasta.FormatString(testSeqs(4, 30, 43))
	req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/align", strings.NewReader(body))
	req.Header.Set("Content-Type", "text/x-fasta")
	errCh := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errCh <- err
	}()
	<-fe.started // the job is running inside the blocked executor
	cancel()     // client gives up

	if err := <-errCh; err == nil {
		t.Fatal("request unexpectedly succeeded")
	}
	// The disconnect must cancel the job and free its worker slot: a
	// fresh job must be able to run to completion.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var canceled *Job
		s.mu.Lock()
		for _, j := range s.jobs {
			if j.View().State == StateCanceled {
				canceled = j
			}
		}
		s.mu.Unlock()
		if canceled != nil {
			if msg := canceled.View().Error; !strings.Contains(msg, "disconnected") {
				t.Fatalf("cancellation cause = %q, want client disconnect", msg)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job was never canceled after client disconnect")
		}
		time.Sleep(2 * time.Millisecond)
	}
	j, err := s.Submit(testSeqs(4, 30, 44), Options{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-fe.started // the pool is free again: the next job starts
	s.Cancel(j.ID, nil)
	waitState(t, j, StateCanceled)
}

func TestHTTPClientDisconnectCancelsRealAlignment(t *testing.T) {
	// Same as above but with the real in-process executor: the
	// disconnect must propagate through the job context into the rank
	// world and unwind a genuinely running alignment.
	s, ts := httpServer(t, Config{MaxConcurrent: 1})

	ctx, cancel := context.WithCancel(context.Background())
	body := fasta.FormatString(testSeqs(150, 300, 45))
	req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/align?procs=2", strings.NewReader(body))
	req.Header.Set("Content-Type", "text/x-fasta")
	errCh := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errCh <- err
	}()

	// Wait until the job is actually executing, then disconnect.
	var job *Job
	deadline := time.Now().Add(30 * time.Second)
	for job == nil {
		s.mu.Lock()
		for _, j := range s.jobs {
			if j.View().State == StateRunning {
				job = j
			}
		}
		s.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	cancel()
	<-errCh
	v := waitState(t, job, StateCanceled)
	if !strings.Contains(v.Error, "disconnected") {
		t.Fatalf("cancellation cause = %q", v.Error)
	}
	if wait := time.Since(start); wait > 10*time.Second {
		t.Fatalf("rank world took %v to unwind after disconnect", wait)
	}
}

func TestHTTPAdmission429(t *testing.T) {
	fe := &fakeExec{block: make(chan struct{}), started: make(chan struct{}, 2)}
	defer close(fe.block)
	_, ts := httpServer(t, Config{Executor: fe, MaxConcurrent: 1, MaxQueued: 1})

	submit := func(seed int64) *http.Response {
		return postFASTA(t, ts.URL+"/v1/jobs", fasta.FormatString(testSeqs(3, 30, seed)))
	}
	r1 := submit(50)
	r1.Body.Close()
	<-fe.started
	r2 := submit(51)
	r2.Body.Close()
	r3 := submit(52)
	defer r3.Body.Close()
	if r3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload status = %d, want 429", r3.StatusCode)
	}
	if r3.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

func TestHTTPErrorsAndHealthAndMetrics(t *testing.T) {
	_, ts := httpServer(t, Config{Limits: Limits{MaxProcs: 4}})

	// Unknown job.
	for _, path := range []string{"/v1/jobs/junk", "/v1/jobs/junk/result"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Fatalf("%s = %d, want 404", path, r.StatusCode)
		}
	}
	// Bad requests.
	for _, tc := range []struct{ path, body string }{
		{"/v1/jobs", "not fasta at all"},
		{"/v1/jobs?procs=999", ">a\nACD\n"},    // over MaxProcs
		{"/v1/jobs?procs=banana", ">a\nACD\n"}, // unparsable query
		{"/v1/jobs?aligner=nope", ">a\nACD\n"}, // unknown aligner
		{"/v1/jobs", ">a\nACD\n>a\nACD\n"},     // duplicate ids
		{"/v1/jobs", `{"fasta": 3}`},           // bad JSON shape
	} {
		r := postFASTA(t, ts.URL+tc.path, tc.body)
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s %q = %d, want 400", tc.path, tc.body, r.StatusCode)
		}
	}

	// Health.
	r, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status   string     `json:"status"`
		Executor string     `json:"executor"`
		Queue    QueueStats `json:"queue"`
	}
	if err := json.NewDecoder(r.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if health.Status != "ok" || health.Executor != "inproc" {
		t.Fatalf("health: %+v", health)
	}

	// Metrics include the admission counters and histograms.
	r, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(r.Body)
	r.Body.Close()
	for _, want := range []string{
		"samplealign_jobs_submitted_total",
		"samplealign_cache_hits_total",
		"samplealign_queue_depth",
		"samplealign_job_run_seconds_bucket{le=\"+Inf\"}",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("metrics missing %s:\n%s", want, metrics)
		}
	}
}

func TestHTTPResultStates(t *testing.T) {
	fe := &fakeExec{block: make(chan struct{}), started: make(chan struct{}, 2)}
	defer close(fe.block)
	s, ts := httpServer(t, Config{Executor: fe, MaxConcurrent: 1})
	j, err := s.Submit(testSeqs(3, 30, 60), Options{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-fe.started
	// Result of a running job: 409 + Retry-After.
	r, _ := http.Get(fmt.Sprintf("%s/v1/jobs/%s/result", ts.URL, j.ID))
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusConflict {
		t.Fatalf("running result = %d, want 409", r.StatusCode)
	}
	// Cancel over HTTP; result then reports 410.
	req, _ := http.NewRequest("DELETE", fmt.Sprintf("%s/v1/jobs/%s", ts.URL, j.ID), nil)
	dr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dr.Body)
	dr.Body.Close()
	if dr.StatusCode != http.StatusOK {
		t.Fatalf("cancel = %d", dr.StatusCode)
	}
	waitState(t, j, StateCanceled)
	r, _ = http.Get(fmt.Sprintf("%s/v1/jobs/%s/result", ts.URL, j.ID))
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusGone {
		t.Fatalf("canceled result = %d, want 410", r.StatusCode)
	}
}

// TestReadBodyAllocatesWhatArrives: readBody sizes its first buffer
// from the length a request states only up to preBodyBytes, so a client
// that states 100 MiB and sends a kilobyte costs under 2 × preBodyBytes
// (the allocator rounds 64 KiB + 1 up to 72 KiB), not the length it
// stated. A body that states its length exactly is read into one
// buffer of that size.
func TestReadBodyAllocatesWhatArrives(t *testing.T) {
	sent := strings.Repeat("ACDEFGHIKLMNPQRSTVWY", 50) // 1 000 bytes
	for _, tc := range []struct {
		name   string
		stated int64
		limit  uint64
	}{
		{"overstated", 100 << 20, 2 * preBodyBytes},
		{"exact", int64(len(sent)), 2 << 10},
	} {
		// the least of a few runs: the counter also sees what other
		// goroutines allocate meanwhile
		least := uint64(math.MaxUint64)
		for range 5 {
			r := httptest.NewRequest(http.MethodPost, "/v1/align", strings.NewReader(sent))
			r.ContentLength = tc.stated
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			body, err := readBody(r)
			runtime.ReadMemStats(&after)
			if err != nil || string(body) != sent {
				t.Fatalf("%s: read %d bytes, err %v", tc.name, len(body), err)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least >= tc.limit {
			t.Errorf("%s: %d bytes stated, %d sent: readBody allocated %d bytes, want < %d",
				tc.name, tc.stated, len(sent), least, tc.limit)
		}
	}
}

// BenchmarkAlignRequest times one POST /v1/align of an 8 × 100 set
// through Server.Handler(), with no network and no data directory:
// "cold" runs the alignment on every request (the result cache is off),
// "hit" answers every request from the cache. B/op and allocs/op are
// what a small job costs the allocator on each path.
func BenchmarkAlignRequest(b *testing.B) {
	body := fasta.FormatString(testSeqs(8, 100, 7))
	for _, tc := range []struct {
		name      string
		cfg       Config
		wantCache string
	}{
		{"cold", Config{CacheEntries: -1}, "miss"},
		{"hit", Config{}, "hit"},
	} {
		b.Run(tc.name, func(b *testing.B) {
			s, err := New(tc.cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			h := s.Handler()
			post := func() *httptest.ResponseRecorder {
				// http.NewRequest, not httptest's, which reads the request
				// line through a bufio.Reader of its own, 4 KiB a request
				req, err := http.NewRequest(http.MethodPost, "/v1/align", strings.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					b.Fatalf("status %d: %s", w.Code, w.Body)
				}
				return w
			}
			post() // the hit path's cache entry; a cold warm-up otherwise
			b.ReportAllocs()
			for b.Loop() {
				if got := post().Header().Get("X-Cache"); got != tc.wantCache {
					b.Fatalf("X-Cache %q, want %q", got, tc.wantCache)
				}
			}
		})
	}
}
