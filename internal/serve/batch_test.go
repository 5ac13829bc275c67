package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/fasta"
)

func TestSubmitBatchRunsAllInputs(t *testing.T) {
	fe := &fakeExec{}
	s := newTestServer(t, Config{Executor: fe})
	defer s.Close()
	items := []BatchItem{
		{Seqs: testSeqs(6, 40, 80), Opts: Options{Procs: 2}},
		{Seqs: testSeqs(7, 40, 81), Opts: Options{Procs: 2}},
		{Seqs: testSeqs(8, 40, 82), Opts: Options{Procs: 3}},
	}
	jobs, err := s.SubmitBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != len(items) {
		t.Fatalf("got %d jobs, want %d", len(jobs), len(items))
	}
	ids := make(map[string]bool)
	for i, job := range jobs {
		if ids[job.ID] {
			t.Fatalf("duplicate job ID %s", job.ID)
		}
		ids[job.ID] = true
		v := waitState(t, job, StateDone)
		// The fake executor aligns by identity, so each payload is its
		// own input verbatim.
		payload, ok := s.resultPayload(job, v.Result)
		if !ok {
			t.Fatalf("job %d: no payload", i)
		}
		if want := fasta.FormatString(items[i].Seqs); string(payload) != want {
			t.Fatalf("job %d: result does not match its input", i)
		}
	}
	if got := s.metrics.BatchSubmitted.Value(); got != 1 {
		t.Fatalf("batch_requests = %d, want 1", got)
	}
	if got := s.metrics.BatchJobs.Value(); got != 3 {
		t.Fatalf("batch_jobs = %d, want 3", got)
	}
}

func TestSubmitBatchValidatesEveryInputFirst(t *testing.T) {
	s := newTestServer(t, Config{Executor: &fakeExec{}})
	defer s.Close()
	before := s.Stats().Jobs
	_, err := s.SubmitBatch([]BatchItem{
		{Seqs: testSeqs(4, 30, 83)},
		{}, // empty input: rejects the whole batch
	})
	var bad *BadRequestError
	if !errors.As(err, &bad) || !strings.Contains(err.Error(), "input 1") {
		t.Fatalf("err = %v, want BadRequestError naming input 1", err)
	}
	if got := s.Stats().Jobs; got != before {
		t.Fatalf("rejected batch left %d job records, want %d", got, before)
	}
}

func TestSubmitBatchAllOrNothingAdmission(t *testing.T) {
	fe := &fakeExec{block: make(chan struct{}), started: make(chan struct{}, 8)}
	s := newTestServer(t, Config{Executor: fe, MaxConcurrent: 1, MaxQueued: 2})
	defer s.Close()

	// Occupy the executor, then one of the two queue slots.
	running, err := s.Submit(testSeqs(4, 30, 84), Options{})
	if err != nil {
		t.Fatal(err)
	}
	<-fe.started
	queued, err := s.Submit(testSeqs(4, 30, 85), Options{})
	if err != nil {
		t.Fatal(err)
	}

	// A batch that can never fit is a client error, not overload.
	three := []BatchItem{
		{Seqs: testSeqs(4, 30, 86)},
		{Seqs: testSeqs(4, 30, 87)},
		{Seqs: testSeqs(4, 30, 88)},
	}
	var bad *BadRequestError
	if _, err := s.SubmitBatch(three); !errors.As(err, &bad) {
		t.Fatalf("oversized batch err = %v, want BadRequestError", err)
	}

	// Two new flights against one free slot: rejected whole, nothing
	// admitted — not even partially.
	before := s.Stats()
	two := three[:2]
	if _, err := s.SubmitBatch(two); !errors.Is(err, errOverloaded) {
		t.Fatalf("overfull batch err = %v, want errOverloaded", err)
	}
	after := s.Stats()
	if after.Queued != before.Queued || after.Jobs != before.Jobs {
		t.Fatalf("rejected batch mutated state: before %+v after %+v", before, after)
	}
	if got := s.metrics.BatchRejected.Value(); got != 2 {
		t.Fatalf("batch_rejected = %d, want 2 (oversized + overfull)", got)
	}

	// One new flight fits the remaining slot.
	jobs, err := s.SubmitBatch(two[:1])
	if err != nil {
		t.Fatalf("batch within capacity rejected: %v", err)
	}
	close(fe.block)
	waitState(t, running, StateDone)
	waitState(t, queued, StateDone)
	waitState(t, jobs[0], StateDone)
}

func TestSubmitBatchCoalescesAndServesCacheHits(t *testing.T) {
	fe := &fakeExec{}
	s := newTestServer(t, Config{Executor: fe})
	defer s.Close()
	cachedSeqs := testSeqs(5, 40, 89)
	first, err := s.Submit(cachedSeqs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, first, StateDone)
	runsBefore := fe.Runs()

	fresh := testSeqs(6, 40, 90)
	jobs, err := s.SubmitBatch([]BatchItem{
		{Seqs: cachedSeqs}, // cache hit: instantly terminal
		{Seqs: fresh},      // new flight
		{Seqs: fresh},      // coalesces onto the flight created one item up
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := jobs[0].View(); v.State != StateDone || !v.Cached {
		t.Fatalf("cache-hit item: %+v", v)
	}
	waitState(t, jobs[1], StateDone)
	v2 := waitState(t, jobs[2], StateDone)
	if !v2.Coalesced {
		t.Fatal("intra-batch duplicate did not coalesce")
	}
	if jobs[1].Trace != jobs[2].Trace {
		t.Fatal("coalesced batch items have different traces")
	}
	if got := fe.Runs() - runsBefore; got != 1 {
		t.Fatalf("batch ran %d computations, want 1 (hit + coalesce)", got)
	}
	if got := s.metrics.CacheHits.Value(); got != 1 {
		t.Fatalf("cache_hits = %d, want 1", got)
	}
	if got := s.metrics.Coalesced.Value(); got != 1 {
		t.Fatalf("coalesced = %d, want 1", got)
	}
}

// logCapture is a slog.Handler that keeps every record as a flat
// msg+attributes map, for asserting on operational log lines.
type logCapture struct {
	mu   sync.Mutex
	recs []map[string]string
}

func (c *logCapture) Enabled(context.Context, slog.Level) bool { return true }
func (c *logCapture) WithAttrs([]slog.Attr) slog.Handler       { return c }
func (c *logCapture) WithGroup(string) slog.Handler            { return c }

func (c *logCapture) Handle(_ context.Context, r slog.Record) error {
	m := map[string]string{"msg": r.Message}
	r.Attrs(func(a slog.Attr) bool {
		m[a.Key] = a.Value.String()
		return true
	})
	c.mu.Lock()
	c.recs = append(c.recs, m)
	c.mu.Unlock()
	return nil
}

// where returns the captured records whose attribute key equals value.
func (c *logCapture) where(key, value string) []map[string]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []map[string]string
	for _, m := range c.recs {
		if m[key] == value {
			out = append(out, m)
		}
	}
	return out
}

// Every batch member logs the same per-job admission line a single
// Submit does (README §Observability promises one for every job), next
// to the one "batch accepted" summary.
func TestSubmitBatchLogsPerJobLines(t *testing.T) {
	logs := &logCapture{}
	fe := &fakeExec{block: make(chan struct{})}
	s := newTestServer(t, Config{Executor: fe, Logger: slog.New(logs)})
	defer s.Close()
	cachedSeqs, fresh := testSeqs(5, 40, 99), testSeqs(6, 40, 100)
	close(fe.block)
	first, err := s.Submit(cachedSeqs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, first, StateDone)

	jobs, err := s.SubmitBatch([]BatchItem{{Seqs: cachedSeqs}, {Seqs: fresh}, {Seqs: fresh}})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"job served from cache", "job accepted", "job coalesced onto in-flight computation"}
	for i, job := range jobs {
		lines := logs.where("job", job.ID)
		if len(lines) == 0 || lines[0]["msg"] != want[i] {
			t.Fatalf("batch member %d: log lines %v, want first %q", i, lines, want[i])
		}
		if lines[0]["key"] != job.Key || lines[0]["trace"] != job.Trace || job.Trace == "" {
			t.Fatalf("batch member %d: line %v not keyed by key %s / trace %s", i, lines[0], job.Key, job.Trace)
		}
	}
	if n := len(logs.where("msg", "batch accepted")); n != 1 {
		t.Fatalf("%d batch summary lines, want 1", n)
	}
	// The single-submit line for the same state reads the same.
	if single := logs.where("job", first.ID); len(single) == 0 || single[0]["msg"] != "job accepted" {
		t.Fatalf("single submit lines %v", single)
	}
}

func TestSubmitBatchJournalsOneGroupAndRecoversAllMembers(t *testing.T) {
	dir := t.TempDir()
	inputs := [][]int64{{91}, {92}, {93}}
	items := make([]BatchItem, len(inputs))
	for i, seed := range inputs {
		items[i] = BatchItem{Seqs: testSeqs(5+i, 40, seed[0]), Opts: Options{Procs: 2}}
	}

	fe1 := &fakeExec{block: make(chan struct{}), started: make(chan struct{}, 4)}
	s1 := newTestServer(t, Config{Executor: fe1, DataDir: dir, MaxConcurrent: 1})
	defer s1.Close()
	jobs1, err := s1.SubmitBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	<-fe1.started // first flight is executing; its start is journaled only with its finish

	// The batch's three submit records rode ONE fsync, and dispatching
	// the first flight journaled nothing. Nothing else has touched the
	// journal.
	if f, r := s1.journal.Flushes(), s1.journal.FlushedRecords(); f != 1 || r != 3 {
		t.Fatalf("flushes=%d flushedRecords=%d, want 1 and 3 (3 submits in one group)", f, r)
	}
	if !strings.Contains(s1.metrics.Render(s1.Stats(), 0, nil), "samplealign_journal_group_records_bucket") {
		t.Fatal("group-size histogram missing from metrics")
	}
	crash(s1)

	// Restart: every journaled-but-unfinished batch member re-enqueues
	// under its original ID and completes byte-identical.
	fe2 := &fakeExec{}
	s2 := newTestServer(t, Config{Executor: fe2, DataDir: dir})
	defer s2.Close()
	rec := s2.Recovery()
	if rec.CleanShutdown || rec.Requeued != len(items) {
		t.Fatalf("recovery = %+v, want %d requeued after crash", rec, len(items))
	}
	for i, job1 := range jobs1 {
		j, ok := s2.Job(job1.ID)
		if !ok {
			t.Fatalf("batch member %d (%s) not restored under its original ID", i, job1.ID)
		}
		if !j.View().Recovered {
			t.Fatalf("batch member %d not marked recovered", i)
		}
		v := waitState(t, j, StateDone)
		payload, ok := s2.resultPayload(j, v.Result)
		if !ok {
			t.Fatalf("batch member %d: no payload after recovery", i)
		}
		if want := fasta.FormatString(items[i].Seqs); string(payload) != want {
			t.Fatalf("batch member %d: recovered result differs from its input", i)
		}
	}
	if fe2.Runs() != len(items) {
		t.Fatalf("recovery ran %d computations, want %d", fe2.Runs(), len(items))
	}
}

func TestHandleBatchHTTP(t *testing.T) {
	fe := &fakeExec{}
	s := newTestServer(t, Config{Executor: fe})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string, query string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/batch"+query, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Malformed JSON, empty input list: 400.
	for _, body := range []string{">not json\nACGT\n", `{"inputs":[]}`} {
		resp := post(body, "")
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, resp.StatusCode)
		}
		resp.Body.Close()
	}

	// Two inputs, request-level options, query overlay winning.
	in1, in2 := testSeqs(5, 40, 94), testSeqs(6, 40, 95)
	reqBody, _ := json.Marshal(BatchRequest{
		Inputs: []SubmitRequest{
			{FASTA: fasta.FormatString(in1)},
			{FASTA: fasta.FormatString(in2), Options: Options{Procs: 2}},
		},
		Options: Options{Procs: 4},
	})
	resp := post(string(reqBody), "?workers=2")
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("batch submit status %d", resp.StatusCode)
	}
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(br.Jobs) != 2 {
		t.Fatalf("got %d jobs in response, want 2", len(br.Jobs))
	}
	if br.Jobs[0].Opts.Procs != 4 || br.Jobs[1].Opts.Procs != 2 {
		t.Fatalf("options did not layer: %+v / %+v", br.Jobs[0].Opts, br.Jobs[1].Opts)
	}
	if br.Jobs[0].Opts.Workers != 2 || br.Jobs[1].Opts.Workers != 2 {
		t.Fatal("query overlay not applied to every input")
	}

	// Each job is pollable and serves its own input back (identity
	// executor), fetched over the API.
	for i, want := range [][]byte{[]byte(fasta.FormatString(in1)), []byte(fasta.FormatString(in2))} {
		j, ok := s.Job(br.Jobs[i].ID)
		if !ok {
			t.Fatalf("job %d missing from table", i)
		}
		waitState(t, j, StateDone)
		rr, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/result", ts.URL, br.Jobs[i].ID))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := readAllBody(t, rr)
		if rr.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("job %d result: status %d, payload match %v", i, rr.StatusCode, bytes.Equal(got, want))
		}
	}

	// A batch input parses like a single submit's body: the same text,
	// with CRLF line ends, blank lines and lowercase residues, gets the
	// same cache key through /v1/batch and /v1/jobs.
	messy := strings.ReplaceAll(strings.ToLower(fasta.FormatString(testSeqs(5, 40, 96))), "\n", "\r\n\r\n")
	reqBody, _ = json.Marshal(BatchRequest{Inputs: []SubmitRequest{{FASTA: messy}}})
	resp = post(string(reqBody), "")
	br = BatchResponse{}
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	single := decodeView(t, postFASTA(t, ts.URL+"/v1/jobs", messy))
	if len(br.Jobs) != 1 || br.Jobs[0].Key == "" || br.Jobs[0].Key != single.Key {
		t.Fatalf("batch keys %+v, single submit key %q: want the same key", br.Jobs, single.Key)
	}
}

func TestHandleBatchOverloadedHTTP(t *testing.T) {
	fe := &fakeExec{block: make(chan struct{}), started: make(chan struct{}, 4)}
	s := newTestServer(t, Config{Executor: fe, MaxConcurrent: 1, MaxQueued: 1})
	defer s.Close()
	defer close(fe.block)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if _, err := s.Submit(testSeqs(4, 30, 96), Options{}); err != nil {
		t.Fatal(err)
	}
	<-fe.started
	if _, err := s.Submit(testSeqs(4, 30, 97), Options{}); err != nil {
		t.Fatal(err) // fills the single queue slot
	}
	body, _ := json.Marshal(BatchRequest{Inputs: []SubmitRequest{
		{FASTA: fasta.FormatString(testSeqs(4, 30, 98))},
	}})
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

func readAllBody(t *testing.T, resp *http.Response) ([]byte, error) {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}
