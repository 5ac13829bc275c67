package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bio"
	"repro/internal/core"
	"repro/internal/fasta"
	"repro/internal/msa"
)

// newTestServer builds a Server, failing the test on persistence
// setup errors (impossible without a DataDir).
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// testSeqs synthesizes n deterministic mutated copies of a base
// protein so alignments are fast and reproducible.
func testSeqs(n, length int, seed int64) []bio.Sequence {
	rng := rand.New(rand.NewSource(seed))
	letters := []byte("ACDEFGHIKLMNPQRSTVWY")
	base := make([]byte, length)
	for i := range base {
		base[i] = letters[rng.Intn(len(letters))]
	}
	seqs := make([]bio.Sequence, n)
	for i := range seqs {
		data := append([]byte(nil), base...)
		for m := 0; m < length/10; m++ {
			data[rng.Intn(len(data))] = letters[rng.Intn(len(letters))]
		}
		seqs[i] = bio.Sequence{ID: fmt.Sprintf("s%03d", i), Data: data}
	}
	return seqs
}

// fakeExec is a controllable executor: optionally blocks until released
// or cancelled, and counts runs.
type fakeExec struct {
	mu      sync.Mutex
	runs    int
	block   chan struct{} // non-nil: wait for close or ctx cancellation
	started chan struct{} // non-nil: receives one token per started run
}

func (f *fakeExec) Name() string    { return "fake" }
func (f *fakeExec) FixedProcs() int { return 0 }

func (f *fakeExec) Runs() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.runs
}

func (f *fakeExec) Align(ctx context.Context, seqs []bio.Sequence, opts Resolved) (*msa.Alignment, ExecReport, error) {
	f.mu.Lock()
	f.runs++
	f.mu.Unlock()
	if f.started != nil {
		select {
		case f.started <- struct{}{}:
		case <-ctx.Done():
			return nil, ExecReport{}, ctx.Err()
		}
	}
	if f.block != nil {
		select {
		case <-f.block:
		case <-ctx.Done():
			return nil, ExecReport{}, ctx.Err()
		}
	}
	// Identity "alignment": equal-length inputs pass through.
	return &msa.Alignment{Seqs: seqs}, ExecReport{Procs: opts.Procs}, nil
}

func waitState(t *testing.T, j *Job, want State) JobView {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s stuck in %s waiting for %s", j.ID, j.View().State, want)
	}
	v := j.View()
	if v.State != want {
		t.Fatalf("job %s finished %s (err %q), want %s", j.ID, v.State, v.Error, want)
	}
	return v
}

// resultPayload returns the aligned FASTA for a done job: from the job
// record when no cache tier holds it, else from the memory cache or
// the disk store. ok is false when every tier has since evicted it.
func (s *Server) resultPayload(job *Job, res *Result) ([]byte, bool) {
	if res != nil && res.FASTA != nil {
		return res.FASTA, true
	}
	if full, ok := s.lookupResult(job.Key); ok {
		return full.FASTA, true
	}
	return nil, false
}

func TestSubmitRoundTripMatchesDirectRun(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 2})
	defer s.Close()
	seqs := testSeqs(24, 60, 1)
	job, err := s.Submit(seqs, Options{Procs: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	v := waitState(t, job, StateDone)
	if v.Cached {
		t.Fatal("first submission reported cached")
	}

	// The job result must be byte-identical to the batch surface.
	res, err := core.AlignInprocContext(context.Background(), seqs, 3, core.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	payload, ok := s.resultPayload(job, v.Result)
	if !ok {
		t.Fatal("result payload missing")
	}
	want := fasta.FormatString(res.Alignment.Seqs)
	if got := string(payload); got != want {
		t.Fatalf("HTTP-path alignment differs from direct core run:\n got %d bytes\nwant %d bytes", len(got), len(want))
	}
	if v.Result.Procs != 3 || v.Result.NumSeqs != 24 {
		t.Fatalf("result report: %+v", v.Result)
	}
}

func TestCacheHitSkipsExecution(t *testing.T) {
	fe := &fakeExec{}
	s := newTestServer(t, Config{Executor: fe})
	defer s.Close()
	seqs := testSeqs(8, 40, 2)

	j1, err := s.Submit(seqs, Options{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j1, StateDone)
	if fe.Runs() != 1 {
		t.Fatalf("runs = %d, want 1", fe.Runs())
	}

	// Identical input + options: served from cache, no execution, done
	// before Submit returns.
	j2, err := s.Submit(seqs, Options{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	v := j2.View()
	if v.State != StateDone || !v.Cached {
		t.Fatalf("resubmission state %s cached=%v, want instant cached done", v.State, v.Cached)
	}
	if fe.Runs() != 1 {
		t.Fatalf("cache hit re-ran the executor (runs = %d)", fe.Runs())
	}
	if j2.Key != j1.Key {
		t.Fatalf("cache keys differ for identical submissions: %s vs %s", j2.Key, j1.Key)
	}

	// Workers must NOT change the key (alignments are worker-invariant)…
	j3, err := s.Submit(seqs, Options{Procs: 2, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if v := j3.View(); !v.Cached {
		t.Fatal("different workers missed the cache; workers must not key results")
	}
	// …but procs and aligner must.
	j4, err := s.Submit(seqs, Options{Procs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if j4.View().Cached {
		t.Fatal("different procs hit the cache")
	}
	waitState(t, j4, StateDone)
	j5, err := s.Submit(seqs, Options{Procs: 2, Aligner: "clustal"})
	if err != nil {
		t.Fatal(err)
	}
	if j5.View().Cached {
		t.Fatal("different aligner hit the cache")
	}
	waitState(t, j5, StateDone)
}

func TestCacheDisabledByConfig(t *testing.T) {
	fe := &fakeExec{}
	s := newTestServer(t, Config{Executor: fe, CacheEntries: -1})
	defer s.Close()
	seqs := testSeqs(4, 30, 90)
	j1, err := s.Submit(seqs, Options{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j1, StateDone)
	j2, err := s.Submit(seqs, Options{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if j2.View().Cached {
		t.Fatal("CacheEntries=-1 did not disable the cache")
	}
	waitState(t, j2, StateDone)
	if fe.Runs() != 2 {
		t.Fatalf("runs = %d, want 2 (no caching)", fe.Runs())
	}
}

// TestTierBoundsByConfig pins what samplealignsrv's tier flags mean:
// -cache-entries/-cache-bytes bound the memory tier, -store-entries/
// -store-bytes the disk tier, and -1 disables (entries) or unbounds
// (bytes) it. Each row stores results A then B, reads the tier gauges
// off /metrics, then resubmits A and checks which tier, if any,
// answered. Disk rows disable the memory tier so only the disk answers.
func TestTierBoundsByConfig(t *testing.T) {
	for _, tc := range []struct {
		name      string
		cfg       Config
		gauges    map[string]int64
		hit, disk bool
	}{
		{"cache-entries=-1", Config{CacheEntries: -1},
			map[string]int64{"samplealign_cache_entries": 0, "samplealign_cache_bytes": 0}, false, false},
		{"cache-entries=1", Config{CacheEntries: 1},
			map[string]int64{"samplealign_cache_entries": 1}, false, false},
		{"cache-bytes=-1", Config{CacheBytes: -1},
			map[string]int64{"samplealign_cache_entries": 2}, true, false},
		{"cache-bytes=1", Config{CacheBytes: 1},
			map[string]int64{"samplealign_cache_entries": 0, "samplealign_cache_bytes": 0}, false, false},
		{"store-entries=-1", Config{CacheEntries: -1, StoreEntries: -1},
			map[string]int64{"samplealign_store_entries": 0, "samplealign_store_bytes": 0}, false, false},
		{"store-entries=1", Config{CacheEntries: -1, StoreEntries: 1},
			map[string]int64{"samplealign_store_entries": 1}, false, false},
		{"store-bytes=-1", Config{CacheEntries: -1, StoreBytes: -1},
			map[string]int64{"samplealign_store_entries": 2}, true, true},
		{"store-bytes=1", Config{CacheEntries: -1, StoreBytes: 1},
			map[string]int64{"samplealign_store_entries": 0, "samplealign_store_bytes": 0}, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Executor = &fakeExec{}
			if strings.HasPrefix(tc.name, "store") {
				cfg.DataDir = t.TempDir()
			}
			s := newTestServer(t, cfg)
			defer s.Close()
			a, b := testSeqs(4, 30, 92), testSeqs(4, 30, 93)
			for _, seqs := range [][]bio.Sequence{a, b} {
				j, err := s.Submit(seqs, Options{Procs: 1})
				if err != nil {
					t.Fatal(err)
				}
				waitState(t, j, StateDone)
			}
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
			for name, want := range tc.gauges {
				if line := fmt.Sprintf("\n%s %d\n", name, want); !strings.Contains(rec.Body.String(), line) {
					t.Errorf("/metrics lacks %q", strings.TrimSpace(line))
				}
			}
			j, err := s.Submit(a, Options{Procs: 1})
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, j, StateDone)
			if got := j.View().Cached; got != tc.hit {
				t.Errorf("resubmission cached = %v, want %v", got, tc.hit)
			}
			if got := s.metrics.StoreHits.Value() == 1; got != tc.disk {
				t.Errorf("answered by the disk tier = %v, want %v", got, tc.disk)
			}
		})
	}
}

// TestNewRejectsBadDefaults: New resolves an empty request against the
// defaulted config, so defaults no request could run under fail at
// start-up instead of as a 400 on every request. A fixed-size
// cluster's world size is the operator's choice and never trips the
// procs cap.
func TestNewRejectsBadDefaults(t *testing.T) {
	for name, cfg := range map[string]Config{
		"unknown aligner":      {Defaults: Options{Aligner: "nope"}},
		"bad k":                {Defaults: Options{K: 12}},
		"procs over max_procs": {Defaults: Options{Procs: 65}},
		"procs over own cap":   {Defaults: Options{Procs: 9}, Limits: Limits{MaxProcs: 8}},
	} {
		if s, err := New(cfg); err == nil {
			s.Close()
			t.Errorf("%s: New accepted %+v", name, cfg.Defaults)
		}
	}
	workers := make([]string, 70) // world size 71 > the default cap of 64
	for i := range workers {
		workers[i] = "127.0.0.1:1"
	}
	for name, cfg := range map[string]Config{
		"uncapped":      {Defaults: Options{Procs: 65}, Limits: Limits{MaxProcs: -1}},
		"fixed cluster": {Executor: &Cluster{Workers: workers}},
	} {
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s.Close()
	}
}

// fixedExec models a fixed-size cluster: every job runs at 3 ranks.
type fixedExec struct{ fakeExec }

func (f *fixedExec) FixedProcs() int { return 3 }

func TestFixedProcsNormalizesCacheKey(t *testing.T) {
	fe := &fixedExec{}
	s := newTestServer(t, Config{Executor: fe})
	defer s.Close()
	seqs := testSeqs(4, 30, 91)
	j1, err := s.Submit(seqs, Options{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	v := waitState(t, j1, StateDone)
	if v.Opts.Procs != 3 {
		t.Fatalf("job procs = %d, want the executor's fixed 3", v.Opts.Procs)
	}
	// A different requested procs is the same job on a fixed cluster.
	j2, err := s.Submit(seqs, Options{Procs: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !j2.View().Cached {
		t.Fatal("fixed-procs submissions did not share a cache entry")
	}
	if fe.Runs() != 1 {
		t.Fatalf("runs = %d, want 1", fe.Runs())
	}
}

func TestAdmissionControl429(t *testing.T) {
	fe := &fakeExec{block: make(chan struct{}), started: make(chan struct{}, 8)}
	s := newTestServer(t, Config{Executor: fe, MaxConcurrent: 1, MaxQueued: 2})
	defer s.Close()

	submit := func(seed int64) (*Job, error) {
		return s.Submit(testSeqs(4, 30, seed), Options{Procs: 1})
	}
	j1, err := submit(10) // runs (and blocks)
	if err != nil {
		t.Fatal(err)
	}
	<-fe.started // j1 definitely occupies the single executor slot
	j2, err := submit(11)
	if err != nil {
		t.Fatal(err)
	}
	j3, err := submit(12)
	if err != nil {
		t.Fatal(err)
	}
	// Queue (2) and executor (1) are full: the next submission bounces.
	if _, err := submit(13); !errors.Is(err, errOverloaded) {
		t.Fatalf("4th submission: err = %v, want errOverloaded", err)
	}
	if got := s.metrics.Rejected.Value(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}

	// Draining the queue restores admission.
	close(fe.block)
	for _, j := range []*Job{j1, j2, j3} {
		waitState(t, j, StateDone)
	}
	j5, err := submit(13)
	if err != nil {
		t.Fatalf("submission after drain: %v", err)
	}
	waitState(t, j5, StateDone)
}

func TestCancelQueuedAndRunning(t *testing.T) {
	fe := &fakeExec{block: make(chan struct{}), started: make(chan struct{}, 8)}
	s := newTestServer(t, Config{Executor: fe, MaxConcurrent: 1, MaxQueued: 4})
	defer s.Close()

	running, err := s.Submit(testSeqs(4, 30, 20), Options{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-fe.started
	queued, err := s.Submit(testSeqs(4, 30, 21), Options{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Cancelling a queued job finalizes it immediately, without running.
	if live, err := s.Cancel(queued.ID, nil); err != nil || !live {
		t.Fatalf("cancel queued: live=%v err=%v", live, err)
	}
	waitState(t, queued, StateCanceled)

	// Cancelling the running job unblocks the executor via its context.
	if live, err := s.Cancel(running.ID, errors.New("operator said so")); err != nil || !live {
		t.Fatalf("cancel running: live=%v err=%v", live, err)
	}
	v := waitState(t, running, StateCanceled)
	if !strings.Contains(v.Error, "operator said so") {
		t.Fatalf("cancellation cause lost: %q", v.Error)
	}
	if fe.Runs() != 1 {
		t.Fatalf("queued job ran anyway (runs = %d)", fe.Runs())
	}

	// Unknown job.
	if _, err := s.Cancel("jdeadbeef", nil); !errors.Is(err, errNotFound) {
		t.Fatalf("cancel unknown: %v", err)
	}
	// Cancelling a finished job reports not-live.
	if live, err := s.Cancel(running.ID, nil); err != nil || live {
		t.Fatalf("re-cancel finished: live=%v err=%v", live, err)
	}
}

func TestSubmitCancelRace(t *testing.T) {
	fe := &fakeExec{}
	s := newTestServer(t, Config{Executor: fe, MaxConcurrent: 4, MaxQueued: 128})
	defer s.Close()

	const n = 64
	jobs := make([]*Job, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		seqs := testSeqs(4, 30, int64(100+i))
		j, err := s.Submit(seqs, Options{Procs: 1})
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
		wg.Add(1)
		go func(j *Job) { // cancel races execution
			defer wg.Done()
			s.Cancel(j.ID, nil)
		}(j)
	}
	wg.Wait()
	for _, j := range jobs {
		select {
		case <-j.Done():
		case <-time.After(30 * time.Second):
			t.Fatalf("job %s never terminal (state %s)", j.ID, j.View().State)
		}
		if st := j.View().State; st != StateDone && st != StateCanceled {
			t.Fatalf("job %s raced into %s", j.ID, st)
		}
	}
	// Queue accounting must balance whatever interleaving happened
	// (cancel racing a dispatcher pop must not double-free a slot).
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := s.Stats()
		if st.Queued == 0 && st.Active == 0 {
			break
		}
		if st.Queued < 0 || time.Now().After(deadline) {
			t.Fatalf("queue accounting off after race: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCancelPropagatesIntoRunningAlignment(t *testing.T) {
	// Real executor, real rank world: cancellation must unwind the
	// alignment promptly instead of letting it run to completion.
	s := newTestServer(t, Config{MaxConcurrent: 1})
	defer s.Close()
	seqs := testSeqs(150, 300, 3)
	job, err := s.Submit(seqs, Options{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until it is actually running, then cancel.
	deadline := time.After(30 * time.Second)
	for job.View().State == StateQueued {
		select {
		case <-deadline:
			t.Fatal("job never started")
		case <-time.After(time.Millisecond):
		}
	}
	start := time.Now()
	if live, err := s.Cancel(job.ID, nil); err != nil || !live {
		t.Fatalf("cancel: live=%v err=%v", live, err)
	}
	waitState(t, job, StateCanceled)
	if wait := time.Since(start); wait > 10*time.Second {
		t.Fatalf("cancellation took %v; ranks did not unwind", wait)
	}
}

func TestJobDeadline(t *testing.T) {
	fe := &fakeExec{block: make(chan struct{})}
	defer close(fe.block)
	s := newTestServer(t, Config{Executor: fe})
	defer s.Close()
	job, err := s.Submit(testSeqs(4, 30, 4), Options{Procs: 1, TimeoutMs: 50})
	if err != nil {
		t.Fatal(err)
	}
	v := waitState(t, job, StateCanceled)
	if !strings.Contains(v.Error, "deadline") {
		t.Fatalf("deadline cause lost: %q", v.Error)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	defer s.Close()
	var bad *BadRequestError
	if _, err := s.Submit(nil, Options{}); !errors.As(err, &bad) {
		t.Fatalf("empty input: %v", err)
	}
	dup := []bio.Sequence{{ID: "x", Data: []byte("AC")}, {ID: "x", Data: []byte("DE")}}
	if _, err := s.Submit(dup, Options{}); !errors.As(err, &bad) {
		t.Fatalf("duplicate ids: %v", err)
	}
	empty := []bio.Sequence{{ID: "x", Data: nil}}
	if _, err := s.Submit(empty, Options{}); !errors.As(err, &bad) {
		t.Fatalf("empty sequence: %v", err)
	}
	if _, err := s.Submit(testSeqs(2, 20, 5), Options{Aligner: "nope"}); !errors.As(err, &bad) {
		t.Fatalf("unknown aligner: %v", err)
	}
	if _, err := s.Submit(testSeqs(2, 20, 5), Options{Procs: -1}); !errors.As(err, &bad) {
		t.Fatalf("negative procs: %v", err)
	}
}

func TestSubmitAfterCloseFails(t *testing.T) {
	s := newTestServer(t, Config{Executor: &fakeExec{}})
	s.Close()
	if _, err := s.Submit(testSeqs(2, 20, 6), Options{}); !errors.Is(err, errClosed) {
		t.Fatalf("submit after close: %v", err)
	}
}

// holdExec finishes every job at once except those of holdSeqs
// sequences, which wait for release.
type holdExec struct {
	fakeExec
	release chan struct{}
}

const holdSeqs = 7

func (h *holdExec) Align(ctx context.Context, seqs []bio.Sequence, opts Resolved) (*msa.Alignment, ExecReport, error) {
	if len(seqs) == holdSeqs {
		select {
		case <-h.release:
		case <-ctx.Done():
			return nil, ExecReport{}, ctx.Err()
		}
	}
	return h.fakeExec.Align(ctx, seqs, opts)
}

// TestJobRetentionKeepsLiveJobAndOrder pins the retention rule on both
// of rememberLocked's paths — the head pop (oldest record terminal) and
// the scan (a live job heads the table): oldest terminal records go
// first, a live job survives any number of later submits, the table
// stays in submission order and at the cap.
func TestJobRetentionKeepsLiveJobAndOrder(t *testing.T) {
	const maxJobs = 4
	he := &holdExec{release: make(chan struct{})}
	s := newTestServer(t, Config{Executor: he, MaxConcurrent: 2})
	defer s.Close()
	s.maxJobs = maxJobs
	var submitted []string
	submit := func(nseq int) *Job {
		t.Helper()
		j, err := s.Submit(testSeqs(nseq, 20, int64(300+len(submitted))), Options{Procs: 1})
		if err != nil {
			t.Fatal(err)
		}
		submitted = append(submitted, j.ID)
		return j
	}
	// check asserts the table holds exactly the newest records that fit
	// beside the live ones, in submission order.
	check := func(live ...string) {
		t.Helper()
		s.mu.Lock()
		order := append([]string(nil), s.order...)
		n := len(s.jobs)
		s.mu.Unlock()
		if n != len(order) || n != maxJobs {
			t.Fatalf("table holds %d records and %d ids, want %d of each", n, len(order), maxJobs)
		}
		want := append([]string(nil), live...)
		want = append(want, submitted[len(submitted)-(maxJobs-len(live)):]...)
		if !slices.Equal(order, want) {
			t.Fatalf("table order %v, want %v", order, want)
		}
	}
	for i := 0; i < maxJobs+2; i++ { // head pops: every record terminal
		waitState(t, submit(3), StateDone)
	}
	check()
	held := submit(holdSeqs)
	for i := 0; i < 20; i++ { // the held job reaches the head and stays
		waitState(t, submit(3), StateDone)
		if _, ok := s.Job(held.ID); !ok {
			t.Fatalf("live job pruned after %d later submits", i+1)
		}
	}
	check(held.ID)
	close(he.release)
	waitState(t, held, StateDone)
	for i := 0; i < maxJobs; i++ { // finished, it goes like any other
		waitState(t, submit(3), StateDone)
	}
	if _, ok := s.Job(held.ID); ok {
		t.Fatal("finished job still retained after the table turned over")
	}
	check()
}

func TestJobRetentionPrunesOldFinished(t *testing.T) {
	fe := &fakeExec{}
	s := newTestServer(t, Config{Executor: fe, MaxConcurrent: 1})
	defer s.Close()
	s.maxJobs = 4
	var last *Job
	for i := 0; i < 10; i++ {
		j, err := s.Submit(testSeqs(3, 20, int64(200+i)), Options{Procs: 1})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, j, StateDone)
		last = j
	}
	s.mu.Lock()
	n := len(s.jobs)
	s.mu.Unlock()
	if n > 5 { // maxJobs plus at most the newest in flight
		t.Fatalf("retained %d job records, want ≤ 5", n)
	}
	if _, ok := s.Job(last.ID); !ok {
		t.Fatal("newest job was pruned")
	}
}
