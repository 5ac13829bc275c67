package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bio"
	"repro/internal/core"
	"repro/internal/fasta"
	"repro/internal/msa"
	"repro/internal/obs"
)

// testLogger routes structured logs to t.Log.
func testLogger(t *testing.T) *slog.Logger {
	return slog.New(slog.NewTextHandler(tLogWriter{t}, nil))
}

type tLogWriter struct{ t *testing.T }

func (w tLogWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

// testWorkers is a set of in-process worker daemons, each serving on a
// control listener the test bound itself, with rank-local metrics the
// tests read to see when a job's rank has started.
type testWorkers struct {
	ctrls   []string
	metrics []*WorkerMetrics
	done    []chan error // each worker's serveWorker result
	cancel  context.CancelFunc
}

func startWorkers(t *testing.T, n int) *testWorkers {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	w := &testWorkers{cancel: cancel}
	for range n {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		m, done := NewWorkerMetrics(), make(chan error, 1)
		w.ctrls = append(w.ctrls, ln.Addr().String())
		w.metrics = append(w.metrics, m)
		w.done = append(w.done, done)
		go func() { done <- serveWorker(ctx, ln, WorkerConfig{Metrics: m, Logger: testLogger(t)}) }()
	}
	return w
}

// stop cancels the workers and waits until each has returned.
func (w *testWorkers) stop(t *testing.T) {
	t.Helper()
	w.cancel()
	for i, done := range w.done {
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Errorf("worker %d returned %v", i+1, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("worker %d still running 30 s after its context ended", i+1)
		}
	}
}

// awaitRanks waits until every worker has started at least n rank jobs:
// a rank counts as started once its job's mesh is up.
func (w *testWorkers) awaitRanks(t *testing.T, n int64) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		started := true
		for _, m := range w.metrics {
			started = started && m.Jobs.Value() >= n
		}
		if started {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("workers never had %d rank jobs started", n)
		}
	}
}

// startCluster spins up n in-process worker daemons and returns a
// ready Cluster executor plus a stop for the workers.
func startCluster(t *testing.T, n int) (*Cluster, func()) {
	t.Helper()
	w := startWorkers(t, n)
	return &Cluster{Workers: w.ctrls}, func() { w.stop(t) }
}

// clusterOpts resolves default options for a cluster job.
func clusterOpts(t *testing.T) Resolved {
	t.Helper()
	opts, err := resolve(Options{}, defaultOpts, Limits{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return opts
}

// sameAsInproc fails the test unless aln carries the bytes of an
// in-process run of seqs on procs ranks.
func sameAsInproc(t *testing.T, aln *msa.Alignment, seqs []bio.Sequence, procs int) {
	t.Helper()
	res, err := core.AlignInprocContext(context.Background(), seqs, procs, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fasta.FormatString(aln.Seqs), fasta.FormatString(res.Alignment.Seqs); got != want {
		t.Fatalf("cluster output differs from inproc (%d vs %d bytes)", len(got), len(want))
	}
}

func TestClusterExecutorMatchesInproc(t *testing.T) {
	cl, stop := startCluster(t, 2)
	defer stop()
	seqs := testSeqs(21, 60, 70)
	opts, err := resolve(Options{Procs: 99 /* overridden by world size */}, defaultOpts, Limits{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	aln, rep, err := cl.Align(context.Background(), seqs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Procs != 3 {
		t.Fatalf("cluster procs = %d, want 3 (2 workers + rank 0)", rep.Procs)
	}
	sameAsInproc(t, aln, seqs, 3)

	// The same cluster serves a second job on a mesh of its own.
	aln2, _, err := cl.Align(context.Background(), seqs[:10], opts)
	if err != nil {
		t.Fatalf("second cluster job: %v", err)
	}
	if aln2.NumSeqs() != 10 {
		t.Fatalf("second job rows = %d", aln2.NumSeqs())
	}
}

// TestClusterDistributedTrace runs a traced p=4 TCP job and asserts the
// coordinator's tree covers every rank: rank 0's own pipeline spans plus
// one "worker" wrapper per remote rank with the worker's shipped span
// tree grafted under it. Tracing must not perturb the result — the
// output stays byte-identical to an untraced in-process run.
func TestClusterDistributedTrace(t *testing.T) {
	cl, stop := startCluster(t, 3)
	defer stop()
	seqs := testSeqs(24, 60, 74)
	opts, err := resolve(Options{}, defaultOpts, Limits{}, 0)
	if err != nil {
		t.Fatal(err)
	}

	tr := obs.New("cluster-trace", nil)
	ctx := obs.WithTracer(context.Background(), tr)
	ctx, root := obs.Start(ctx, "job")
	aln, rep, err := cl.Align(ctx, seqs, opts)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Procs != 4 {
		t.Fatalf("cluster procs = %d, want 4", rep.Procs)
	}

	doc := tr.Document()
	if doc.TraceID != "cluster-trace" {
		t.Fatalf("trace id = %q", doc.TraceID)
	}
	if len(doc.Spans) != 1 || doc.Spans[0].Name != "job" {
		t.Fatalf("want single job root, got %+v", doc.Spans)
	}

	// Every rank 0..3 must contribute a "rank" span to the one tree:
	// rank 0 natively, ranks 1..3 adopted under their "worker" wrappers.
	var workers int
	rankSpans := map[string]*obs.SpanDoc{}
	var walk func(sp *obs.SpanDoc, underWorker bool)
	walk = func(sp *obs.SpanDoc, underWorker bool) {
		switch sp.Name {
		case "worker":
			workers++
			underWorker = true
		case "rank":
			for _, a := range sp.Attrs {
				if a.Key == "rank" {
					rankSpans[a.Value] = sp
				}
			}
			if underWorker {
				// Remote timings ship as recorded; an adopted rank span
				// must carry a real duration, not a re-measured zero.
				if sp.DurationNs <= 0 {
					t.Errorf("adopted rank span has duration %d", sp.DurationNs)
				}
			}
		}
		for _, c := range sp.Children {
			walk(c, underWorker)
		}
	}
	walk(doc.Spans[0], false)
	if workers != 3 {
		t.Fatalf("trace has %d worker wrapper spans, want 3", workers)
	}
	for r := 0; r < 4; r++ {
		rank := rankSpans[fmt.Sprint(r)]
		if rank == nil {
			t.Fatalf("trace missing rank %d (have ranks %v)", r, keys(rankSpans))
		}
		// Each rank's subtree must include its share of the pipeline.
		stages := map[string]*obs.SpanDoc{}
		collectSpans(rank.Children, stages)
		for _, stage := range []string{"decompose", "bucketalign", "merge"} {
			if stages[stage] == nil {
				t.Fatalf("rank %d trace missing stage %q", r, stage)
			}
		}
	}

	// Tracing is observation only: byte-identical to the untraced
	// in-process run of the same input.
	res, err := core.AlignInprocContext(context.Background(), seqs, 4, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fasta.FormatString(aln.Seqs), fasta.FormatString(res.Alignment.Seqs); got != want {
		t.Fatalf("traced cluster output differs from inproc (%d vs %d bytes)", len(got), len(want))
	}
}

func keys(m map[string]*obs.SpanDoc) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestClusterJobCancellation(t *testing.T) {
	cl, stop := startCluster(t, 2)
	defer stop()
	opts, err := resolve(Options{}, defaultOpts, Limits{}, 0)
	if err != nil {
		t.Fatal(err)
	}

	// A big job cancelled mid-flight must return promptly (the mpi
	// context plumbing unwinds rank 0 and the control connections tear
	// down the workers) and leave the cluster usable.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := cl.Align(ctx, testSeqs(300, 400, 71), opts)
		done <- err
	}()
	time.Sleep(300 * time.Millisecond) // let the mesh form and ranks start
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Log("job finished before the cancel landed; only reuse is checked")
		} else if !errors.Is(err, context.Canceled) {
			t.Logf("cancelled cluster job returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled cluster job hung")
	}

	// Workers must have recovered for the next job.
	aln, _, err := cl.Align(context.Background(), testSeqs(12, 40, 72), opts)
	if err != nil {
		t.Fatalf("cluster unusable after cancellation: %v", err)
	}
	if aln.NumSeqs() != 12 {
		t.Fatalf("post-cancel job rows = %d", aln.NumSeqs())
	}
}

func TestClusterWorkerUnreachableFailsFast(t *testing.T) {
	// A dead worker address must fail the job with an error, not hang.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &Cluster{Workers: []string{ln.Addr().String()}}
	ln.Close() // nothing listens there now
	opts := clusterOpts(t)
	done := make(chan error, 1)
	go func() {
		_, _, err := cl.Align(context.Background(), testSeqs(6, 30, 73), opts)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("unreachable worker accepted")
		}
	case <-time.After(15 * time.Second):
		t.Fatal("unreachable worker hung the job")
	}
}

// TestWorkerRefusesOlderProtocol speaks prepare by hand as a coordinator
// of an older build — protocol 1, before the mesh changed its wire
// format, 2, which could still ask for an ablation pipeline, 3, whose
// ranks send the bare-rank mesh hello, and 4, whose spec carries trace
// settings instead of a trace ID: the worker must refuse in its
// hello — naming both versions, before any spec or mesh — and stay up
// for a coordinator of its own build.
func TestWorkerRefusesOlderProtocol(t *testing.T) {
	cl, stop := startCluster(t, 1)
	defer stop()

	for _, proto := range []int{1, 2, 3, 4} {
		conn, err := net.DialTimeout("tcp", cl.Workers[0], 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		if err := json.NewEncoder(conn).Encode(prepareMsg{Proto: proto}); err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(conn)
		var hello helloMsg
		if err := dec.Decode(&hello); err != nil {
			t.Fatalf("no hello for an old prepare: %v", err)
		}
		if hello.Mesh != "" || !strings.Contains(hello.Error, fmt.Sprintf("protocol %d", proto)) || !strings.Contains(hello.Error, fmt.Sprintf("want %d", clusterProto)) {
			t.Fatalf("hello = %+v, want a refusal naming protocol %d and %d", hello, proto, clusterProto)
		}
		if err := dec.Decode(&hello); err == nil {
			t.Fatal("worker kept the connection of a coordinator it refused")
		}
	}

	opts, err := resolve(Options{}, defaultOpts, Limits{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	aln, _, err := cl.Align(context.Background(), testSeqs(10, 40, 76), opts)
	if err != nil {
		t.Fatalf("worker unusable after refusing an old coordinator: %v", err)
	}
	if aln.NumSeqs() != 10 {
		t.Fatalf("next job rows = %d", aln.NumSeqs())
	}
}

// TestWorkerRefusesSpecItCannotRun speaks the control protocol by hand:
// a spec naming an aligner this binary lacks (a coordinator of another
// build, or anything else that reaches the port) must come back as an
// error ack — before the mesh is dialled, with the worker process alive
// and the job's mesh port closed — and the worker must serve the next
// job.
func TestWorkerRefusesSpecItCannotRun(t *testing.T) {
	cl, stop := startCluster(t, 1)
	defer stop()
	opts, err := resolve(Options{}, defaultOpts, Limits{}, 0)
	if err != nil {
		t.Fatal(err)
	}

	conn, err := net.DialTimeout("tcp", cl.Workers[0], 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	enc, dec := json.NewEncoder(conn), json.NewDecoder(conn)
	if err := enc.Encode(prepareMsg{Proto: clusterProto}); err != nil {
		t.Fatal(err)
	}
	var hello helloMsg
	if err := dec.Decode(&hello); err != nil || hello.Error != "" {
		t.Fatalf("hello: %+v, err %v", hello, err)
	}
	bad := opts
	bad.Procs, bad.Aligner = 2, "nosuch"
	if err := enc.Encode(jobSpec{
		Rank: 1, Addrs: []string{"127.0.0.1:1", hello.Mesh}, Options: bad,
		FASTA: fasta.FormatString(testSeqs(4, 30, 74)),
	}); err != nil {
		t.Fatal(err)
	}
	var ack jobAck
	if err := dec.Decode(&ack); err != nil {
		t.Fatalf("no ack for a spec the worker cannot run: %v", err)
	}
	if ack.OK || !strings.Contains(ack.Error, "nosuch") {
		t.Fatalf("ack = %+v, want an error naming the aligner", ack)
	}
	conn.Close()
	// The refused job's mesh port closes with it.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		mesh, err := net.Dial("tcp", hello.Mesh)
		if err != nil {
			break
		}
		mesh.Close()
		if time.Now().After(deadline) {
			t.Fatal("the refused job's mesh port still accepts connections")
		}
	}

	aln, _, err := cl.Align(context.Background(), testSeqs(10, 40, 75), opts)
	if err != nil {
		t.Fatalf("worker unusable after refusing a spec: %v", err)
	}
	if aln.NumSeqs() != 10 {
		t.Fatalf("next job rows = %d", aln.NumSeqs())
	}
}

// longSeqs is an input whose job runs for seconds, orders of magnitude
// longer than the short jobs raced against it. Every test that starts
// one cancels it.
func longSeqs() []bio.Sequence { return testSeqs(400, 1000, 71) }

// rank0Span returns the start and end of rank 0's "rank" span under
// root, leaving out the worker subtrees grafted beside it.
func rank0Span(t *testing.T, root *obs.SpanDoc) (start, end int64) {
	t.Helper()
	var found *obs.SpanDoc
	var walk func(sp *obs.SpanDoc)
	walk = func(sp *obs.SpanDoc) {
		if sp.Name == "worker" {
			return
		}
		if sp.Name == "rank" {
			found = sp
		}
		for _, c := range sp.Children {
			walk(c)
		}
	}
	walk(root)
	if found == nil {
		t.Fatalf("no rank 0 span under %q", root.Name)
	}
	return found.StartNs, found.StartNs + found.DurationNs
}

// TestClusterJobsOverlap runs two jobs at once on one 2-worker cluster
// under one tracer: rank 0's pipeline spans of the two jobs must overlap
// in time, and each job must give the in-process bytes.
func TestClusterJobsOverlap(t *testing.T) {
	cl, stop := startCluster(t, 2)
	defer stop()
	opts := clusterOpts(t)
	inputs := [][]bio.Sequence{testSeqs(120, 300, 81), testSeqs(120, 300, 82)}
	tr := obs.New("overlap", nil)
	alns := make([]*msa.Alignment, len(inputs))
	errs := make([]error, len(inputs))
	var wg sync.WaitGroup
	for i, seqs := range inputs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, root := obs.Start(obs.WithTracer(context.Background(), tr), fmt.Sprint("job", i))
			defer root.End()
			alns[i], _, errs[i] = cl.Align(ctx, seqs, opts)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	for i, seqs := range inputs {
		sameAsInproc(t, alns[i], seqs, 3)
	}
	roots := tr.Document().Spans
	if len(roots) != 2 {
		t.Fatalf("trace has %d roots, want one per job", len(roots))
	}
	s0, e0 := rank0Span(t, roots[0])
	s1, e1 := rank0Span(t, roots[1])
	if s0 >= e1 || s1 >= e0 {
		t.Fatalf("jobs ran one after the other: rank 0 spans [%d, %d] and [%d, %d] ns", s0, e0, s1, e1)
	}
}

// TestClusterShortJobOvertakesLongOne starts a short job while a long
// one runs on the same workers: the short one must finish first, with
// the in-process bytes.
func TestClusterShortJobOvertakesLongOne(t *testing.T) {
	w := startWorkers(t, 2)
	defer w.stop(t)
	cl := &Cluster{Workers: w.ctrls}
	opts := clusterOpts(t)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	longDone := make(chan error, 1)
	go func() {
		_, _, err := cl.Align(ctx, longSeqs(), opts)
		longDone <- err
	}()
	w.awaitRanks(t, 1)

	short := testSeqs(12, 40, 72)
	aln, _, err := cl.Align(context.Background(), short, opts)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-longDone:
		t.Fatalf("the long job ended (err %v) before the short one", err)
	default:
	}
	sameAsInproc(t, aln, short, 3)
	cancel()
	select {
	case <-longDone:
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled long job hung")
	}
}

// TestClusterCancelLeavesConcurrentJobIntact cancels one of two jobs
// running at once: the cancelled one ends with its context's error, and
// the other still gives the in-process bytes.
func TestClusterCancelLeavesConcurrentJobIntact(t *testing.T) {
	w := startWorkers(t, 2)
	defer w.stop(t)
	cl := &Cluster{Workers: w.ctrls}
	opts := clusterOpts(t)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	victim := make(chan error, 1)
	go func() {
		_, _, err := cl.Align(ctx, longSeqs(), opts)
		victim <- err
	}()
	w.awaitRanks(t, 1)

	type result struct {
		aln *msa.Alignment
		err error
	}
	seqs := testSeqs(120, 300, 83)
	survivor := make(chan result, 1)
	go func() {
		aln, _, err := cl.Align(context.Background(), seqs, opts)
		survivor <- result{aln, err}
	}()
	w.awaitRanks(t, 2)
	cancel()
	select {
	case err := <-victim:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled job returned %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled job hung")
	}
	select {
	case r := <-survivor:
		if r.err != nil {
			t.Fatalf("concurrent job failed: %v", r.err)
		}
		sameAsInproc(t, r.aln, seqs, 3)
	case <-time.After(60 * time.Second):
		t.Fatal("concurrent job hung")
	}
}

// TestRunWorkerWaitsForJobsInFlight stops the workers in the middle of
// a job: each worker returns only after its rank has unwound, so the
// rank's failure is already counted when serveWorker returns, and the
// coordinator's job fails instead of hanging.
func TestRunWorkerWaitsForJobsInFlight(t *testing.T) {
	w := startWorkers(t, 2)
	cl := &Cluster{Workers: w.ctrls}
	opts := clusterOpts(t)
	job := make(chan error, 1)
	go func() {
		_, _, err := cl.Align(context.Background(), longSeqs(), opts)
		job <- err
	}()
	w.awaitRanks(t, 1)
	w.stop(t)
	for i, m := range w.metrics {
		if got := m.JobsFailed.Value(); got != 1 {
			t.Errorf("worker %d returned with %d failed rank jobs counted, want its one job unwound", i+1, got)
		}
	}
	select {
	case err := <-job:
		if err == nil {
			t.Fatal("job succeeded although its workers stopped")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("job hung after its workers stopped")
	}
}
