package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fasta"
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

// freeAddr reserves an ephemeral localhost port and returns it. The
// tiny window between Close and reuse is the standard test trade-off.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// startCluster spins up n in-process worker daemons and returns a
// ready Cluster executor plus a cancel for the workers.
func startCluster(t *testing.T, n int) (*Cluster, context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ctrls := make([]string, n)
	for i := 0; i < n; i++ {
		ctrls[i] = freeAddr(t)
		cfg := WorkerConfig{CtrlAddr: ctrls[i], MeshAddr: freeAddr(t), Logger: testLogger(t)}
		go func() {
			if err := RunWorker(ctx, cfg); err != nil && ctx.Err() == nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	// Wait for every control listener to come up.
	for _, ctrl := range ctrls {
		deadline := time.Now().Add(10 * time.Second)
		for {
			conn, err := net.DialTimeout("tcp", ctrl, time.Second)
			if err == nil {
				conn.Close()
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("worker %s never listened: %v", ctrl, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return &Cluster{Workers: ctrls, SelfAddr: freeAddr(t)}, cancel
}

func TestClusterExecutorMatchesInproc(t *testing.T) {
	cl, stop := startCluster(t, 2)
	defer stop()
	seqs := testSeqs(21, 60, 70)
	opts, err := resolve(Options{Procs: 99 /* overridden by world size */}, Options{}, Limits{}, 0)
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
	res, err := core.AlignInprocContext(context.Background(), seqs, 3, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fasta.FormatString(aln.Seqs), fasta.FormatString(res.Alignment.Seqs); got != want {
		t.Fatalf("cluster output differs from inproc (%d vs %d bytes)", len(got), len(want))
	}

	// The same cluster serves a second job (mesh ports are reusable).
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
	opts, err := resolve(Options{}, Options{}, Limits{}, 0)
	if err != nil {
		t.Fatal(err)
	}

	tr := obs.New(obs.Options{ID: "cluster-trace", MaxSpans: -1})
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
	opts, err := resolve(Options{}, Options{}, Limits{}, 0)
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
	cl := &Cluster{
		Workers:     []string{freeAddr(t)}, // nothing listens here
		SelfAddr:    freeAddr(t),
		DialTimeout: 500 * time.Millisecond,
	}
	opts, err := resolve(Options{}, Options{}, Limits{}, 0)
	if err != nil {
		t.Fatal(err)
	}
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
// format, and 2, which could still ask for an ablation pipeline: the
// worker must refuse in its hello — naming both versions, before any
// spec or mesh — and stay up for a coordinator of its own build.
func TestWorkerRefusesOlderProtocol(t *testing.T) {
	cl, stop := startCluster(t, 1)
	defer stop()

	for _, proto := range []int{1, 2} {
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

	opts, err := resolve(Options{}, Options{}, Limits{}, 0)
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
// — and the worker must serve the next job.
func TestWorkerRefusesSpecItCannotRun(t *testing.T) {
	cl, stop := startCluster(t, 1)
	defer stop()
	opts, err := resolve(Options{}, Options{}, Limits{}, 0)
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
		Rank: 1, Addrs: []string{cl.SelfAddr, hello.Mesh}, Options: bad,
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

	aln, _, err := cl.Align(context.Background(), testSeqs(10, 40, 75), opts)
	if err != nil {
		t.Fatalf("worker unusable after refusing a spec: %v", err)
	}
	if aln.NumSeqs() != 10 {
		t.Fatalf("next job rows = %d", aln.NumSeqs())
	}
}
