package serve

import (
	"errors"
	"fmt"
	"log/slog"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/bio"
	"repro/internal/store"
)

// admitOutcome is everything observable about admitting one input,
// scrubbed of what legitimately differs between two servers (job and
// trace IDs, wall-clock times).
type admitOutcome struct {
	Err     string           // error text; "" when admitted
	ErrKind string           // bad-request | overloaded | closed | ""
	Settled JobView          // once the scenario's state is reached
	Final   JobView          // after everything ran to completion
	Metrics map[string]int64 // non-batch counter deltas, probe through completion
	Events  []string         // the job's event stream: type + whose event
	Journal []string         // record types since boot: type + whose record
	Fsyncs  [2]int64         // journal flushes and flushed records, probe until settled
	Logs    []string         // the job's own log lines
}

func scrubView(v JobView) JobView {
	v.ID, v.Submitted = "", time.Time{}
	if v.TraceID != "" {
		v.TraceID = "set"
	}
	if v.Started != nil {
		v.Started = &time.Time{}
	}
	if v.Finished != nil {
		v.Finished = &time.Time{}
	}
	if v.Result != nil {
		r := *v.Result
		r.Elapsed, r.TraceID, r.Trace = 0, "", nil
		v.Result = &r
	}
	return v
}

func whose(id, probe string) string {
	switch id {
	case "":
		return "flight"
	case probe:
		return "probe"
	}
	return "other"
}

func (s *Server) nonBatchCounters() map[string]int64 {
	m := s.metrics
	out := map[string]int64{
		"submitted": m.Submitted.Value(), "completed": m.Completed.Value(), "failed": m.Failed.Value(),
		"canceled": m.Canceled.Value(), "rejected": m.Rejected.Value(), "cache_hits": m.CacheHits.Value(),
		"cache_misses": m.CacheMisses.Value(), "coalesced": m.Coalesced.Value(),
		"store_hits": m.StoreHits.Value(), "interrupted": m.Interrupted.Value(),
	}
	for _, label := range m.QueueWait.Labels() {
		snap, _ := m.QueueWait.Snapshot(label)
		out["queue_wait_"+label] = int64(snap.Total)
	}
	return out
}

// TestSubmitIsBatchOfOne pins the admission contract: Submit(x) and
// SubmitBatch([x]) are the same operation. Twin durable servers are
// driven into each admission state, one admits x through Submit and the
// other through a one-item batch, and everything observable must match:
// the job view, the non-batch metric deltas, the event stream and the
// journal's record types in order and fsync count, the per-job log
// lines. Only the batch counters, the "batch accepted" summary line and
// the "input 0: " prefix on validation errors may differ.
func TestSubmitIsBatchOfOne(t *testing.T) {
	x := testSeqs(5, 40, 201)
	filler := func(i int64) []bio.Sequence { return testSeqs(4, 30, 210+i) }
	mustSubmit := func(t *testing.T, s *Server, seqs []bio.Sequence) *Job {
		t.Helper()
		job, err := s.Submit(seqs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return job
	}
	dupID := testSeqs(3, 30, 202)
	dupID[2].ID = dupID[0].ID
	emptySeq := testSeqs(3, 30, 203)
	emptySeq[1].Data = nil

	type env struct {
		s       *Server
		fe      *fakeExec
		release func() // unblocks the executor, once
	}
	scenarios := []struct {
		name   string
		input  []bio.Sequence
		setup  func(t *testing.T, e env)
		settle func(e env) // after admission, before the settled view
		kind   string      // expected error kind
	}{
		{name: "miss", input: x, settle: func(e env) { <-e.fe.started }},
		{name: "cache hit", input: x, setup: func(t *testing.T, e env) {
			first := mustSubmit(t, e.s, x)
			e.release()
			waitState(t, first, StateDone)
		}},
		{name: "coalesce onto queued", input: x, setup: func(t *testing.T, e env) {
			mustSubmit(t, e.s, filler(0))
			<-e.fe.started
			mustSubmit(t, e.s, x)
		}},
		{name: "coalesce onto running", input: x, setup: func(t *testing.T, e env) {
			mustSubmit(t, e.s, x)
			<-e.fe.started
		}},
		{name: "overloaded", input: x, kind: "overloaded", setup: func(t *testing.T, e env) {
			mustSubmit(t, e.s, filler(0))
			<-e.fe.started
			mustSubmit(t, e.s, filler(1))
			mustSubmit(t, e.s, filler(2)) // MaxQueued 2: the queue is full
		}},
		{name: "draining", input: x, kind: "closed", setup: func(t *testing.T, e env) { e.s.Drain(0) }},
		{name: "closed", input: x, kind: "closed", setup: func(t *testing.T, e env) { e.s.Close() }},
		{name: "duplicate id", input: dupID, kind: "bad-request"},
		{name: "empty sequence", input: emptySeq, kind: "bad-request"},
	}

	ways := []struct {
		name  string
		admit func(s *Server, seqs []bio.Sequence) (*Job, error)
	}{
		{"Submit", func(s *Server, seqs []bio.Sequence) (*Job, error) { return s.Submit(seqs, Options{}) }},
		{"SubmitBatch", func(s *Server, seqs []bio.Sequence) (*Job, error) {
			jobs, err := s.SubmitBatch([]BatchItem{{Seqs: seqs}})
			if err != nil {
				return nil, err
			}
			return jobs[0], nil
		}},
	}

	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			var got [2]admitOutcome
			for w, way := range ways {
				dir := t.TempDir()
				fe := &fakeExec{block: make(chan struct{}), started: make(chan struct{}, 8)}
				logs := &logCapture{}
				s := newTestServer(t, Config{Executor: fe, DataDir: dir, MaxConcurrent: 1, MaxQueued: 2, Logger: slog.New(logs)})
				var once sync.Once
				e := env{s: s, fe: fe, release: func() { once.Do(func() { close(fe.block) }) }}
				if sc.setup != nil {
					sc.setup(t, e)
				}
				before := s.nonBatchCounters()
				batchBefore := s.metrics.BatchSubmitted.Value() + s.metrics.BatchRejected.Value()
				flushes, flushed := s.journal.Flushes(), s.journal.FlushedRecords()

				var out admitOutcome
				job, err := way.admit(s, sc.input)
				probe := ""
				var bad *BadRequestError
				switch {
				case err == nil:
					probe = job.ID
				case errors.As(err, &bad):
					out.ErrKind = "bad-request"
				case errors.Is(err, errOverloaded):
					out.ErrKind = "overloaded"
				case errors.Is(err, errClosed):
					out.ErrKind = "closed"
				default:
					out.ErrKind = "other"
				}
				if err != nil {
					out.Err = err.Error()
				}
				if out.ErrKind != sc.kind {
					t.Fatalf("%s: err = %v (kind %q), want kind %q", way.name, err, out.ErrKind, sc.kind)
				}
				if job != nil {
					if sc.settle != nil {
						sc.settle(e)
					}
					out.Settled = scrubView(job.View())
				}
				out.Fsyncs = [2]int64{s.journal.Flushes() - flushes, s.journal.FlushedRecords() - flushed}
				e.release()
				s.Drain(30 * time.Second) // every job admitted so far runs to completion
				if job != nil {
					out.Final = scrubView(waitState(t, job, StateDone))
					for _, ev := range retained(job.stream) {
						out.Events = append(out.Events, ev.ev.Type+"/"+whose(ev.ev.Job, probe))
					}
					for _, line := range logs.where("job", probe) {
						out.Logs = append(out.Logs, line["msg"])
					}
				}
				after := s.nonBatchCounters()
				out.Metrics = map[string]int64{}
				for k, v := range after {
					if d := v - before[k]; d != 0 {
						out.Metrics[k] = d
					}
				}
				batchDelta := s.metrics.BatchSubmitted.Value() + s.metrics.BatchRejected.Value() - batchBefore
				wantBatch := int64(w) // a batch that reaches admission counts once, accepted or rejected
				if sc.kind == "closed" || sc.kind == "bad-request" {
					wantBatch = 0
				}
				if batchDelta != wantBatch {
					t.Fatalf("%s: batch counters moved by %d, want %d", way.name, batchDelta, wantBatch)
				}
				s.Close()
				j, recs, err := store.OpenJournalOptions(filepath.Join(dir, "journal.wal"), store.JournalOptions{})
				if err != nil {
					t.Fatal(err)
				}
				j.Close()
				for _, rec := range recs {
					out.Journal = append(out.Journal, fmt.Sprintf("%s/%s", rec.Type, whose(rec.Job, probe)))
				}
				got[w] = out
			}
			// The one allowed textual difference: a batch names the input.
			if sc.kind == "bad-request" {
				if want := "input 0: " + got[0].Err; got[1].Err != want {
					t.Fatalf("batch error %q, want %q", got[1].Err, want)
				}
				got[1].Err = got[0].Err
			}
			if !reflect.DeepEqual(got[0], got[1]) {
				t.Fatalf("Submit and SubmitBatch of one diverge:\n Submit      %+v\n SubmitBatch %+v", got[0], got[1])
			}
			if sc.kind == "" && (len(got[0].Events) == 0 || len(got[0].Journal) == 0) {
				t.Fatalf("admitted job left no events or journal records: %+v", got[0])
			}
		})
	}
}
