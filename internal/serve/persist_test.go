package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fasta"
	"repro/internal/store"
)

// crash simulates a hard server death for recovery tests: the journal
// fd closes without a shutdown record and the directory lock is
// released, exactly the state a killed process leaves behind. The
// abandoned dispatchers keep running (their journal appends fail
// silently), as a zombie's would until the kernel reaps it.
func crash(s *Server) {
	s.journal.Close()
	if s.unlockDir != nil {
		s.unlockDir()
		s.unlockDir = nil
	}
}

func TestPersistedResultSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	seqs := testSeqs(10, 50, 70)

	fe1 := &fakeExec{}
	s1 := newTestServer(t, Config{Executor: fe1, DataDir: dir})
	job1, err := s1.Submit(seqs, Options{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	v1 := waitState(t, job1, StateDone)
	payload1, ok := s1.resultPayload(job1, v1.Result)
	if !ok {
		t.Fatal("no payload before restart")
	}
	s1.Close() // clean shutdown: journals a shutdown record

	// Restart on the same directory with a fresh executor.
	fe2 := &fakeExec{}
	s2 := newTestServer(t, Config{Executor: fe2, DataDir: dir})
	defer s2.Close()
	rec := s2.Recovery()
	if !rec.Enabled || !rec.CleanShutdown || rec.Finished != 1 || rec.Requeued != 0 {
		t.Fatalf("recovery = %+v", rec)
	}
	// The finished job is visible under its original ID.
	j, ok := s2.Job(job1.ID)
	if !ok {
		t.Fatal("finished job lost across restart")
	}
	v := j.View()
	if v.State != StateDone || v.Result == nil || v.Result.NumSeqs != 10 {
		t.Fatalf("restored job view: %+v", v)
	}
	// Its payload is served from the disk store, byte-identical.
	payload2, ok := s2.resultPayload(j, v.Result)
	if !ok {
		t.Fatal("no payload after restart")
	}
	if !bytes.Equal(payload1, payload2) {
		t.Fatal("restored payload differs")
	}
	// An identical resubmission is a cache hit with zero recomputes.
	job2, err := s2.Submit(seqs, Options{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if v := job2.View(); v.State != StateDone || !v.Cached {
		t.Fatalf("resubmission after restart: %+v", v)
	}
	if fe2.Runs() != 0 {
		t.Fatalf("restart recomputed: runs = %d, want 0", fe2.Runs())
	}
	if got := s2.metrics.StoreHits.Value(); got < 1 {
		t.Fatalf("store hits = %d, want >= 1", got)
	}
}

func TestCrashRecoveryRequeuesUnfinishedJob(t *testing.T) {
	dir := t.TempDir()
	seqs := testSeqs(8, 40, 71)

	fe1 := &fakeExec{block: make(chan struct{}), started: make(chan struct{}, 2)}
	s1 := newTestServer(t, Config{Executor: fe1, DataDir: dir, MaxConcurrent: 1})
	// Reap the zombie at test end: Close cancels the blocked executor
	// (canceled jobs never reach the store) and waits its dispatchers
	// out, so nothing races the TempDir cleanup.
	defer s1.Close()
	job1, err := s1.Submit(seqs, Options{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	<-fe1.started // journal now holds the submit, no finish
	// A duplicate rides job1's running flight.
	dup1, err := s1.Submit(seqs, Options{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	crash(s1)

	fe2 := &fakeExec{}
	s2 := newTestServer(t, Config{Executor: fe2, DataDir: dir})
	defer s2.Close()
	rec := s2.Recovery()
	if rec.CleanShutdown || rec.Requeued != 2 || rec.Finished != 0 || rec.Interrupted != 0 {
		t.Fatalf("recovery = %+v", rec)
	}
	j, ok := s2.Job(job1.ID)
	if !ok {
		t.Fatal("unfinished job not restored under its ID")
	}
	if !j.View().Recovered {
		t.Fatal("re-enqueued job not marked recovered")
	}
	// The recovered duplicate coalesces again: one flight, one run.
	dup, ok := s2.Job(dup1.ID)
	if !ok {
		t.Fatal("coalesced duplicate not restored under its ID")
	}
	if dv := waitState(t, dup, StateDone); !dv.Coalesced || !dv.Recovered || dv.TraceID != j.View().TraceID {
		t.Fatalf("recovered duplicate did not coalesce onto the recovered flight: %+v", dv)
	}
	v := waitState(t, j, StateDone)
	if fe2.Runs() != 1 {
		t.Fatalf("recovered job ran %d times, want 1", fe2.Runs())
	}
	payload, ok := s2.resultPayload(j, v.Result)
	if !ok {
		t.Fatal("no payload for recovered job")
	}
	// Byte-identical to an uninterrupted run of the same executor.
	if want := fasta.FormatString(seqs); string(payload) != want {
		t.Fatalf("recovered payload differs:\n got %d bytes\nwant %d bytes", len(payload), len(want))
	}
}

// A cache-hit submission journals its finish+submit pair as one commit
// group: one fsync, both records or neither.
func TestCacheHitSubmitJournalsOneGroup(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{Executor: &fakeExec{}, DataDir: dir})
	defer s.Close()
	seqs := testSeqs(5, 40, 79)
	first, err := s.Submit(seqs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, first, StateDone)
	// Done closes just before the finish record is appended; let it land.
	for deadline := time.Now().Add(10 * time.Second); s.journal.FlushedRecords() < 2; {
		if time.Now().After(deadline) {
			t.Fatal("first job's submit/finish records never flushed")
		}
		time.Sleep(time.Millisecond)
	}
	flushes, records := s.journal.Flushes(), s.journal.FlushedRecords()
	hit, err := s.Submit(seqs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v := hit.View(); v.State != StateDone || !v.Cached {
		t.Fatalf("resubmit was not a cache hit: %+v", v)
	}
	if f, r := s.journal.Flushes()-flushes, s.journal.FlushedRecords()-records; f != 1 || r != 2 {
		t.Fatalf("cache-hit submit cost %d fsyncs for %d records, want 1 and 2", f, r)
	}
	// A hit starts when it finishes, so its finish record leaves the
	// start time for replay to derive from the submit's cached flag.
	for _, rec := range journaledRecords(t, dir, hit.ID) {
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(rec.Data, &fields); err != nil {
			t.Fatal(err)
		}
		if _, ok := fields["started"]; rec.Type == store.RecFinish && ok {
			t.Fatalf("the hit's finish record carries started: %s", rec.Data)
		}
	}
}

// journaledRecords reads the journal in dir back as a restart would,
// keeping the records of job id.
func journaledRecords(t *testing.T, dir, id string) []store.Record {
	t.Helper()
	j, recs, err := store.OpenJournalOptions(filepath.Join(dir, "journal.wal"), store.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var mine []store.Record
	for _, rec := range recs {
		if rec.Job == id {
			mine = append(mine, rec)
		}
	}
	return mine
}

// A cold job on an idle durable server costs two journal fsyncs: its
// submit and its finish. Dispatching it journals nothing; its finish
// record says when it started.
func TestColdJobJournalsTwoGroups(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{Executor: &fakeExec{}, DataDir: dir})
	defer s.Close()
	flushes := s.journal.Flushes()
	job, err := s.Submit(testSeqs(5, 40, 80), Options{})
	if err != nil {
		t.Fatal(err)
	}
	v := waitState(t, job, StateDone)
	if got := s.journal.Flushes() - flushes; got != 2 {
		t.Fatalf("a cold job cost %d journal fsyncs, want 2", got)
	}
	recs := journaledRecords(t, dir, job.ID)
	var kinds []string
	for _, rec := range recs {
		kinds = append(kinds, rec.Type)
	}
	if want := []string{store.RecSubmit, store.RecFinish}; !reflect.DeepEqual(kinds, want) {
		t.Fatalf("the job journaled %v, want %v", kinds, want)
	}
	var fd finishData
	if err := json.Unmarshal(recs[1].Data, &fd); err != nil {
		t.Fatal(err)
	}
	if v.Started == nil || !fd.Started.Equal(*v.Started) || !recs[1].Time.Equal(*v.Finished) {
		t.Fatalf("finish record started %v at %v, the job started %v and finished %v", fd.Started, recs[1].Time, v.Started, v.Finished)
	}
}

// A job's started_at and finished_at read the same before a restart and
// after each of two: the first restart replays the records the jobs
// ended with, the second the ones its compaction wrote. A cold job, a
// cache hit and a running job that was canceled all carry both times.
func TestJobTimesSurviveRestarts(t *testing.T) {
	dir := t.TempDir()
	fe := &fakeExec{block: make(chan struct{}), started: make(chan struct{}, 2)}
	s := newTestServer(t, Config{Executor: fe, DataDir: dir})
	canceled, err := s.Submit(testSeqs(5, 40, 81), Options{})
	if err != nil {
		t.Fatal(err)
	}
	<-fe.started
	if live, err := s.Cancel(canceled.ID, nil); err != nil || !live {
		t.Fatalf("cancel of the running job: live=%v err=%v", live, err)
	}
	close(fe.block)
	seqs := testSeqs(5, 40, 82)
	cold, err := s.Submit(seqs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, cold, StateDone)
	hit, err := s.Submit(seqs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v := waitState(t, hit, StateDone); !v.Cached {
		t.Fatalf("resubmission was not a cache hit: %+v", v)
	}
	jobs := map[string]string{"cold": cold.ID, "hit": hit.ID, "canceled": canceled.ID}
	times := func(s *Server) map[string]string {
		got := make(map[string]string)
		for name, id := range jobs {
			j, ok := s.Job(id)
			if !ok {
				t.Fatalf("%s job %s missing", name, id)
			}
			v := j.View()
			if v.Started == nil || v.Finished == nil {
				t.Fatalf("%s job: started %v, finished %v; want both", name, v.Started, v.Finished)
			}
			got[name] = v.Started.Format(time.RFC3339Nano) + " " + v.Finished.Format(time.RFC3339Nano)
		}
		return got
	}
	want := times(s)
	s.Close()
	for restart := 1; restart <= 2; restart++ {
		s := newTestServer(t, Config{Executor: &fakeExec{}, DataDir: dir})
		got := times(s)
		s.Close()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("after restart %d: %v, want %v", restart, got, want)
		}
	}
}

// An earlier build journaled a "start" record when a flight began and a
// "cancel" record for a canceled job. Replay ignores the first and reads
// the second as a finish: the job comes back canceled, not re-run, and
// the compaction rewrites it as a submit and a finish.
func TestReplayReadsLegacyStartAndCancelRecords(t *testing.T) {
	dir := t.TempDir()
	seqs := testSeqs(4, 30, 83)
	opts, err := resolve(Options{Procs: 1}, defaultOpts, Limits{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := cacheKey(seqs, opts)
	submitted := time.Now().Add(-time.Minute)
	j, _, err := store.OpenJournalOptions(filepath.Join(dir, "journal.wal"), store.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	canceled, _ := json.Marshal(map[string]string{"state": "canceled", "error": "canceled by client request"})
	for _, rec := range []store.Record{
		submitRecord("jaabb05", key, submitted, submitData{Opts: opts, NumSeqs: len(seqs), FASTA: []byte(fasta.FormatString(seqs))}),
		{Type: "start", Job: "jaabb05", Key: key, Time: submitted.Add(time.Second)},
		{Type: store.RecCancel, Job: "jaabb05", Key: key, Time: submitted.Add(2 * time.Second), Data: canceled},
	} {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	fe := &fakeExec{}
	s := newTestServer(t, Config{Executor: fe, DataDir: dir})
	defer s.Close()
	if rec := s.Recovery(); rec.Requeued != 0 || rec.Finished != 1 || rec.JournalRecords != 3 {
		t.Fatalf("recovery = %+v, want 3 records, 0 requeued / 1 finished", rec)
	}
	job, ok := s.Job("jaabb05")
	if !ok {
		t.Fatal("canceled job not restored")
	}
	if v := job.View(); v.State != StateCanceled || v.Error != "canceled by client request" ||
		v.Finished == nil || !v.Finished.Equal(submitted.Add(2*time.Second)) {
		t.Fatalf("restored %+v, want canceled by the client at the cancel record's time", v)
	}
	if fe.Runs() != 0 {
		t.Fatalf("canceled job re-ran %d times", fe.Runs())
	}
	var kinds []string
	for _, rec := range journaledRecords(t, dir, "jaabb05") {
		kinds = append(kinds, rec.Type)
	}
	if want := []string{store.RecSubmit, store.RecFinish}; !reflect.DeepEqual(kinds, want) {
		t.Fatalf("compacted journal holds %v for the job, want %v", kinds, want)
	}
}

func TestCrashRecoveryByteIdenticalToUninterruptedRun(t *testing.T) {
	// Craft the exact on-disk state a crash mid-job leaves (a journaled
	// submit with no finish) and let a real-executor server recover it:
	// the replayed alignment must be byte-identical to a direct run.
	dir := t.TempDir()
	seqs := testSeqs(24, 60, 72)
	opts, err := resolve(Options{Procs: 3, Workers: 2}, defaultOpts, Limits{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := cacheKey(seqs, opts)
	j, _, err := store.OpenJournalOptions(filepath.Join(dir, "journal.wal"), store.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(submitRecord("jfeedfacecafe01", key, time.Now(), submitData{
		Opts:    opts,
		NumSeqs: len(seqs),
		FASTA:   []byte(fasta.FormatString(seqs)),
	})); err != nil {
		t.Fatal(err)
	}
	j.Close()

	s := newTestServer(t, Config{DataDir: dir}) // real in-process executor
	defer s.Close()
	if s.Recovery().Requeued != 1 {
		t.Fatalf("recovery = %+v", s.Recovery())
	}
	job, ok := s.Job("jfeedfacecafe01")
	if !ok {
		t.Fatal("crafted job not restored")
	}
	v := waitState(t, job, StateDone)
	payload, ok := s.resultPayload(job, v.Result)
	if !ok {
		t.Fatal("no payload")
	}
	res, err := core.AlignInprocContext(context.Background(), seqs, 3, core.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if want := fasta.FormatString(res.Alignment.Seqs); string(payload) != want {
		t.Fatal("recovered alignment differs from a direct core run")
	}
}

// TestDrainTimeoutCasualtiesRequeueOnRestart: jobs hard-canceled
// because the drain window expired are journaled as interrupted, not
// canceled — the next boot re-enqueues them like crash victims and
// runs them to completion under their original IDs. A job the caller
// canceled explicitly stays canceled across the restart.
func TestDrainTimeoutCasualtiesRequeueOnRestart(t *testing.T) {
	dir := t.TempDir()
	runningSeqs := testSeqs(9, 45, 77)
	queuedSeqs := testSeqs(7, 40, 78)
	droppedSeqs := testSeqs(5, 35, 79)

	fe1 := &fakeExec{block: make(chan struct{}), started: make(chan struct{}, 4)}
	s1 := newTestServer(t, Config{Executor: fe1, DataDir: dir, MaxConcurrent: 1})
	running, err := s1.Submit(runningSeqs, Options{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	<-fe1.started // the first job occupies the only dispatcher, blocked
	queued, err := s1.Submit(queuedSeqs, Options{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	dropped, err := s1.Submit(droppedSeqs, Options{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The caller changes their mind about one queued job: that is a
	// real cancel and must survive the restart as canceled.
	if live, err := s1.Cancel(dropped.ID, nil); err != nil || !live {
		t.Fatalf("cancel queued job: live=%v err=%v", live, err)
	}
	if s1.Drain(30 * time.Millisecond) {
		t.Fatal("Drain reported success with a blocked job")
	}
	s1.Close() // drain window expired: hard-cancel the leftovers

	for _, j := range []*Job{running, queued} {
		v := j.View()
		if v.State != StateCanceled {
			t.Fatalf("job %s after close: %s, want canceled", j.ID, v.State)
		}
		if want := errInterrupted.Error(); v.Error != want {
			t.Fatalf("job %s cause = %q, want %q", j.ID, v.Error, want)
		}
	}
	if got := s1.metrics.Interrupted.Value(); got != 2 {
		t.Fatalf("interrupted metric = %d, want 2", got)
	}

	fe2 := &fakeExec{}
	s2 := newTestServer(t, Config{Executor: fe2, DataDir: dir})
	defer s2.Close()
	rec := s2.Recovery()
	// The previous process DID shut down cleanly (shutdown record
	// written) — and still left requeueable casualties.
	if !rec.CleanShutdown {
		t.Fatalf("recovery = %+v, want clean shutdown", rec)
	}
	if rec.Requeued != 2 || rec.Interrupted != 2 {
		t.Fatalf("recovery = %+v, want 2 requeued / 2 interrupted", rec)
	}
	for _, old := range []struct {
		job  *Job
		want string
	}{{running, fasta.FormatString(runningSeqs)}, {queued, fasta.FormatString(queuedSeqs)}} {
		j, ok := s2.Job(old.job.ID)
		if !ok {
			t.Fatalf("interrupted job %s not restored", old.job.ID)
		}
		if !j.View().Recovered {
			t.Fatalf("job %s not marked recovered", j.ID)
		}
		v := waitState(t, j, StateDone)
		payload, ok := s2.resultPayload(j, v.Result)
		if !ok || string(payload) != old.want {
			t.Fatalf("job %s: wrong or missing payload after requeue", j.ID)
		}
	}
	if fe2.Runs() != 2 {
		t.Fatalf("recovered jobs ran %d times, want 2", fe2.Runs())
	}
	// The explicitly canceled job stays canceled — not resurrected.
	j, ok := s2.Job(dropped.ID)
	if !ok {
		t.Fatalf("canceled job %s lost across restart", dropped.ID)
	}
	if v := j.View(); v.State != StateCanceled {
		t.Fatalf("canceled job %s restored as %s", j.ID, v.State)
	}
}

func TestJournalCorruptTailRecoversPrefix(t *testing.T) {
	dir := t.TempDir()
	seqs := testSeqs(6, 30, 73)

	fe1 := &fakeExec{}
	s1 := newTestServer(t, Config{Executor: fe1, DataDir: dir, StoreEntries: -1})
	defer s1.Close()
	job1, err := s1.Submit(seqs, Options{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, job1, StateDone)
	crash(s1)

	// Tear the journal tail mid-record (the finish record), so replay
	// sees submit+start only.
	path := filepath.Join(dir, "journal.wal")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	fe2 := &fakeExec{}
	s2 := newTestServer(t, Config{Executor: fe2, DataDir: dir, StoreEntries: -1})
	defer s2.Close()
	// With the disk result tier disabled the torn job must re-run.
	if rec := s2.Recovery(); rec.Requeued != 1 || rec.CleanShutdown {
		t.Fatalf("recovery = %+v", rec)
	}
	j, ok := s2.Job(job1.ID)
	if !ok {
		t.Fatal("torn job not restored")
	}
	waitState(t, j, StateDone)
	if fe2.Runs() != 1 {
		t.Fatalf("torn job ran %d times, want 1", fe2.Runs())
	}
}

func TestRecoveryFindsOrphanedStoreResult(t *testing.T) {
	// Crash after the result hit the disk store but before the finish
	// record: recovery must serve the stored result, not re-run.
	dir := t.TempDir()
	seqs := testSeqs(6, 30, 74)

	fe1 := &fakeExec{}
	s1 := newTestServer(t, Config{Executor: fe1, DataDir: dir})
	defer s1.Close()
	job1, err := s1.Submit(seqs, Options{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, job1, StateDone)
	crash(s1)
	// Rewind the journal to the submit by dropping the finish record.
	path := filepath.Join(dir, "journal.wal")
	jr, recs, err := store.OpenJournalOptions(path, store.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Type != store.RecSubmit || recs[1].Type != store.RecFinish {
		t.Fatalf("journal holds %+v, want a submit and a finish", recs)
	}
	if err := jr.Rewrite(recs[:1]); err != nil {
		t.Fatal(err)
	}
	jr.Close()

	fe2 := &fakeExec{}
	s2 := newTestServer(t, Config{Executor: fe2, DataDir: dir})
	defer s2.Close()
	if rec := s2.Recovery(); rec.Finished != 1 || rec.Requeued != 0 {
		t.Fatalf("recovery = %+v", rec)
	}
	j, ok := s2.Job(job1.ID)
	if !ok {
		t.Fatal("job not restored")
	}
	if v := j.View(); v.State != StateDone {
		t.Fatalf("restored state %s, want done (from orphaned store result)", v.State)
	}
	if fe2.Runs() != 0 {
		t.Fatalf("orphaned result re-ran %d times", fe2.Runs())
	}
}

func TestCompactionShedsFinishedPayloads(t *testing.T) {
	dir := t.TempDir()
	seqs := testSeqs(6, 30, 75)
	s1 := newTestServer(t, Config{Executor: &fakeExec{}, DataDir: dir})
	job1, err := s1.Submit(seqs, Options{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, job1, StateDone)
	s1.Close()

	// First restart compacts; close cleanly again and inspect the log.
	s2 := newTestServer(t, Config{Executor: &fakeExec{}, DataDir: dir})
	s2.Close()
	_, recs, err := store.OpenJournalOptions(filepath.Join(dir, "journal.wal"), store.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var submits int
	for _, rec := range recs {
		if rec.Type != store.RecSubmit {
			continue
		}
		submits++
		var sd submitData
		if err := json.Unmarshal(rec.Data, &sd); err != nil {
			t.Fatal(err)
		}
		if len(sd.FASTA) != 0 {
			t.Fatal("compacted submit record for a finished job still carries its FASTA")
		}
	}
	if submits != 1 {
		t.Fatalf("compacted journal has %d submit records, want 1", submits)
	}
}

func TestReplayMergesOutOfOrderRecords(t *testing.T) {
	// Journal appends race the server lock, so a job's cancel record
	// can land before its submit record. Replay must merge them: the
	// terminal state wins and the job is NOT re-enqueued.
	dir := t.TempDir()
	seqs := testSeqs(4, 30, 78)
	opts, err := resolve(Options{Procs: 1}, defaultOpts, Limits{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := cacheKey(seqs, opts)
	j, _, err := store.OpenJournalOptions(filepath.Join(dir, "journal.wal"), store.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	if err := j.Append(finishRecord("jaabb01", key, now, finishData{State: StateCanceled, Error: "canceled by client request"})); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(submitRecord("jaabb01", key, now, submitData{
		Opts: opts, NumSeqs: len(seqs), FASTA: []byte(fasta.FormatString(seqs)),
	})); err != nil {
		t.Fatal(err)
	}
	// And a lone finish with no submit half at all: dropped, not restored.
	if err := j.Append(finishRecord("jaabb02", key, now, finishData{State: StateDone})); err != nil {
		t.Fatal(err)
	}
	j.Close()

	fe := &fakeExec{}
	s := newTestServer(t, Config{Executor: fe, DataDir: dir})
	defer s.Close()
	if rec := s.Recovery(); rec.Requeued != 0 || rec.Finished != 1 {
		t.Fatalf("recovery = %+v, want 0 requeued / 1 finished", rec)
	}
	jb, ok := s.Job("jaabb01")
	if !ok {
		t.Fatal("out-of-order job not restored")
	}
	if v := jb.View(); v.State != StateCanceled {
		t.Fatalf("state = %s, want canceled (terminal record must win)", v.State)
	}
	if _, ok := s.Job("jaabb02"); ok {
		t.Fatal("submit-less job was restored")
	}
	if fe.Runs() != 0 {
		t.Fatalf("canceled job re-ran %d times", fe.Runs())
	}
}

// A journal written before the DP-kernel option was retired carries
// "kernel" in every submit record's options. Replay must read such a
// record as the job it was: same key, re-enqueued, run to completion.
func TestReplayAcceptsSubmitRecordWithRetiredKernelOption(t *testing.T) {
	dir := t.TempDir()
	seqs := testSeqs(4, 30, 79)
	opts, err := resolve(Options{Procs: 1}, defaultOpts, Limits{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := cacheKey(seqs, opts)
	optsJSON, _ := json.Marshal(opts)
	var old map[string]any
	if err := json.Unmarshal(optsJSON, &old); err != nil {
		t.Fatal(err)
	}
	old["kernel"] = "striped"
	data, _ := json.Marshal(map[string]any{
		"opts": old, "num_seqs": len(seqs), "fasta": []byte(fasta.FormatString(seqs)),
	})
	j, _, err := store.OpenJournalOptions(filepath.Join(dir, "journal.wal"), store.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(store.Record{Type: store.RecSubmit, Job: "jaabb03", Key: key, Time: time.Now(), Data: data}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	fe := &fakeExec{}
	s := newTestServer(t, Config{Executor: fe, DataDir: dir})
	defer s.Close()
	if rec := s.Recovery(); rec.Requeued != 1 {
		t.Fatalf("recovery = %+v, want 1 requeued", rec)
	}
	jb, ok := s.Job("jaabb03")
	if !ok {
		t.Fatal("old-format job not restored")
	}
	if v := waitState(t, jb, StateDone); v.Key != key || v.Opts != opts {
		t.Fatalf("restored job: key %s opts %+v, want %s %+v", v.Key, v.Opts, key, opts)
	}
}

// A data dir written before Result carried its own JSON tags: a finish
// record's summary and a result file's meta block, both as literal JSON
// in that format, still decode to the full summary, and a summary still
// encodes to exactly those bytes.
func TestSummariesInTheEarlierFormatDecode(t *testing.T) {
	const summary = `{"num_seqs":4,"width":31,"procs":2,"bytes_sent":1200,"bytes_recv":1100,"elapsed_ns":2500000,"trace_id":"t0042"}`
	want := &Result{NumSeqs: 4, Width: 31, Procs: 2, BytesSent: 1200, BytesRecv: 1100, Elapsed: 2500 * time.Microsecond, TraceID: "t0042"}
	if got, _ := json.Marshal(want); string(got) != summary {
		t.Fatalf("summary encodes as %s, want %s", got, summary)
	}

	dir := t.TempDir()
	seqs := testSeqs(4, 30, 81)
	opts, err := resolve(Options{Procs: 2}, defaultOpts, Limits{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	submit, _ := json.Marshal(submitData{Opts: opts, NumSeqs: len(seqs), FASTA: []byte(fasta.FormatString(seqs))})
	doneKey, storedKey := strings.Repeat("c", 64), strings.Repeat("d", 64)
	now := time.Now()
	j, _, err := store.OpenJournalOptions(filepath.Join(dir, "journal.wal"), store.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendBatch([]store.Record{
		{Type: store.RecSubmit, Job: "jaabb06", Key: doneKey, Time: now, Data: submit},
		{Type: store.RecFinish, Job: "jaabb06", Key: doneKey, Time: now, Data: []byte(`{"state":"done","summary":` + summary + `}`)},
	}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	results, err := store.OpenResults(filepath.Join(dir, "results"), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(fasta.FormatString(seqs))
	if err := results.Put(storedKey, []byte(summary), payload); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, Config{Executor: &fakeExec{}, DataDir: dir})
	defer s.Close()
	done, ok := s.Job("jaabb06")
	if !ok {
		t.Fatal("finished job not restored")
	}
	if v := done.View(); v.State != StateDone || !reflect.DeepEqual(v.Result, want) {
		t.Fatalf("finish record decoded to %s %+v, want done %+v", v.State, v.Result, want)
	}
	res, ok := s.lookupResult(storedKey)
	if !ok {
		t.Fatal("stored result not found")
	}
	if got := summaryOf(res); !bytes.Equal(res.FASTA, payload) || !reflect.DeepEqual(got, want) {
		t.Fatalf("meta block decoded to %+v with %d payload bytes, want %+v with %d", got, len(res.FASTA), want, len(payload))
	}
}

// A journal written while the ablation options existed. A finished job
// submitted under one is restored as it was: its result was computed
// under that option and stays addressable by job ID. An unfinished one
// cannot be re-run as the job it was — that pipeline is gone and its key
// describes it — so it is failed, naming the option. The compacted
// journal replays to the same two jobs.
func TestReplayOfJobsSubmittedUnderARetiredOption(t *testing.T) {
	dir := t.TempDir()
	seqs := testSeqs(4, 30, 80)
	opts, err := resolve(Options{Procs: 1}, defaultOpts, Limits{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	optsJSON, _ := json.Marshal(opts)
	var old map[string]any
	if err := json.Unmarshal(optsJSON, &old); err != nil {
		t.Fatal(err)
	}
	old["no_finetune"] = true
	submit, _ := json.Marshal(map[string]any{
		"opts": old, "num_seqs": len(seqs), "fasta": []byte(fasta.FormatString(seqs)),
	})
	doneKey, liveKey := strings.Repeat("a", 64), strings.Repeat("b", 64) // keys of the old schema
	now := time.Now()
	j, _, err := store.OpenJournalOptions(filepath.Join(dir, "journal.wal"), store.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendBatch([]store.Record{
		{Type: store.RecSubmit, Job: "jaabb04", Key: doneKey, Time: now, Data: submit},
		finishRecord("jaabb04", doneKey, now, finishData{State: StateDone, Summary: &Result{NumSeqs: len(seqs), Width: 30, Procs: 1}}),
		{Type: store.RecSubmit, Job: "jaabb05", Key: liveKey, Time: now, Data: submit},
	}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	for restart := 1; restart <= 2; restart++ {
		fe := &fakeExec{}
		s := newTestServer(t, Config{Executor: fe, DataDir: dir})
		if rec := s.Recovery(); rec.Finished != 2 || rec.Requeued != 0 {
			t.Fatalf("restart %d: recovery = %+v, want 2 finished and nothing requeued", restart, rec)
		}
		done, ok := s.Job("jaabb04")
		if !ok {
			t.Fatalf("restart %d: finished job not restored", restart)
		}
		if v := done.View(); v.State != StateDone || v.Key != doneKey || v.Result == nil || v.Result.NumSeqs != len(seqs) {
			t.Fatalf("restart %d: finished job came back as %+v", restart, v)
		}
		live, ok := s.Job("jaabb05")
		if !ok {
			t.Fatalf("restart %d: unfinished job not restored", restart)
		}
		if v := live.View(); v.State != StateFailed || !strings.HasPrefix(v.Error, "recovery: ") || !strings.Contains(v.Error, "no_finetune") {
			t.Fatalf("restart %d: unfinished job came back %s (%q), want failed by recovery naming no_finetune", restart, v.State, v.Error)
		}
		if fe.Runs() != 0 {
			t.Fatalf("restart %d: a job submitted under a retired option ran", restart)
		}
		s.Close()
	}
}

func TestSubmitRefusedWhileDraining(t *testing.T) {
	// Even a cache hit must be refused once draining: a drained server
	// stops mutating its job table and journal.
	fe := &fakeExec{}
	s := newTestServer(t, Config{Executor: fe})
	defer s.Close()
	seqs := testSeqs(4, 30, 79)
	j1, err := s.Submit(seqs, Options{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j1, StateDone)
	if !s.Drain(time.Second) {
		t.Fatal("drain of an idle server failed")
	}
	if _, err := s.Submit(seqs, Options{Procs: 1}); err != errClosed {
		t.Fatalf("cache-hit submit while draining: %v, want errClosed", err)
	}
}

func TestSecondServerOnSameDataDirRefused(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t, Config{Executor: &fakeExec{}, DataDir: dir})
	defer s1.Close()
	if _, err := New(Config{Executor: &fakeExec{}, DataDir: dir}); err == nil {
		t.Fatal("two servers shared one data directory")
	}
}

func TestHTTPStreamedResultAfterRestart(t *testing.T) {
	dir := t.TempDir()
	seqs := testSeqs(10, 50, 76)
	s1 := newTestServer(t, Config{Executor: &fakeExec{}, DataDir: dir})
	job1, err := s1.Submit(seqs, Options{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	v1 := waitState(t, job1, StateDone)
	payload1, _ := s1.resultPayload(job1, v1.Result)
	s1.Close()

	s2 := newTestServer(t, Config{Executor: &fakeExec{}, DataDir: dir})
	ts := httptest.NewServer(s2.Handler())
	t.Cleanup(func() { ts.Close(); s2.Close() })

	// The memory cache is cold, so the result endpoint must stream the
	// payload from the disk store: chunked transfer, no Content-Length.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + job1.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status = %d", resp.StatusCode)
	}
	if resp.ContentLength >= 0 {
		t.Fatalf("streamed response advertised Content-Length %d", resp.ContentLength)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, payload1) {
		t.Fatal("streamed body differs from the pre-restart payload")
	}
	if got := s2.metrics.Streamed.Value(); got != 1 {
		t.Fatalf("streamed counter = %d, want 1", got)
	}
	// Persistence gauges are exposed on /metrics.
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	for _, want := range []string{
		"samplealign_store_entries 1",
		"samplealign_results_streamed_total 1",
		"samplealign_journal_records",
	} {
		if !bytes.Contains(metrics, []byte(want)) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

func TestNoDataDirWritesNothing(t *testing.T) {
	// Without a DataDir the server must not touch the filesystem.
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })

	s := newTestServer(t, Config{Executor: &fakeExec{}})
	job, err := s.Submit(testSeqs(4, 30, 77), Options{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, job, StateDone)
	s.Close()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("no-DataDir server created files: %v", entries)
	}
}

// TestResultKeptWhenNoTierTakesIt: a tier that exists but declines the
// payload (too large for its byte bound) leaves the whole result, trace
// included, in the job record, so the job still answers /result,
// /trace and the POST /v1/align that computed it.
func TestResultKeptWhenNoTierTakesIt(t *testing.T) {
	for name, cfg := range map[string]Config{
		"cache-bytes=16": {CacheBytes: 16},
		"store-bytes=16": {CacheEntries: -1, DataDir: "dir", StoreBytes: 16},
	} {
		t.Run(name, func(t *testing.T) {
			if cfg.DataDir != "" {
				cfg.DataDir = t.TempDir()
			}
			cfg.Executor = &fakeExec{}
			s, ts := httpServer(t, cfg)
			seqs := testSeqs(4, 30, 94)
			job, err := s.Submit(seqs, Options{Procs: 1})
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, job, StateDone)
			if s.cache.Len() != 0 || s.results != nil && s.results.Len() != 0 {
				t.Fatal("a tier took a result larger than its byte bound")
			}
			resp, body := fetchTrace(t, ts.URL+"/v1/jobs/"+job.ID+"/result")
			if resp.StatusCode != http.StatusOK || string(body) != fasta.FormatString(seqs) {
				t.Fatalf("/result = %d %q, want 200 with the alignment", resp.StatusCode, body)
			}
			if code := getStatus(t, ts.URL+"/v1/jobs/"+job.ID+"/trace"); code != http.StatusOK {
				t.Fatalf("/trace = %d, want 200", code)
			}
			other := fasta.FormatString(testSeqs(4, 30, 95))
			resp = postFASTA(t, ts.URL+"/v1/align?procs=1", other)
			body, _ = io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || string(body) != other {
				t.Fatalf("POST /v1/align = %d %q, want 200 with the alignment", resp.StatusCode, body)
			}
		})
	}
}

// TestEvictedResultTakesItsTrace: the disk store holds a job's trace in
// its result file, so once the store evicts the result, the job's
// /result and /trace both answer 410; until then both answer 200.
func TestEvictedResultTakesItsTrace(t *testing.T) {
	s, ts := httpServer(t, Config{Executor: &fakeExec{}, CacheEntries: -1, DataDir: t.TempDir(), StoreEntries: 1})
	run := func(seed int64) *Job {
		job, err := s.Submit(testSeqs(4, 30, seed), Options{Procs: 1})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, job, StateDone)
		return job
	}
	statuses := func(job *Job) [2]int {
		return [2]int{getStatus(t, ts.URL+"/v1/jobs/"+job.ID+"/result"), getStatus(t, ts.URL+"/v1/jobs/"+job.ID+"/trace")}
	}
	ok, gone := [2]int{http.StatusOK, http.StatusOK}, [2]int{http.StatusGone, http.StatusGone}
	a := run(96)
	if got := statuses(a); got != ok {
		t.Fatalf("A stored: /result, /trace = %v, want %v", got, ok)
	}
	b := run(97)
	if got := statuses(a); got != gone {
		t.Fatalf("A evicted: /result, /trace = %v, want %v", got, gone)
	}
	if got := statuses(b); got != ok {
		t.Fatalf("B stored: /result, /trace = %v, want %v", got, ok)
	}
}

// TestDataDirHoldsOneFilePerResult: each stored result is one file,
// its trace inside; there is no traces/ directory, the store gauges
// count every byte of those files, and journal records carry no trace.
func TestDataDirHoldsOneFilePerResult(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{Executor: &fakeExec{}, DataDir: dir})
	var keys []string
	for _, seed := range []int64{98, 99} {
		job, err := s.Submit(testSeqs(4, 30, seed), Options{Procs: 1})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, job, StateDone)
		keys = append(keys, job.Key)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	s.Close()

	files, err := os.ReadDir(filepath.Join(dir, "results"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk int64
	for _, f := range files {
		fi, err := f.Info()
		if err != nil {
			t.Fatal(err)
		}
		onDisk += fi.Size()
	}
	if len(files) != len(keys) {
		t.Fatalf("results/ holds %d files for %d results", len(files), len(keys))
	}
	if _, err := os.Stat(filepath.Join(dir, "traces")); !os.IsNotExist(err) {
		t.Fatalf("traces/ exists: %v", err)
	}
	for _, line := range []string{
		fmt.Sprintf("\nsamplealign_store_entries %d\n", len(keys)),
		fmt.Sprintf("\nsamplealign_store_bytes %d\n", onDisk),
	} {
		if !strings.Contains(rec.Body.String(), line) {
			t.Errorf("/metrics lacks %q", strings.TrimSpace(line))
		}
	}
	journal, err := os.ReadFile(filepath.Join(dir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(journal, []byte(`"trace":`)) {
		t.Fatal("a journal record carries a trace")
	}

	s2 := newTestServer(t, Config{Executor: &fakeExec{}, DataDir: dir})
	defer s2.Close()
	for _, key := range keys {
		if res, ok := s2.lookupResult(key); !ok || len(res.Trace) == 0 {
			t.Fatalf("result %s after a restart: found %v, trace %d bytes", key, ok, len(res.Trace))
		}
	}
}

// TestStaleTraceStoreRemovedOnOpen: the traces/ directory an earlier
// build kept beside results/ is removed when the data dir is opened.
func TestStaleTraceStoreRemovedOnOpen(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "traces")
	if err := os.MkdirAll(stale, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(stale, strings.Repeat("e", 64)), []byte("SAR2"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Executor: &fakeExec{}, DataDir: dir})
	defer s.Close()
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale traces/ survived the open: %v", err)
	}
}
