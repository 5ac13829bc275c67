package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestJournalAppendBatchRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, _, err := OpenJournalOptions(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		testRecord(RecSubmit, "b1", 1),
		testRecord(RecSubmit, "b2", 2),
		testRecord(RecSubmit, "b3", 3),
		testRecord(RecFinish, "b1", 4),
	}
	if err := j.AppendBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if err := j.AppendBatch(want); err != nil {
		t.Fatal(err)
	}
	// The whole batch shares one fsync.
	if got := j.Flushes(); got != 1 {
		t.Fatalf("Flushes() = %d, want 1", got)
	}
	if got := j.FlushedRecords(); got != int64(len(want)) {
		t.Fatalf("FlushedRecords() = %d, want %d", got, len(want))
	}
	if got := j.Records(); got != int64(len(want)) {
		t.Fatalf("Records() = %d, want %d", got, len(want))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, got, err := OpenJournalOptions(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestJournalTornTailMidGroupTruncatesToLastIntactRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, _, err := OpenJournalOptions(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	batch := []Record{
		testRecord(RecSubmit, "g1", 1),
		testRecord(RecSubmit, "g2", 2),
		testRecord(RecSubmit, "g3", 3),
	}
	if err := j.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Tear the group mid-way through its second record, as a crash
	// during the group's single write would.
	f1, err := frame(batch[0], maxRecordBytes)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := frame(batch[1], maxRecordBytes)
	if err != nil {
		t.Fatal(err)
	}
	cut := int64(len(f1) + len(f2)/2)
	if err := os.Truncate(path, cut); err != nil {
		t.Fatal(err)
	}

	j, got, err := OpenJournalOptions(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Job != "g1" {
		t.Fatalf("replay after mid-group tear: %+v, want just g1", got)
	}
	// The torn half-record is gone; new appends extend a clean prefix.
	if err := j.Append(testRecord(RecSubmit, "g4", 4)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, got, err = OpenJournalOptions(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].Job != "g4" {
		t.Fatalf("append after mid-group truncation: %+v", got)
	}
}

// holdFlush stands in for a flush in flight: until the returned
// release runs, every appender queues behind it in one open group.
func holdFlush(j *Journal) (release func()) {
	j.mu.Lock()
	j.flushing = true
	j.mu.Unlock()
	return func() {
		j.mu.Lock()
		j.flushing = false
		j.cond.Broadcast()
		j.mu.Unlock()
	}
}

// waitQueued blocks until the open group holds n records.
func waitQueued(t *testing.T, j *Journal, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		j.mu.Lock()
		var got int64
		if j.cur != nil {
			got = j.cur.recs
		}
		j.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("open group holds %d records, want %d", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestJournalConcurrentAppendsGroupCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, _, err := OpenJournalOptions(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Every appender that arrives while a flush is in flight joins the
	// one group behind it, so n appenders cost exactly one fsync.
	const n = 200
	release := holdFlush(j)
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			errs <- j.Append(testRecord(RecSubmit, fmt.Sprintf("w%d", i), i))
		}(i)
	}
	waitQueued(t, j, n)
	release()
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := j.Records(); got != n {
		t.Fatalf("Records() = %d, want %d", got, n)
	}
	if got := j.FlushedRecords(); got != n {
		t.Fatalf("FlushedRecords() = %d, want %d", got, n)
	}
	if f := j.Flushes(); f != 1 {
		t.Fatalf("Flushes() = %d for %d queued records, want 1", f, n)
	}
	j.Close()
	_, got, err := OpenJournalOptions(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("replayed %d records, want %d", len(got), n)
	}
	seen := make(map[string]bool, len(got))
	for _, r := range got {
		if seen[r.Job] {
			t.Fatalf("job %s replayed twice", r.Job)
		}
		seen[r.Job] = true
	}
}

// TestJournalFailedFlushPoisons: a group whose write fails and whose
// tail cannot be truncated back fails every member, leaves the durable
// counters alone, and poisons the journal, so no later append or
// rewrite extends a tail replay could not reach. A reopen replays
// exactly the records acknowledged before the failure.
func TestJournalFailedFlushPoisons(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, _, err := OpenJournalOptions(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	acked := []Record{testRecord(RecSubmit, "ok1", 1), testRecord(RecSubmit, "ok2", 2)}
	for _, rec := range acked {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	records, flushes, flushed := j.Records(), j.Flushes(), j.FlushedRecords()

	const n = 3
	release := holdFlush(j)
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			errs <- j.Append(testRecord(RecSubmit, fmt.Sprintf("lost%d", i), 10+i))
		}(i)
	}
	waitQueued(t, j, n)
	// A read-only handle on the same file: the group's write fails
	// (EBADF) and so does the truncate back to the clean prefix
	// (EINVAL), which takes the poison branch.
	ro, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	j.mu.Lock()
	rw := j.f
	j.f = ro
	j.mu.Unlock()
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	release()
	var flushErr error
	for i := 0; i < n; i++ {
		err := <-errs
		if err == nil {
			t.Fatal("an append in the failed group reported success")
		}
		flushErr = err
	}

	if err := j.Append(testRecord(RecSubmit, "after", 20)); err == nil || !errors.Is(err, flushErr) {
		t.Fatalf("Append after poison = %v, want the poison error wrapping %v", err, flushErr)
	}
	if err := j.AppendBatch([]Record{testRecord(RecSubmit, "afterB", 21)}); err == nil || !errors.Is(err, flushErr) {
		t.Fatalf("AppendBatch after poison = %v, want the poison error", err)
	}
	if err := j.Rewrite(acked); err == nil || !errors.Is(err, flushErr) {
		t.Fatalf("Rewrite after poison = %v, want the poison error", err)
	}
	if j.Records() != records || j.Flushes() != flushes || j.FlushedRecords() != flushed {
		t.Fatalf("counters moved on a failed flush: records %d→%d, flushes %d→%d, flushed %d→%d",
			records, j.Records(), flushes, j.Flushes(), flushed, j.FlushedRecords())
	}
	j.Close()
	_, got, err := OpenJournalOptions(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, acked) {
		t.Fatalf("replay after poison:\n got %+v\nwant %+v", got, acked)
	}
}

func TestJournalOversizedRecordRejectedAtAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, _, err := OpenJournalOptions(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	j.maxRecordBytes = 256
	if err := j.Append(testRecord(RecSubmit, "ok1", 1)); err != nil {
		t.Fatal(err)
	}
	big := testRecord(RecSubmit, "big", 2)
	big.Data = []byte(`"` + fmt.Sprintf("%01024d", 7) + `"`)
	if err := j.Append(big); !errors.Is(err, errRecordTooLarge) {
		t.Fatalf("oversized Append error = %v, want errRecordTooLarge", err)
	}
	// An oversized member rejects the whole batch before any bytes are
	// staged — the good record must not be half-committed.
	if err := j.AppendBatch([]Record{testRecord(RecSubmit, "ok2", 3), big}); !errors.Is(err, errRecordTooLarge) {
		t.Fatalf("oversized AppendBatch error = %v, want errRecordTooLarge", err)
	}
	if err := j.Append(testRecord(RecSubmit, "ok3", 4)); err != nil {
		t.Fatalf("journal unusable after rejected record: %v", err)
	}
	j.Close()
	_, got, err := OpenJournalOptions(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Job != "ok1" || got[1].Job != "ok3" {
		t.Fatalf("replay after rejections: %+v, want ok1+ok3 only", got)
	}
}

func TestJournalAppendAfterCloseFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, _, err := OpenJournalOptions(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(testRecord(RecSubmit, "x", 1)); err == nil {
		t.Fatal("Append after Close succeeded")
	}
	if err := j.AppendBatch([]Record{testRecord(RecSubmit, "y", 2)}); err == nil {
		t.Fatal("AppendBatch after Close succeeded")
	}
}
