package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
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

func TestJournalConcurrentAppendsGroupCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	// A small MaxWait makes group formation deterministic even if the
	// scheduler runs the appenders one after another.
	j, _, err := OpenJournalOptions(path, JournalOptions{MaxWait: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers = 8
		perG    = 25
	)
	errs := make(chan error, writers*perG)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				errs <- j.Append(testRecord(RecSubmit, fmt.Sprintf("w%d-%d", g, i), i))
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	total := int64(writers * perG)
	if got := j.Records(); got != total {
		t.Fatalf("Records() = %d, want %d", got, total)
	}
	if got := j.FlushedRecords(); got != total {
		t.Fatalf("FlushedRecords() = %d, want %d", got, total)
	}
	// The whole point of group commit: far fewer fsyncs than records.
	if f := j.Flushes(); f >= total/2 {
		t.Fatalf("Flushes() = %d for %d records; groups are not forming", f, total)
	}
	j.Close()
	_, got, err := OpenJournalOptions(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(got)) != total {
		t.Fatalf("replayed %d records, want %d", len(got), total)
	}
	seen := make(map[string]bool, len(got))
	for _, r := range got {
		if seen[r.Job] {
			t.Fatalf("job %s replayed twice", r.Job)
		}
		seen[r.Job] = true
	}
}

func TestJournalOversizedRecordRejectedAtAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, _, err := OpenJournalOptions(path, JournalOptions{MaxRecordBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
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

func TestJournalBatchLargerThanGroupBoundsStillCommits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, _, err := OpenJournalOptions(path, JournalOptions{MaxBatchRecords: 2, MaxBatchBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	// The batch is an atomic unit: it may exceed the group bounds and
	// ride in a group of its own rather than being split.
	batch := []Record{
		testRecord(RecSubmit, "u1", 1),
		testRecord(RecSubmit, "u2", 2),
		testRecord(RecSubmit, "u3", 3),
	}
	if err := j.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if got := j.Flushes(); got != 1 {
		t.Fatalf("Flushes() = %d, want 1", got)
	}
	j.Close()
	_, got, err := OpenJournalOptions(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("replayed %d records, want 3", len(got))
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
