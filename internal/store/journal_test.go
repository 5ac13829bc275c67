package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func testRecord(typ, job string, n int) Record {
	data, _ := json.Marshal(map[string]int{"n": n})
	return Record{
		Type: typ,
		Job:  job,
		Key:  "k" + job,
		Time: time.Unix(1700000000+int64(n), 0).UTC(),
		Data: data,
	}
}

func openAppend(t *testing.T, path string, recs ...Record) {
	t.Helper()
	j, _, err := OpenJournalOptions(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	want := []Record{
		testRecord(RecSubmit, "j1", 1),
		testRecord("start", "j1", 2), // a kind the store does not name: kinds are opaque to it
		testRecord(RecFinish, "j1", 3),
	}
	openAppend(t, path, want...)

	j, got, err := OpenJournalOptions(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay mismatch:\n got %+v\nwant %+v", got, want)
	}
	if j.Records() != 3 {
		t.Fatalf("records = %d, want 3", j.Records())
	}
	// Appending after a replay extends the same log.
	if err := j.Append(testRecord(RecCancel, "j2", 4)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, got, err = OpenJournalOptions(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got[3].Job != "j2" {
		t.Fatalf("after append: %d records, last %+v", len(got), got[len(got)-1])
	}
}

func TestJournalTruncatedTailIsDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	openAppend(t, path,
		testRecord(RecSubmit, "j1", 1),
		testRecord(RecSubmit, "j2", 2),
	)
	// Tear the last record: chop off its final bytes, as a crash
	// mid-write would.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	j, got, err := OpenJournalOptions(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Job != "j1" {
		t.Fatalf("replay after torn tail: %+v, want just j1", got)
	}
	// The torn bytes must be gone so new appends start clean.
	if err := j.Append(testRecord(RecSubmit, "j3", 3)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, got, err = OpenJournalOptions(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].Job != "j3" {
		t.Fatalf("append after truncation: %+v", got)
	}
}

func TestJournalCorruptMiddleStopsReplayAtLastGoodRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	openAppend(t, path,
		testRecord(RecSubmit, "j1", 1),
		testRecord(RecSubmit, "j2", 2),
		testRecord(RecSubmit, "j3", 3),
	)
	// Flip a payload byte inside the second record.
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	j, got, err := OpenJournalOptions(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	// The scan must stop at the corruption; j1 (at least) survives and
	// nothing after the flip is believed.
	if len(got) == 0 || len(got) >= 3 {
		t.Fatalf("replay kept %d records, want 1 or 2 (stop at corruption)", len(got))
	}
	if got[0].Job != "j1" {
		t.Fatalf("first replayed record: %+v", got[0])
	}
}

func TestJournalEmptyAndGarbageFiles(t *testing.T) {
	dir := t.TempDir()
	// Empty file.
	j, recs, err := OpenJournalOptions(filepath.Join(dir, "empty.wal"), JournalOptions{})
	if err != nil || len(recs) != 0 {
		t.Fatalf("empty journal: recs=%v err=%v", recs, err)
	}
	j.Close()
	// Pure garbage.
	garbage := filepath.Join(dir, "garbage.wal")
	if err := os.WriteFile(garbage, []byte("this is not a journal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, recs, err = OpenJournalOptions(garbage, JournalOptions{})
	if err != nil || len(recs) != 0 {
		t.Fatalf("garbage journal: recs=%v err=%v", recs, err)
	}
	if err := j.Append(testRecord(RecSubmit, "j1", 1)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, recs, err = OpenJournalOptions(garbage, JournalOptions{})
	if err != nil || len(recs) != 1 {
		t.Fatalf("append after garbage: recs=%v err=%v", recs, err)
	}
}

func TestJournalRewriteCompacts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	var recs []Record
	for i := 0; i < 10; i++ {
		recs = append(recs, testRecord(RecSubmit, "j", i))
	}
	openAppend(t, path, recs...)
	j, replayed, err := OpenJournalOptions(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	before := j.Bytes()
	keep := replayed[8:]
	if err := j.Rewrite(keep); err != nil {
		t.Fatal(err)
	}
	if j.Records() != 2 || j.Bytes() >= before {
		t.Fatalf("after rewrite: records=%d bytes=%d (before %d)", j.Records(), j.Bytes(), before)
	}
	// The rewritten journal accepts appends and replays cleanly.
	if err := j.Append(testRecord(RecShutdown, "", 99)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, got, err := OpenJournalOptions(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].Time != keep[0].Time || got[2].Type != RecShutdown {
		t.Fatalf("rewritten journal replay: %+v", got)
	}
}

func TestLockDirExcludesSecondOwner(t *testing.T) {
	dir := t.TempDir()
	release, err := LockDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LockDir(dir); err == nil {
		t.Fatal("second LockDir on a held directory succeeded")
	}
	release()
	release2, err := LockDir(dir)
	if err != nil {
		t.Fatalf("relock after release: %v", err)
	}
	release2()
}
