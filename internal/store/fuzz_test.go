package store

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// frameFor builds one valid journal frame for the fuzz seed corpus.
func frameFor(t string, job string) []byte {
	payload, _ := json.Marshal(Record{Type: t, Job: job, Time: time.Unix(0, 0).UTC()})
	buf := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, crcTable))
	copy(buf[8:], payload)
	return buf
}

// FuzzJournalReplay feeds arbitrary bytes to the journal as an on-disk
// image — the state a crash can leave at any byte boundary. Replay
// must never panic and must truncate to a clean record prefix: after
// OpenJournalOptions, an append must land on a record boundary, so reopening
// yields exactly the replayed records plus the appended one. A
// finished job's records, once replayed, survive the truncate+append
// cycle — replay can only lose the torn tail, never rewrite history
// (the serve layer relies on that to never re-run finished jobs).
func FuzzJournalReplay(f *testing.F) {
	submit := frameFor(RecSubmit, "j1")
	finish := frameFor(RecFinish, "j1")
	full := append(append([]byte{}, submit...), finish...)
	seeds := [][]byte{
		{},
		full,
		full[:len(full)-1],   // torn tail: finish loses its last byte
		full[:len(submit)+3], // torn mid-header
		append([]byte{0xff, 0xff, 0xff, 0x7f}, full...), // insane length prefix
		func() []byte { // flipped bit in the finish payload
			b := append([]byte{}, full...)
			b[len(submit)+12] ^= 0x40
			return b
		}(),
		func() []byte { // zero-length frame
			b := make([]byte, 8)
			return append(b, full...)
		}(),
		[]byte("not a journal at all"),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "journal.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, recs, err := OpenJournalOptions(path, JournalOptions{})
		if err != nil {
			t.Fatalf("OpenJournalOptions on arbitrary bytes must truncate, not fail: %v", err)
		}
		if int64(len(recs)) != j.Records() {
			t.Fatalf("Records() = %d, replay returned %d", j.Records(), len(recs))
		}
		// The journal now ends at a record boundary: an append must
		// survive a reopen along with every replayed record.
		sentinel := Record{Type: RecShutdown, Job: "sentinel", Time: time.Unix(1, 0).UTC()}
		if err := j.Append(sentinel); err != nil {
			t.Fatalf("append after truncate: %v", err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j2, recs2, err := OpenJournalOptions(path, JournalOptions{})
		if err != nil {
			t.Fatalf("reopen after append: %v", err)
		}
		defer j2.Close()
		if len(recs2) != len(recs)+1 {
			t.Fatalf("reopen: %d records, want %d replayed + 1 appended", len(recs2), len(recs))
		}
		for i := range recs {
			if recs2[i].Type != recs[i].Type || recs2[i].Job != recs[i].Job {
				t.Fatalf("record %d changed across truncate+append: %+v != %+v", i, recs2[i], recs[i])
			}
		}
		if last := recs2[len(recs2)-1]; last.Type != RecShutdown || last.Job != "sentinel" {
			t.Fatalf("appended record corrupted: %+v", last)
		}
	})
}
