// Package store is the durability layer under the alignment job
// service: a write-ahead submit journal and a content-addressed
// on-disk result store.
//
// The journal is an append-only file of length-prefixed, CRC-checked
// records, made durable by group commit: appenders that arrive while a
// flush is in flight join one open group behind it, and the group's
// first member (the leader) writes and fsyncs the whole group at once
// when that flush ends, so fsyncs-per-record drops below one under
// concurrency while Append keeps its contract — it returns nil only
// after its record's group is on disk. Opening
// the journal replays every intact record and truncates a torn or
// corrupt tail (the expected shape of a crash mid-write), so the
// service can reconstruct its job table and re-enqueue
// journaled-but-unfinished work. Rewrite compacts the file atomically
// (temp file + rename) once the replayed state has been folded into
// fresh records.
//
// The result store keeps one file per content address (the service's
// SHA-256 cache key), written atomically and checksummed, bounded by
// entry count and total payload bytes with deterministic LRU eviction
// (LRU, the same index the service's in-memory tier uses). Every read
// goes through one verified path, Open's streaming reader, which checks
// the checksums and the declared length as the bytes flow, so serving a
// huge alignment never buffers it; Get is that reader read to the end.
package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Record kinds written by the job service. The store treats them as
// opaque; replay-time semantics live in the service.
const (
	RecSubmit   = "submit"
	RecFinish   = "finish"
	RecShutdown = "shutdown"
	// RecInterrupt marks a job hard-canceled by the shutdown path
	// itself (drain window expired with the job still queued/running).
	// Unlike a canceled finish it is not terminal at replay: the next
	// boot re-enqueues the job exactly like a crash victim.
	RecInterrupt = "interrupt"
	// RecCancel is the terminal kind earlier builds wrote for a canceled
	// job; nothing writes it now, and replay reads it as a finish.
	RecCancel = "cancel"
)

// Record is one journal entry: a typed envelope with a service-defined
// payload. Job and Key are first-class so replay can correlate records
// without decoding Data.
type Record struct {
	Type string          `json:"t"`
	Job  string          `json:"job,omitempty"`
	Key  string          `json:"key,omitempty"`
	Time time.Time       `json:"time"`
	Data json.RawMessage `json:"data,omitempty"`
}

// Castagnoli, like every other CRC in the ecosystem that cares about
// hardware support.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// maxRecordBytes rejects absurd length prefixes during replay; a frame
// this large is corruption, not data (submit payloads are bounded by
// the HTTP request cap far below this). Append enforces the same limit
// on the way in — a record replay would refuse to read must never be
// reported durable.
const maxRecordBytes = 1 << 30

// errRecordTooLarge is wrapped by Append/AppendBatch when a record's
// encoded payload exceeds the journal's record size limit. Nothing is
// written: an oversized frame would be acknowledged as durable and
// then silently discarded — along with every record after it — by the
// next replay.
var errRecordTooLarge = errors.New("store: record exceeds the journal record size limit")

var errJournalClosed = errors.New("store: journal is closed")

// JournalOptions configures a journal. The zero value is valid.
type JournalOptions struct {
	// OnFlush, if set, is called after each durable flush with the
	// records and framed bytes in the flushed group. Called without
	// journal locks held; it must not call back into the journal.
	OnFlush func(records, bytes int64)
}

// jgroup is one commit group: the framed units of every appender that
// joined it, in join order, written and fsync'd as a unit by its
// leader.
type jgroup struct {
	bufs  [][]byte
	bytes int64
	recs  int64
	done  chan struct{} // closed after the flush; err is valid then
	err   error
}

// Journal is the append-only write-ahead log. All methods are
// goroutine-safe.
type Journal struct {
	mu      sync.Mutex
	cond    *sync.Cond // signals: the flush in flight finished
	f       *os.File
	path    string
	records int64 // durable records (replayed + flushed)
	bytes   int64 // durable bytes; equals the file size while the tail is clean

	// Append rejects a record whose encoded payload exceeds
	// maxRecordBytes, which never exceeds the replay limit; in-package
	// tests lower it after OpenJournalOptions.
	maxRecordBytes int
	onFlush        func(records, bytes int64)

	cur      *jgroup // open group waiting behind the flush in flight, nil if none
	flushing bool    // a leader owns the file tail
	failed   error   // sticky: a failed flush left the tail untrustworthy

	flushes        int64 // write+fsync cycles since open
	flushedRecords int64 // records made durable by those flushes
}

// OpenJournalOptions opens (creating if needed) the journal at path,
// replays every intact record, truncates any corrupt or torn tail so
// that subsequent appends extend a clean prefix, and leaves the file
// open for appending. Creating the journal fsyncs its parent
// directory: without that, a crash shortly after boot could drop the
// directory entry — and with it every record already acknowledged as
// durable.
func OpenJournalOptions(path string, o JournalOptions) (*Journal, []Record, error) {
	_, statErr := os.Stat(path)
	created := errors.Is(statErr, os.ErrNotExist)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if created {
		syncDir(filepath.Dir(path))
	}
	recs, goodOff, err := replay(f)
	if err != nil {
		_ = f.Close()
		return nil, nil, err
	}
	if fi, err := f.Stat(); err == nil && fi.Size() > goodOff {
		// Torn tail: drop it so the next append starts at a record
		// boundary instead of extending garbage.
		if err := f.Truncate(goodOff); err != nil {
			_ = f.Close()
			return nil, nil, fmt.Errorf("store: truncating corrupt journal tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return nil, nil, fmt.Errorf("store: syncing truncated journal: %w", err)
		}
	}
	if _, err := f.Seek(goodOff, io.SeekStart); err != nil {
		_ = f.Close()
		return nil, nil, err
	}
	j := &Journal{
		f:              f,
		path:           path,
		records:        int64(len(recs)),
		bytes:          goodOff,
		maxRecordBytes: maxRecordBytes,
		onFlush:        o.OnFlush,
	}
	j.cond = sync.NewCond(&j.mu)
	return j, recs, nil
}

// replay scans framed records from the start of f, returning every
// intact record and the offset just past the last one. Any framing or
// checksum violation ends the scan silently — a crash can tear at any
// byte, so a bad tail is normal, not an error.
func replay(f *os.File) ([]Record, int64, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	size := fi.Size()
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, err
	}
	var (
		recs []Record
		off  int64
		hdr  [8]byte
	)
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			return recs, off, nil // clean EOF or torn header
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if length == 0 || length > maxRecordBytes ||
			int64(length) > size-off-int64(len(hdr)) {
			// Insane or past-EOF length prefix: corruption — don't
			// even allocate for it.
			return recs, off, nil
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(f, payload); err != nil {
			return recs, off, nil // torn payload
		}
		if crc32.Checksum(payload, crcTable) != sum {
			return recs, off, nil // flipped bits: stop at the last good record
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return recs, off, nil
		}
		recs = append(recs, rec)
		off += int64(len(hdr)) + int64(length)
	}
}

// frame encodes one record as [len][crc][payload], rejecting payloads
// over limit.
func frame(rec Record, limit int) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	if len(payload) > limit {
		return nil, fmt.Errorf("%w: %d > %d payload bytes", errRecordTooLarge, len(payload), limit)
	}
	buf := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, crcTable))
	copy(buf[8:], payload)
	return buf, nil
}

// Append writes one record durably: when Append returns nil the record
// survives a crash. Under concurrency the record shares its fsync with
// the other appenders queued behind the same flush.
func (j *Journal) Append(rec Record) error {
	return j.AppendBatch([]Record{rec})
}

// AppendBatch writes recs as one atomic unit of a commit group: all of
// them are covered by the same fsync, and either every record is
// enqueued or none is (an oversized member rejects the whole batch
// before any bytes are staged). A nil return means every record in the
// batch is durable.
func (j *Journal) AppendBatch(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	var buf []byte
	for _, rec := range recs {
		b, err := frame(rec, j.maxRecordBytes)
		if err != nil {
			return err
		}
		buf = append(buf, b...)
	}
	return j.commit(buf, int64(len(recs)))
}

// commit adds one already-framed unit (n records) to the open commit
// group and blocks until that group is durable or failed. An appender
// that finds no open group opens one and leads it: it waits while a
// flush is in flight — every appender arriving meanwhile joins its
// group — then detaches the group and flushes it with one write pass
// and one fsync. Groups flush strictly in the order they were opened:
// a new group can only open after this one detaches, and its leader
// waits for this flush to finish.
func (j *Journal) commit(buf []byte, n int64) error {
	j.mu.Lock()
	if err := j.unusable(); err != nil {
		j.mu.Unlock()
		return err
	}
	if g := j.cur; g != nil {
		g.bufs = append(g.bufs, buf)
		g.bytes += int64(len(buf))
		g.recs += n
		j.mu.Unlock()
		<-g.done
		return g.err
	}
	g := &jgroup{bufs: [][]byte{buf}, bytes: int64(len(buf)), recs: n, done: make(chan struct{})}
	j.cur = g
	for j.flushing {
		j.cond.Wait()
	}
	j.cur = nil
	defer close(g.done)
	if g.err = j.unusable(); g.err != nil {
		j.mu.Unlock()
		return g.err
	}
	f := j.f
	durable := j.bytes
	j.flushing = true
	j.mu.Unlock()

	var werr, flushErr, poison error
	for _, b := range g.bufs {
		if _, werr = f.Write(b); werr != nil {
			break
		}
	}
	if werr != nil {
		// A short or failed write leaves a torn frame at the tail.
		// Restore the clean prefix so later appends stay replayable; if
		// even that fails, poison the journal — appending past a torn
		// frame would write records replay can never reach.
		flushErr = werr
		terr := f.Truncate(durable)
		if terr == nil {
			_, terr = f.Seek(durable, io.SeekStart)
		}
		if terr != nil {
			poison = fmt.Errorf("store: journal tail unrecoverable after failed write (%v): %w", terr, werr)
		}
	} else if serr := f.Sync(); serr != nil {
		// After a failed fsync the kernel may have dropped the dirty
		// pages; nothing written since the last successful fsync can be
		// trusted, and retrying cannot bring it back.
		flushErr = serr
		poison = fmt.Errorf("store: journal poisoned by fsync failure: %w", serr)
	}

	j.mu.Lock()
	j.flushing = false
	if poison != nil && j.failed == nil {
		j.failed = poison
	}
	var hook func(records, bytes int64)
	if flushErr == nil {
		j.records += g.recs
		j.bytes += g.bytes
		j.flushes++
		j.flushedRecords += g.recs
		hook = j.onFlush
	}
	j.cond.Broadcast()
	j.mu.Unlock()

	if hook != nil {
		hook(g.recs, g.bytes)
	}
	g.err = flushErr
	return flushErr
}

// unusable reports why nothing more can be appended: a poisoned tail or
// a closed file. Callers must hold j.mu.
func (j *Journal) unusable() error {
	if j.failed != nil {
		return j.failed
	}
	if j.f == nil {
		return errJournalClosed
	}
	return nil
}

// Rewrite atomically replaces the journal's contents with recs
// (compaction): the new image is written to a temp file in the same
// directory, fsync'd, and renamed over the live journal, so a crash at
// any point leaves either the old or the new journal, never a mix.
func (j *Journal) Rewrite(recs []Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	for j.flushing {
		j.cond.Wait()
	}
	if err := j.unusable(); err != nil {
		return err
	}
	dir := filepath.Dir(j.path)
	tmp, err := os.CreateTemp(dir, ".journal-*")
	if err != nil {
		return err
	}
	fail := func(err error) error {
		_ = tmp.Close()
		_ = os.Remove(tmp.Name())
		return err
	}
	var total int64
	for _, rec := range recs {
		buf, err := frame(rec, j.maxRecordBytes)
		if err != nil {
			return fail(err)
		}
		if _, err := tmp.Write(buf); err != nil {
			return fail(err)
		}
		total += int64(len(buf))
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	// CreateTemp defaults to 0600; the journal must stay readable by
	// the same principals as before the compaction.
	if err := tmp.Chmod(0o644); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		return fail(err)
	}
	syncDir(dir)
	// The rename moved tmp's inode to the journal path, so the open tmp
	// handle IS the new journal — keep writing through it rather than
	// reopening (a failed reopen would leave appends going to the
	// replaced, unlinked inode while reporting durable success).
	_ = j.f.Close()
	j.f = tmp
	j.records = int64(len(recs))
	j.bytes = total
	return nil
}

// Records returns the number of durable records in the journal
// (replayed plus flushed since open).
func (j *Journal) Records() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.records
}

// Bytes returns the journal's durable size in bytes.
func (j *Journal) Bytes() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.bytes
}

// Flushes returns the number of write+fsync cycles since open. With
// group commit this is at most — and under concurrency well below —
// the number of records appended.
func (j *Journal) Flushes() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.flushes
}

// FlushedRecords returns the records made durable since open
// (excluding replayed ones). FlushedRecords/Flushes is the average
// commit group size.
func (j *Journal) FlushedRecords() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.flushedRecords
}

// Close closes the journal file after any in-flight flush finishes.
// Appends after Close fail; they do not panic, so a crashing server
// can be abandoned mid-operation. Records in groups that have not
// started flushing are dropped with an error to their appenders —
// none of them was ever acknowledged durable.
func (j *Journal) Close() error {
	j.mu.Lock()
	for j.flushing {
		j.cond.Wait()
	}
	if j.f == nil {
		j.mu.Unlock()
		return nil
	}
	f := j.f
	j.f = nil
	j.mu.Unlock()
	return f.Close()
}

// syncDir fsyncs a directory so a rename within it is durable;
// best-effort because some filesystems refuse directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}
