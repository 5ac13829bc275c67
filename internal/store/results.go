package store

import (
	"bytes"
	"compress/gzip"
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Result file layout ("SAR2"):
//
//	magic   [4]byte  "SAR2"
//	metaLen uint32   little-endian
//	metaCRC uint32   CRC32C of the meta bytes
//	payLen  uint64   little-endian, length of the COMPRESSED payload frame
//	payCRC  uint32   CRC32C of the COMPRESSED payload frame
//	rawLen  uint64   little-endian, decompressed payload length
//	meta    []byte   service-defined (JSON summary of the result)
//	payload []byte   gzip(the aligned FASTA)
//
// Payloads are gzipped at rest — aligned FASTA is highly redundant
// (gap runs, near-identical rows), so this multiplies the effective
// store capacity — and the CRC covers the compressed frame, so reads
// verify the cheap small frame, not the inflated bytes. Accounting
// (LRU byte bound, Bytes) follows the compressed size actually on
// disk.
//
// Files are written to a temp name and renamed into place, so a
// half-written result is never visible under its key; checksums catch
// bit rot and torn writes that survived the rename anyway, and a file
// that fails them — or carries any other magic — is deleted and treated
// as a miss.

var resultMagic = [4]byte{'S', 'A', 'R', '2'}

const resultHeaderLen = 4 + 4 + 4 + 8 + 4 + 8

// errCorrupt reports a result file whose checksum did not match; the
// streaming reader returns it from Read at the point of detection.
var errCorrupt = errors.New("store: result file corrupt")

// Results is the bounded content-addressed result store. All methods
// are goroutine-safe. Eviction is strict LRU over Put/Get/Open
// recency, so for a deterministic access sequence the surviving set is
// deterministic.
type Results struct {
	dir        string
	maxEntries int
	maxBytes   int64

	mu        sync.Mutex
	ll        *list.List // front = most recently used
	items     map[string]*list.Element
	bytes     int64
	evictions int64
}

type resultEntry struct {
	key  string
	size int64 // payload bytes, the accounting unit (mirrors the memory cache)
}

// OpenResults opens (creating if needed) a result store rooted at dir,
// scanning existing files to rebuild the index. Entries are ordered
// oldest-first by (mtime, key) so eviction after a restart is
// deterministic for identical on-disk states. Either bound <= 0 means
// "no bound on that axis".
func OpenResults(dir string, maxEntries int, maxBytes int64) (*Results, error) {
	_, statErr := os.Stat(dir)
	created := errors.Is(statErr, os.ErrNotExist)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if created {
		// The store directory itself must be durable before the first
		// Put fsyncs a rename inside it — otherwise a crash could drop
		// the whole directory along with every "durably" stored result.
		syncDir(filepath.Dir(dir))
	}
	s := &Results{
		dir:        dir,
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		items:      make(map[string]*list.Element),
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type scanned struct {
		key   string
		size  int64
		mtime int64
	}
	var found []scanned
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		path := filepath.Join(dir, name)
		if strings.HasPrefix(name, ".") { // orphaned temp file from a crash mid-Put
			_ = os.Remove(path)
			continue
		}
		size, ok := statResult(path)
		if !ok {
			_ = os.Remove(path) // unreadable or inconsistent header: not a result
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		found = append(found, scanned{key: name, size: size, mtime: info.ModTime().UnixNano()})
	}
	sort.Slice(found, func(i, j int) bool {
		if found[i].mtime != found[j].mtime {
			return found[i].mtime < found[j].mtime
		}
		return found[i].key < found[j].key
	})
	for _, sc := range found {
		s.items[sc.key] = s.ll.PushFront(&resultEntry{key: sc.key, size: sc.size})
		s.bytes += sc.size
	}
	s.evictLocked()
	return s, nil
}

// statResult reads and sanity-checks a result file header, returning
// the on-disk payload size (the accounting unit). Full checksum
// verification is deferred to reads.
func statResult(path string) (int64, bool) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false
	}
	defer func() { _ = f.Close() }() // read-only open
	hdr, err := readHeader(f)
	if err != nil {
		return 0, false
	}
	fi, err := f.Stat()
	if err != nil {
		return 0, false
	}
	if fi.Size() != resultHeaderLen+int64(hdr.metaLen)+hdr.payLen {
		return 0, false // truncated or padded: treat as corrupt
	}
	return hdr.payLen, true
}

// resultHeader is a decoded result file header.
type resultHeader struct {
	metaLen uint32
	metaCRC uint32
	payLen  int64 // compressed bytes on disk
	payCRC  uint32
	rawLen  int64 // decompressed payload length
}

func readHeader(r io.Reader) (resultHeader, error) {
	var hdr [resultHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return resultHeader{}, err
	}
	if [4]byte(hdr[0:4]) != resultMagic {
		return resultHeader{}, errCorrupt
	}
	h := resultHeader{
		metaLen: binary.LittleEndian.Uint32(hdr[4:8]),
		metaCRC: binary.LittleEndian.Uint32(hdr[8:12]),
		payLen:  int64(binary.LittleEndian.Uint64(hdr[12:20])),
		payCRC:  binary.LittleEndian.Uint32(hdr[20:24]),
		rawLen:  int64(binary.LittleEndian.Uint64(hdr[24:32])),
	}
	if h.metaLen > maxRecordBytes || h.payLen < 0 || h.payLen > 1<<40 ||
		h.rawLen < 0 || h.rawLen > 1<<40 {
		return resultHeader{}, errCorrupt
	}
	return h, nil
}

// Put stores (meta, payload) under key with an atomic temp-file +
// rename write, then evicts LRU entries until both bounds hold. The
// payload is gzipped at rest; a payload whose compressed frame exceeds
// the byte bound is not stored. Re-putting an existing key only
// refreshes its recency (content-addressed: same key, same bytes).
func (s *Results) Put(key string, meta, payload []byte) error {
	if !validKey(key) {
		return fmt.Errorf("store: invalid result key %q", key)
	}
	s.mu.Lock()
	if el, ok := s.items[key]; ok {
		s.ll.MoveToFront(el)
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()

	var frame bytes.Buffer
	zw := gzip.NewWriter(&frame)
	if _, err := zw.Write(payload); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	if s.maxBytes > 0 && int64(frame.Len()) > s.maxBytes {
		return nil
	}

	tmp, err := os.CreateTemp(s.dir, ".put-*")
	if err != nil {
		return err
	}
	// After a successful rename the Remove fails with ENOENT, harmlessly.
	defer func() { _ = os.Remove(tmp.Name()) }()
	var hdr [resultHeaderLen]byte
	copy(hdr[0:4], resultMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(meta)))
	binary.LittleEndian.PutUint32(hdr[8:12], crc32.Checksum(meta, crcTable))
	binary.LittleEndian.PutUint64(hdr[12:20], uint64(frame.Len()))
	binary.LittleEndian.PutUint32(hdr[20:24], crc32.Checksum(frame.Bytes(), crcTable))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(len(payload)))
	for _, chunk := range [][]byte{hdr[:], meta, frame.Bytes()} {
		if _, err := tmp.Write(chunk); err != nil {
			_ = tmp.Close()
			return err
		}
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, key)); err != nil {
		return err
	}
	syncDir(s.dir)

	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok { // concurrent Put of the same key won
		s.ll.MoveToFront(el)
		return nil
	}
	s.items[key] = s.ll.PushFront(&resultEntry{key: key, size: int64(frame.Len())})
	s.bytes += int64(frame.Len())
	s.evictLocked()
	return nil
}

func (s *Results) evictLocked() {
	for (s.maxEntries > 0 && s.ll.Len() > s.maxEntries) ||
		(s.maxBytes > 0 && s.bytes > s.maxBytes) {
		back := s.ll.Back()
		if back == nil {
			return
		}
		ent := back.Value.(*resultEntry)
		s.ll.Remove(back)
		delete(s.items, ent.key)
		s.bytes -= ent.size
		s.evictions++
		_ = os.Remove(filepath.Join(s.dir, ent.key)) // rescan reaps any survivor
	}
}

// dropLocked removes a corrupt entry discovered during a read.
func (s *Results) drop(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		ent := el.Value.(*resultEntry)
		s.ll.Remove(el)
		delete(s.items, key)
		s.bytes -= ent.size
	}
	_ = os.Remove(filepath.Join(s.dir, key)) // rescan reaps any survivor
}

// touch refreshes key's recency; reports whether it is indexed.
func (s *Results) touch(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if ok {
		s.ll.MoveToFront(el)
	}
	return ok
}

// Get reads and fully verifies the result under key. Corruption
// (checksum or framing mismatch) deletes the file and reports a miss —
// the caller recomputes, exactly as for an evicted entry.
func (s *Results) Get(key string) (meta, payload []byte, ok bool) {
	if !validKey(key) || !s.touch(key) {
		return nil, nil, false
	}
	f, err := os.Open(filepath.Join(s.dir, key))
	if err != nil {
		s.drop(key)
		return nil, nil, false
	}
	defer func() { _ = f.Close() }() // read-only open
	hdr, err := readHeader(f)
	if err != nil {
		s.drop(key)
		return nil, nil, false
	}
	meta = make([]byte, hdr.metaLen)
	frame := make([]byte, hdr.payLen)
	if _, err := io.ReadFull(f, meta); err != nil {
		s.drop(key)
		return nil, nil, false
	}
	if _, err := io.ReadFull(f, frame); err != nil {
		s.drop(key)
		return nil, nil, false
	}
	if crc32.Checksum(meta, crcTable) != hdr.metaCRC || crc32.Checksum(frame, crcTable) != hdr.payCRC {
		s.drop(key)
		return nil, nil, false
	}
	zr, err := gzip.NewReader(bytes.NewReader(frame))
	if err != nil {
		s.drop(key)
		return nil, nil, false
	}
	payload = make([]byte, hdr.rawLen)
	if _, err := io.ReadFull(zr, payload); err != nil {
		s.drop(key)
		return nil, nil, false
	}
	// The frame must inflate to exactly rawLen bytes: a longer stream
	// means the header lies about the payload.
	if n, err := zr.Read(make([]byte, 1)); n != 0 || err != io.EOF {
		s.drop(key)
		return nil, nil, false
	}
	return meta, payload, true
}

// Open returns the verified meta plus a streaming reader over the
// decompressed payload, so the caller can serve a result without
// buffering it. size is the decompressed payload length. The
// compressed frame's checksum is verified incrementally as decompression
// pulls it; if the bytes on disk do not add up, the reader returns
// errCorrupt at the point of detection (after which the entry has been
// dropped) — by then earlier bytes may already have been sent, which
// is why streaming consumers must be able to abort (chunked HTTP
// transfer does this naturally).
func (s *Results) Open(key string) (meta []byte, r io.ReadCloser, size int64, ok bool) {
	if !validKey(key) || !s.touch(key) {
		return nil, nil, 0, false
	}
	f, err := os.Open(filepath.Join(s.dir, key))
	if err != nil {
		s.drop(key)
		return nil, nil, 0, false
	}
	hdr, err := readHeader(f)
	if err != nil {
		_ = f.Close()
		s.drop(key)
		return nil, nil, 0, false
	}
	meta = make([]byte, hdr.metaLen)
	if _, err := io.ReadFull(f, meta); err != nil || crc32.Checksum(meta, crcTable) != hdr.metaCRC {
		_ = f.Close()
		s.drop(key)
		return nil, nil, 0, false
	}
	vr := &verifyReader{
		r:    io.LimitReader(f, hdr.payLen),
		f:    f,
		want: hdr.payCRC,
		left: hdr.payLen,
		bad:  func() { s.drop(key) },
	}
	zr, err := gzip.NewReader(vr)
	if err != nil {
		// Already-corrupt gzip header: verifyReader may not have seen
		// EOF yet, so drop explicitly.
		s.drop(key)
		_ = f.Close()
		return nil, nil, 0, false
	}
	return meta, &gunzipReader{z: zr, vr: vr, bad: func() { s.drop(key) }}, hdr.rawLen, true
}

// gunzipReader streams the decompressed payload. Errors from the
// compressed layer (CRC mismatch from verifyReader) or the gzip frame
// itself (bad block, gzip's own checksum) surface as errCorrupt and
// drop the entry.
type gunzipReader struct {
	z   *gzip.Reader
	vr  *verifyReader
	bad func()
}

func (g *gunzipReader) Read(p []byte) (int, error) {
	n, err := g.z.Read(p)
	if err != nil && err != io.EOF {
		if g.bad != nil {
			g.bad()
			g.bad = nil
		}
		return n, errCorrupt
	}
	return n, err
}

func (g *gunzipReader) Close() error {
	_ = g.z.Close() // vr.Close carries the CRC verdict
	return g.vr.Close()
}

// verifyReader streams a payload while accumulating its CRC; EOF is
// only reported once the checksum matches, otherwise errCorrupt.
type verifyReader struct {
	r    io.Reader
	f    *os.File
	want uint32
	sum  uint32
	left int64
	bad  func()
}

func (v *verifyReader) Read(p []byte) (int, error) {
	n, err := v.r.Read(p)
	if n > 0 {
		v.sum = crc32.Update(v.sum, crcTable, p[:n])
		v.left -= int64(n)
	}
	if err == io.EOF {
		if v.left != 0 || v.sum != v.want {
			if v.bad != nil {
				v.bad()
				v.bad = nil
			}
			return n, errCorrupt
		}
	}
	return n, err
}

func (v *verifyReader) Close() error { return v.f.Close() }

// Len returns the number of stored results.
func (s *Results) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}

// Bytes returns the accounted payload bytes on disk.
func (s *Results) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Evictions returns the number of results evicted since open.
func (s *Results) Evictions() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evictions
}

// Keys returns stored keys from most to least recently used (tests).
func (s *Results) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, s.ll.Len())
	for el := s.ll.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*resultEntry).key)
	}
	return keys
}

// validKey accepts only lowercase-hex content addresses: result keys
// name files, so anything else (path separators, dots) is refused
// outright rather than sanitized.
func validKey(key string) bool {
	if key == "" || len(key) > 128 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
