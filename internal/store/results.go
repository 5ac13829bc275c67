package store

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
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
// verify the cheap small frame, not the inflated bytes. No checksum
// covers rawLen, so every read checks it at EOF instead: the frame must
// inflate to exactly rawLen bytes, and nothing is ever allocated from
// it. Accounting (LRU byte bound, Bytes) follows each file's whole
// size on disk: header, meta and compressed frame.
//
// Files are written to a temp name and renamed into place, so a
// half-written result is never visible under its key; checksums catch
// bit rot and torn writes that survived the rename anyway, and a file
// that fails them — or carries any other magic — is deleted and treated
// as a miss.

var resultMagic = [4]byte{'S', 'A', 'R', '2'}

const resultHeaderLen = 4 + 4 + 4 + 8 + 4 + 8

// errCorrupt reports a result file that failed verification; the
// payload reader returns it from Read at the point of detection.
var errCorrupt = errors.New("store: result file corrupt")

// Results is the bounded content-addressed result store. All methods
// are goroutine-safe. Eviction is strict LRU over Put/Get/Open
// recency, so for a deterministic access sequence the surviving set is
// deterministic.
type Results struct {
	dir   string
	index *LRU[struct{}] // keys on disk, sized by their files
}

// OpenResults opens (creating if needed) a result store rooted at dir,
// scanning existing files to rebuild the index. Entries are ordered
// oldest-first by (mtime, key) so eviction after a restart is
// deterministic for identical on-disk states; Put and Open keep each
// file's mtime at its last use, so that order is the recency order the
// store had before. Either bound <= 0 means "no bound on that axis".
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
	s := &Results{dir: dir, index: NewLRU[struct{}](maxEntries, maxBytes)}
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
		if !isResult(path) {
			_ = os.Remove(path) // unreadable or inconsistent header: not a result
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		// The file's whole size, which isResult checked against its
		// header: the unit Put counts.
		found = append(found, scanned{key: name, size: info.Size(), mtime: info.ModTime().UnixNano()})
	}
	sort.Slice(found, func(i, j int) bool {
		if found[i].mtime != found[j].mtime {
			return found[i].mtime < found[j].mtime
		}
		return found[i].key < found[j].key
	})
	for _, sc := range found {
		s.remove(s.index.Put(sc.key, struct{}{}, sc.size))
	}
	return s, nil
}

// isResult sanity-checks a result file's header at the open-time
// rescan. Checksums and rawLen are verified by reads.
func isResult(path string) bool {
	f, _, err := openResultFile(path)
	if err == nil {
		_ = f.Close() // read-only open
	}
	return err == nil
}

// resultHeader is a decoded result file header.
type resultHeader struct {
	metaLen uint32
	metaCRC uint32
	payLen  int64 // compressed bytes on disk
	payCRC  uint32
	rawLen  int64 // decompressed payload length
}

// openResultFile opens a result file and decodes its header, which must
// account for the file's size exactly (a truncated or padded file is
// corrupt), so the meta and frame lengths it declares are backed by
// bytes on disk. On success f is positioned at the meta bytes.
func openResultFile(path string) (f *os.File, hdr resultHeader, err error) {
	f, err = os.Open(path)
	if err != nil {
		return nil, hdr, err
	}
	hdr, err = readHeader(f)
	if err == nil {
		var fi os.FileInfo
		fi, err = f.Stat()
		if err == nil && fi.Size() != resultHeaderLen+int64(hdr.metaLen)+hdr.payLen {
			err = errCorrupt
		}
	}
	if err != nil {
		_ = f.Close() // read-only open
		return nil, hdr, err
	}
	return f, hdr, nil
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
// payload is gzipped at rest; a file that alone would exceed the byte
// bound is not written, and Put says so. Re-putting an existing key
// only refreshes its recency (content-addressed: same key, same bytes).
func (s *Results) Put(key string, meta, payload []byte) error {
	if !validKey(key) {
		return fmt.Errorf("store: invalid result key %q", key)
	}
	if _, ok := s.index.Get(key); ok {
		s.touch(key)
		return nil
	}

	var frame bytes.Buffer
	zw := gzip.NewWriter(&frame)
	if _, err := zw.Write(payload); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	size := resultHeaderLen + int64(len(meta)) + int64(frame.Len())
	if !s.index.fits(size) {
		return fmt.Errorf("store: result %s is %d bytes, over the %d-byte bound", key, size, s.index.maxBytes)
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
	// A concurrent Put of the same key may have won; Put then only
	// refreshes it.
	s.remove(s.index.Put(key, struct{}{}, size))
	return nil
}

// remove deletes the files of keys the index no longer holds.
func (s *Results) remove(keys []string) {
	for _, key := range keys {
		_ = os.Remove(filepath.Join(s.dir, key)) // rescan reaps any survivor
	}
}

// touch carries a recency refresh to the file's mtime, which the
// open-time rescan orders by. Best effort: the mtime is only a hint.
func (s *Results) touch(key string) {
	_ = os.Chtimes(filepath.Join(s.dir, key), time.Time{}, time.Now())
}

// drop removes a corrupt entry discovered during a read.
func (s *Results) drop(key string) {
	s.index.remove(key)
	s.remove([]string{key})
}

// Get reads the whole result under key through Open, so it makes every
// check a streamed read makes. Corruption deletes the file and reports
// a miss — the caller recomputes, exactly as for an evicted entry.
func (s *Results) Get(key string) (meta, payload []byte, ok bool) {
	meta, r, _, ok := s.Open(key)
	if !ok {
		return nil, nil, false
	}
	defer func() { _ = r.Close() }() // read side; corruption surfaces from ReadAll
	payload, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, false
	}
	return meta, payload, true
}

// Open returns the verified meta plus a streaming reader over the
// decompressed payload, so the caller can serve a result without
// buffering it; it is the store's one read path. size is the
// decompressed payload length the header declares, which the reader
// enforces. The compressed frame's checksum is verified incrementally
// as decompression pulls it, and the inflated length is checked against
// size; if the bytes on disk do not add up, the reader returns
// errCorrupt at the point of detection (after which the entry has been
// dropped) — by then earlier bytes may already have been sent, which
// is why streaming consumers must be able to abort (chunked HTTP
// transfer does this naturally).
func (s *Results) Open(key string) (meta []byte, r io.ReadCloser, size int64, ok bool) {
	if !validKey(key) {
		return nil, nil, 0, false
	}
	if _, ok := s.index.Get(key); !ok {
		return nil, nil, 0, false
	}
	s.touch(key)
	f, hdr, err := openResultFile(filepath.Join(s.dir, key))
	if err != nil {
		s.drop(key)
		return nil, nil, 0, false
	}
	meta = make([]byte, hdr.metaLen)
	if _, err := io.ReadFull(f, meta); err != nil || crc32.Checksum(meta, crcTable) != hdr.metaCRC {
		_ = f.Close()
		s.drop(key)
		return nil, nil, 0, false
	}
	zr, err := gzip.NewReader(&crcReader{r: io.LimitReader(f, hdr.payLen), want: hdr.payCRC, left: hdr.payLen})
	if err != nil {
		_ = f.Close()
		s.drop(key)
		return nil, nil, 0, false
	}
	return meta, &payloadReader{z: zr, f: f, left: hdr.rawLen, drop: func() { s.drop(key) }}, hdr.rawLen, true
}

// payloadReader streams the decompressed payload. Errors from the
// compressed layer (a CRC or length mismatch from crcReader) or the
// gzip frame itself (bad block, gzip's own checksum), and an inflated
// length other than the header's rawLen, surface as errCorrupt and
// drop the entry.
type payloadReader struct {
	z    *gzip.Reader
	f    *os.File
	left int64 // inflated bytes the header still promises
	drop func()
}

func (p *payloadReader) Read(b []byte) (int, error) {
	n, err := p.z.Read(b)
	p.left -= int64(n)
	if (err != nil && err != io.EOF) || p.left < 0 || (err == io.EOF && p.left != 0) {
		if p.drop != nil {
			p.drop()
			p.drop = nil
		}
		return n, errCorrupt
	}
	return n, err
}

func (p *payloadReader) Close() error {
	_ = p.z.Close() // reads carry the verdict
	return p.f.Close()
}

// crcReader streams a compressed frame while accumulating its CRC; EOF
// is only reported once the whole frame is read and the checksum
// matches, otherwise errCorrupt.
type crcReader struct {
	r    io.Reader
	want uint32
	sum  uint32
	left int64
}

func (v *crcReader) Read(p []byte) (int, error) {
	n, err := v.r.Read(p)
	v.sum = crc32.Update(v.sum, crcTable, p[:n])
	v.left -= int64(n)
	if err == io.EOF && (v.left != 0 || v.sum != v.want) {
		return n, errCorrupt
	}
	return n, err
}

// Len returns the number of stored results.
func (s *Results) Len() int { return s.index.Len() }

// Bytes returns the size of the stored files.
func (s *Results) Bytes() int64 { return s.index.Bytes() }

// Evictions returns the number of results evicted since open.
func (s *Results) Evictions() int64 { return s.index.Evictions() }

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
