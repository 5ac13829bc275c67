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
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// tkey makes a valid (hex) store key from a short name.
func tkey(n int) string { return fmt.Sprintf("%02x", n) }

// gzLen returns the size of a payload's gzipped at-rest frame.
func gzLen(p []byte) int64 {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(p)
	zw.Close()
	return int64(buf.Len())
}

// fileLen returns the size of the file Put writes for (meta, payload):
// the store's accounting unit.
func fileLen(meta, payload []byte) int64 {
	return resultHeaderLen + int64(len(meta)) + gzLen(payload)
}

func openStore(t *testing.T, dir string, maxEntries int, maxBytes int64) *Results {
	t.Helper()
	s, err := OpenResults(dir, maxEntries, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestResultsRoundTrip(t *testing.T) {
	s := openStore(t, t.TempDir(), 0, 0)
	meta := []byte(`{"num_seqs":3}`)
	payload := []byte(">a\nACDEF\n>b\nACD-F\n>c\nAC-EF\n")
	if err := s.Put("ab12", meta, payload); err != nil {
		t.Fatal(err)
	}
	gotMeta, gotPayload, ok := s.Get("ab12")
	if !ok || !bytes.Equal(gotMeta, meta) || !bytes.Equal(gotPayload, payload) {
		t.Fatalf("Get: ok=%v meta=%q payload=%q", ok, gotMeta, gotPayload)
	}
	if s.Len() != 1 || s.Bytes() != fileLen(meta, payload) {
		t.Fatalf("Len=%d Bytes=%d, want 1/%d", s.Len(), s.Bytes(), fileLen(meta, payload))
	}
	if _, _, ok := s.Get("cd34"); ok {
		t.Fatal("Get of a missing key succeeded")
	}
	// Invalid keys (path traversal shapes) are refused outright.
	if err := s.Put("../escape", meta, payload); err == nil {
		t.Fatal("Put accepted a non-hex key")
	}
	if _, _, ok := s.Get("../escape"); ok {
		t.Fatal("Get accepted a non-hex key")
	}
}

func TestResultsStreamingOpen(t *testing.T) {
	s := openStore(t, t.TempDir(), 0, 0)
	payload := []byte(strings.Repeat(">s\nACDEFGHIKLMNPQRSTVWY\n", 4096))
	if err := s.Put("0a1b", []byte(`{}`), payload); err != nil {
		t.Fatal(err)
	}
	meta, rc, size, ok := s.Open("0a1b")
	if !ok {
		t.Fatal("Open missed a stored key")
	}
	defer rc.Close()
	if string(meta) != "{}" || size != int64(len(payload)) {
		t.Fatalf("Open meta=%q size=%d", meta, size)
	}
	got, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("streamed %d bytes differ from stored %d", len(got), len(payload))
	}
}

func TestResultsCorruptionIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, 0, 0)
	payload := []byte(strings.Repeat("ACDEFGHIKL", 100))
	if err := s.Put("ff01", []byte(`{}`), payload); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte on disk.
	path := filepath.Join(dir, "ff01")
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-10] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Get("ff01"); ok {
		t.Fatal("Get returned corrupt payload")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt file was not deleted")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after corruption drop", s.Len())
	}
}

func TestResultsStreamingDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, 0, 0)
	payload := []byte(strings.Repeat("ACDEFGHIKL", 1000))
	if err := s.Put("ff02", []byte(`{}`), payload); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "ff02")
	buf, _ := os.ReadFile(path)
	buf[len(buf)-1] ^= 0xff
	os.WriteFile(path, buf, 0o644)

	_, rc, _, ok := s.Open("ff02")
	if !ok {
		t.Fatal("Open refused (header is intact; corruption is in the payload)")
	}
	defer rc.Close()
	if _, err := io.ReadAll(rc); err == nil {
		t.Fatal("streaming a corrupt payload reported clean EOF")
	}
	if s.Len() != 0 {
		t.Fatal("corrupt entry not dropped after streaming detection")
	}
}

// lieAboutRawLen rewrites the stored header's rawLen (bytes 24–32), the
// one field no checksum covers, to claim a 1 GiB payload.
func lieAboutRawLen(t *testing.T, path string) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(buf[24:32], 1<<30)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestResultsRawLenLieIsAMiss: a header that lies about the inflated
// length is corrupt on both read paths, and no read allocates what the
// lie asks for.
func TestResultsRawLenLieIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, 0, 0)
	payload := []byte(strings.Repeat("ACDEFGHIKL", 100))
	path := filepath.Join(dir, "ff03")
	putLie := func() {
		t.Helper()
		if err := s.Put("ff03", []byte(`{}`), payload); err != nil {
			t.Fatal(err)
		}
		lieAboutRawLen(t, path)
	}
	dropped := func(how string) {
		t.Helper()
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("%s: lying file was not deleted", how)
		}
		if s.Len() != 0 {
			t.Fatalf("%s: Len = %d after the drop", how, s.Len())
		}
	}

	putLie()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, ok := s.Get("ff03")
	runtime.ReadMemStats(&after)
	if ok {
		t.Fatal("Get returned a payload whose header lies about its length")
	}
	if mib := (after.TotalAlloc - before.TotalAlloc) >> 20; mib >= 16 {
		t.Fatalf("Get allocated %d MiB for a %d-byte payload", mib, len(payload))
	}
	dropped("Get")

	putLie()
	_, rc, _, ok := s.Open("ff03")
	if !ok {
		t.Fatal("Open refused (the lie is only visible at EOF)")
	}
	defer rc.Close()
	if _, err := io.ReadAll(rc); !errors.Is(err, errCorrupt) {
		t.Fatalf("streaming a lying header ended in %v, want errCorrupt", err)
	}
	dropped("Open")
}

func TestResultsEvictionDeterminism(t *testing.T) {
	s := openStore(t, t.TempDir(), 3, 0)
	pay := func(n int) []byte { return bytes.Repeat([]byte{'A'}, 10+n) }
	for i := 1; i <= 5; i++ {
		if err := s.Put(tkey(i), []byte(`{}`), pay(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Strict LRU: the three most recent puts survive, oldest first out.
	if got, want := s.index.keys(), []string{tkey(5), tkey(4), tkey(3)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after 5 puts: %v, want %v", got, want)
	}
	if s.Evictions() != 2 {
		t.Fatalf("evictions = %d, want 2", s.Evictions())
	}
	// A Get refreshes recency deterministically.
	if _, _, ok := s.Get(tkey(3)); !ok {
		t.Fatal("expected tkey(3) present")
	}
	if err := s.Put(tkey(6), []byte(`{}`), pay(6)); err != nil {
		t.Fatal(err)
	}
	if got, want := s.index.keys(), []string{tkey(6), tkey(3), tkey(5)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after Get+Put: %v, want %v", got, want)
	}

	// Byte bound (on the whole files): a store capped at two-and-a-half
	// files holds at most two of these results.
	small := bytes.Repeat([]byte{'B'}, 12)
	frame := fileLen([]byte(`{}`), small)
	s2 := openStore(t, t.TempDir(), 0, 2*frame+frame/2)
	for i := 1; i <= 4; i++ {
		if err := s2.Put(tkey(10+i), []byte(`{}`), small); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := s2.index.keys(), []string{tkey(14), tkey(13)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("byte-bounded keys: %v, want %v", got, want)
	}
	// A result whose file alone would exceed the bound is refused
	// outright with an error, evicting nothing.
	big := make([]byte, 4096)
	for i := range big {
		big[i] = byte(i*131 + i>>3) // poorly compressible
	}
	if gzLen(big) <= 2*frame+frame/2 {
		t.Fatalf("test payload compresses to %d, not oversized", gzLen(big))
	}
	if err := s2.Put(tkey(20), []byte(`{}`), big); err == nil {
		t.Fatal("Put of an oversized result reported success")
	}
	if got, want := s2.index.keys(), []string{tkey(14), tkey(13)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after oversized put: %v, want %v", got, want)
	}
}

func TestResultsRestartRebuildsIndex(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, 0, 0)
	var wantBytes int64
	for i := 1; i <= 3; i++ {
		payload := bytes.Repeat([]byte{'A'}, 100*i)
		if err := s.Put(tkey(i), []byte(`{}`), payload); err != nil {
			t.Fatal(err)
		}
		wantBytes += fileLen([]byte(`{}`), payload)
		// Distinct mtimes so the rebuilt recency order is deterministic.
		mt := time.Now().Add(time.Duration(i) * time.Hour)
		if err := os.Chtimes(filepath.Join(dir, tkey(i)), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	// Leave a stray temp file behind, as a crash mid-Put would.
	if err := os.WriteFile(filepath.Join(dir, ".put-stray"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, 0, 0)
	if s2.Len() != 3 || s2.Bytes() != wantBytes {
		t.Fatalf("rebuilt: Len=%d Bytes=%d, want 3/%d", s2.Len(), s2.Bytes(), wantBytes)
	}
	if got, want := s2.index.keys(), []string{tkey(3), tkey(2), tkey(1)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("rebuilt recency: %v, want %v", got, want)
	}
	if _, err := os.Stat(filepath.Join(dir, ".put-stray")); !os.IsNotExist(err) {
		t.Fatal("stray temp file survived the scan")
	}
	// Reopening with tighter bounds evicts deterministically (oldest
	// mtime first).
	s3 := openStore(t, dir, 2, 0)
	if got, want := s3.index.keys(), []string{tkey(3), tkey(2)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("bounded reopen: %v, want %v", got, want)
	}
}

// TestResultsRescanMatchesPut: the open-time rescan sizes each file as
// Put counted it — the whole file, meta included — and rebuilds the
// recency order Put left, so the byte bound and the eviction order
// mean the same after a reopen as before it.
func TestResultsRescanMatchesPut(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, 0, 0)
	for i := 1; i <= 4; i++ {
		// Metas of different sizes, as traces make them. Keys ascend in
		// Put order, so files sharing an mtime still rescan in that order.
		meta := bytes.Repeat([]byte{'m'}, 300*(5-i))
		if err := s.Put(tkey(i), meta, bytes.Repeat([]byte{'A'}, 100*i)); err != nil {
			t.Fatal(err)
		}
	}
	sizes := func(r *Results) map[string]int64 {
		m := make(map[string]int64)
		for key, el := range r.index.items {
			m[key] = el.Value.(*lruEntry[struct{}]).size
		}
		return m
	}
	put := sizes(s)
	for key, size := range put {
		fi, err := os.Stat(filepath.Join(dir, key))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != size {
			t.Fatalf("Put counted %d bytes for %s, its file has %d", size, key, fi.Size())
		}
	}

	s2 := openStore(t, dir, 0, 0)
	if got := sizes(s2); !reflect.DeepEqual(got, put) {
		t.Fatalf("rescan sizes %v, Put counted %v", got, put)
	}
	if got, want := s2.index.keys(), s.index.keys(); !reflect.DeepEqual(got, want) {
		t.Fatalf("rescan recency %v, before the reopen %v", got, want)
	}
	// One byte under what Put counted: the reopen evicts exactly the
	// entry the store would have evicted next before it.
	before := s.index.keys()
	s3 := openStore(t, dir, 0, s.Bytes()-1)
	if got, want := s3.index.keys(), before[:len(before)-1]; !reflect.DeepEqual(got, want) {
		t.Fatalf("bounded reopen kept %v, want %v", got, want)
	}
	if _, err := os.Stat(filepath.Join(dir, before[len(before)-1])); !os.IsNotExist(err) {
		t.Fatalf("evicted file still on disk: %v", err)
	}
}

// TestResultsRescanKeepsUseRecency: a read and a re-Put of a held key
// refresh the file's mtime as well as the in-memory order, so after a
// reopen the store evicts what it would have evicted before it.
func TestResultsRescanKeepsUseRecency(t *testing.T) {
	for _, use := range []string{"get", "open", "re-put"} {
		t.Run(use, func(t *testing.T) {
			dir := t.TempDir()
			s := openStore(t, dir, 0, 0)
			a, b, c := tkey(1), tkey(2), tkey(3)
			for _, key := range []string{a, b} {
				if err := s.Put(key, []byte(`{}`), []byte("ACGT")); err != nil {
					t.Fatal(err)
				}
			}
			// a written before b, both well in the past: the use of a below
			// moves it past b at any mtime granularity, with no sleep.
			past := time.Now().Add(-time.Hour)
			for i, key := range []string{a, b} {
				at := past.Add(time.Duration(i) * time.Second)
				if err := os.Chtimes(filepath.Join(dir, key), at, at); err != nil {
					t.Fatal(err)
				}
			}
			switch use {
			case "get":
				if _, _, ok := s.Get(a); !ok {
					t.Fatal("Get missed")
				}
			case "open":
				_, rc, _, ok := s.Open(a)
				if !ok {
					t.Fatal("Open missed")
				}
				rc.Close()
			case "re-put":
				if err := s.Put(a, []byte(`{}`), []byte("ACGT")); err != nil {
					t.Fatal(err)
				}
			}
			s2 := openStore(t, dir, 2, 0)
			if err := s2.Put(c, []byte(`{}`), []byte("ACGT")); err != nil {
				t.Fatal(err)
			}
			if got, want := s2.index.keys(), []string{c, a}; !reflect.DeepEqual(got, want) {
				t.Fatalf("after the reopen the store holds %v, want %v (b least recently used)", got, want)
			}
			if _, err := os.Stat(filepath.Join(dir, b)); !os.IsNotExist(err) {
				t.Fatalf("evicted file still on disk: %v", err)
			}
		})
	}
}

func TestResultsConcurrentAccess(t *testing.T) {
	s := openStore(t, t.TempDir(), 8, 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				key := tkey(i % 12)
				payload := bytes.Repeat([]byte{'A'}, 64)
				if err := s.Put(key, []byte(`{}`), payload); err != nil {
					t.Error(err)
					return
				}
				if _, pl, ok := s.Get(key); ok && len(pl) != 64 {
					t.Errorf("payload len %d", len(pl))
					return
				}
				if _, rc, _, ok := s.Open(key); ok {
					io.Copy(io.Discard, rc)
					rc.Close()
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() > 8 {
		t.Fatalf("Len = %d exceeds bound", s.Len())
	}
}

// TestResultsReadsV1Files: the pre-gzip "SAR1" format (raw payload,
// 24-byte header) was never deployed and has no reader. A well-formed
// SAR1 file is what any file with another magic is: not a result — a
// miss, and removed at the scan.
func TestResultsReadsV1Files(t *testing.T) {
	dir := t.TempDir()
	meta := []byte(`{"num_seqs":2}`)
	payload := []byte(">a\nACDEF\n>b\nAC-EF\n")
	hdr := make([]byte, 24)
	copy(hdr[0:4], "SAR1")
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(meta)))
	binary.LittleEndian.PutUint32(hdr[8:12], crc32.Checksum(meta, crcTable))
	binary.LittleEndian.PutUint64(hdr[12:20], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[20:24], crc32.Checksum(payload, crcTable))
	file := append(append(append([]byte{}, hdr...), meta...), payload...)
	path := filepath.Join(dir, tkey(7))
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}

	s := openStore(t, dir, 0, 0)
	if s.Len() != 0 || s.Bytes() != 0 {
		t.Fatalf("v1 rescan: Len=%d Bytes=%d, want an empty store", s.Len(), s.Bytes())
	}
	if _, _, ok := s.Get(tkey(7)); ok {
		t.Fatal("v1 Get: hit")
	}
	if _, _, _, ok := s.Open(tkey(7)); ok {
		t.Fatal("v1 Open: hit")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("v1 file still on disk: %v", err)
	}

	// The key is free again: a Put under it stores the current format.
	if err := s.Put(tkey(7), meta, payload); err != nil {
		t.Fatal(err)
	}
	if _, p2, ok := s.Get(tkey(7)); !ok || !bytes.Equal(p2, payload) {
		t.Fatal("result stored under the freed key is unreadable")
	}
}
