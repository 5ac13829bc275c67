package serve

import (
	"testing"

	"repro/internal/bio"
)

func res(size int) *Result {
	return &Result{FASTA: make([]byte, size), NumSeqs: 1, Width: size}
}

func TestCacheLRUEvictionDeterminism(t *testing.T) {
	c := newCache(2, -1)
	c.Put("a", res(10))
	c.Put("b", res(10))
	if _, ok := c.Get("a"); !ok { // refresh a: b is now LRU
		t.Fatal("a missing")
	}
	c.Put("c", res(10)) // evicts b, deterministically
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived; LRU eviction is not deterministic")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted despite being most recently used")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c missing")
	}
	if got := c.Evictions(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if keys := c.Keys(); len(keys) != 2 || keys[0] != "c" || keys[1] != "a" {
		t.Fatalf("recency order = %v, want [c a]", keys)
	}
}

func TestCacheByteBound(t *testing.T) {
	c := newCache(-1, 100)
	c.Put("a", res(40))
	c.Put("b", res(40))
	c.Put("c", res(40)) // 120 > 100: evicts a
	if _, ok := c.Get("a"); ok {
		t.Fatal("byte bound not enforced")
	}
	if c.Bytes() != 80 || c.Len() != 2 {
		t.Fatalf("bytes=%d len=%d, want 80/2", c.Bytes(), c.Len())
	}
	// An entry larger than the whole bound is not stored at all.
	c.Put("huge", res(200))
	if _, ok := c.Get("huge"); ok {
		t.Fatal("oversized entry stored")
	}
	if c.Len() != 2 {
		t.Fatalf("oversized Put disturbed the cache: len=%d", c.Len())
	}
}

func TestCacheDisabled(t *testing.T) {
	c := newCache(-1, -1)
	c.Put("a", res(10))
	if _, ok := c.Get("a"); ok {
		t.Fatal("disabled cache stored an entry")
	}
	if c.Len() != 0 {
		t.Fatal("disabled cache non-empty")
	}
}

func TestCacheDuplicatePutRefreshes(t *testing.T) {
	c := newCache(2, -1)
	c.Put("a", res(10))
	c.Put("b", res(10))
	c.Put("a", res(10)) // same content address: refresh, no double-count
	if c.Bytes() != 20 || c.Len() != 2 {
		t.Fatalf("duplicate Put double-counted: bytes=%d len=%d", c.Bytes(), c.Len())
	}
	c.Put("c", res(10)) // b is LRU now
	if _, ok := c.Get("b"); ok {
		t.Fatal("duplicate Put did not refresh recency")
	}
}

func TestCacheKeyDeterminism(t *testing.T) {
	seqs := testSeqs(5, 30, 7)
	o1, err := resolve(Options{Procs: 4}, Options{}, Limits{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cacheKey(seqs, o1) != cacheKey(seqs, o1) {
		t.Fatal("cache key not deterministic")
	}
	// Workers and timeouts must not affect the key; procs must.
	o2 := o1
	o2.Workers = 8
	o2.Timeout = 1e9
	if cacheKey(seqs, o1) != cacheKey(seqs, o2) {
		t.Fatal("workers/timeout leaked into the cache key")
	}
	o3 := o1
	o3.Procs = 5
	if cacheKey(seqs, o1) == cacheKey(seqs, o3) {
		t.Fatal("procs not in the cache key")
	}
	// Input order is content: a permutation is a different job.
	swapped := append(seqs[:0:0], seqs...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if cacheKey(seqs, o1) == cacheKey(swapped, o1) {
		t.Fatal("input order not in the cache key")
	}
	// Concatenation ambiguity: (id "ab") vs (id "a", desc "b") must not
	// collide — lengths are encoded, not just bytes.
	s1 := []bio.Sequence{{ID: "ab", Data: []byte("ACD")}}
	s2 := []bio.Sequence{{ID: "a", Desc: "b", Data: []byte("ACD")}}
	if cacheKey(s1, o1) == cacheKey(s2, o1) {
		t.Fatal("field boundaries not encoded; keys collide")
	}
}
