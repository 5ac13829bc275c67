package store

import (
	"reflect"
	"testing"
)

// TestLRURecencyOrder pins the recency order both result tiers evict
// by: Get and Put refresh, the least recently used entry goes first,
// and Put names what it evicted.
func TestLRURecencyOrder(t *testing.T) {
	c := NewLRU[int](2, -1)
	c.Put("a", 1, 10)
	c.Put("b", 2, 10)
	if _, ok := c.Get("a"); !ok { // refresh a: b is now LRU
		t.Fatal("a missing")
	}
	if got := c.Put("c", 3, 10); !reflect.DeepEqual(got, []string{"b"}) {
		t.Fatalf("Put evicted %v, want [b]", got)
	}
	if got, want := c.keys(), []string{"c", "a"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("recency order = %v, want %v", got, want)
	}
	c.Put("a", 1, 10) // re-put refreshes without double-counting
	if got, want := c.keys(), []string{"a", "c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after re-put: %v, want %v", got, want)
	}
	if c.Len() != 2 || c.Bytes() != 20 || c.Evictions() != 1 {
		t.Fatalf("len=%d bytes=%d evictions=%d, want 2/20/1", c.Len(), c.Bytes(), c.Evictions())
	}
}

// TestLRUByteBound: the byte bound evicts oldest-first, and an entry
// larger than the whole bound is refused without disturbing the rest —
// Put hands its key back so a caller holding a file for it can delete it.
func TestLRUByteBound(t *testing.T) {
	c := NewLRU[int](-1, 100)
	c.Put("a", 1, 40)
	c.Put("b", 2, 40)
	if got := c.Put("c", 3, 40); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("Put evicted %v, want [a]", got)
	}
	if got := c.Put("huge", 4, 200); !reflect.DeepEqual(got, []string{"huge"}) {
		t.Fatalf("oversized Put returned %v, want [huge]", got)
	}
	if got, want := c.keys(), []string{"c", "b"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after oversized put: %v, want %v", got, want)
	}
	if c.Bytes() != 80 || c.Evictions() != 1 {
		t.Fatalf("bytes=%d evictions=%d, want 80/1", c.Bytes(), c.Evictions())
	}
}

// TestLRUNilIsDisabled: a nil *LRU is the disabled cache every caller
// may hold without a guard.
func TestLRUNilIsDisabled(t *testing.T) {
	var c *LRU[int]
	if got := c.Put("a", 1, 10); got != nil {
		t.Fatalf("nil Put returned %v", got)
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("nil cache hit")
	}
	if c.Len() != 0 || c.Bytes() != 0 || c.Evictions() != 0 {
		t.Fatal("nil cache reports contents")
	}
}
