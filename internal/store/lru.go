package store

import (
	"container/list"
	"sync"
)

// LRU is a strict least-recently-used index bounded by entry count and
// total size, the one eviction policy behind both result tiers: the
// service's in-memory cache holds values in it, and Results holds its
// on-disk files' sizes in it. Get and Put refresh recency, so for a
// deterministic access sequence the surviving set is deterministic. All
// methods are goroutine-safe, and a nil *LRU is a disabled cache: every
// Get misses and every Put is dropped.
type LRU[V any] struct {
	maxEntries int
	maxBytes   int64

	mu        sync.Mutex
	ll        *list.List // front = most recently used
	items     map[string]*list.Element
	bytes     int64
	evictions int64
}

type lruEntry[V any] struct {
	key  string
	val  V
	size int64
}

// NewLRU builds an LRU bounded to maxEntries entries and maxBytes total
// size; either bound <= 0 means "no bound on that axis".
func NewLRU[V any](maxEntries int, maxBytes int64) *LRU[V] {
	return &LRU[V]{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		items:      make(map[string]*list.Element),
	}
}

// fits reports whether an entry of size bytes can be held at all.
func (c *LRU[V]) fits(size int64) bool { return c.maxBytes <= 0 || size <= c.maxBytes }

// Get returns the value under key and refreshes its recency.
func (c *LRU[V]) Get(key string) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// Put stores v of the given size under key, then evicts least recently
// used entries until both bounds hold, and returns the evicted keys so
// the caller can release what they name. Re-putting a held key only
// refreshes its recency (content-addressed: same key, same bytes). An
// entry larger than the byte bound is refused: nothing is stored or
// evicted, and key itself is returned.
func (c *LRU[V]) Put(key string, v V, size int64) (evicted []string) {
	if c == nil {
		return nil
	}
	if !c.fits(size) {
		return []string{key}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return nil
	}
	c.items[key] = c.ll.PushFront(&lruEntry[V]{key: key, val: v, size: size})
	c.bytes += size
	for (c.maxEntries > 0 && c.ll.Len() > c.maxEntries) || (c.maxBytes > 0 && c.bytes > c.maxBytes) {
		ent := c.ll.Remove(c.ll.Back()).(*lruEntry[V])
		delete(c.items, ent.key)
		c.bytes -= ent.size
		c.evictions++
		evicted = append(evicted, ent.key)
	}
	return evicted
}

// remove drops key without counting an eviction.
func (c *LRU[V]) remove(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.Remove(el)
		delete(c.items, key)
		c.bytes -= el.Value.(*lruEntry[V]).size
	}
}

// Len returns the number of entries held.
func (c *LRU[V]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes returns the total size of the entries held.
func (c *LRU[V]) Bytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Evictions returns the number of entries evicted so far.
func (c *LRU[V]) Evictions() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// keys returns the held keys from most to least recently used (tests).
func (c *LRU[V]) keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*lruEntry[V]).key)
	}
	return keys
}
