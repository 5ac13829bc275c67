package serve

import (
	"container/list"
	"sync"
	"time"
)

// Result is the stored outcome of a successful alignment job: the
// rendered FASTA plus the summary numbers the status endpoint reports.
// Results are immutable once stored, so cache and jobs share them.
type Result struct {
	FASTA     []byte        `json:"-"`
	NumSeqs   int           `json:"num_seqs"`
	Width     int           `json:"width"`
	Procs     int           `json:"procs"`
	Elapsed   time.Duration `json:"-"`
	BytesSent int64         `json:"bytes_sent"`
	BytesRecv int64         `json:"bytes_recv"`
	TraceID   string        `json:"trace_id,omitempty"`
	Trace     []byte        `json:"-"` // span-tree JSON (obs.Document); served at /v1/jobs/{id}/trace
}

// sizeBytes is the accounting size of a result in the cache. Traces are
// deliberately excluded: they are bounded by obs.DefaultMaxSpans and
// tiny next to alignments, and counting them would perturb the cache's
// deterministic hit/evict sequence between tracing-on and -off runs.
func (r *Result) sizeBytes() int64 { return int64(len(r.FASTA)) }

// Cache is a content-addressed LRU of alignment results, bounded by
// both entry count and total FASTA bytes. Eviction is strict LRU (Get
// refreshes recency), so hit/evict behaviour is deterministic for a
// deterministic access sequence.
type Cache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	ll         *list.List // front = most recent
	items      map[string]*list.Element
	bytes      int64
	evictions  int64
}

type cacheEntry struct {
	key string
	res *Result
}

// newCache builds a cache bounded to maxEntries results and maxBytes
// total FASTA payload; either bound ≤ 0 means "no bound on that axis",
// and both ≤ 0 disables caching entirely (every Get misses).
func newCache(maxEntries int, maxBytes int64) *Cache {
	return &Cache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		items:      make(map[string]*list.Element),
	}
}

func (c *Cache) disabled() bool { return c.maxEntries <= 0 && c.maxBytes <= 0 }

// Enabled reports whether the cache stores anything at all.
func (c *Cache) Enabled() bool { return !c.disabled() }

// Get returns the cached result for key and refreshes its recency.
func (c *Cache) Get(key string) (*Result, bool) {
	if c.disabled() {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// Put stores res under key, evicting least-recently-used entries until
// both bounds hold. A result larger than the byte bound is not stored.
func (c *Cache) Put(key string, res *Result) {
	if c.disabled() {
		return
	}
	if c.maxBytes > 0 && res.sizeBytes() > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		// Same content address ⇒ same bytes; just refresh recency.
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, res: res})
	c.bytes += res.sizeBytes()
	for (c.maxEntries > 0 && c.ll.Len() > c.maxEntries) ||
		(c.maxBytes > 0 && c.bytes > c.maxBytes) {
		back := c.ll.Back()
		if back == nil {
			break
		}
		ent := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.items, ent.key)
		c.bytes -= ent.res.sizeBytes()
		c.evictions++
	}
}

// Len returns the number of cached results.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes returns the total accounted payload bytes.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Evictions returns the number of entries evicted so far.
func (c *Cache) Evictions() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// Keys returns the cached keys from most to least recently used; for
// tests and debugging.
func (c *Cache) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*cacheEntry).key)
	}
	return keys
}
