// Package events is a small bounded publish/subscribe bus with replay.
// The serve layer hangs one bus off every job flight and streams its
// entries to HTTP clients as Server-Sent Events.
//
// Design constraints, in order:
//
//  1. Bounded everywhere. The bus retains only the most recent
//     HistLimit entries for replay, and each subscriber owns a
//     fixed-capacity delivery buffer sized at Subscribe time.
//  2. Slow consumers never block publishers. When a subscriber's buffer
//     is full the entry is dropped for that subscriber and accounted —
//     never queued unboundedly. The SSE layer resynchronizes a gappy
//     stream from history or from the job's terminal state.
//  3. Replayable. A subscriber may attach after entries — or the whole
//     flight — have passed; Subscribe(after, n) re-delivers retained
//     history with stable sequence numbers, so reconnecting clients
//     (SSE Last-Event-ID) resume without duplicates.
package events

import "sync"

// Entry is one published value stamped with its bus-assigned sequence
// number. Sequence numbers start at 1 and are strictly increasing per
// bus.
type Entry[T any] struct {
	Seq int64
	V   T
}

// Bus is a bounded broadcast bus. The zero value is not usable; build
// one with NewBus. All methods are safe for concurrent use.
type Bus[T any] struct {
	mu      sync.Mutex
	limit   int
	hist    []Entry[T] // most recent limit entries, ascending Seq
	seq     int64
	subs    map[*Sub[T]]struct{}
	closed  bool
	dropped int64
	onDrop  func(n int64)
}

// NewBus builds a bus retaining the last histLimit entries for replay
// (minimum 1). onDrop, if non-nil, is called with the number of entries
// dropped each time a slow subscriber's buffer overflows; it runs under
// the bus lock and must not call back into the bus.
func NewBus[T any](histLimit int, onDrop func(n int64)) *Bus[T] {
	if histLimit < 1 {
		histLimit = 1
	}
	return &Bus[T]{
		limit:  histLimit,
		subs:   make(map[*Sub[T]]struct{}),
		onDrop: onDrop,
	}
}

// Publish appends v to the history and fans it out to every live
// subscriber without blocking: subscribers whose buffers are full miss
// this entry and the drop is accounted. It returns the entry's sequence
// number. Publishing on a closed bus is a no-op returning the last
// sequence number.
func (b *Bus[T]) Publish(v T) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return b.seq
	}
	b.seq++
	e := Entry[T]{Seq: b.seq, V: v}
	b.hist = append(b.hist, e)
	if len(b.hist) > b.limit {
		// Shift rather than reslice so the backing array stays bounded.
		copy(b.hist, b.hist[len(b.hist)-b.limit:])
		b.hist = b.hist[:b.limit]
	}
	for s := range b.subs {
		select {
		case s.ch <- e:
		default:
			s.dropped++
			b.dropped++
			if b.onDrop != nil {
				b.onDrop(1)
			}
		}
	}
	return b.seq
}

// Close marks the bus finished and closes every subscriber's channel
// after its already-buffered entries. Further Publish calls are no-ops;
// further Subscribe calls still replay history and return an
// immediately-closed subscription. Closing twice is a no-op.
func (b *Bus[T]) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for s := range b.subs {
		close(s.ch)
	}
	b.subs = nil
}

// Dropped returns the total entries dropped across all subscribers.
func (b *Bus[T]) Dropped() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dropped
}

// History returns the retained entries with sequence numbers greater
// than after, oldest first.
func (b *Bus[T]) History(after int64) []Entry[T] {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.histLocked(after)
}

func (b *Bus[T]) histLocked(after int64) []Entry[T] {
	i := 0
	for i < len(b.hist) && b.hist[i].Seq <= after {
		i++
	}
	if i == len(b.hist) {
		return nil
	}
	return append([]Entry[T](nil), b.hist[i:]...)
}

// Subscribe attaches a subscriber that first receives the retained
// entries with sequence numbers greater than after, then live entries
// as they are published. buf sizes the live-delivery buffer (minimum
// 1); replayed history never counts against it. If the bus is already
// closed the subscription carries the replay and an already-closed
// channel. Callers must Close the subscription when done.
func (b *Bus[T]) Subscribe(after int64, buf int) *Sub[T] {
	if buf < 1 {
		buf = 1
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	replay := b.histLocked(after)
	s := &Sub[T]{bus: b, ch: make(chan Entry[T], buf+len(replay))}
	for _, e := range replay {
		s.ch <- e
	}
	if b.closed {
		close(s.ch)
		return s
	}
	b.subs[s] = struct{}{}
	return s
}

// Sub is one subscription. Receive entries from C; a closed channel
// means the bus finished (every retained entry was delivered or
// dropped).
type Sub[T any] struct {
	bus *Bus[T]
	ch  chan Entry[T]

	// guarded by bus.mu
	dropped int64
	removed bool
}

// C returns the delivery channel.
func (s *Sub[T]) C() <-chan Entry[T] { return s.ch }

// Dropped returns how many entries this subscriber missed because its
// buffer was full.
func (s *Sub[T]) Dropped() int64 {
	s.bus.mu.Lock()
	defer s.bus.mu.Unlock()
	return s.dropped
}

// Close detaches the subscription from the bus. It does not close the
// delivery channel (a concurrent Publish may hold a buffered entry);
// after Close the channel simply stops receiving. Closing twice is a
// no-op.
func (s *Sub[T]) Close() {
	s.bus.mu.Lock()
	defer s.bus.mu.Unlock()
	if s.removed {
		return
	}
	s.removed = true
	if s.bus.subs != nil {
		delete(s.bus.subs, s)
	}
}
