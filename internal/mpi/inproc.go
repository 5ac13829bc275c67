package mpi

import (
	"context"
	"fmt"
	"sync"
)

// message is one queued point-to-point payload.
type message struct {
	src, tag int
	data     []byte
}

// mailbox is one rank's inbound queue with (source, tag) matching.
// Messages from the same (source, tag) are matched FIFO. Waiters block
// on a broadcast channel that is closed-and-replaced on every push, so
// a blocked pop can also race a context's Done channel — that is how
// cancellation reaches every blocking Recv and, through them, the
// collectives.
//
// A source can be marked dead (its transport hit EOF): queued messages
// from it stay deliverable, but a pop that would otherwise wait for a
// future message from it fails immediately instead of hanging — this is
// how one crashed or cancelled TCP rank unwinds its whole world.
type mailbox struct {
	mu      sync.Mutex
	queue   []message
	wake    chan struct{} // closed and replaced on push/close (broadcast)
	closed  bool
	deadSrc map[int]error
}

func newMailbox() *mailbox {
	return &mailbox{wake: make(chan struct{})}
}

func (mb *mailbox) push(m message) error {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.closed {
		return ErrClosed
	}
	mb.queue = append(mb.queue, m)
	close(mb.wake)
	mb.wake = make(chan struct{})
	return nil
}

// pop blocks until a message with the given source and tag arrives, the
// mailbox closes, the source is marked dead, or ctx is cancelled.
// Queued messages win over closure and death, so an early-finishing
// peer's already-sent data is always drainable.
func (mb *mailbox) pop(ctx context.Context, src, tag int) ([]byte, error) {
	for {
		mb.mu.Lock()
		for i := range mb.queue {
			if mb.queue[i].src == src && mb.queue[i].tag == tag {
				data := mb.queue[i].data
				mb.queue = append(mb.queue[:i], mb.queue[i+1:]...)
				mb.mu.Unlock()
				return data, nil
			}
		}
		if mb.closed {
			mb.mu.Unlock()
			return nil, ErrClosed
		}
		if err := mb.deadSrc[src]; err != nil {
			mb.mu.Unlock()
			return nil, err
		}
		wake := mb.wake
		mb.mu.Unlock()
		select {
		case <-wake:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// markDead records that src will never produce another message (its
// connection is gone) and wakes blocked waiters so pops on it fail
// fast with err instead of hanging.
func (mb *mailbox) markDead(src int, err error) {
	mb.mu.Lock()
	if !mb.closed {
		if mb.deadSrc == nil {
			mb.deadSrc = make(map[int]error)
		}
		if mb.deadSrc[src] == nil {
			mb.deadSrc[src] = err
		}
		close(mb.wake)
		mb.wake = make(chan struct{})
	}
	mb.mu.Unlock()
}

func (mb *mailbox) close() {
	mb.mu.Lock()
	if !mb.closed {
		mb.closed = true
		close(mb.wake)
	}
	mb.mu.Unlock()
}

// World is an in-process communication world: p ranks backed by
// goroutines and shared-memory mailboxes. It models the cluster at full
// message-passing fidelity (every byte crosses a Send/Recv boundary) on
// one machine.
type World struct {
	size  int
	boxes []*mailbox
}

// NewWorld creates a world with the given number of ranks.
func NewWorld(size int) (*World, error) {
	if size < 1 {
		return nil, fmt.Errorf("mpi: world size %d", size)
	}
	w := &World{size: size, boxes: make([]*mailbox, size)}
	for i := range w.boxes {
		w.boxes[i] = newMailbox()
	}
	return w, nil
}

// Comm returns the communicator endpoint for one rank.
func (w *World) Comm(rank int) Comm {
	return &inprocComm{world: w, rank: rank, stats: &Stats{}}
}

// Close shuts every rank's mailbox down.
func (w *World) Close() {
	for _, mb := range w.boxes {
		mb.close()
	}
}

type inprocComm struct {
	world *World
	rank  int
	stats *Stats
}

func (c *inprocComm) Rank() int     { return c.rank }
func (c *inprocComm) Size() int     { return c.world.size }
func (c *inprocComm) Stats() *Stats { return c.stats }

func (c *inprocComm) Send(to, tag int, data []byte) error {
	// Copy the payload: the sender may reuse its buffer, and ranks must
	// not share memory through messages (cluster semantics).
	cp := make([]byte, len(data))
	copy(cp, data)
	return c.sendOwned(to, tag, cp)
}

// sendOwned queues data itself: the caller has given it up, so the
// receiving rank is its only holder, as it would be of a copy.
func (c *inprocComm) sendOwned(to, tag int, data []byte) error {
	if to < 0 || to >= c.world.size {
		return fmt.Errorf("mpi: send to rank %d of %d", to, c.world.size)
	}
	if err := c.world.boxes[to].push(message{src: c.rank, tag: tag, data: data}); err != nil {
		return err
	}
	c.stats.addSend(len(data))
	return nil
}

func (c *inprocComm) Recv(from, tag int) ([]byte, error) {
	//lint:allow ctxflow context-free compat wrapper: delegates to the Context-bound variant
	return c.RecvContext(context.Background(), from, tag)
}

func (c *inprocComm) RecvContext(ctx context.Context, from, tag int) ([]byte, error) {
	if from < 0 || from >= c.world.size {
		return nil, fmt.Errorf("mpi: recv from rank %d of %d", from, c.world.size)
	}
	data, err := c.world.boxes[c.rank].pop(ctx, from, tag)
	if err != nil {
		return nil, err
	}
	c.stats.addRecv(len(data))
	return data, nil
}

func (c *inprocComm) Close() error {
	c.world.boxes[c.rank].close()
	return nil
}

// Run launches fn as an SPMD program over `size` in-process ranks and
// waits for all of them. It returns the first non-nil error; on error the
// world is closed so other ranks unblock.
func Run(size int, fn func(Comm) error) error {
	//lint:allow ctxflow context-free compat wrapper: delegates to the Context-bound variant
	return RunContext(context.Background(), size, fn)
}

// RunContext is Run bound to a context: when ctx is cancelled the world
// is closed, so every rank blocked in a Recv (directly or inside a
// collective) unblocks and the SPMD program unwinds. Rank functions that
// want to observe the cancellation reason should check ctx themselves
// (core does) or use a context-bound communicator via WithContext.
func RunContext(ctx context.Context, size int, fn func(Comm) error) error {
	w, err := NewWorld(size)
	if err != nil {
		return err
	}
	defer w.Close()

	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			w.Close() // unblock every rank
		case <-done:
		}
	}()

	errs := make(chan error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			if err := fn(w.Comm(rank)); err != nil {
				errs <- fmt.Errorf("rank %d: %w", rank, err)
				w.Close() // unblock everyone else
			}
		}(r)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return ctx.Err()
	}
}

// RunCollect is Run for SPMD functions that produce a per-rank result;
// results are returned indexed by rank.
func RunCollect[T any](size int, fn func(Comm) (T, error)) ([]T, error) {
	out := make([]T, size)
	var mu sync.Mutex
	err := Run(size, func(c Comm) error {
		v, err := fn(c)
		if err != nil {
			return err
		}
		mu.Lock()
		out[c.Rank()] = v
		mu.Unlock()
		return nil
	})
	return out, err
}
