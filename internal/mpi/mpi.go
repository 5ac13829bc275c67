// Package mpi is a hand-rolled message-passing runtime standing in for
// the MPI library the paper uses: rank-addressed point-to-point messages
// with tag matching, the collective operations Sample-Align-D needs
// (barrier, broadcast, gather, all-gather, scatter, all-to-all
// personalised exchange, reduce), typed wrappers over one binary wire
// format (codec.go: append to write, slice to parse, no reflection), and
// two transports — in-process goroutine ranks for tests/benchmarks and
// TCP for real multi-process cluster runs. Both transports carry the
// same bytes.
//
// Semantics follow MPI's: Send is asynchronous (buffered), Recv blocks
// until a matching (source, tag) message arrives, and messages between a
// fixed (source, destination, tag) triple are delivered in order.
package mpi

import (
	"context"
	"errors"
	"sync/atomic"
)

// ErrClosed is returned by operations on a communicator that has been
// shut down.
var ErrClosed = errors.New("mpi: communicator closed")

// Comm is a communicator: the endpoint one rank uses to talk to the
// others in its world.
type Comm interface {
	// Rank returns this process's rank in [0, Size).
	Rank() int
	// Size returns the number of ranks in the world.
	Size() int
	// Send delivers data to rank `to` with the given tag. It does not
	// wait for the receiver (buffered, like MPI_Isend + wait-for-copy).
	// Sending to self is allowed.
	Send(to, tag int, data []byte) error
	// Recv blocks until a message with the given source and tag arrives
	// and returns its payload.
	Recv(from, tag int) ([]byte, error)
	// RecvContext is Recv that additionally unblocks with ctx.Err()
	// when ctx is cancelled before a matching message arrives.
	RecvContext(ctx context.Context, from, tag int) ([]byte, error)
	// Stats returns this rank's traffic counters.
	Stats() *Stats
	// Close shuts the communicator down; blocked Recvs return ErrClosed.
	Close() error
}

// ownedSender is a communicator that can take a payload over instead of
// copying it. The typed helpers send buffers they encoded a moment ago
// and never look at again, so the copy Send owes a caller who may reuse
// its buffer is wasted on them.
type ownedSender interface {
	// sendOwned is Send, except that data belongs to the receiver from
	// here on: the caller neither reads nor writes it again.
	sendOwned(to, tag int, data []byte) error
}

// sendOwned hands data over to c if it can take it and falls back to
// Send (a wrapper that intercepts Send still sees every message).
func sendOwned(c Comm, to, tag int, data []byte) error {
	if o, ok := c.(ownedSender); ok {
		return o.sendOwned(to, tag, data)
	}
	return c.Send(to, tag, data)
}

// WithContext binds a communicator to a context: Recv blocks become
// RecvContext calls that unblock with ctx.Err() on cancellation, and
// Send fails fast once ctx is done. Because the collectives are built on
// Send/Recv, running them over a context-bound communicator makes every
// blocking collective honor cancellation with no further plumbing.
// Binding to context.Background() returns c unchanged.
func WithContext(ctx context.Context, c Comm) Comm {
	//lint:allow ctxflow sentinel comparison against the Background singleton, no context is created
	if ctx == context.Background() || ctx.Done() == nil {
		return c
	}
	return &ctxComm{Comm: c, ctx: ctx}
}

type ctxComm struct {
	Comm
	ctx context.Context
}

func (c *ctxComm) Send(to, tag int, data []byte) error {
	if err := c.ctx.Err(); err != nil {
		return err
	}
	return c.Comm.Send(to, tag, data)
}

func (c *ctxComm) sendOwned(to, tag int, data []byte) error {
	if err := c.ctx.Err(); err != nil {
		return err
	}
	return sendOwned(c.Comm, to, tag, data)
}

func (c *ctxComm) Recv(from, tag int) ([]byte, error) {
	return c.Comm.RecvContext(c.ctx, from, tag)
}

// RecvContext on a context-bound comm honors both the bound context and
// the caller's: whichever is done first unblocks the receive with its
// error.
func (c *ctxComm) RecvContext(ctx context.Context, from, tag int) ([]byte, error) {
	if ctx.Done() == nil {
		return c.Comm.RecvContext(c.ctx, from, tag)
	}
	if c.ctx.Done() == nil {
		return c.Comm.RecvContext(ctx, from, tag)
	}
	merged, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := context.AfterFunc(c.ctx, cancel)
	defer stop()
	data, err := c.Comm.RecvContext(merged, from, tag)
	if errors.Is(err, context.Canceled) && ctx.Err() == nil {
		// the bound context fired, not the caller's: report its error
		// (which may be DeadlineExceeded rather than Canceled)
		if cerr := c.ctx.Err(); cerr != nil {
			err = cerr
		}
	}
	return data, err
}

// Stats counts a rank's message traffic; used to reproduce the paper's
// communication-cost analysis (§3).
type Stats struct {
	BytesSent int64
	BytesRecv int64
	MsgsSent  int64
	MsgsRecv  int64
}

func (s *Stats) addSend(n int) {
	atomic.AddInt64(&s.BytesSent, int64(n))
	atomic.AddInt64(&s.MsgsSent, 1)
}

func (s *Stats) addRecv(n int) {
	atomic.AddInt64(&s.BytesRecv, int64(n))
	atomic.AddInt64(&s.MsgsRecv, 1)
}

// Snapshot returns a consistent copy of the counters.
func (s *Stats) Snapshot() Stats {
	return Stats{
		BytesSent: atomic.LoadInt64(&s.BytesSent),
		BytesRecv: atomic.LoadInt64(&s.BytesRecv),
		MsgsSent:  atomic.LoadInt64(&s.MsgsSent),
		MsgsRecv:  atomic.LoadInt64(&s.MsgsRecv),
	}
}

// Add accumulates other into s (for aggregating per-rank stats).
func (s *Stats) Add(other Stats) {
	s.BytesSent += other.BytesSent
	s.BytesRecv += other.BytesRecv
	s.MsgsSent += other.MsgsSent
	s.MsgsRecv += other.MsgsRecv
}
