// Package mpi is a hand-rolled message-passing runtime standing in for
// the MPI library the paper uses: rank-addressed point-to-point messages
// with tag matching, the four collectives Sample-Align-D needs — gather
// and broadcast rooted at rank 0, all-gather, and the all-to-all
// personalised exchange — typed over one binary wire format (codec.go:
// append to write, slice to parse, no reflection), and
// two transports — in-process goroutine ranks for tests/benchmarks and
// TCP for real multi-process cluster runs. Both transports carry the
// same bytes.
//
// Semantics follow MPI's: Send is asynchronous (buffered), Recv blocks
// until a matching (source, tag) message arrives, and messages between a
// fixed (source, destination, tag) triple are delivered in order.
//
// A communicator lives as long as the context it was made under:
// RunContext closes its world and DialTCPContext its mesh when that
// context ends, so every Recv blocked on it, directly or inside a
// collective, returns errClosed. Callers that want the cancellation
// reason read it off their context.
package mpi

import (
	"errors"
	"sync/atomic"
)

// errClosed is returned by operations on a communicator that has been
// shut down.
var errClosed = errors.New("mpi: communicator closed")

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
	// Stats returns this rank's traffic counters.
	Stats() *Stats
	// Close shuts the communicator down; blocked Recvs return errClosed.
	Close() error
}

// ownedSender is a communicator that can take a payload over instead of
// copying it. The typed collectives send buffers they encoded a moment ago
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
