package mpi

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// TCPConfig describes one rank of a TCP-transport world. Addrs[i] is the
// address rank i listens on; all ranks must agree on the list.
type TCPConfig struct {
	Rank        int
	Addrs       []string
	DialTimeout time.Duration // per-connection; default 10s
	DialRetry   time.Duration // backoff between attempts; default 100ms
}

// tcpComm is a Comm over a full mesh of TCP connections: rank i dials
// every rank j < i and accepts from every rank j > i. One reader
// goroutine per peer drains frames into the mailbox, so sends never
// deadlock against un-received data.
type tcpComm struct {
	rank, size int
	box        *mailbox
	stats      *Stats

	mu       sync.Mutex
	conns    []net.Conn   // indexed by peer rank (nil for self)
	sendLock []sync.Mutex // per-peer write serialisation
	listener net.Listener
	closed   bool
}

// frame layout: [tag int64][length uint32][payload]

// maxFrame is the largest payload one frame carries: 1 GiB, the
// journal's record limit. Send refuses more — past 4 GiB the header's
// uint32 would truncate the length and desynchronise the stream — and
// readLoop gives up on a peer whose header claims more before
// allocating a byte of it, so nobody on the mesh port can ask a rank
// for 4 GiB per frame.
const maxFrame = 1 << 30

// DialTCP establishes the mesh and returns this rank's communicator.
// Every rank of the world must call DialTCP concurrently (they block on
// each other).
func DialTCP(cfg TCPConfig) (Comm, error) {
	//lint:allow ctxflow context-free compat wrapper: delegates to the Context-bound variant
	return DialTCPContext(context.Background(), cfg)
}

// DialTCPContext is DialTCP bound to a context: cancelling ctx aborts
// the mesh setup (pending accepts and dial retries stop) and the call
// returns ctx.Err().
func DialTCPContext(ctx context.Context, cfg TCPConfig) (Comm, error) {
	size := len(cfg.Addrs)
	if cfg.Rank < 0 || cfg.Rank >= size {
		return nil, fmt.Errorf("mpi: tcp rank %d of %d", cfg.Rank, size)
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	if cfg.DialRetry == 0 {
		cfg.DialRetry = 100 * time.Millisecond
	}
	c := &tcpComm{
		rank:     cfg.Rank,
		size:     size,
		box:      newMailbox(),
		stats:    &Stats{},
		conns:    make([]net.Conn, size),
		sendLock: make([]sync.Mutex, size),
	}
	if size == 1 {
		return c, nil
	}

	ln, err := net.Listen("tcp", cfg.Addrs[cfg.Rank])
	if err != nil {
		return nil, fmt.Errorf("mpi: rank %d listen %s: %w", cfg.Rank, cfg.Addrs[cfg.Rank], err)
	}
	c.listener = ln

	// Abort the whole mesh setup if ctx is cancelled: closing the
	// listener unblocks Accept, and the dial loops poll ctx between
	// retries.
	setupDone := make(chan struct{})
	defer close(setupDone)
	go func() {
		select {
		case <-ctx.Done():
			ln.Close()
		case <-setupDone:
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, size)

	// accept from higher ranks
	higher := size - 1 - cfg.Rank
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < higher; i++ {
			conn, err := ln.Accept()
			if err != nil {
				errs <- fmt.Errorf("mpi: rank %d accept: %w", cfg.Rank, err)
				return
			}
			var hello [4]byte
			if _, err := io.ReadFull(conn, hello[:]); err != nil {
				errs <- fmt.Errorf("mpi: rank %d handshake: %w", cfg.Rank, err)
				return
			}
			peer := int(binary.LittleEndian.Uint32(hello[:]))
			if peer <= cfg.Rank || peer >= size {
				errs <- fmt.Errorf("mpi: rank %d got handshake from invalid rank %d", cfg.Rank, peer)
				return
			}
			c.mu.Lock()
			c.conns[peer] = conn
			c.mu.Unlock()
		}
	}()

	// dial lower ranks
	for peer := 0; peer < cfg.Rank; peer++ {
		wg.Add(1)
		go func(peer int) {
			defer wg.Done()
			deadline := time.Now().Add(cfg.DialTimeout)
			for {
				conn, err := net.DialTimeout("tcp", cfg.Addrs[peer], cfg.DialTimeout)
				if err == nil {
					var hello [4]byte
					binary.LittleEndian.PutUint32(hello[:], uint32(cfg.Rank))
					if _, err := conn.Write(hello[:]); err != nil {
						errs <- fmt.Errorf("mpi: rank %d hello to %d: %w", cfg.Rank, peer, err)
						return
					}
					c.mu.Lock()
					c.conns[peer] = conn
					c.mu.Unlock()
					return
				}
				if time.Now().After(deadline) {
					errs <- fmt.Errorf("mpi: rank %d dial rank %d (%s): %w", cfg.Rank, peer, cfg.Addrs[peer], err)
					return
				}
				select {
				case <-ctx.Done():
					errs <- ctx.Err()
					return
				case <-time.After(cfg.DialRetry):
				}
			}
		}(peer)
	}

	wg.Wait()
	select {
	case err := <-errs:
		c.Close()
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, err
	default:
	}
	if err := ctx.Err(); err != nil {
		c.Close()
		return nil, err
	}

	// start one reader per peer
	for peer, conn := range c.conns {
		if conn == nil {
			continue
		}
		go c.readLoop(peer, conn)
	}
	return c, nil
}

func (c *tcpComm) readLoop(peer int, conn net.Conn) {
	// On any exit the peer is marked dead: its queued messages stay
	// deliverable, but Recvs waiting on future messages from it fail
	// fast instead of hanging the rank when a peer crashes or cancels.
	defer c.box.markDead(peer, fmt.Errorf("mpi: rank %d disconnected: %w", peer, ErrClosed))
	var hdr [12]byte
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return
		}
		tag := int(int64(binary.LittleEndian.Uint64(hdr[:8])))
		length := binary.LittleEndian.Uint32(hdr[8:])
		if length > maxFrame {
			return
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(conn, payload); err != nil {
			return
		}
		if c.box.push(message{src: peer, tag: tag, data: payload}) != nil {
			return
		}
	}
}

func (c *tcpComm) Rank() int     { return c.rank }
func (c *tcpComm) Size() int     { return c.size }
func (c *tcpComm) Stats() *Stats { return c.stats }

func (c *tcpComm) Send(to, tag int, data []byte) error {
	if to < 0 || to >= c.size {
		return fmt.Errorf("mpi: send to rank %d of %d", to, c.size)
	}
	if to == c.rank {
		cp := make([]byte, len(data))
		copy(cp, data)
		if err := c.box.push(message{src: c.rank, tag: tag, data: cp}); err != nil {
			return err
		}
		c.stats.addSend(len(data))
		return nil
	}
	c.mu.Lock()
	conn := c.conns[to]
	closed := c.closed
	c.mu.Unlock()
	if closed || conn == nil {
		return ErrClosed
	}
	if len(data) > maxFrame {
		return fmt.Errorf("mpi: send to %d: payload of %d bytes exceeds the frame limit of %d", to, len(data), maxFrame)
	}
	var hdr [12]byte
	binary.LittleEndian.PutUint64(hdr[:8], uint64(int64(tag)))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(data)))
	// Header and payload leave in one vectored write: one syscall and,
	// with TCP_NODELAY on, no 12-byte segment ahead of every payload.
	frame := net.Buffers{hdr[:], data}
	c.sendLock[to].Lock()
	_, err := frame.WriteTo(conn)
	c.sendLock[to].Unlock()
	if err != nil {
		return fmt.Errorf("mpi: send to %d: %w", to, err)
	}
	c.stats.addSend(len(data))
	return nil
}

func (c *tcpComm) Recv(from, tag int) ([]byte, error) {
	//lint:allow ctxflow context-free compat wrapper: delegates to the Context-bound variant
	return c.RecvContext(context.Background(), from, tag)
}

func (c *tcpComm) RecvContext(ctx context.Context, from, tag int) ([]byte, error) {
	if from < 0 || from >= c.size {
		return nil, fmt.Errorf("mpi: recv from rank %d of %d", from, c.size)
	}
	data, err := c.box.pop(ctx, from, tag)
	if err != nil {
		return nil, err
	}
	c.stats.addRecv(len(data))
	return data, nil
}

func (c *tcpComm) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conns := append([]net.Conn(nil), c.conns...)
	ln := c.listener
	c.mu.Unlock()

	c.box.close()
	for _, conn := range conns {
		if conn != nil {
			conn.Close()
		}
	}
	if ln != nil {
		ln.Close()
	}
	return nil
}
