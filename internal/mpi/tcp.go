package mpi

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// TCPConfig describes one rank of a TCP-transport world. Addrs[i] is the
// address rank i listens on. All ranks must pass the same list: the mesh
// hello carries a digest of it, and a rank refuses any other. Listener,
// when set, is already bound to Addrs[Rank] (a caller binds port 0 and
// publishes the address it got); the rank accepts on it, and closes it
// with the communicator or on a failed setup.
type TCPConfig struct {
	Rank     int
	Addrs    []string
	Listener net.Listener
}

// dialTimeout bounds how long a rank redials (every dialRetry) a peer
// that is not listening yet, and how long it waits for a peer's hello.
const dialTimeout, dialRetry = 10 * time.Second, 100 * time.Millisecond

// worldDigest names a world: the first 8 bytes of SHA-256 over its
// addresses, each prefixed by its uint32 length. Cluster jobs bind fresh
// ports, so it also tells one job's mesh from the next.
func worldDigest(addrs []string) [8]byte {
	h := sha256.New()
	for _, a := range addrs {
		h.Write(append(binary.LittleEndian.AppendUint32(nil, uint32(len(a))), a...))
	}
	return [8]byte(h.Sum(nil))
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
	stop     func() bool // releases the shutdown-on-ctx hook
}

// frame layout: [tag int64][length uint32][payload]

// maxFrame is the largest payload one frame carries: 1 GiB, the
// journal's record limit. Send refuses more — past 4 GiB the header's
// uint32 would truncate the length and desynchronise the stream — and
// readLoop gives up on a peer whose header claims more before
// allocating a byte of it, so nobody on the mesh port can ask a rank
// for 4 GiB per frame.
const maxFrame = 1 << 30

// DialTCPContext establishes the mesh and returns this rank's
// communicator. Every rank of the world must call it concurrently (they
// block on each other). ctx bounds the communicator's whole life: ending
// it aborts a mesh setup in progress (pending accepts and dial retries
// stop and the call returns ctx.Err()) and, after setup, closes the
// communicator, so blocked Recvs return errClosed.
//
// An accepted connection whose hello (rank, then worldDigest) is late,
// from another world, or names no missing higher rank is closed unread.
func DialTCPContext(ctx context.Context, cfg TCPConfig) (Comm, error) {
	size := len(cfg.Addrs)
	if cfg.Rank < 0 || cfg.Rank >= size {
		if cfg.Listener != nil {
			cfg.Listener.Close()
		}
		return nil, fmt.Errorf("mpi: tcp rank %d of %d", cfg.Rank, size)
	}
	c := &tcpComm{
		rank:     cfg.Rank,
		size:     size,
		box:      newMailbox(),
		stats:    &Stats{},
		conns:    make([]net.Conn, size),
		sendLock: make([]sync.Mutex, size),
		listener: cfg.Listener,
	}
	if c.listener == nil && size > 1 {
		ln, err := net.Listen("tcp", cfg.Addrs[cfg.Rank])
		if err != nil {
			return nil, fmt.Errorf("mpi: rank %d listen %s: %w", cfg.Rank, cfg.Addrs[cfg.Rank], err)
		}
		c.listener = ln
	}
	// Shutting down on ctx's end also aborts the setup below: the closed
	// listener unblocks Accept, and the dial loops poll ctx between
	// retries.
	c.stop = context.AfterFunc(ctx, c.shutdown)
	if size == 1 {
		return c, nil
	}

	var wg sync.WaitGroup
	errs := make(chan error, size)
	digest := worldDigest(cfg.Addrs)

	// accept from higher ranks
	wg.Add(1)
	go func() {
		defer wg.Done()
		for joined := cfg.Rank + 1; joined < size; {
			conn, err := c.listener.Accept()
			if err != nil {
				errs <- fmt.Errorf("mpi: rank %d accept: %w", cfg.Rank, err)
				return
			}
			if c.admit(ctx, conn, digest) {
				joined++
			}
		}
	}()

	// dial lower ranks
	hello := append(binary.LittleEndian.AppendUint32(nil, uint32(cfg.Rank)), digest[:]...)
	for peer := 0; peer < cfg.Rank; peer++ {
		wg.Add(1)
		go func(peer int) {
			defer wg.Done()
			deadline := time.Now().Add(dialTimeout)
			for {
				conn, err := net.DialTimeout("tcp", cfg.Addrs[peer], dialTimeout)
				if err == nil {
					if _, err := conn.Write(hello); err != nil {
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
				case <-time.After(dialRetry):
				}
			}
		}(peer)
	}

	wg.Wait()
	close(errs)
	err := ctx.Err() // ctx's end explains the setup errors it caused
	if err == nil {
		err = <-errs
	}
	if err != nil {
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

// admit reads an accepted connection's hello, waiting at most
// dialTimeout or until ctx ends, and keeps the connection as its peer's
// if the hello names this world and a higher rank not yet connected;
// else it closes it. Hellos are read one at a time, so a silent
// stranger delays the ranks behind it by up to dialTimeout.
func (c *tcpComm) admit(ctx context.Context, conn net.Conn, digest [8]byte) bool {
	defer context.AfterFunc(ctx, func() { conn.Close() })()
	var hello [12]byte
	conn.SetReadDeadline(time.Now().Add(dialTimeout))
	_, err := io.ReadFull(conn, hello[:])
	conn.SetReadDeadline(time.Time{})
	peer := binary.LittleEndian.Uint32(hello[:4])
	c.mu.Lock()
	ok := err == nil && [8]byte(hello[4:]) == digest && peer > uint32(c.rank) && peer < uint32(c.size) && c.conns[peer] == nil
	if ok {
		c.conns[peer] = conn
	}
	c.mu.Unlock()
	if !ok {
		conn.Close()
	}
	return ok
}

func (c *tcpComm) readLoop(peer int, conn net.Conn) {
	// On any exit the peer is marked dead: its queued messages stay
	// deliverable, but Recvs waiting on future messages from it fail
	// fast instead of hanging the rank when a peer crashes or cancels.
	defer c.box.markDead(peer, fmt.Errorf("mpi: rank %d disconnected: %w", peer, errClosed))
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
		return errClosed
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
	if from < 0 || from >= c.size {
		return nil, fmt.Errorf("mpi: recv from rank %d of %d", from, c.size)
	}
	data, err := c.box.pop(from, tag)
	if err != nil {
		return nil, err
	}
	c.stats.addRecv(len(data))
	return data, nil
}

// Close releases the shutdown-on-ctx hook and shuts the communicator down.
func (c *tcpComm) Close() error {
	c.stop()
	c.shutdown()
	return nil
}

// shutdown closes the mailbox, every connection and the listener. It is
// safe to repeat: a setup that ctx aborted runs it once more after its
// dialers are done, for the connections they stored after the first run.
func (c *tcpComm) shutdown() {
	c.mu.Lock()
	c.closed = true
	conns := append([]net.Conn(nil), c.conns...)
	c.mu.Unlock()

	c.box.close()
	for _, conn := range conns {
		if conn != nil {
			conn.Close()
		}
	}
	if c.listener != nil {
		c.listener.Close()
	}
}
