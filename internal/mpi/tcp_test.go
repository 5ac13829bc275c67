package mpi

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// freeAddrs reserves n loopback ports and returns their addresses. The
// listeners are closed before use; the small race window is acceptable
// in tests.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// meshHello is the hello a rank of the world addrs sends, built from the
// wire description rather than from tcp.go: the rank as a little-endian
// uint32, then the first 8 bytes of SHA-256 over the addresses, each
// prefixed by its little-endian uint32 length.
func meshHello(rank int, addrs []string) []byte {
	h := sha256.New()
	for _, a := range addrs {
		h.Write(binary.LittleEndian.AppendUint32(nil, uint32(len(a))))
		h.Write([]byte(a))
	}
	return append(binary.LittleEndian.AppendUint32(nil, uint32(rank)), h.Sum(nil)[:8]...)
}

// dialUp dials addr until a rank listens there, for up to 10 s.
func dialUp(t *testing.T, addr string) net.Conn {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			return conn
		}
		if time.Now().After(deadline) {
			t.Fatalf("nothing listened on %s: %v", addr, err)
		}
	}
}

// runTCP runs fn as an SPMD program over a TCP world on loopback.
func runTCP(t *testing.T, size int, fn func(Comm) error) {
	t.Helper()
	addrs := freeAddrs(t, size)
	var wg sync.WaitGroup
	errs := make(chan error, size)
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c, err := DialTCPContext(context.Background(), TCPConfig{Rank: rank, Addrs: addrs})
			if err != nil {
				errs <- fmt.Errorf("rank %d dial: %w", rank, err)
				return
			}
			defer c.Close()
			if err := fn(c); err != nil {
				errs <- fmt.Errorf("rank %d: %w", rank, err)
			}
		}(r)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

func TestTCPSendRecv(t *testing.T) {
	runTCP(t, 2, func(c Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 42, []byte("over tcp"))
		}
		d, err := c.Recv(0, 42)
		if err != nil {
			return err
		}
		if string(d) != "over tcp" {
			return fmt.Errorf("got %q", d)
		}
		return nil
	})
}

func TestTCPSelfSend(t *testing.T) {
	runTCP(t, 2, func(c Comm) error {
		if err := c.Send(c.Rank(), 1, []byte{byte(c.Rank())}); err != nil {
			return err
		}
		d, err := c.Recv(c.Rank(), 1)
		if err != nil {
			return err
		}
		if d[0] != byte(c.Rank()) {
			return fmt.Errorf("self loop got %v", d)
		}
		return nil
	})
}

func TestTCPCollectives(t *testing.T) {
	runTCP(t, 4, func(c Comm) error {
		var b []byte
		if c.Rank() == 0 {
			b = []byte("b")
		}
		got, err := BcastValue(c, 1, b)
		if err != nil {
			return err
		}
		if string(got) != "b" {
			return fmt.Errorf("bcast got %q", got)
		}
		all, err := AllGatherValues(c, 2, []byte{byte(c.Rank())})
		if err != nil {
			return err
		}
		for r, d := range all {
			if d[0] != byte(r) {
				return fmt.Errorf("allgather entry %d = %v", r, d)
			}
		}
		parts := make([][]byte, 4)
		for q := range parts {
			parts[q] = []byte{byte(c.Rank() * 4), byte(q)}
		}
		x, err := AllToAllValues(c, 3, parts)
		if err != nil {
			return err
		}
		for src, d := range x {
			if d[0] != byte(src*4) || d[1] != byte(c.Rank()) {
				return fmt.Errorf("alltoall from %d: %v", src, d)
			}
		}
		gathered, err := GatherValues(c, 4, []byte{byte(c.Rank())})
		if err != nil || c.Rank() != 0 {
			return err
		}
		for r, d := range gathered {
			if d[0] != byte(r) {
				return fmt.Errorf("gather entry %d = %v", r, d)
			}
		}
		return nil
	})
}

func TestTCPLargeMessage(t *testing.T) {
	const size = 1 << 20 // 1 MiB
	runTCP(t, 2, func(c Comm) error {
		if c.Rank() == 0 {
			buf := make([]byte, size)
			for i := range buf {
				buf[i] = byte(i * 31)
			}
			return c.Send(1, 9, buf)
		}
		d, err := c.Recv(0, 9)
		if err != nil {
			return err
		}
		if len(d) != size {
			return fmt.Errorf("got %d bytes", len(d))
		}
		for i := 0; i < size; i += 4097 {
			if d[i] != byte(i*31) {
				return fmt.Errorf("corrupt byte at %d", i)
			}
		}
		return nil
	})
}

func TestTCPSingleRank(t *testing.T) {
	c, err := DialTCPContext(context.Background(), TCPConfig{Rank: 0, Addrs: []string{"127.0.0.1:0"}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Size() != 1 {
		t.Fatalf("size = %d", c.Size())
	}
	if err := c.Send(0, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if d, err := c.Recv(0, 1); err != nil || string(d) != "x" {
		t.Fatalf("self messaging: %q %v", d, err)
	}
}

func TestTCPInvalidConfig(t *testing.T) {
	if _, err := DialTCPContext(context.Background(), TCPConfig{Rank: 3, Addrs: []string{"a", "b"}}); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
}

// TestTCPClosesHandedListener hands DialTCPContext a bound listener: it
// must close it when it refuses the config, and with the communicator.
func TestTCPClosesHandedListener(t *testing.T) {
	for _, rank := range []int{1, 0} { // 1 is out of range for one address
		ln, err := net.ListenTCP("tcp", &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		ln.SetDeadline(time.Now().Add(5 * time.Second)) // an open listener fails Accept by timeout
		c, err := DialTCPContext(context.Background(), TCPConfig{Rank: rank, Addrs: []string{ln.Addr().String()}, Listener: ln})
		if (err != nil) != (rank == 1) {
			t.Fatalf("rank %d: err %v", rank, err)
		}
		if c != nil {
			c.Close()
		}
		if _, err := ln.Accept(); !errors.Is(err, net.ErrClosed) {
			t.Fatalf("rank %d: listener still open after DialTCPContext (Accept: %v)", rank, err)
		}
	}
}

func TestTCPPeerDeathFailsPendingRecv(t *testing.T) {
	// When a peer's connection drops, a Recv waiting on a *future*
	// message from it must fail fast instead of hanging the rank —
	// but messages the peer sent before dying must stay drainable.
	runTCP(t, 2, func(c Comm) error {
		if c.Rank() == 1 {
			if err := c.Send(0, 7, []byte("parting gift")); err != nil {
				return err
			}
			return c.Close()
		}
		// rank 0: the queued message arrives even though rank 1 dies
		d, err := c.Recv(1, 7)
		if err != nil || string(d) != "parting gift" {
			return fmt.Errorf("queued drain: %q, %v", d, err)
		}
		// ...but waiting on a message rank 1 never sent errors out
		done := make(chan error, 1)
		go func() {
			_, err := c.Recv(1, 8)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				return fmt.Errorf("recv from dead peer succeeded")
			}
			return nil
		case <-time.After(10 * time.Second):
			return fmt.Errorf("recv from dead peer hung")
		}
	})
}

// TestTCPOversizedFrameHeaderKillsThePeerNotTheRank speaks rank 1's side
// of a two-rank mesh by hand: a hello, then a 12-byte header claiming a
// 4 GiB payload that never comes. Rank 0 must not believe the length —
// no allocation of that size — and its pending Recv must fail fast with
// errClosed while the connection is still open.
func TestTCPOversizedFrameHeaderKillsThePeerNotTheRank(t *testing.T) {
	addrs := freeAddrs(t, 2)
	type dialed struct {
		c   Comm
		err error
	}
	rank0 := make(chan dialed, 1)
	go func() {
		c, err := DialTCPContext(context.Background(), TCPConfig{Rank: 0, Addrs: addrs})
		rank0 <- dialed{c, err}
	}()
	conn := dialUp(t, addrs[0])
	defer conn.Close()
	if _, err := conn.Write(meshHello(1, addrs)); err != nil {
		t.Fatal(err)
	}
	d := <-rank0
	if d.err != nil {
		t.Fatal(d.err)
	}
	defer d.c.Close()

	recvErr := make(chan error, 1)
	go func() {
		_, err := d.c.Recv(1, 5)
		recvErr <- err
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	hdr := binary.LittleEndian.AppendUint64(nil, 5)
	if _, err := conn.Write(binary.LittleEndian.AppendUint32(hdr, 0xFFFFFFFF)); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-recvErr:
		if !errors.Is(err, errClosed) {
			t.Fatalf("Recv after an oversized header: %v, want errClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Recv still waits for the 4 GiB an oversized header claimed")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("%d bytes allocated on the word of a frame header", grew)
	}
}

// TestTCPRefusesStrangerHandshake has two connections reach rank 0 of a
// 3-rank world before the real rank 1 dials: a hello for rank 1 with
// another world's digest, and a correct hello for rank 2 after rank 2
// has joined. Rank 0 must close both unread, still admit the real rank
// 1, and carry a round trip between ranks 0 and 1. Rank 2 is played by
// hand: correct hellos to ranks 0 and 1, and nothing after them.
func TestTCPRefusesStrangerHandshake(t *testing.T) {
	addrs := freeAddrs(t, 3)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // closes both communicators and releases stuck Recvs
	type dialed struct {
		c   Comm
		err error
	}
	dial := func(rank int) <-chan dialed {
		ch := make(chan dialed, 1)
		go func() {
			c, err := DialTCPContext(ctx, TCPConfig{Rank: rank, Addrs: addrs})
			ch <- dialed{c, err}
		}()
		return ch
	}
	joined := func(ch <-chan dialed, rank int) Comm {
		select {
		case d := <-ch:
			if d.err != nil {
				t.Fatalf("rank %d: %v", rank, d.err)
			}
			return d.c
		case <-time.After(20 * time.Second):
			t.Fatalf("rank %d never finished its mesh setup", rank)
			return nil
		}
	}
	send := func(addr string, hello []byte) net.Conn {
		conn := dialUp(t, addr)
		t.Cleanup(func() { conn.Close() })
		if _, err := conn.Write(hello); err != nil {
			t.Fatal(err)
		}
		return conn
	}

	rank0 := dial(0)
	strangers := map[string]net.Conn{
		"wrong-digest": send(addrs[0], meshHello(1, []string{addrs[0], addrs[1], "127.0.0.1:1"})),
	}
	send(addrs[0], meshHello(2, addrs))
	strangers["duplicate-rank"] = send(addrs[0], meshHello(2, addrs))
	rank1 := dial(1)
	send(addrs[1], meshHello(2, addrs))
	c0, c1 := joined(rank0, 0), joined(rank1, 1)

	recv := func(c Comm, from, tag int) string {
		got := make(chan []byte, 1)
		go func() {
			d, _ := c.Recv(from, tag)
			got <- d
		}()
		select {
		case d := <-got:
			return string(d)
		case <-time.After(5 * time.Second):
			return "(nothing within 5 s)"
		}
	}
	if err := c0.Send(1, 7, []byte("for rank 1")); err != nil {
		t.Fatal(err)
	}
	if got := recv(c1, 0, 7); got != "for rank 1" {
		t.Errorf("rank 1 received %q from rank 0", got)
	} else if err := c1.Send(0, 8, []byte("for rank 0")); err != nil {
		t.Error(err)
	} else if got := recv(c0, 1, 8); got != "for rank 0" {
		t.Errorf("rank 0 received %q from rank 1", got)
	}

	for name, conn := range strangers {
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, err := io.ReadFull(conn, make([]byte, 64))
		var ne net.Error
		if n > 0 || err == nil || errors.As(err, &ne) && ne.Timeout() {
			t.Errorf("%s connection read %d bytes (err %v), want it closed unread", name, n, err)
		}
	}
}
