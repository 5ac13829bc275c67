package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"
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
			c, err := DialTCP(TCPConfig{Rank: rank, Addrs: addrs})
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
		got, err := Bcast(c, 0, 1, []byte("b"))
		if err != nil {
			return err
		}
		if string(got) != "b" {
			return fmt.Errorf("bcast got %q", got)
		}
		all, err := AllGather(c, 2, []byte{byte(c.Rank())})
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
		x, err := AllToAll(c, 3, parts)
		if err != nil {
			return err
		}
		for src, d := range x {
			if d[0] != byte(src*4) || d[1] != byte(c.Rank()) {
				return fmt.Errorf("alltoall from %d: %v", src, d)
			}
		}
		return Barrier(c, 4)
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
	c, err := DialTCP(TCPConfig{Rank: 0, Addrs: []string{"127.0.0.1:0"}})
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
	if _, err := DialTCP(TCPConfig{Rank: 3, Addrs: []string{"a", "b"}}); err == nil {
		t.Fatal("out-of-range rank accepted")
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
// ErrClosed while the connection is still open.
func TestTCPOversizedFrameHeaderKillsThePeerNotTheRank(t *testing.T) {
	addrs := freeAddrs(t, 2)
	type dialed struct {
		c   Comm
		err error
	}
	rank0 := make(chan dialed, 1)
	go func() {
		c, err := DialTCP(TCPConfig{Rank: 0, Addrs: addrs})
		rank0 <- dialed{c, err}
	}()
	var conn net.Conn
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		var err error
		if conn, err = net.Dial("tcp", addrs[0]); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rank 0 never listened: %v", err)
		}
	}
	defer conn.Close()
	if _, err := conn.Write(binary.LittleEndian.AppendUint32(nil, 1)); err != nil {
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
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Recv after an oversized header: %v, want ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Recv still waits for the 4 GiB an oversized header claimed")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("%d bytes allocated on the word of a frame header", grew)
	}
}
