package mpi

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

func TestRunContextCancelUnblocksRanks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	errC := make(chan error, 1)
	go func() {
		errC <- RunContext(ctx, 3, func(c Comm) error {
			if c.Rank() == 0 {
				close(started)
			}
			// every rank blocks forever on a message that never comes
			_, err := c.Recv(c.Rank(), 99)
			return err
		})
	}()
	<-started
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-errC:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunContext err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunContext did not return after cancel")
	}
}

func TestDialTCPContextCancelledSetup(t *testing.T) {
	// Reserve a port for rank 0 but never start rank 1: setup hangs until
	// ctx cancels it, also while rank 0 waits for the hello of a
	// connection that sends none.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr0 := ln.Addr().String()
	ln.Close()
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr1 := ln1.Addr().String()
	ln1.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := DialTCPContext(ctx, TCPConfig{Rank: 0, Addrs: []string{addr0, addr1}})
		done <- err
	}()
	silent := dialUp(t, addr0)
	defer silent.Close()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("DialTCPContext err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("DialTCPContext did not abort on cancel")
	}
}

func TestDialTCPContextCancelClosesLiveMesh(t *testing.T) {
	// The dial ctx bounds the communicator's life, not only its setup:
	// cancelling it after the mesh is up releases rank 0's pending Recv
	// while rank 1 stays connected.
	addrs := freeAddrs(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	comms := make([]Comm, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r, rctx := range []context.Context{ctx, context.Background()} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			comms[r], errs[r] = DialTCPContext(rctx, TCPConfig{Rank: r, Addrs: addrs})
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	defer comms[0].Close()
	defer comms[1].Close()

	recvErr := make(chan error, 1)
	go func() {
		_, err := comms[0].Recv(1, 5) // rank 1 never sends
		recvErr <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-recvErr:
		if !errors.Is(err, errClosed) {
			t.Fatalf("Recv after the dial ctx ended: %v, want errClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv still blocked 5 s after the dial ctx ended")
	}
}
