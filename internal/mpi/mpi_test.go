package mpi

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"
)

func TestSendRecvBasic(t *testing.T) {
	err := RunContext(context.Background(), 2, func(c Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 7, []byte("hello"))
		}
		d, err := c.Recv(0, 7)
		if err != nil {
			return err
		}
		if string(d) != "hello" {
			return fmt.Errorf("got %q", d)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendToSelf(t *testing.T) {
	err := RunContext(context.Background(), 1, func(c Comm) error {
		if err := c.Send(0, 1, []byte("loop")); err != nil {
			return err
		}
		d, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		if string(d) != "loop" {
			return fmt.Errorf("got %q", d)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagMatching(t *testing.T) {
	// Messages with different tags must be matched independently of
	// arrival order.
	err := RunContext(context.Background(), 2, func(c Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 1, []byte("one")); err != nil {
				return err
			}
			return c.Send(1, 2, []byte("two"))
		}
		two, err := c.Recv(0, 2)
		if err != nil {
			return err
		}
		one, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		if string(one) != "one" || string(two) != "two" {
			return fmt.Errorf("tag mix-up: %q %q", one, two)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFIFOPerSourceTag(t *testing.T) {
	err := RunContext(context.Background(), 2, func(c Comm) error {
		const n = 100
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := c.Send(1, 5, []byte{byte(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			d, err := c.Recv(0, 5)
			if err != nil {
				return err
			}
			if d[0] != byte(i) {
				return fmt.Errorf("out of order: got %d want %d", d[0], i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesBuffer(t *testing.T) {
	err := RunContext(context.Background(), 2, func(c Comm) error {
		if c.Rank() == 0 {
			buf := []byte("aaaa")
			if err := c.Send(1, 1, buf); err != nil {
				return err
			}
			copy(buf, "bbbb") // mutate after send
			return c.Send(1, 2, []byte("done"))
		}
		if _, err := c.Recv(0, 2); err != nil {
			return err
		}
		d, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		if string(d) != "aaaa" {
			return fmt.Errorf("send aliased caller buffer: %q", d)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInvalidRanks(t *testing.T) {
	err := RunContext(context.Background(), 2, func(c Comm) error {
		if err := c.Send(5, 1, nil); err == nil {
			return fmt.Errorf("send to rank 5 accepted")
		}
		if _, err := c.Recv(-1, 1); err == nil {
			return fmt.Errorf("recv from rank -1 accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunPropagatesError(t *testing.T) {
	sentinel := fmt.Errorf("rank failure")
	err := RunContext(context.Background(), 4, func(c Comm) error {
		if c.Rank() == 2 {
			return sentinel
		}
		// other ranks block on a message that never comes; Run must
		// unblock them by closing the world
		_, err := c.Recv((c.Rank()+1)%4, 99)
		if err != errClosed {
			return fmt.Errorf("expected errClosed, got %v", err)
		}
		return nil
	})
	if err == nil {
		t.Fatal("error not propagated")
	}
}

func TestStatsCounting(t *testing.T) {
	res := make([]Stats, 2)
	err := RunContext(context.Background(), 2, func(c Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 1, make([]byte, 1000)); err != nil {
				return err
			}
		} else {
			if _, err := c.Recv(0, 1); err != nil {
				return err
			}
		}
		res[c.Rank()] = c.Stats().Snapshot()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].BytesSent != 1000 || res[0].MsgsSent != 1 {
		t.Errorf("rank 0 stats: %+v", res[0])
	}
	if res[1].BytesRecv != 1000 || res[1].MsgsRecv != 1 {
		t.Errorf("rank 1 stats: %+v", res[1])
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := payload{Name: "x", Vals: []float64{1, 2.5}, Bytes: []byte("seq")}
	data, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := Decode(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != in.Name || !slices.Equal(out.Vals, in.Vals) || !bytes.Equal(out.Bytes, in.Bytes) {
		t.Fatalf("round trip: %+v", out)
	}
}
