package mpi

import (
	"bytes"
	"context"
	"fmt"
	"testing"
)

var worldSizes = []int{1, 2, 3, 4, 7, 8, 16}

func TestBcastAllSizesAllRoots(t *testing.T) {
	for _, size := range worldSizes {
		for root := 0; root < size; root++ {
			payload := []byte(fmt.Sprintf("payload-from-%d", root))
			err := RunContext(context.Background(), size, func(c Comm) error {
				var data []byte
				if c.Rank() == root {
					data = payload
				}
				got, err := Bcast(c, root, 1, data)
				if err != nil {
					return err
				}
				if !bytes.Equal(got, payload) {
					return fmt.Errorf("rank %d got %q", c.Rank(), got)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("size=%d root=%d: %v", size, root, err)
			}
		}
	}
}

func TestGather(t *testing.T) {
	for _, size := range worldSizes {
		err := RunContext(context.Background(), size, func(c Comm) error {
			data := []byte{byte(c.Rank()), byte(c.Rank() * 2)}
			got, err := Gather(c, 0, 2, data)
			if err != nil {
				return err
			}
			if c.Rank() != 0 {
				if got != nil {
					return fmt.Errorf("non-root got %v", got)
				}
				return nil
			}
			for r, d := range got {
				if len(d) != 2 || d[0] != byte(r) || d[1] != byte(r*2) {
					return fmt.Errorf("root: entry %d = %v", r, d)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("size=%d: %v", size, err)
		}
	}
}

func TestAllGather(t *testing.T) {
	for _, size := range worldSizes {
		err := RunContext(context.Background(), size, func(c Comm) error {
			got, err := AllGather(c, 3, []byte{byte(c.Rank() + 10)})
			if err != nil {
				return err
			}
			if len(got) != size {
				return fmt.Errorf("rank %d: %d entries", c.Rank(), len(got))
			}
			for r, d := range got {
				if len(d) != 1 || d[0] != byte(r+10) {
					return fmt.Errorf("rank %d: entry %d = %v", c.Rank(), r, d)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("size=%d: %v", size, err)
		}
	}
}

func TestScatter(t *testing.T) {
	for _, size := range worldSizes {
		err := RunContext(context.Background(), size, func(c Comm) error {
			var parts [][]byte
			if c.Rank() == 0 {
				parts = make([][]byte, size)
				for r := range parts {
					parts[r] = []byte{byte(r * 3)}
				}
			}
			got, err := Scatter(c, 0, 4, parts)
			if err != nil {
				return err
			}
			if len(got) != 1 || got[0] != byte(c.Rank()*3) {
				return fmt.Errorf("rank %d got %v", c.Rank(), got)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("size=%d: %v", size, err)
		}
	}
}

func TestScatterValidatesParts(t *testing.T) {
	err := RunContext(context.Background(), 2, func(c Comm) error {
		if c.Rank() == 0 {
			_, err := Scatter(c, 0, 4, [][]byte{{1}}) // wrong count
			if err == nil {
				return fmt.Errorf("short parts accepted")
			}
			// unblock rank 1
			return c.Send(1, 4, []byte{9})
		}
		_, err := Scatter(c, 0, 4, nil)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllToAll(t *testing.T) {
	for _, size := range worldSizes {
		err := RunContext(context.Background(), size, func(c Comm) error {
			parts := make([][]byte, size)
			for q := range parts {
				parts[q] = []byte{byte(c.Rank()), byte(q)}
			}
			got, err := AllToAll(c, 5, parts)
			if err != nil {
				return err
			}
			for src, d := range got {
				if len(d) != 2 || d[0] != byte(src) || d[1] != byte(c.Rank()) {
					return fmt.Errorf("rank %d from %d: %v", c.Rank(), src, d)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("size=%d: %v", size, err)
		}
	}
}

func TestBarrier(t *testing.T) {
	// A barrier must not deadlock and must complete for every size.
	for _, size := range worldSizes {
		err := RunContext(context.Background(), size, func(c Comm) error {
			for round := 0; round < 3; round++ {
				if err := Barrier(c, 100+round); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("size=%d: %v", size, err)
		}
	}
}

func TestReduceFloat64(t *testing.T) {
	err := RunContext(context.Background(), 5, func(c Comm) error {
		x := float64(c.Rank() + 1) // 1..5
		sum, err := ReduceFloat64(c, 0, 6, x, "sum")
		if err != nil {
			return err
		}
		if c.Rank() == 0 && sum != 15 {
			return fmt.Errorf("sum = %g", sum)
		}
		mn, err := AllReduceFloat64(c, 7, x, "min")
		if err != nil {
			return err
		}
		if mn != 1 {
			return fmt.Errorf("rank %d min = %g", c.Rank(), mn)
		}
		mx, err := AllReduceFloat64(c, 8, x, "max")
		if err != nil {
			return err
		}
		if mx != 5 {
			return fmt.Errorf("rank %d max = %g", c.Rank(), mx)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceUnknownOp(t *testing.T) {
	err := RunContext(context.Background(), 1, func(c Comm) error {
		_, err := ReduceFloat64(c, 0, 9, 1, "median")
		if err == nil {
			return fmt.Errorf("unknown op accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTypedCollectives(t *testing.T) {
	err := RunContext(context.Background(), 4, func(c Comm) error {
		// AllGatherValues
		all, err := AllGatherValues(c, 10, item{Rank: c.Rank(), Label: "x"})
		if err != nil {
			return err
		}
		for r, it := range all {
			if it.Rank != r || it.Label != "x" {
				return fmt.Errorf("allgather entry %d: %+v", r, it)
			}
		}
		// AllToAllValues
		parts := make([]item, 4)
		for q := range parts {
			parts[q] = item{Rank: c.Rank()*10 + q, Label: "y"}
		}
		got, err := AllToAllValues(c, 11, parts)
		if err != nil {
			return err
		}
		for src, it := range got {
			if it.Rank != src*10+c.Rank() {
				return fmt.Errorf("alltoall from %d: %+v", src, it)
			}
		}
		// BcastValue
		var v item
		if c.Rank() == 2 {
			v = item{Rank: 2, Label: "root"}
		}
		if err := BcastValue(c, 2, 12, v, &v); err != nil {
			return err
		}
		if v.Label != "root" {
			return fmt.Errorf("bcast value %+v", v)
		}
		// GatherValues + ScatterValues
		gathered, err := GatherValues(c, 1, 13, item{Rank: c.Rank()})
		if err != nil {
			return err
		}
		if c.Rank() == 1 {
			for r, it := range gathered {
				if it.Rank != r {
					return fmt.Errorf("gathered %d: %+v", r, it)
				}
			}
		}
		var scatterIn []item
		if c.Rank() == 1 {
			scatterIn = make([]item, 4)
			for r := range scatterIn {
				scatterIn[r] = item{Rank: r * 7}
			}
		}
		mine, err := ScatterValues(c, 1, 14, scatterIn)
		if err != nil {
			return err
		}
		if mine.Rank != c.Rank()*7 {
			return fmt.Errorf("scatter got %+v", mine)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPackUnpackSlices(t *testing.T) {
	in := [][]byte{nil, []byte("a"), []byte("hello world"), {}}
	out, err := unpackSlices(packSlices(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("%d parts", len(out))
	}
	for i := range in {
		if !bytes.Equal(out[i], in[i]) {
			t.Errorf("part %d: %v != %v", i, out[i], in[i])
		}
	}
	if _, err := unpackSlices([]byte{1, 2}); err == nil {
		t.Error("truncated buffer accepted")
	}
	if _, err := unpackSlices(append(packSlices(in), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
}
