package mpi

import (
	"bytes"
	"context"
	"fmt"
	"testing"
)

var worldSizes = []int{1, 2, 3, 4, 7, 8, 16}

func TestBcastAllSizes(t *testing.T) {
	for _, size := range worldSizes {
		err := RunContext(context.Background(), size, func(c Comm) error {
			var data []byte
			if c.Rank() == 0 {
				data = []byte("payload")
			}
			got, err := BcastValue(c, 1, data)
			if err != nil {
				return err
			}
			if string(got) != "payload" {
				return fmt.Errorf("rank %d got %q", c.Rank(), got)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("size=%d: %v", size, err)
		}
	}
}

func TestGather(t *testing.T) {
	for _, size := range worldSizes {
		err := RunContext(context.Background(), size, func(c Comm) error {
			data := []byte{byte(c.Rank()), byte(c.Rank() * 2)}
			got, err := GatherValues(c, 2, data)
			if err != nil {
				return err
			}
			if c.Rank() != 0 {
				if got != nil {
					return fmt.Errorf("non-root got %v", got)
				}
				return nil
			}
			if len(got) != size {
				return fmt.Errorf("root: %d entries", len(got))
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
			got, err := AllGatherValues(c, 3, []byte{byte(c.Rank() + 10)})
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

func TestAllToAll(t *testing.T) {
	for _, size := range worldSizes {
		err := RunContext(context.Background(), size, func(c Comm) error {
			parts := make([][]byte, size)
			for q := range parts {
				parts[q] = []byte{byte(c.Rank()), byte(q)}
			}
			got, err := AllToAllValues(c, 5, parts)
			if err != nil {
				return err
			}
			for src, d := range got {
				if len(d) != 2 || d[0] != byte(src) || d[1] != byte(c.Rank()) {
					return fmt.Errorf("rank %d from %d: %v", c.Rank(), src, d)
				}
			}
			if _, err := AllToAllValues(c, 6, append(parts, nil)); err == nil {
				return fmt.Errorf("%d parts for %d ranks accepted", size+1, size)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("size=%d: %v", size, err)
		}
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
		if c.Rank() == 0 {
			v = item{Rank: 2, Label: "root"}
		}
		if v, err = BcastValue(c, 12, v); err != nil {
			return err
		}
		if v != (item{Rank: 2, Label: "root"}) {
			return fmt.Errorf("bcast value %+v", v)
		}
		// GatherValues
		gathered, err := GatherValues(c, 13, item{Rank: c.Rank()})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			for r, it := range gathered {
				if it.Rank != r {
					return fmt.Errorf("gathered %d: %+v", r, it)
				}
			}
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
