package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The collectives are implemented over point-to-point Send/Recv with
// simple fan-in/fan-out patterns. Every collective takes a caller-chosen
// tag; the whole world must call the same collective with the same tag
// (standard SPMD discipline). Broadcast and barrier use log-p trees, the
// personalised exchanges are direct sends, matching the coarse-grained
// cost model the paper assumes (§3).
//
// Gather, AllGather, Scatter and AllToAll each have an unexported body
// that takes the send to use: the exported raw-bytes form passes
// Comm.Send, which copies what it is given; the typed helpers in
// codec.go pass sendOwned, because the buffers they send were encoded a
// moment ago and nobody else holds them. Bcast always copies — one
// buffer goes to several ranks there, and each must own what it gets.

// sendFunc is Comm.Send or sendOwned.
type sendFunc func(c Comm, to, tag int, data []byte) error

// Barrier blocks until every rank has entered it.
func Barrier(c Comm, tag int) error {
	// all-reduce of nothing via gather-to-0 + broadcast
	if _, err := Gather(c, 0, tag, nil); err != nil {
		return err
	}
	_, err := Bcast(c, 0, tag, nil)
	return err
}

// Bcast sends root's data to every rank along a binomial tree and
// returns the received copy (root returns its own data unchanged).
func Bcast(c Comm, root, tag int, data []byte) ([]byte, error) {
	size, rank := c.Size(), c.Rank()
	if root < 0 || root >= size {
		return nil, fmt.Errorf("mpi: bcast root %d of %d", root, size)
	}
	// Rotate ranks so the root is virtual rank 0, then run a binomial
	// tree: at step s, every virtual rank v < s that already holds the
	// data sends it to v+s. Virtual rank v (>0) receives from
	// v - 2^floor(log2 v) before it starts forwarding.
	vrank := (rank - root + size) % size
	if vrank != 0 {
		parent := (parentOf(vrank) + root) % size
		d, err := c.Recv(parent, tag)
		if err != nil {
			return nil, err
		}
		data = d
	}
	for step := 1; step < size; step <<= 1 {
		if vrank < step {
			child := vrank + step
			if child < size {
				if err := c.Send((child+root)%size, tag, data); err != nil {
					return nil, err
				}
			}
		}
	}
	return data, nil
}

// parentOf returns the binomial-tree parent of virtual rank v (> 0):
// v minus its highest power of two, i.e. the rank it receives from.
func parentOf(v int) int {
	p := 1
	for p<<1 <= v {
		p <<= 1
	}
	return v - p
}

// Gather collects every rank's data at root. At root the result is a
// slice indexed by rank (root's own entry included); other ranks get nil.
func Gather(c Comm, root, tag int, data []byte) ([][]byte, error) {
	return gather(c, root, tag, data, Comm.Send)
}

func gather(c Comm, root, tag int, data []byte, send sendFunc) ([][]byte, error) {
	size, rank := c.Size(), c.Rank()
	if rank != root {
		return nil, send(c, root, tag, data)
	}
	out := make([][]byte, size)
	out[root] = data
	for r := 0; r < size; r++ {
		if r == root {
			continue
		}
		d, err := c.Recv(r, tag)
		if err != nil {
			return nil, err
		}
		out[r] = d
	}
	return out, nil
}

// AllGather gives every rank the slice of every rank's data.
func AllGather(c Comm, tag int, data []byte) ([][]byte, error) {
	return allGather(c, tag, data, Comm.Send)
}

func allGather(c Comm, tag int, data []byte, send sendFunc) ([][]byte, error) {
	gathered, err := gather(c, 0, tag, data, send)
	if err != nil {
		return nil, err
	}
	if c.Rank() == 0 {
		packed := packSlices(gathered)
		if _, err := Bcast(c, 0, tag, packed); err != nil {
			return nil, err
		}
		return gathered, nil
	}
	packed, err := Bcast(c, 0, tag, nil)
	if err != nil {
		return nil, err
	}
	return unpackSlices(packed)
}

// Scatter distributes parts[r] from root to rank r and returns this
// rank's part. Only root's parts argument is consulted.
func Scatter(c Comm, root, tag int, parts [][]byte) ([]byte, error) {
	return scatter(c, root, tag, parts, Comm.Send)
}

func scatter(c Comm, root, tag int, parts [][]byte, send sendFunc) ([]byte, error) {
	size, rank := c.Size(), c.Rank()
	if rank == root {
		if len(parts) != size {
			return nil, fmt.Errorf("mpi: scatter %d parts for %d ranks", len(parts), size)
		}
		for r := 0; r < size; r++ {
			if r == root {
				continue
			}
			if err := send(c, r, tag, parts[r]); err != nil {
				return nil, err
			}
		}
		return parts[root], nil
	}
	return c.Recv(root, tag)
}

// AllToAll performs the personalised exchange at the heart of the
// redistribution step: rank r sends parts[q] to rank q and receives one
// part from every rank, returned indexed by source rank.
func AllToAll(c Comm, tag int, parts [][]byte) ([][]byte, error) {
	return allToAll(c, tag, parts, Comm.Send)
}

func allToAll(c Comm, tag int, parts [][]byte, send sendFunc) ([][]byte, error) {
	size, rank := c.Size(), c.Rank()
	if len(parts) != size {
		return nil, fmt.Errorf("mpi: alltoall %d parts for %d ranks", len(parts), size)
	}
	out := make([][]byte, size)
	out[rank] = parts[rank]
	// send first (buffered sends cannot deadlock), then receive
	for off := 1; off < size; off++ {
		to := (rank + off) % size
		if err := send(c, to, tag, parts[to]); err != nil {
			return nil, err
		}
	}
	for off := 1; off < size; off++ {
		from := (rank - off + size) % size
		d, err := c.Recv(from, tag)
		if err != nil {
			return nil, err
		}
		out[from] = d
	}
	return out, nil
}

// ReduceFloat64 combines one float64 per rank at root with op
// ("sum", "min", "max"); non-root ranks return 0.
func ReduceFloat64(c Comm, root, tag int, x float64, op string) (float64, error) {
	switch op {
	case "sum", "min", "max":
	default:
		return 0, fmt.Errorf("mpi: unknown reduce op %q", op)
	}
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint64(buf, math.Float64bits(x))
	gathered, err := Gather(c, root, tag, buf)
	if err != nil {
		return 0, err
	}
	if c.Rank() != root {
		return 0, nil
	}
	acc := x
	for r, d := range gathered {
		if r == root {
			continue
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(d))
		switch op {
		case "sum":
			acc += v
		case "min":
			if v < acc {
				acc = v
			}
		case "max":
			if v > acc {
				acc = v
			}
		default:
			return 0, fmt.Errorf("mpi: unknown reduce op %q", op)
		}
	}
	return acc, nil
}

// AllReduceFloat64 is ReduceFloat64 followed by a broadcast, so every
// rank gets the combined value.
func AllReduceFloat64(c Comm, tag int, x float64, op string) (float64, error) {
	v, err := ReduceFloat64(c, 0, tag, x, op)
	if err != nil {
		return 0, err
	}
	buf := make([]byte, 8)
	if c.Rank() == 0 {
		binary.LittleEndian.PutUint64(buf, math.Float64bits(v))
	}
	out, err := Bcast(c, 0, tag, buf)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(out)), nil
}

// packSlices frames a [][]byte into one buffer and unpackSlices takes it
// apart again: the wire format's [][]byte (see codec.go), so the parts
// alias buf and a count or length larger than buf is an error.
func packSlices(parts [][]byte) []byte {
	size := binary.MaxVarintLen64
	for _, p := range parts {
		size += binary.MaxVarintLen64 + len(p)
	}
	buf := AppendUint(make([]byte, 0, size), uint64(len(parts)))
	for _, p := range parts {
		buf = AppendBytes(buf, p)
	}
	return buf
}

func unpackSlices(buf []byte) ([][]byte, error) {
	var parts [][]byte
	err := Decode(buf, &parts)
	return parts, err
}
