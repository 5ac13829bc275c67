package mpi

import (
	"encoding/binary"
	"fmt"
)

// The collectives are implemented over point-to-point Send/Recv with
// simple fan-in/fan-out patterns, and rank 0 is the root of every one
// that has a root. Every collective takes a caller-chosen tag; the whole
// world must call the same collective with the same tag (standard SPMD
// discipline). Broadcast uses a log-p tree, the personalised exchange is
// direct sends, matching the coarse-grained cost model the paper
// assumes (§3).
//
// The bodies below move raw bytes; the typed collectives in codec.go
// call them. gather and allToAll hand their buffers over with sendOwned,
// because the typed collectives encoded them a moment ago and nobody
// else holds them. bcast copies with Comm.Send: one buffer goes to
// several ranks there, and each must own what it gets.

// bcast sends rank 0's data to every rank along a binomial tree and
// returns the received copy (rank 0 returns its own data unchanged). At
// step s, every rank r < s that already holds the data sends it to r+s;
// rank r (> 0) receives from r - 2^floor(log2 r) before it starts
// forwarding.
func bcast(c Comm, tag int, data []byte) ([]byte, error) {
	size, rank := c.Size(), c.Rank()
	if rank != 0 {
		d, err := c.Recv(parentOf(rank), tag)
		if err != nil {
			return nil, err
		}
		data = d
	}
	for step := 1; step < size; step <<= 1 {
		if child := rank + step; rank < step && child < size {
			if err := c.Send(child, tag, data); err != nil {
				return nil, err
			}
		}
	}
	return data, nil
}

// parentOf returns the binomial-tree parent of rank r (> 0): r minus
// its highest power of two, i.e. the rank it receives from.
func parentOf(r int) int {
	p := 1
	for p<<1 <= r {
		p <<= 1
	}
	return r - p
}

// gather collects every rank's data at rank 0. There the result is a
// slice indexed by rank (rank 0's own entry included); other ranks get
// nil.
func gather(c Comm, tag int, data []byte) ([][]byte, error) {
	if c.Rank() != 0 {
		return nil, sendOwned(c, 0, tag, data)
	}
	out := make([][]byte, c.Size())
	out[0] = data
	for r := 1; r < len(out); r++ {
		d, err := c.Recv(r, tag)
		if err != nil {
			return nil, err
		}
		out[r] = d
	}
	return out, nil
}

// allGather gives every rank the slice of every rank's data: a gather
// at rank 0, which broadcasts the framed result.
func allGather(c Comm, tag int, data []byte) ([][]byte, error) {
	gathered, err := gather(c, tag, data)
	if err != nil {
		return nil, err
	}
	if c.Rank() == 0 {
		_, err := bcast(c, tag, packSlices(gathered))
		return gathered, err
	}
	packed, err := bcast(c, tag, nil)
	if err != nil {
		return nil, err
	}
	return unpackSlices(packed)
}

// allToAll performs the personalised exchange at the heart of the
// redistribution step: rank r sends parts[q] to rank q and receives one
// part from every rank, returned indexed by source rank.
func allToAll(c Comm, tag int, parts [][]byte) ([][]byte, error) {
	size, rank := c.Size(), c.Rank()
	if len(parts) != size {
		return nil, fmt.Errorf("mpi: alltoall %d parts for %d ranks", len(parts), size)
	}
	out := make([][]byte, size)
	out[rank] = parts[rank]
	// send first (buffered sends cannot deadlock), then receive
	for off := 1; off < size; off++ {
		to := (rank + off) % size
		if err := sendOwned(c, to, tag, parts[to]); err != nil {
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
