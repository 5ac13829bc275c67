package kmer

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/par"
)

// posting is one cell of an inverted list: reference sequence seq holds
// count copies of the list's k-mer.
type posting struct {
	seq, count int32
}

// index is a reference set turned inside out: for every k-mer code that
// occurs in the set, the list of sequences holding it. It is stored as
// CSR — the distinct codes ascending, and one flat posting array cut
// into per-code lists — so its size is the number of profile entries,
// never the size of the code space.
type index struct {
	codes   []uint32  // distinct k-mer codes, ascending
	start   []int     // list of codes[c] is post[start[c]:start[c+1]]
	post    []posting // ascending seq inside each list
	windows []int     // Profile.Windows of every reference sequence
}

// cell is one profile entry on its way into the index: a posting and
// the code of the list it belongs to.
type cell struct {
	code uint32
	posting
}

// radixBits is the digit width of the index build's radix sort: 2048
// counters stay cache-resident, and the 16-bit codes of the default
// Dayhoff 6-mers sort in two passes (31-bit codes in three).
const radixBits = 11

// buildIndex inverts the reference profiles. Their entries are gathered
// in sequence order and sorted by code with a stable LSD radix sort, so
// each list comes out in ascending sequence order without comparing
// sequence numbers.
func buildIndex(ref []Profile) *index {
	total, maxCode := 0, uint32(0)
	windows := make([]int, len(ref))
	for j, p := range ref {
		windows[j] = p.Windows
		total += len(p.Entries)
		if n := len(p.Entries); n > 0 && p.Entries[n-1].Code > maxCode {
			maxCode = p.Entries[n-1].Code
		}
	}
	cells := make([]cell, 0, total)
	for j, p := range ref {
		for _, e := range p.Entries {
			cells = append(cells, cell{e.Code, posting{int32(j), e.Count}})
		}
	}
	cells = sortCellsRadix(cells, maxCode)
	distinct := 0
	for i, c := range cells {
		if i == 0 || c.code != cells[i-1].code {
			distinct++
		}
	}
	ix := &index{
		codes:   make([]uint32, 0, distinct),
		start:   make([]int, 0, distinct+1),
		post:    make([]posting, total),
		windows: windows,
	}
	for i, c := range cells {
		if i == 0 || c.code != cells[i-1].code {
			ix.codes = append(ix.codes, c.code)
			ix.start = append(ix.start, i)
		}
		ix.post[i] = c.posting
	}
	ix.start = append(ix.start, total)
	return ix
}

// sortCellsRadix sorts cells by code, equal codes keeping their order,
// over the digits maxCode occupies. It returns the sorted slice, which
// is cells or a buffer of the same length.
func sortCellsRadix(cells []cell, maxCode uint32) []cell {
	spare := make([]cell, len(cells))
	for shift := 0; maxCode>>shift != 0; shift += radixBits {
		var next [1 << radixBits]int
		for _, c := range cells {
			next[(c.code>>shift)&(1<<radixBits-1)]++
		}
		// counts to start offsets; the running sum stays in a register
		// (summing through the array waits on every store it just made)
		sum := 0
		for d := range next {
			n := next[d]
			next[d] = sum
			sum += n
		}
		for _, c := range cells {
			d := (c.code >> shift) & (1<<radixBits - 1)
			spare[next[d]] = c
			next[d]++
		}
		cells, spare = spare, cells
	}
	return cells
}

// seek returns the first position at or after from whose code is not
// below code, galloping forward from from: a profile's ascending codes
// are located in time logarithmic in the distance between them, not by
// walking the index.
func (ix *index) seek(from int, code uint32) int {
	lo, hi, step := from, from, 1
	for hi < len(ix.codes) && ix.codes[hi] < code {
		lo = hi + 1
		hi += step
		step *= 2
	}
	hi = min(hi, len(ix.codes))
	pos, _ := slices.BinarySearch(ix.codes[lo:hi], code)
	return lo + pos
}

// accumulate adds the shared k-mer count of target t and reference
// sequence j — the integer common(t, reference[j]) — into acc[j], for
// every j above after that shares any k-mer with t. Only t's own lists
// are visited, and each from its tail down to after, so the cost is the
// number of (k-mer, sequence) cells the target actually shares with
// that part of the reference. It returns that number.
func (ix *index) accumulate(t Profile, after int32, acc []int32) (hits int64) {
	c := 0
	for _, e := range t.Entries {
		c = ix.seek(c, e.Code)
		if c == len(ix.codes) {
			break
		}
		if ix.codes[c] != e.Code {
			continue
		}
		list := ix.post[ix.start[c]:ix.start[c+1]]
		k := len(list) - 1
		for ; k >= 0 && list[k].seq > after; k-- {
			acc[list[k].seq] += min(e.Count, list[k].count)
		}
		hits += int64(len(list) - 1 - k)
		c++
	}
	return hits
}

// rowBlock is how many consecutive sequences one dispatch hands a
// worker, in Profiles and in the index sweep: it amortises the dispatch
// and the sweep's accumulator borrow, while leaving the triangle's heavy
// early rows spread over all workers.
const rowBlock = 8

// sweep calls row(i, acc) for every i in [0,n) in dynamically
// dispatched blocks. acc has one cell per reference sequence and is all
// zero on entry; row must leave it all zero. It returns the summed
// results of row, which is the same for every worker count.
func (ix *index) sweep(ctx context.Context, n, workers int, row func(i int, acc []int32) int64) (int64, error) {
	accs := sync.Pool{New: func() any {
		acc := make([]int32, len(ix.windows))
		return &acc
	}}
	var total atomic.Int64
	err := par.ForCtx(ctx, n, rowBlock, workers, func(lo, hi int) {
		acc := accs.Get().(*[]int32)
		var sum int64
		for i := lo; i < hi; i++ {
			sum += row(i, *acc)
		}
		accs.Put(acc)
		total.Add(sum)
	})
	return total.Load(), err
}
