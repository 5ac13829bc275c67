package kmer

import (
	"context"
	"math/bits"
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
// CSR — the distinct codes ascending, each with the start of its list
// in one flat posting array — plus a bucket table over the top bits of
// the code that finds a code's position in one probe and a short scan.
// Its size is the number of profile entries plus a bucket table of at
// most 4·distinct+2 and at most 2^bucketBits+1 entries, never the size
// of the code space.
type index struct {
	// the distinct codes ascending, then a sentinel whose start is
	// len(post): the list of lists[c].code is
	// post[lists[c].start:lists[c+1].start]
	lists   []list
	post    []posting // ascending seq inside each list
	windows []int     // Profile.Windows of every reference sequence
	// lists[first[b]:first[b+1]] hold the codes with code>>shift == b;
	// when shift is 0 a bucket holds at most one code
	first []int32
	shift uint
	accs  sync.Pool // *[]int32 accumulators of len(windows) cells, all zero
}

// list is one distinct code of an index and the start of its postings.
type list struct {
	code  uint32
	start int32
}

// bucketBits bounds the bucket table at 2^16+1 entries (256 KiB), one
// bucket per code for the default Dayhoff 6-mers (6⁶ = 46 656 codes)
// once an index holds 2^14 distinct codes (a few dozen sequences of
// length 300). A smaller index gets a table sized by its distinct codes,
// so that a handful of short sequences does not pay for 2^16 buckets;
// there, and in wider code spaces, a bucket spans 2^shift codes.
const bucketBits = 16

// buildIndex inverts the reference profiles. Their entries are gathered
// in sequence order as keys — the code in the low 32 bits, the entry's
// place in that order above it — and sorted by code with a stable LSD
// radix sort, so each list comes out in ascending sequence order without
// comparing sequence numbers.
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
	keys := make([]uint64, 0, total)
	gathered := make([]posting, 0, total)
	for j, p := range ref {
		for _, e := range p.Entries {
			keys = append(keys, uint64(len(keys))<<32|uint64(e.Code))
			gathered = append(gathered, posting{int32(j), e.Count})
		}
	}
	keys = radixSort(keys, make([]uint64, total), maxCode)
	distinct := 0
	for i, x := range keys {
		if i == 0 || uint32(x) != uint32(keys[i-1]) {
			distinct++
		}
	}
	ix := &index{
		lists:   make([]list, 0, distinct+1),
		post:    make([]posting, total),
		windows: windows,
	}
	// one bucket bit more than the distinct count has (more buckets
	// than codes, at most 4·distinct+2 table entries), at most
	// bucketBits, and never more than the codes' own bits
	width := bits.Len32(maxCode)
	ix.shift = uint(width - min(width, bits.Len(uint(distinct))+1, bucketBits))
	for i, x := range keys {
		if i == 0 || uint32(x) != uint32(keys[i-1]) {
			ix.lists = append(ix.lists, list{uint32(x), int32(i)})
		}
		ix.post[i] = gathered[x>>32]
	}
	ix.first = make([]int32, maxCode>>ix.shift+2)
	b := 0
	for c, l := range ix.lists {
		for ; b <= int(l.code>>ix.shift); b++ {
			ix.first[b] = int32(c)
		}
	}
	for ; b < len(ix.first); b++ {
		ix.first[b] = int32(distinct)
	}
	ix.lists = append(ix.lists, list{start: int32(total)})
	ix.accs.New = func() any {
		acc := make([]int32, len(windows))
		return &acc
	}
	return ix
}

// radixBits is the widest digit of the package's radix sort: its 256
// counters are cleared per pass and cost little beside a profile's few
// hundred codes, and the 16-bit Dayhoff 6-mer codes sort in two passes
// (31-bit codes in four).
const radixBits = 8

// radixSort sorts xs by their low 32 bits, the key, equal keys keeping
// their order, with an LSD radix sort over the bits maxKey occupies: as
// few passes as digits of radixBits need, each digit as narrow as that
// many passes allow. spare is a buffer of len(xs); the sorted slice
// returned is xs or spare. Profile sorts its window codes with it and
// buildIndex its entries.
func radixSort[T ~uint32 | ~uint64](xs, spare []T, maxKey uint32) []T {
	width := bits.Len32(maxKey)
	if width == 0 {
		return xs
	}
	passes := (width + radixBits - 1) / radixBits
	digit := uint((width + passes - 1) / passes)
	mask := uint32(1)<<digit - 1
	var counts [1 << radixBits]int
	next := counts[:1<<digit]
	for shift := uint(0); shift < uint(width); shift += digit {
		clear(next)
		for _, x := range xs {
			next[uint32(x)>>shift&mask]++
		}
		// counts to start offsets; the running sum stays in a register
		// (summing through the array waits on every store it just made)
		sum := 0
		for d, n := range next {
			next[d] = sum
			sum += n
		}
		for _, x := range xs {
			d := uint32(x) >> shift & mask
			spare[next[d]] = x
			next[d]++
		}
		xs, spare = spare, xs
	}
	return xs
}

// accumulate adds the shared k-mer count of target t and reference
// sequence j — the integer common(t, reference[j]) — into acc[j], for
// every j above after that shares any k-mer with t. Each of t's codes is
// found through its bucket, and only its list is visited, from its
// tail down to after, so the cost is the number of (k-mer, sequence)
// cells the target actually shares with that part of the reference. It
// returns that number.
func (ix *index) accumulate(t Profile, after int32, acc []int32) (hits int64) {
	for _, e := range t.Entries {
		b := int(e.Code >> ix.shift)
		if b+1 >= len(ix.first) {
			break // t's codes ascend: the rest are beyond the reference's
		}
		c, end := ix.first[b], ix.first[b+1]
		for c < end && ix.lists[c].code < e.Code {
			c++
		}
		if c == end || ix.lists[c].code != e.Code {
			continue
		}
		list := ix.post[ix.lists[c].start:ix.lists[c+1].start]
		k := len(list) - 1
		for ; k >= 0 && list[k].seq > after; k-- {
			acc[list[k].seq] += min(e.Count, list[k].count)
		}
		hits += int64(len(list) - 1 - k)
	}
	return hits
}

// upperRow writes the distance of target t, which is reference
// sequence i, to every reference sequence j > i into row[j-i-1]: the
// row's stretch of the upper triangle. acc is all zero on entry and on
// return. It returns the posting cells visited.
func (ix *index) upperRow(t Profile, i int, acc []int32, row []float64) int64 {
	hits := ix.accumulate(t, int32(i), acc)
	for j := i + 1; j < len(acc); j++ {
		row[j-i-1] = 1 - similarityOf(int(acc[j]), ix.windows[i], ix.windows[j])
		acc[j] = 0
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
	var total atomic.Int64
	err := par.ForCtx(ctx, n, rowBlock, workers, func(lo, hi int) {
		acc := ix.accs.Get().(*[]int32)
		var sum int64
		for i := lo; i < hi; i++ {
			sum += row(i, *acc)
		}
		ix.accs.Put(acc)
		total.Add(sum)
	})
	return total.Load(), err
}
