package kmer

import (
	"context"
	"math/bits"
	"sync"
	"sync/atomic"
	"weak"

	"repro/internal/dp"
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
// of the code space. Its storage comes from the indexes pool and goes
// back to it when the caller is done with the index (release).
type index struct {
	// the distinct codes ascending, then a sentinel whose start is
	// len(post): the list of lists[c].code is
	// post[lists[c].start:lists[c+1].start]
	lists   []list
	post    []posting // ascending seq inside each list; its cap is the pool class
	windows []int     // Profile.Windows of every reference sequence
	// lists[first[b]:first[b+1]] hold the codes with code>>shift == b;
	// when shift is 0 a bucket holds at most one code
	first []int32
	shift uint

	// the sweep's accumulators, len(windows) cells each, all zero when
	// free: acc is their storage and free the ones no block holds
	mu   sync.Mutex
	acc  []int32
	free [][]int32

	ref *weak.Pointer[index] // what release pools, made on the first release
}

// keyBuf is buildIndex's working storage for the keys of a size class,
// pooled between builds: the gathered keys, or the radix sort's spare.
type keyBuf struct {
	s   []uint64
	ref *weak.Pointer[keyBuf]
}

// indexes and keyBufs recycle index and build storage weakly, one pool
// per size class of the entry count (sizeClass). Every index of a job's
// ranks, matrices and buckets is built, swept and dropped in turn, so
// the next build takes what the last one left instead of allocating it
// again.
var (
	indexes dp.WeakPool[index]
	keyBufs dp.WeakPool[keyBuf]
)

// takeKeys returns pooled key storage of class, or new storage of size.
func takeKeys(class, size int) *keyBuf {
	if b := keyBufs.Get(class); b != nil {
		return b
	}
	return &keyBuf{s: make([]uint64, size)}
}

// sizeClass returns the class of storage for n ≥ 1 entries and the
// entries such storage holds, the same class for n = size. Above 4,
// the octave (2^(k-1), 2^k] is cut into four classes a quarter of
// 2^(k-1) apart, so storage holds under a quarter more than asked for.
// Classes of whole powers of two would double it at worst, and the one
// large index of a big set, rarely reused, would pay that in full.
func sizeClass(n int) (class, size int) {
	k := bits.Len(uint(n - 1)) // 2^(k-1) < n ≤ 2^k
	if k < 3 {
		return k, 1 << k
	}
	base, step := 1<<(k-1), 1<<(k-3)
	q := (n - base + step - 1) / step // 1 … 4
	return 4*k + q, base + q*step
}

// grow returns s resliced to n, or a new slice of n if s has no room.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// release hands the index's storage back to the pool once its caller
// has returned the last result read from it; the index must not be
// used afterwards.
func (ix *index) release() {
	class, _ := sizeClass(cap(ix.post))
	indexes.Put(class, ix, &ix.ref)
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
// in sequence order as keys — the code in the low 32 bits, the
// sequence above it — and sorted by code with a stable LSD radix sort,
// so each list comes out in ascending sequence order without comparing
// sequence numbers. A sequence's entries ascend by code too, so the
// sorted keys visit each sequence's entries in its own order: a cursor
// per sequence finds an entry's count without storing it in the key.
func buildIndex(ref []Profile) *index {
	total, maxCode := 0, uint32(0)
	for _, p := range ref {
		total += len(p.Entries)
		if n := len(p.Entries); n > 0 && p.Entries[n-1].Code > maxCode {
			maxCode = p.Entries[n-1].Code
		}
	}
	class, size := sizeClass(max(total, 1))
	kb, sb := takeKeys(class, size), takeKeys(class, size)
	keys := kb.s[:0]
	for j, p := range ref {
		for _, e := range p.Entries {
			keys = append(keys, uint64(j)<<32|uint64(e.Code))
		}
	}
	if keys = radixSort(keys, sb.s[:total], maxCode); total > 0 && &keys[0] == &sb.s[0] {
		kb, sb = sb, kb
	}
	// The spare is dead: pooled now, a collection during the rest of
	// the build may free it, as it could when the sort made it.
	keyBufs.Put(class, sb, &sb.ref)
	distinct := 0
	for i, x := range keys {
		if i == 0 || uint32(x) != uint32(keys[i-1]) {
			distinct++
		}
	}
	ix := indexes.Get(class)
	if ix == nil {
		ix = &index{post: make([]posting, size)}
	}
	ix.lists, ix.post = grow(ix.lists, distinct+1)[:0], ix.post[:total]
	// one bucket bit more than the distinct count has (more buckets
	// than codes, at most 4·distinct+2 table entries), at most
	// bucketBits, and never more than the codes' own bits
	width := bits.Len32(maxCode)
	ix.shift = uint(width - min(width, bits.Len(uint(distinct))+1, bucketBits))
	next := grow(ix.acc, len(ref)) // the cursors; the sweep clears acc
	clear(next)
	for i, x := range keys {
		if i == 0 || uint32(x) != uint32(keys[i-1]) {
			ix.lists = append(ix.lists, list{uint32(x), int32(i)})
		}
		j := x >> 32
		ix.post[i] = posting{int32(j), ref[j].Entries[next[j]].Count}
		next[j]++
	}
	ix.acc = next
	keyBufs.Put(class, kb, &kb.ref)
	ix.windows = grow(ix.windows, len(ref))
	for j, p := range ref {
		ix.windows[j] = p.Windows
	}
	ix.first = grow(ix.first, int(maxCode>>ix.shift)+2)
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
	if workers <= 0 {
		workers = par.DefaultWorkers()
	}
	// one accumulator per block that can run at once
	m, running := len(ix.windows), min(workers, (n+rowBlock-1)/rowBlock)
	ix.acc = grow(ix.acc, running*m)
	clear(ix.acc)
	ix.free = ix.free[:0]
	for k := range running {
		ix.free = append(ix.free, ix.acc[k*m:][:m])
	}
	var total atomic.Int64
	err := par.ForCtx(ctx, n, rowBlock, workers, func(lo, hi int) {
		ix.mu.Lock()
		acc := ix.free[len(ix.free)-1]
		ix.free = ix.free[:len(ix.free)-1]
		ix.mu.Unlock()
		var sum int64
		for i := lo; i < hi; i++ {
			sum += row(i, acc)
		}
		ix.mu.Lock()
		ix.free = append(ix.free, acc)
		ix.mu.Unlock()
		total.Add(sum)
	})
	return total.Load(), err
}
