// Package kmer implements k-mer counting, the MUSCLE-style k-mer
// similarity/distance between sequences, distance matrices, and the
// Sample-Align-D k-mer rank R = log(0.1 + D) used to order sequences for
// phylogenetic sampling and redistribution.
//
// Counting runs over a compressed alphabet (bio.Dayhoff6 by default):
// grouping chemically similar residues makes short k-mers sensitive to
// distant homology (Edgar, NAR 2004). Sequences become sparse sorted
// k-mer count profiles (window codes radix-sorted, then run-length
// counted). One pair is compared by merging its two profiles (common,
// similarity, Distance). Whole sets are not compared pair by pair:
// DistanceMatrixContext and RanksContext invert the reference set once
// into posting lists — for every k-mer, the sequences that hold it
// (index.go) — and then each row finds its own k-mers' lists through a
// bucket table over the codes' top bits (one probe for the default
// Dayhoff 6-mers over a few dozen sequences or more, a short scan in
// wider code spaces and small sets) and walks only those lists, so a
// pair costs the k-mers it shares instead of the length of both
// profiles. A set ranked against itself is walked as a
// triangle, each unordered pair once. The shared count is the integer
// the merge produces and the float operations after it are the same,
// summed in the same order, so every route gives bit-identical
// distances and ranks; the merge is the oracle the tests hold the index
// to.
//
// An index's storage — postings, lists, buckets, windows, accumulators,
// and the keys its build sorts — comes from pools and goes back to them
// when the call that built it returns, so that the many small indexes
// of a job service's small jobs are built in the storage of the last
// one. The pools hold it weakly (weak.Pointer, as profile's column
// pools do): pooled storage is garbage to the collector, taken again if
// asked for before the next collection and freed by it otherwise. Held
// strongly, it would count as live heap at every collection, raising
// the heap goal and so peak RSS, which is what makes a strongly held
// pool cost more memory than it saves.
package kmer

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"repro/internal/bio"
	"repro/internal/obs"
	"repro/internal/par"
)

// DefaultK is the k-mer length used throughout the reproduction; k=6
// over the six-class Dayhoff alphabet matches MUSCLE's protein default.
const DefaultK = 6

// Counter turns sequences into k-mer count profiles over a compressed
// alphabet.
type Counter struct {
	comp *bio.Compressed
	k    int
}

// NewCounter returns a Counter for k-mers of length k over the compressed
// alphabet comp. It fails if k is out of range or the code space
// comp.Len()^k overflows the 32-bit k-mer codes.
func NewCounter(comp *bio.Compressed, k int) (*Counter, error) {
	if k < 1 {
		return nil, fmt.Errorf("kmer: k = %d, want >= 1", k)
	}
	code := 1.0
	for i := 0; i < k; i++ {
		code *= float64(comp.Len())
		if code > float64(1<<31) {
			return nil, fmt.Errorf("kmer: %d^%d k-mer codes overflow uint32", comp.Len(), k)
		}
	}
	return &Counter{comp: comp, k: k}, nil
}

// MustCounter is NewCounter that panics on error, for package constants.
func MustCounter(comp *bio.Compressed, k int) *Counter {
	c, err := NewCounter(comp, k)
	if err != nil {
		panic(err)
	}
	return c
}

// Entry is one k-mer code with its occurrence count.
type Entry struct {
	Code  uint32
	Count int32
}

// Profile is a sparse k-mer count profile: entries sorted by code, plus
// the window count used as the similarity denominator.
type Profile struct {
	Entries []Entry
	Windows int // number of valid k-mer windows (≈ len-k+1)
	SeqLen  int // ungapped sequence length
}

// codeBufs holds Profile's scratch (*[]uint32), so that profiling a set
// allocates only the profiles' entries.
var codeBufs = sync.Pool{New: func() any { return new([]uint32) }}

// Profile counts the k-mers of data (gap bytes and residues outside the
// compressed alphabet break windows, matching how MUSCLE skips X runs).
func (c *Counter) Profile(data []byte) Profile {
	k := c.k
	size := uint32(c.comp.Len())
	windows := max(0, len(data)-k+1)
	bp := codeBufs.Get().(*[]uint32)
	defer codeBufs.Put(bp)
	if cap(*bp) < 2*windows {
		*bp = make([]uint32, 2*windows)
	}
	buf := (*bp)[:2*windows] // the window codes, then the sort's spare
	codes := buf[:0:windows]
	hi := uint32(1) // size^(k-1): modulus that keeps the last k-1 classes
	for i := 1; i < k; i++ {
		hi *= size
	}
	mod := newFastMod(hi)
	var (
		code uint32
		run  int // valid residues seen since the last window break
		nres int
	)
	for _, b := range data {
		if b == bio.Gap {
			continue
		}
		nres++
		cl := c.comp.Class(b)
		if cl < 0 {
			run, code = 0, 0
			continue
		}
		code = mod.of(code)*size + uint32(cl)
		run++
		if run >= k {
			codes = append(codes, code)
		}
	}
	codes = radixSort(codes, buf[windows:][:len(codes)], hi*size-1)
	entries := make([]Entry, 0, len(codes))
	for i := 0; i < len(codes); {
		j := i
		for j < len(codes) && codes[j] == codes[i] {
			j++
		}
		entries = append(entries, Entry{Code: codes[i], Count: int32(j - i)})
		i = j
	}
	return Profile{Entries: entries, Windows: len(codes), SeqLen: nres}
}

// fastMod is x % d by two multiplies instead of a divide (Lemire,
// Kaser and Kurz, "Faster remainder by direct computation", 2019):
// with m = ⌈2^64/d⌉, the remainder is the high word of (m·x mod 2^64)·d,
// exact for every 32-bit x and d ≥ 1. At d = 1, m wraps to 0 and so
// does the remainder.
type fastMod struct {
	m uint64
	d uint32
}

func newFastMod(d uint32) fastMod { return fastMod{m: ^uint64(0)/uint64(d) + 1, d: d} }

// of returns x % d.
func (f fastMod) of(x uint32) uint32 {
	r, _ := bits.Mul64(f.m*uint64(x), uint64(f.d))
	return uint32(r)
}

// Profiles computes the profiles of all sequences, in parallel.
func (c *Counter) Profiles(seqs []bio.Sequence, workers int) []Profile {
	out := make([]Profile, len(seqs))
	par.For(len(seqs), rowBlock, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = c.Profile(seqs[i].Data)
		}
	})
	return out
}

// common returns Σ_τ min(n_a(τ), n_b(τ)), the shared k-mer count, by
// merging the two sorted profiles.
func common(a, b Profile) int {
	var sum int
	i, j := 0, 0
	for i < len(a.Entries) && j < len(b.Entries) {
		ea, eb := a.Entries[i], b.Entries[j]
		switch {
		case ea.Code < eb.Code:
			i++
		case ea.Code > eb.Code:
			j++
		default:
			if ea.Count < eb.Count {
				sum += int(ea.Count)
			} else {
				sum += int(eb.Count)
			}
			i++
			j++
		}
	}
	return sum
}

// similarity is the paper's r(x_i,x_j): shared k-mers normalised by the
// window count of the shorter sequence. It lies in [0,1]; identical
// sequences score 1.
func similarity(a, b Profile) float64 {
	return similarityOf(common(a, b), a.Windows, b.Windows)
}

// similarityOf turns a shared k-mer count and the two window counts into
// r(x_i,x_j). The pair API and the index kernel both finish through it,
// which is what makes their floats identical.
func similarityOf(shared, windowsA, windowsB int) float64 {
	den := min(windowsA, windowsB)
	if den <= 0 {
		return 0
	}
	s := float64(shared) / float64(den)
	if s > 1 {
		s = 1
	}
	return s
}

// Distance is 1 − similarity: 0 for k-mer-identical sequences, 1 for
// sequences sharing no k-mers.
func Distance(a, b Profile) float64 { return 1 - similarity(a, b) }

// Matrix is a symmetric distance matrix stored in condensed upper-
// triangular form.
type Matrix struct {
	N int
	d []float64 // N*(N-1)/2 entries, row-major upper triangle
}

// NewMatrix allocates an N×N zero distance matrix.
func NewMatrix(n int) *Matrix {
	return &Matrix{N: n, d: make([]float64, n*(n-1)/2)}
}

func (m *Matrix) idx(i, j int) int {
	if i > j {
		i, j = j, i
	}
	// offset of row i plus column distance
	return i*(2*m.N-i-1)/2 + (j - i - 1)
}

// At returns the distance between items i and j (0 when i == j).
func (m *Matrix) At(i, j int) float64 {
	if i == j {
		return 0
	}
	return m.d[m.idx(i, j)]
}

// Set stores the distance between distinct items i and j.
func (m *Matrix) Set(i, j int, v float64) {
	if i == j {
		return
	}
	m.d[m.idx(i, j)] = v
}

// DistanceMatrixContext computes all pairwise k-mer distances between
// the profiles. The set is inverted once (buildIndex); row i then walks
// the posting lists of its own k-mers down to sequence i, summing
// min(count_i, count_j) into an accumulator cell per column, and turns
// the cells into distances straight into its stretch of the condensed
// triangle. Each cell is written by exactly one row from the same
// integer and the same float operations as Distance, so the matrix is
// bit-identical to the pair-by-pair loop for every worker count. Rows
// are dispatched in dynamic blocks and stop on cancellation. The span
// records the index size ("postings") and the posting cells visited
// ("hits").
func DistanceMatrixContext(ctx context.Context, profiles []Profile, workers int) (*Matrix, error) {
	ctx, sp := obs.Start(ctx, "distmatrix")
	defer sp.End()
	sp.SetStr("method", "kmer")
	sp.SetInt("n", int64(len(profiles)))
	sp.SetInt("workers", int64(workers))
	n := len(profiles)
	m := NewMatrix(n)
	if n < 2 {
		return m, ctx.Err()
	}
	ix := buildIndex(profiles)
	hits, err := ix.sweep(ctx, n-1, workers, func(i int, acc []int32) int64 {
		return ix.upperRow(profiles[i], i, acc, m.d[m.idx(i, i+1):][:n-i-1])
	})
	postings := len(ix.post)
	ix.release()
	if err != nil {
		return nil, err
	}
	sp.SetInt("postings", int64(postings))
	sp.SetInt("hits", hits)
	return m, nil
}

// DefaultRankScale calibrates ranks to the paper's reported numeric range.
// Table 1 of the paper reports ranks in [0, 1.46] with R = log(0.1 + D);
// that range implies the authors' D accumulated to ≈4× the normalised
// k-mer distance fraction, so the default scale is 4.
const DefaultRankScale = 4.0

// rank maps an average k-mer distance D to the Sample-Align-D rank
// R = ln(0.1 + scale·D). Monotone in D, so ordering by rank equals
// ordering by average distance.
func rank(d, scale float64) float64 { return math.Log(0.1 + scale*d) }

// avgDistancesContext returns, for every target profile, its mean k-mer
// distance to the reference set (the paper's D_i). A target that also
// appears in the reference contributes its self-distance of 0, exactly
// as the paper's centralised definition does. It runs on the same
// kernel as DistanceMatrixContext with the reference inverted and every
// list walked whole; the distances are summed in ascending reference
// order, so every mean is bit-identical to the loop over Distance. When
// ctx carries an open span, the posting cells visited are recorded on
// it as "hits". Targets stop being dispatched on cancellation.
func avgDistancesContext(ctx context.Context, targets, reference []Profile, workers int) ([]float64, error) {
	out := make([]float64, len(targets))
	if len(reference) == 0 {
		return out, ctx.Err()
	}
	ix := buildIndex(reference)
	hits, err := ix.sweep(ctx, len(targets), workers, func(i int, acc []int32) int64 {
		hits := ix.accumulate(targets[i], -1, acc)
		windows := targets[i].Windows
		var sum float64
		for j, shared := range acc {
			sum += 1 - similarityOf(int(shared), windows, ix.windows[j])
			acc[j] = 0
		}
		out[i] = sum / float64(len(reference))
		return hits
	})
	ix.release()
	obs.Current(ctx).SetInt("hits", hits)
	return out, err
}

// triangleBlock is how many rows selfAvgDistancesContext computes
// before folding them into the row sums; its buffer holds
// triangleBlock·n distances.
const triangleBlock = 64

// selfAvgDistancesContext is avgDistancesContext(ctx, profiles,
// profiles, workers) from each unordered pair's distance once.
// d(i, j) and d(j, i) are the same float (the shared count is symmetric
// and similarityOf takes the smaller window count), so row i of the
// square is d(0, i) … d(i−1, i), the self term, then d(i, i+1) …
// d(i, n−1). Rows go in blocks of triangleBlock: the block's rows write
// their d(i, j > i) into a buffer in parallel, then one goroutine folds
// the block in ascending i, adding the self term and then each d(i, j)
// into the sums of both i and j. Every row therefore sums in ascending
// j, as the square does, for any block size and worker count. The span
// records "hits": each shared unordered (k-mer, pair) cell once, plus
// every sequence's own entries as its self term.
func selfAvgDistancesContext(ctx context.Context, profiles []Profile, workers int) ([]float64, error) {
	n := len(profiles)
	sums := make([]float64, n)
	if n == 0 {
		return sums, ctx.Err()
	}
	ix := buildIndex(profiles)
	buf := make([]float64, min(triangleBlock, n)*n)
	var hits int64
	for lo := 0; lo < n; lo += triangleBlock {
		hi := min(lo+triangleBlock, n)
		h, err := ix.sweep(ctx, hi-lo, workers, func(r int, acc []int32) int64 {
			i := lo + r
			return ix.upperRow(profiles[i], i, acc, buf[r*n:][:n-i-1])
		})
		if err != nil {
			ix.release()
			return nil, err
		}
		hits += h
		for i := lo; i < hi; i++ {
			w := ix.windows[i] // common(p, p) = Σ counts = p.Windows
			s := sums[i] + (1 - similarityOf(w, w, w))
			for k, d := range buf[(i-lo)*n:][:n-i-1] {
				s += d
				sums[i+1+k] += d
			}
			sums[i] = s
			hits += int64(len(profiles[i].Entries))
		}
	}
	ix.release()
	for i := range sums {
		sums[i] /= float64(n)
	}
	obs.Current(ctx).SetInt("hits", hits)
	return sums, nil
}

// RanksContext computes the k-mer rank of every target against the
// reference set: centralised ranks when reference is the full data set,
// globalised ranks when it is the k·p sample. When targets and
// reference are the same slice (a block ranked against itself), each
// unordered pair is compared once; the ranks are the same floats either
// way.
func RanksContext(ctx context.Context, targets, reference []Profile, scale float64, workers int) ([]float64, error) {
	var ds []float64
	var err error
	if len(targets) > 0 && len(targets) == len(reference) && &targets[0] == &reference[0] {
		ds, err = selfAvgDistancesContext(ctx, targets, workers)
	} else {
		ds, err = avgDistancesContext(ctx, targets, reference, workers)
	}
	if err != nil {
		return nil, err
	}
	for i, d := range ds {
		ds[i] = rank(d, scale)
	}
	return ds, nil
}
