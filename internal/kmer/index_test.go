package kmer

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"weak"

	"repro/internal/bio"
)

// The oracle: the pair API in a double loop, exactly what the matrix
// and the ranks were before the index. Every test below demands the
// index kernel's floats equal these bit for bit.

func pairwiseMatrix(profiles []Profile) *Matrix {
	n := len(profiles)
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.Set(i, j, Distance(profiles[i], profiles[j]))
		}
	}
	return m
}

func pairwiseAvg(targets, reference []Profile) []float64 {
	out := make([]float64, len(targets))
	if len(reference) == 0 {
		return out
	}
	for i := range targets {
		var sum float64
		for j := range reference {
			sum += Distance(targets[i], reference[j])
		}
		out[i] = sum / float64(len(reference))
	}
	return out
}

var indexWorkers = []int{1, 2, 3, 8}

// checkIndexMatchesPairwise holds the matrix of reference and the mean
// distances of targets to reference to the oracle, at every worker
// count.
func checkIndexMatchesPairwise(t testing.TB, targets, reference []Profile) {
	t.Helper()
	ctx := context.Background()
	wantM, wantAvg := pairwiseMatrix(reference), pairwiseAvg(targets, reference)
	for _, w := range indexWorkers {
		m, err := DistanceMatrixContext(ctx, reference, w)
		if err != nil {
			t.Fatalf("workers=%d: matrix: %v", w, err)
		}
		if m.N != wantM.N || len(m.d) != len(wantM.d) {
			t.Fatalf("workers=%d: matrix of %d (%d cells), want %d (%d cells)", w, m.N, len(m.d), wantM.N, len(wantM.d))
		}
		for c := range m.d {
			if math.Float64bits(m.d[c]) != math.Float64bits(wantM.d[c]) {
				t.Fatalf("workers=%d: condensed cell %d = %v, pairwise %v", w, c, m.d[c], wantM.d[c])
			}
		}
		avg, err := avgDistancesContext(ctx, targets, reference, w)
		if err != nil {
			t.Fatalf("workers=%d: avg: %v", w, err)
		}
		if len(avg) != len(wantAvg) {
			t.Fatalf("workers=%d: %d means for %d targets", w, len(avg), len(wantAvg))
		}
		for i := range avg {
			if math.Float64bits(avg[i]) != math.Float64bits(wantAvg[i]) {
				t.Fatalf("workers=%d: target %d mean = %v, pairwise %v", w, i, avg[i], wantAvg[i])
			}
		}
	}
}

func profilesOf(c *Counter, seqs ...string) []Profile {
	out := make([]Profile, len(seqs))
	for i, s := range seqs {
		out[i] = c.Profile([]byte(s))
	}
	return out
}

func randomProfiles(c *Counter, rng *rand.Rand, n, minLen, spread int) []Profile {
	out := make([]Profile, n)
	for i := range out {
		out[i] = c.Profile(randomSeq(rng, minLen+rng.Intn(spread)))
	}
	return out
}

func TestIndexMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	diverse := randomProfiles(testCounter, rng, 70, 40, 120)
	// Families: mutated copies share most k-mers, so lists are long and
	// counts above one are common.
	var families []Profile
	for f := 0; f < 6; f++ {
		anc := randomSeq(rng, 150)
		for m := 0; m < 8; m++ {
			s := bytes.Clone(anc)
			for x := 0; x < 10*m; x++ {
				s[rng.Intn(len(s))] = bio.AminoAcids.Letters()[rng.Intn(20)]
			}
			families = append(families, testCounter.Profile(s))
		}
	}
	odd := profilesOf(testCounter,
		"", "A", "AC", // no window at all
		"ACD", "ACD", "ACD", // duplicates, one window
		"ACDXEFG", "XXXXXXXX", "AC-D--EFGHIK", "ACXDEXFGXHI", // breaks and gaps
		"MKVLAAGGTWYHHKDEDEDEMKVLAAGG", "MKVLAAGGTWYHHKDEDEDEMKVLAAGG",
		"WWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWW", "WWWWW", // one k-mer, high counts
		"CCCCCCCCCC",
	)
	identical := profilesOf(testCounter, "MKVLAAGGTWYHHKDE", "MKVLAAGGTWYHHKDE", "MKVLAAGGTWYHHKDE", "MKVLAAGGTWYHHKDE")
	wide := MustCounter(bio.Identity(bio.AminoAcids), 7)
	cases := []struct {
		name               string
		targets, reference []Profile
	}{
		{"diverse", diverse, diverse},
		{"families", families, families},
		{"identical", identical, identical},
		{"windowless and broken", odd, odd},
		{"targets contained in reference", diverse[10:30], diverse},
		{"reference contained in targets", diverse, diverse[20:25]},
		{"targets disjoint from reference", profilesOf(testCounter, "WWWWWWWW", "WWWWCCCC", ""), profilesOf(testCounter, "CCCCCCCC", "GGGGGGGG", "AC")},
		{"targets beyond the reference's codes", profilesOf(testCounter, "WWWWWWWW"), profilesOf(testCounter, "AAAAAAAA")},
		{"single reference", diverse, diverse[:1]},
		{"no targets", nil, diverse[:5]},
		{"empty reference", diverse[:3], nil},
		{"20 letters, k=7", randomProfiles(wide, rng, 30, 5, 300), randomProfiles(wide, rng, 40, 5, 300)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkIndexMatchesPairwise(t, tc.targets, tc.reference)
		})
	}
}

// TestIndexPropertyRandomSets sweeps random set shapes: any counter,
// any mix of lengths from below k upward, targets overlapping the
// reference by a random amount.
func TestIndexPropertyRandomSets(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	counters := []*Counter{testCounter, MustCounter(bio.Dayhoff6, 1), MustCounter(bio.Dayhoff6, DefaultK), MustCounter(bio.Identity(bio.AminoAcids), 7)}
	for trial := 0; trial < 40; trial++ {
		c := counters[trial%len(counters)]
		pool := randomProfiles(c, rng, 2+rng.Intn(40), 0, 1+rng.Intn(200))
		for d := rng.Intn(5); d > 0; d-- {
			pool = append(pool, pool[rng.Intn(len(pool))])
		}
		cut := rng.Intn(len(pool) + 1)
		lo := rng.Intn(cut + 1)
		checkIndexMatchesPairwise(t, pool[lo:], pool[:cut])
	}
}

func TestRanksAreRankedAvgDistances(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	profiles := randomProfiles(testCounter, rng, 10, 80, 1)
	ranks, err := RanksContext(context.Background(), profiles, profiles, DefaultRankScale, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := pairwiseAvg(profiles, profiles)
	if len(ranks) != len(want) {
		t.Fatalf("got %d ranks", len(ranks))
	}
	for i := range ranks {
		if ranks[i] != rank(want[i], DefaultRankScale) {
			t.Fatalf("rank %d = %v, want %v", i, ranks[i], rank(want[i], DefaultRankScale))
		}
	}
}

// checkTriangleMatchesSquare holds the ranks of a set against itself —
// the aliased call, which walks the triangle — to the square sweep over
// a copy of the set and to the Distance double loop, bit for bit, at
// every worker count given.
func checkTriangleMatchesSquare(t testing.TB, profiles []Profile, workers ...int) {
	t.Helper()
	ctx := context.Background()
	wantAvg := pairwiseAvg(profiles, profiles)
	for _, w := range workers {
		avg, err := selfAvgDistancesContext(ctx, profiles, w)
		if err != nil {
			t.Fatalf("workers=%d: triangle: %v", w, err)
		}
		tri, err := RanksContext(ctx, profiles, profiles, DefaultRankScale, w)
		if err != nil {
			t.Fatalf("workers=%d: ranks: %v", w, err)
		}
		square, err := RanksContext(ctx, profiles, slices.Clone(profiles), DefaultRankScale, w)
		if err != nil {
			t.Fatalf("workers=%d: square ranks: %v", w, err)
		}
		if len(avg) != len(wantAvg) || len(tri) != len(wantAvg) || len(square) != len(wantAvg) {
			t.Fatalf("workers=%d: %d means, %d and %d ranks for %d sequences", w, len(avg), len(tri), len(square), len(wantAvg))
		}
		for i := range wantAvg {
			if math.Float64bits(avg[i]) != math.Float64bits(wantAvg[i]) {
				t.Fatalf("workers=%d: sequence %d: triangle mean %v, pairwise %v", w, i, avg[i], wantAvg[i])
			}
			if math.Float64bits(tri[i]) != math.Float64bits(square[i]) {
				t.Fatalf("workers=%d: sequence %d: triangle rank %v, square %v", w, i, tri[i], square[i])
			}
		}
	}
}

// TestTriangleRanksMatchSquare: the local rank's triangle gives the
// square's floats on every set shape, across block edges and worker
// counts.
func TestTriangleRanksMatchSquare(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const B = triangleBlock
	identical := make([]Profile, B+3)
	for i := range identical {
		identical[i] = testCounter.Profile([]byte("MKVLAAGGTWYHHKDE"))
	}
	// windowless: shorter than k, or no residue in the alphabet; their
	// self distance is 1, not 0
	windowless := profilesOf(testCounter, "", "A", "AC", "XXXXXXXX", "BJOUZ", "ACDEFG", "AC-D", "XXXXXXXX")
	mixed := append(randomProfiles(testCounter, rng, B+5, 0, 40), windowless...)
	rng.Shuffle(len(mixed), func(i, j int) { mixed[i], mixed[j] = mixed[j], mixed[i] })
	cases := []struct {
		name     string
		profiles []Profile
	}{
		{"n=0", nil},
		{"n=1", randomProfiles(testCounter, rng, 1, 20, 40)},
		{"n=2", randomProfiles(testCounter, rng, 2, 20, 40)},
		{"random", randomProfiles(testCounter, rng, 40, 10, 200)},
		{"identical", identical},
		{"windowless", windowless},
		{"windowless among random", mixed},
		{"n=B-1", randomProfiles(testCounter, rng, B-1, 30, 100)},
		{"n=B", randomProfiles(testCounter, rng, B, 30, 100)},
		{"n=B+1", randomProfiles(testCounter, rng, B+1, 30, 100)},
		{"n=2B+1", randomProfiles(testCounter, rng, 2*B+1, 30, 100)},
		{"Dayhoff-6 k=6, n=2B+1", randomProfiles(MustCounter(bio.Dayhoff6, DefaultK), rng, 2*B+1, 30, 300)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkTriangleMatchesSquare(t, tc.profiles, 1, 2, 8)
		})
	}
}

// TestBucketLookupMatchesMerge holds the index's bucket lookup to the
// common merge where the bucket table is exact (Dayhoff-6 6-mers over
// enough sequences: one code per bucket) and where buckets hold many
// codes and the lookup scans (Dayhoff-6 k = 9 and 11, 20 letters k = 7,
// and any code space over a few short sequences). Beside profiles of
// random sequences, hand-made profiles carry the codes on bucket edges
// — the first and last code of a bucket and their neighbours — code 0
// and the code space's last code (2³¹−1 beside the 20-letter 7-mers);
// some targets carry codes beyond the reference's largest.
func TestBucketLookupMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	cases := []struct {
		name  string
		c     *Counter
		last  uint32 // the largest code a hand-made profile carries
		shift uint
	}{
		{"Dayhoff-6 k=6", MustCounter(bio.Dayhoff6, 6), 46656 - 1, 0},
		{"Dayhoff-6 k=9", MustCounter(bio.Dayhoff6, 9), 10077696 - 1, 8},
		{"Dayhoff-6 k=11", MustCounter(bio.Dayhoff6, 11), 362797056 - 1, 13},
		{"20 letters k=7", MustCounter(bio.Identity(bio.AminoAcids), 7), 1<<31 - 1, 15},
	}
	handMade := func(codes []uint32) Profile {
		slices.Sort(codes)
		codes = slices.Compact(codes)
		p := Profile{}
		for _, c := range codes {
			n := int32(1 + rng.Intn(3))
			p.Entries = append(p.Entries, Entry{Code: c, Count: n})
			p.Windows += int(n)
		}
		return p
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			last := tc.last
			var edges []uint32
			for _, b := range []uint32{1, 2, 7, 100, last >> tc.shift} {
				lo := b << tc.shift
				for _, c := range []uint32{lo - 1, lo, lo + 1, lo + 1<<tc.shift - 2, lo + 1<<tc.shift - 1} {
					if c <= last {
						edges = append(edges, c)
					}
				}
			}
			edges = append(edges, 0, last)
			ref := randomProfiles(tc.c, rng, 120, 250, 100)
			for i := 0; i < 10; i++ {
				var codes []uint32
				for _, c := range edges {
					if rng.Intn(2) == 0 {
						codes = append(codes, c)
					}
				}
				ref = append(ref, handMade(codes))
			}
			ref = append(ref, handMade(slices.Clone(edges)))
			targets := append(slices.Clone(ref), randomProfiles(tc.c, rng, 10, 5, 300)...)
			targets = append(targets, handMade([]uint32{0, last}), handMade([]uint32{last}))
			// below is the reference without any profile holding the last
			// code, so that targets reach beyond its largest code
			below := slices.DeleteFunc(slices.Clone(ref), func(p Profile) bool {
				return len(p.Entries) > 0 && p.Entries[len(p.Entries)-1].Code == last
			})

			ix := buildIndex(ref)
			if ix.shift != tc.shift {
				t.Fatalf("bucket shift %d over %d distinct codes, want %d", ix.shift, len(ix.lists)-1, tc.shift)
			}
			if len(ix.first) > 1<<bucketBits+1 {
				t.Fatalf("bucket table of %d entries", len(ix.first))
			}
			if tc.shift == 0 {
				for b := 0; b+1 < len(ix.first); b++ {
					if ix.first[b+1]-ix.first[b] > 1 {
						t.Fatalf("bucket %d holds %d codes; the table should be exact", b, ix.first[b+1]-ix.first[b])
					}
				}
			}
			// a few short sequences: the table is sized by their codes
			few := randomProfiles(tc.c, rng, 4, 20, 80)
			for _, reference := range [][]Profile{ref, below, few} {
				ix := buildIndex(reference)
				if distinct := len(ix.lists) - 1; len(ix.first) > 4*distinct+2 {
					t.Fatalf("bucket table of %d entries over %d distinct codes", len(ix.first), distinct)
				}
				acc := make([]int32, len(reference))
				for i, tp := range targets {
					ix.accumulate(tp, -1, acc)
					for j := range reference {
						if want := common(tp, reference[j]); int(acc[j]) != want {
							t.Fatalf("%d references: target %d, reference %d: index %d, merge %d", len(reference), i, j, acc[j], want)
						}
					}
					clear(acc)
				}
			}
		})
	}
}

// TestProfileSortMatchesSlicesSort holds the radix sort Profile runs
// on its window codes to slices.Sort: on codes of up to 16 and up to 31
// bits directly, and through Profile itself, whose entries must be the
// run-length of the codes sorted by slices.Sort.
func TestProfileSortMatchesSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{0, 1, 2, 255, 256, 257, 5000} {
		for _, maxKey := range []uint32{46655, 1<<31 - 1} {
			codes := make([]uint32, n)
			for i := range codes {
				codes[i] = uint32(rng.Int63n(int64(maxKey) + 1))
				if rng.Intn(3) == 0 && i > 0 {
					codes[i] = codes[rng.Intn(i)]
				}
			}
			want := slices.Clone(codes)
			slices.Sort(want)
			if got := radixSort(codes, make([]uint32, n), maxKey); !slices.Equal(got, want) {
				t.Fatalf("n=%d maxKey=%d: radix sort differs from slices.Sort", n, maxKey)
			}
		}
		for _, c := range []*Counter{MustCounter(bio.Dayhoff6, DefaultK), MustCounter(bio.Identity(bio.AminoAcids), 7)} {
			seq := randomSeq(rng, n+c.k-1) // exactly n windows
			if n == 0 {
				seq = nil
			}
			var codes []uint32
			for i := 0; i+c.k <= len(seq); i++ {
				code := uint32(0)
				for _, b := range seq[i : i+c.k] {
					code = code*uint32(c.comp.Len()) + uint32(c.comp.Class(b))
				}
				codes = append(codes, code)
			}
			slices.Sort(codes)
			var want []Entry
			for i, code := range codes {
				if i > 0 && code == codes[i-1] {
					want[len(want)-1].Count++
					continue
				}
				want = append(want, Entry{Code: code, Count: 1})
			}
			p := c.Profile(seq)
			if p.Windows != n || !slices.Equal(p.Entries, want) {
				t.Fatalf("n=%d, %d^%d codes: profile of %d windows differs from the slices.Sort oracle", n, c.comp.Len(), c.k, p.Windows)
			}
		}
	}
}

func TestIndexCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	profiles := randomProfiles(testCounter, rng, 300, 60, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DistanceMatrixContext(ctx, profiles, 4); err == nil {
		t.Fatal("cancelled matrix returned nil error")
	}
	if _, err := RanksContext(ctx, profiles, profiles, DefaultRankScale, 4); err == nil {
		t.Fatal("cancelled ranks returned nil error")
	}
}

// TestSizeClassesFitTightly: a class's storage holds n entries and
// under a quarter more (above 4), storage of a class's size is of that
// class, and classes ascend with n.
func TestSizeClassesFitTightly(t *testing.T) {
	prev := -1
	for n := 1; n <= 1<<16; n++ {
		class, size := sizeClass(n)
		if size < n || (n > 4 && 4*size >= 5*n) {
			t.Fatalf("n=%d: class %d holds %d", n, class, size)
		}
		if c, s := sizeClass(size); c != class || s != size {
			t.Fatalf("n=%d: storage of %d is class %d (%d), want %d", n, size, c, s, class)
		}
		if class < prev || class >= len(indexes) {
			t.Fatalf("n=%d: class %d after %d, of %d", n, class, prev, len(indexes))
		}
		prev = class
	}
	if class, _ := sizeClass(math.MaxInt); class >= len(indexes) {
		t.Fatalf("largest class %d, of %d", class, len(indexes))
	}
}

// poisonPooled fills every index and key buffer the pools hold with
// garbage up to its capacity — postings of a huge count, zeroed lists
// and buckets, one-window sequences, non-zero accumulator and cursor
// cells, keys pointing nowhere — and pools it again. It returns the indexes so that
// the caller holds them strongly until the next build has had its
// chance to take one.
func poisonPooled() []*index {
	var ixs []*index
	for k := range indexes {
		for ix := indexes.Get(k); ix != nil; ix = indexes.Get(k) {
			ixs = append(ixs, ix)
		}
		var kbs []*keyBuf
		for b := keyBufs.Get(k); b != nil; b = keyBufs.Get(k) {
			kbs = append(kbs, b)
		}
		for _, b := range kbs {
			for i := range b.s {
				b.s[i] = ^uint64(0)
			}
			keyBufs.Put(k, b, &b.ref)
		}
	}
	for _, ix := range ixs {
		clear(ix.lists[:cap(ix.lists)])
		clear(ix.first[:cap(ix.first)])
		for i := range ix.post[:cap(ix.post)] {
			ix.post[:cap(ix.post)][i] = posting{0, 1 << 20}
		}
		for i := range ix.windows[:cap(ix.windows)] {
			ix.windows[:cap(ix.windows)][i] = 1
		}
		for i := range ix.acc[:cap(ix.acc)] {
			ix.acc[:cap(ix.acc)][i] = 1 << 20
		}
		ix.release()
	}
	return ixs
}

// TestReleasedIndexIsGarbage: the pools hold a released index and its
// build's keys weakly, so storage that nothing takes again is freed by
// the next collection. Pooled through a pointer into it (the address of
// a field or an element), it would stay live through that collection.
func TestReleasedIndexIsGarbage(t *testing.T) {
	ix := buildIndex(randomProfiles(testCounter, rand.New(rand.NewSource(41)), 20, 50, 50))
	class, _ := sizeClass(len(ix.post))
	wix := weak.Make(ix)
	ix.release()
	ix = nil
	// the build pooled its two key buffers (the race detector's pools
	// drop a quarter of what they are given)
	var keys []*keyBuf
	for b := keyBufs.Get(class); b != nil; b = keyBufs.Get(class) {
		keys = append(keys, b)
	}
	var wkeys []weak.Pointer[keyBuf]
	for _, b := range keys {
		wkeys = append(wkeys, weak.Make(b))
		keyBufs.Put(class, b, &b.ref)
	}
	keys = nil
	runtime.GC()
	if wix.Value() != nil {
		t.Fatal("a released index outlived a collection: its pool holds it")
	}
	for _, w := range wkeys {
		if w.Value() != nil {
			t.Fatal("pooled keys outlived a collection: their pool holds them")
		}
	}
}

// TestIndexReuseMatchesPairwise builds a large index, a small one and a
// large one again, each from storage a previous build released and
// poisonPooled then filled with garbage. Every matrix and every rank
// must still equal the pair-by-pair loop bit for bit: no posting, list,
// bucket or accumulator cell of one build may reach the next. The test
// also demands that some build did take poisoned storage, so that it
// cannot pass by never reusing any.
func TestIndexReuseMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	// exact buckets, and buckets of many codes that a lookup scans
	for _, c := range []*Counter{testCounter, MustCounter(bio.Identity(bio.AminoAcids), 4)} {
		large := randomProfiles(c, rng, 90, 100, 100)
		small := randomProfiles(c, rng, 6, 10, 40)
		large2 := randomProfiles(c, rng, 90, 100, 100)
		reused := 0
		for round := range 4 {
			for _, set := range [][]Profile{large, small, large2} {
				held := poisonPooled()
				checkIndexMatchesPairwise(t, set[:len(set)-round], set)
				checkTriangleMatchesSquare(t, set, 1, 3)
				for _, ix := range held {
					if ix.post[:1][0].count != 1<<20 {
						reused++
					}
				}
			}
		}
		if reused == 0 {
			t.Fatalf("%d^%d codes: no build took pooled storage", c.comp.Len(), c.k)
		}
	}
}

// TestIndexSizedByEntriesNotCodeSpace: 20 letters at k=7 is 1.28·10⁹
// codes. The index over 40 short sequences must cost what its ~8000
// profile entries cost plus a bucket table of at most 2^16+1 entries;
// any table indexed by code would be gigabytes.
func TestIndexSizedByEntriesNotCodeSpace(t *testing.T) {
	wide := MustCounter(bio.Identity(bio.AminoAcids), 7)
	rng := rand.New(rand.NewSource(19))
	profiles := randomProfiles(wide, rng, 40, 200, 1)
	entries := 0
	for _, p := range profiles {
		entries += len(p.Entries)
	}
	ix := buildIndex(profiles)
	if len(ix.post) != entries || len(ix.lists) > entries+1 || len(ix.first) > 1<<bucketBits+1 {
		t.Fatalf("index of %d entries holds %d postings, %d lists, %d buckets", entries, len(ix.post), len(ix.lists), len(ix.first))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := DistanceMatrixContext(context.Background(), profiles, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := avgDistancesContext(context.Background(), profiles, profiles, 1); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const ceiling = 4 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > ceiling {
		t.Fatalf("matrix + ranks over %d entries allocated %d bytes, ceiling %d", entries, got, ceiling)
	}
}

// TestIndexHitsCountSharedCells pins what the kernel's work count is:
// one per (k-mer, sequence pair) cell the set shares — each unordered
// pair once in the matrix, each ordered (target, reference) pair in the
// ranks — whatever the worker count.
func TestIndexHitsCountSharedCells(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	profiles := randomProfiles(testCounter, rng, 50, 30, 60)
	shared := func(a, b Profile) (n int64) {
		for _, ea := range a.Entries {
			for _, eb := range b.Entries {
				if ea.Code == eb.Code {
					n++
				}
			}
		}
		return n
	}
	var upper, all int64
	for i := range profiles {
		for j := range profiles {
			all += shared(profiles[i], profiles[j])
			if j > i {
				upper += shared(profiles[i], profiles[j])
			}
		}
	}
	ix := buildIndex(profiles)
	for _, w := range indexWorkers {
		got, err := ix.sweep(context.Background(), len(profiles), w, func(i int, acc []int32) int64 {
			defer clear(acc)
			return ix.accumulate(profiles[i], int32(i), acc)
		})
		if err != nil || got != upper {
			t.Fatalf("workers=%d: matrix hits = %d (%v), want %d", w, got, err, upper)
		}
		got, err = ix.sweep(context.Background(), len(profiles), w, func(i int, acc []int32) int64 {
			defer clear(acc)
			return ix.accumulate(profiles[i], -1, acc)
		})
		if err != nil || got != all {
			t.Fatalf("workers=%d: rank hits = %d (%v), want %d", w, got, err, all)
		}
	}
}

// TestRadixSortIsTheStableSortByCode holds the index build's radix sort
// to slices.SortStableFunc on keys in gathering order (the code in the
// low 32 bits, the place above it): ties keep that order, so every list
// comes out in ascending sequence order.
func TestRadixSortIsTheStableSortByCode(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{0, 1, 2, 3, 17, 300, 1<<radixBits - 1, 1 << radixBits, 5000} {
		for _, maxCode := range []uint32{0, 1, 5, 1<<radixBits - 1, 1 << radixBits, 1<<16 - 1, 1<<31 - 1} {
			keys := make([]uint64, n)
			for i := range keys {
				code := uint32(rng.Int63n(int64(maxCode) + 1))
				if rng.Intn(3) == 0 && i > 0 {
					code = uint32(keys[rng.Intn(i)]) // force ties
				}
				keys[i] = uint64(i)<<32 | uint64(code)
			}
			want := slices.Clone(keys)
			slices.SortStableFunc(want, func(a, b uint64) int { return cmp.Compare(uint32(a), uint32(b)) })
			if got := radixSort(keys, make([]uint64, n), maxCode); !slices.Equal(got, want) {
				t.Fatalf("n=%d maxCode=%d: radix sort is not the stable sort by code", n, maxCode)
			}
		}
	}
}

// FuzzIndexMatchesPairwise cuts arbitrary bytes into sequences at
// newlines, picks a counter and a reference prefix from the two knobs,
// and holds the index to the oracle. All sequences are targets, so some
// are in the reference and some foreign to it. The whole set is also
// ranked against itself, through the triangle. Each input builds from
// the storage earlier inputs released, poisoned (poisonPooled), so the
// fuzzer also drives sequences of sets through the pools.
func FuzzIndexMatchesPairwise(f *testing.F) {
	f.Add([]byte("MKVLAAGG\nMKVLAAGG\n\nAC\nTWYHHKDEXDEDE\nWWWWWWWW"), uint8(2), uint8(3))
	f.Add([]byte("ACDEFGHIKLMNPQRSTVWY\nACDEFGHIKLMNPQRSTVWY\nYWVTSRQPNMLKIHGFEDCA"), uint8(6), uint8(1))
	f.Add([]byte("A-C--DE-F\nACDEF\nXXXX\n"), uint8(0), uint8(0))
	counters := []*Counter{
		MustCounter(bio.Dayhoff6, 1), MustCounter(bio.Dayhoff6, 2), testCounter,
		MustCounter(bio.Dayhoff6, DefaultK), MustCounter(bio.SEB14, 5),
		MustCounter(bio.Identity(bio.AminoAcids), 4), MustCounter(bio.Identity(bio.AminoAcids), 7),
	}
	f.Fuzz(func(t *testing.T, data []byte, counter, cut uint8) {
		lines := bytes.Split(data, []byte("\n"))
		if len(lines) > 48 {
			lines = lines[:48]
		}
		c := counters[int(counter)%len(counters)]
		profiles := make([]Profile, len(lines))
		for i, l := range lines {
			profiles[i] = c.Profile(l)
		}
		held := poisonPooled()
		checkIndexMatchesPairwise(t, profiles, profiles[:int(cut)%(len(profiles)+1)])
		checkTriangleMatchesSquare(t, profiles, 1, 3)
		runtime.KeepAlive(held)
	})
}

// BenchmarkRanks times the k-mer ranks of N sequences of length 300:
// against themselves (the aliased call, which walks the triangle, as
// the local rank does) and against a copy of the set (the square
// sweep, the path of distinct target and reference sets).
func BenchmarkRanks(b *testing.B) {
	c := MustCounter(bio.Dayhoff6, DefaultK)
	for _, n := range []int{150, 1200} {
		profiles := randomProfiles(c, rand.New(rand.NewSource(43)), n, 300, 1)
		for _, tc := range []struct {
			name      string
			reference []Profile
		}{{"triangle", profiles}, {"square", slices.Clone(profiles)}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, tc.name), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					if _, err := RanksContext(b.Context(), profiles, tc.reference, DefaultRankScale, 0); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
