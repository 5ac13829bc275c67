package kmer

import (
	"bytes"
	"cmp"
	"context"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

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
		avg, err := AvgDistancesContext(ctx, targets, reference, w)
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
		if ranks[i] != Rank(want[i], DefaultRankScale) {
			t.Fatalf("rank %d = %v, want %v", i, ranks[i], Rank(want[i], DefaultRankScale))
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

// TestIndexSizedByEntriesNotCodeSpace: 20 letters at k=7 is 1.28·10⁹
// codes. The index over 40 short sequences must cost what its ~8000
// profile entries cost; any table indexed by code would be gigabytes.
func TestIndexSizedByEntriesNotCodeSpace(t *testing.T) {
	wide := MustCounter(bio.Identity(bio.AminoAcids), 7)
	rng := rand.New(rand.NewSource(19))
	profiles := randomProfiles(wide, rng, 40, 200, 1)
	entries := 0
	for _, p := range profiles {
		entries += len(p.Entries)
	}
	ix := buildIndex(profiles)
	if len(ix.post) != entries || len(ix.codes) > entries || len(ix.start) != len(ix.codes)+1 {
		t.Fatalf("index of %d entries holds %d postings, %d codes, %d starts", entries, len(ix.post), len(ix.codes), len(ix.start))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := DistanceMatrixContext(context.Background(), profiles, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := AvgDistancesContext(context.Background(), profiles, profiles, 1); err != nil {
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
// to slices.SortStableFunc on cells in sequence order: ties keep that
// order, so every list comes out in ascending sequence order.
func TestRadixSortIsTheStableSortByCode(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{0, 1, 2, 3, 17, 300, 1<<radixBits - 1, 1 << radixBits, 5000} {
		for _, maxCode := range []uint32{0, 1, 5, 1<<radixBits - 1, 1 << radixBits, 1<<16 - 1, 1<<31 - 1} {
			cells := make([]cell, n)
			for i := range cells {
				cells[i] = cell{uint32(rng.Int63n(int64(maxCode) + 1)), posting{int32(i), int32(rng.Intn(9))}}
				if rng.Intn(3) == 0 && i > 0 {
					cells[i].code = cells[rng.Intn(i)].code // force ties
				}
			}
			want := slices.Clone(cells)
			slices.SortStableFunc(want, func(a, b cell) int { return cmp.Compare(a.code, b.code) })
			if got := sortCellsRadix(cells, maxCode); !slices.Equal(got, want) {
				t.Fatalf("n=%d maxCode=%d: radix sort is not the stable sort by code", n, maxCode)
			}
		}
	}
}

// FuzzIndexMatchesPairwise cuts arbitrary bytes into sequences at
// newlines, picks a counter and a reference prefix from the two knobs,
// and holds the index to the oracle. All sequences are targets, so some
// are in the reference and some foreign to it.
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
		checkIndexMatchesPairwise(t, profiles, profiles[:int(cut)%(len(profiles)+1)])
	})
}
