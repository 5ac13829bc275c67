package profile

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/bio"
	"repro/internal/dp"
)

func randomRows(rng *rand.Rand, n, width int) [][]byte {
	letters := bio.AminoAcids.Letters()
	rows := make([][]byte, n)
	for r := range rows {
		row := make([]byte, width)
		for c := range row {
			if rng.Intn(10) == 0 {
				row[c] = bio.Gap
			} else {
				row[c] = letters[rng.Intn(len(letters))]
			}
		}
		rows[r] = row
	}
	return rows
}

func randomProfile(t testing.TB, rng *rand.Rand, n, width int) *Profile {
	t.Helper()
	p, err := FromRows(bio.AminoAcids, randomRows(rng, n, width), nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func pathsEqual(a, b Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestAlignDeterministicAcrossReuse proves recycled workspace memory
// never changes the PSP DP's outcome.
func TestAlignDeterministicAcrossReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomProfile(t, rng, 6, 90)
	b := randomProfile(t, rng, 4, 110)
	p1, s1 := testAligner.Align(a, b)
	pb1, sb1 := testAligner.AlignBanded(a, b, -20, 20)

	// pollute the pool with differently-shaped alignments
	for i := 0; i < 4; i++ {
		x := randomProfile(t, rng, 3, 30+i*40)
		y := randomProfile(t, rng, 5, 150-i*20)
		testAligner.Align(x, y)
		testAligner.AlignBanded(y, x, -5, 5)
	}

	if p2, s2 := testAligner.Align(a, b); s1 != s2 || !pathsEqual(p1, p2) {
		t.Fatal("Align result changed across workspace reuse")
	}
	if pb2, sb2 := testAligner.AlignBanded(a, b, -20, 20); sb1 != sb2 || !pathsEqual(pb1, pb2) {
		t.Fatal("AlignBanded result changed across workspace reuse")
	}
}

// TestAlignConcurrent runs profile alignments from many goroutines;
// with -race this proves pooled workspaces are never shared.
func TestAlignConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	type job struct {
		a, b  *Profile
		path  Path
		score float64
	}
	jobs := make([]job, 6)
	for i := range jobs {
		a := randomProfile(t, rng, 2+i, 40+i*15)
		b := randomProfile(t, rng, 3, 60+i*10)
		path, score := testAligner.Align(a, b)
		jobs[i] = job{a: a, b: b, path: path, score: score}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 15; iter++ {
				j := &jobs[iter%len(jobs)]
				path, score := testAligner.Align(j.a, j.b)
				if score != j.score || !pathsEqual(path, j.path) {
					t.Error("concurrent Align diverged")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestAlignScoreMemoryIsLinear pins the kernel's memory shape: on a
// fresh workspace a 1500×1500 multi-row alignment allocates the 1 B/cell
// traceback plane plus O(n+m) tables and rows — under 2 B/cell in all,
// where three float64 score planes alone would be 24. Same for a ±64
// band.
func TestAlignScoreMemoryIsLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	const n, m = 1500, 1500
	a := randomProfile(t, rng, 3, n)
	b := randomProfile(t, rng, 4, m)
	for _, tc := range []struct {
		name   string
		lo, hi int
	}{{"Align", -n, m}, {"AlignBanded", -64, 64}} {
		var w dp.Workspace
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		path, _ := testAligner.alignRows(&w, a, b, tc.lo, tc.hi)
		runtime.ReadMemStats(&after)
		if err := path.Validate(n, m); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*(n+1)*(m+1)); got >= limit {
			t.Errorf("%s allocated %d bytes, want < %d (2 B/cell)", tc.name, got, limit)
		}
	}
}

// BenchmarkProfileAlign measures the steady-state profile-profile DP:
// allocs/op should be O(1) (the returned path), not O(n·m).
func BenchmarkProfileAlign(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	pa := randomProfile(b, rng, 8, 300)
	pb := randomProfile(b, rng, 8, 300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		testAligner.Align(pa, pb)
	}
}

// BenchmarkProfileAlignBanded is BenchmarkProfileAlign on a ±32 band and
// reports ns per in-band cell.
func BenchmarkProfileAlignBanded(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	pa := randomProfile(b, rng, 8, 300)
	pb := randomProfile(b, rng, 8, 300)
	const lo, hi = -32, 32
	cells := 0
	for i := 1; i <= pa.Len(); i++ {
		cells += min(i+hi, pb.Len()) - max(i+lo, 1) + 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		testAligner.AlignBanded(pa, pb, lo, hi)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cells), "ns/cell")
}
