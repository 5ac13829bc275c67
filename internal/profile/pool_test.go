package profile

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"weak"

	"repro/internal/bio"
)

// sameProfileBits fails t unless got and want hold the same width, weight,
// gaps and counts, float for float in every bit.
func sameProfileBits(t *testing.T, tag string, got, want *Profile) {
	t.Helper()
	same := func(what string, col int, g, w float64) {
		t.Helper()
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: %s of column %d: %v (%#x), want %v (%#x)",
				tag, what, col, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d columns, want %d", tag, got.Len(), want.Len())
	}
	same("weight", -1, got.Weight, want.Weight)
	for c := range want.Cols {
		if len(got.Cols[c].Counts) != len(want.Cols[c].Counts) || cap(got.Cols[c].Counts) != len(want.Cols[c].Counts) {
			t.Fatalf("%s: column %d counts len %d cap %d, want both %d",
				tag, c, len(got.Cols[c].Counts), cap(got.Cols[c].Counts), len(want.Cols[c].Counts))
		}
		same("gaps", c, got.Cols[c].Gaps, want.Cols[c].Gaps)
		for k := range want.Cols[c].Counts {
			same("count", c, got.Cols[c].Counts[k], want.Cols[c].Counts[k])
		}
	}
}

// poisoned returns pooled storage for width columns over alpha as a
// previous user could leave it: every float of its slab, and the gaps
// and weight it was last shaped with, NaN. That user shaped it over
// prev as wide as the slab allows.
func poisoned(prev, alpha *bio.Alphabet, width int) *Profile {
	p := &Profile{slab: make([]float64, 1<<sizeClass(width*alpha.Len()))}
	for i := range p.slab {
		p.slab[i] = math.NaN()
	}
	p.shape(prev, len(p.slab)/prev.Len())
	for c := range p.Cols {
		p.Cols[c].Gaps = math.NaN()
	}
	p.Weight = math.NaN()
	p.shape(alpha, width)
	return p
}

// oddRows draws n rows of the given width over the amino-acid letters
// with gaps and, when unknown is set, letters outside the alphabet.
func oddRows(rng *rand.Rand, n, width int, unknown bool) [][]byte {
	letters := bio.AminoAcids.Letters()
	rows := make([][]byte, n)
	for r := range rows {
		rows[r] = make([]byte, width)
		for c := range rows[r] {
			switch x := rng.Intn(12); {
			case x == 0:
				rows[r][c] = bio.Gap
			case x == 1 && unknown:
				rows[r][c] = "XBZ"[rng.Intn(3)]
			default:
				rows[r][c] = letters[rng.Intn(len(letters))]
			}
		}
	}
	return rows
}

// TestRecycledStorageMatchesFresh: FromRows and Merge into storage a
// previous profile left full of NaN — shaped over a four- or a
// twenty-letter alphabet, as wide as its slab — give the profile they
// give into fresh storage, float for float: FromRows clears its own
// width, and Merge assigns every count and gap.
func TestRecycledStorageMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 40; trial++ {
		unknown := trial%2 == 1
		rowsA := oddRows(rng, 1+rng.Intn(4), 1+rng.Intn(80), unknown)
		rowsB := oddRows(rng, 1+rng.Intn(4), 1+rng.Intn(80), unknown)
		var wA, wB []float64
		if trial%4 >= 2 {
			for range rowsA {
				wA = append(wA, 0.05+3*rng.Float64())
			}
			for range rowsB {
				wB = append(wB, 0.05+3*rng.Float64())
			}
		}
		pa, err := FromRows(bio.AminoAcids, rowsA, wA)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := FromRows(bio.AminoAcids, rowsB, wB)
		if err != nil {
			t.Fatal(err)
		}
		path, _ := testAligner.Align(pa, pb)
		merged, err := Merge(pa, pb, path)
		if err != nil {
			t.Fatal(err)
		}
		for _, prev := range []*bio.Alphabet{bio.DNA, bio.AminoAcids} {
			tag := fmt.Sprintf("trial %d, storage last shaped over %d letters", trial, prev.Len())
			sameProfileBits(t, tag+", FromRows A", fromRows(poisoned(prev, bio.AminoAcids, len(rowsA[0])), rowsA, wA), pa)
			sameProfileBits(t, tag+", FromRows B", fromRows(poisoned(prev, bio.AminoAcids, len(rowsB[0])), rowsB, wB), pb)
			sameProfileBits(t, tag+", Merge", merge(poisoned(prev, bio.AminoAcids, len(path)), pa, pb, path), merged)
		}
	}
}

// TestReleaseLeavesCallerBuiltProfiles: Release of a profile whose
// columns the caller built — a struct literal, as refinement's side
// profiles are — changes nothing, and a released pooled profile shows
// no columns to a stale reference.
func TestReleaseLeavesCallerBuiltProfiles(t *testing.T) {
	cols := []Column{{Counts: make([]float64, bio.AminoAcids.Len()), Gaps: 1}, {Counts: make([]float64, bio.AminoAcids.Len())}}
	cols[1].Counts[3] = 2
	p := &Profile{Alpha: bio.AminoAcids, Cols: cols, Weight: 2}
	p.Release()
	if p.Len() != 2 || &p.Cols[0] != &cols[0] || p.Cols[0].Gaps != 1 || p.Cols[1].Counts[3] != 2 || p.Weight != 2 {
		t.Fatalf("Release changed a caller-built profile: %+v", p)
	}

	q, err := FromRows(bio.AminoAcids, [][]byte{[]byte("ACDEF")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	q.Release()
	if q.Len() != 0 {
		t.Fatalf("released profile still shows %d columns", q.Len())
	}
}

// TestReleasedStorageIsGarbage: a pool holds released profiles weakly,
// so one that nothing takes again is freed by the next collection. Held
// strongly, it would stay live through that collection.
func TestReleasedStorageIsGarbage(t *testing.T) {
	p, err := FromRows(bio.AminoAcids, [][]byte{[]byte("ACDEFGHIKL")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := weak.Make(p)
	p.Release()
	p = nil
	runtime.GC()
	if w.Value() != nil {
		t.Fatal("a released profile outlived a collection: its pool holds it")
	}
}

// TestPooledProfilesStayIndependent runs the merge tree's life cycle —
// two FromRows, a Merge, both children released, the result checked
// and released — on four goroutines at once, so storage goes back and
// forth between them through the pools. A released slab that a live
// profile still used would change some merged count (and, under -race,
// be reported).
func TestPooledProfilesStayIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	type job struct {
		rowsA, rowsB [][]byte
		path         Path
		want         *Profile
	}
	jobs := make([]job, 8)
	for i := range jobs {
		j := &jobs[i]
		j.rowsA = oddRows(rng, 1+rng.Intn(3), 20+rng.Intn(60), i%2 == 1)
		j.rowsB = oddRows(rng, 1+rng.Intn(3), 20+rng.Intn(60), false)
		pa, _ := FromRows(bio.AminoAcids, j.rowsA, nil)
		pb, _ := FromRows(bio.AminoAcids, j.rowsB, nil)
		j.path, _ = testAligner.Align(pa, pb)
		j.want, _ = Merge(pa, pb, j.path) // never released: the reference
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 200; it++ {
				j := &jobs[(g+it)%len(jobs)]
				pa, _ := FromRows(bio.AminoAcids, j.rowsA, nil)
				pb, _ := FromRows(bio.AminoAcids, j.rowsB, nil)
				m, err := Merge(pa, pb, j.path)
				if err != nil {
					errs <- err.Error()
					return
				}
				pa.Release()
				pb.Release()
				for c := range j.want.Cols {
					w, got := &j.want.Cols[c], &m.Cols[c]
					if got.Gaps != w.Gaps {
						errs <- fmt.Sprintf("goroutine %d iteration %d column %d: gaps %v, want %v", g, it, c, got.Gaps, w.Gaps)
						return
					}
					for k := range w.Counts {
						if got.Counts[k] != w.Counts[k] {
							errs <- fmt.Sprintf("goroutine %d iteration %d column %d letter %d: %v, want %v", g, it, c, k, got.Counts[k], w.Counts[k])
							return
						}
					}
				}
				m.Release()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
