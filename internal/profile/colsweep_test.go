package profile

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// TestColSweepsMatchGoLoop holds the column-score sweeps to the bit,
// compared by math.Float64bits so a zero's sign counts, on every width
// from 0 to 17 (each tail length, odd and even) and entries drawn from
// both zeros, small integers and fractions that round.
//
// First each sweep shape — one letter or two, scaled or not — run as
// colSweep (on amd64 the assembly over the whole pairs, which must
// cover them all, plus the Go loop over the odd cell) against the Go
// loop colSweepFrom over the whole row, on arbitrary src rows. Then
// colScores over A columns of 0 to 5 letters, the empty one with
// occupancy 0, against the per-cell sparse dot product
// ((+0 + v1·c1) + v2·c2 + …)·occA·occB.
func TestColSweepsMatchGoLoop(t *testing.T) {
	negZero := math.Copysign(0, -1)
	entries := []float64{0, negZero, 1, -1, 2, 0.1, -0.3, 1.0 / 3}
	rng := rand.New(rand.NewSource(30))
	draw := func() float64 { return entries[rng.Intn(len(entries))] }
	row := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = draw()
		}
		return v
	}
	nanRow := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = math.NaN()
		}
		return v
	}
	same := func(a, b []float64) bool {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}

	for w := 0; w <= 17; w++ {
		z := make([]float64, w)
		if got := colSweepPairs(z, z, z, z, z, 0, 0, 0); runtime.GOARCH == "amd64" && got != w&^1 {
			t.Fatalf("width %d: colSweepPairs stopped at %d, want %d", w, got, w&^1)
		}
		for trial := 0; trial < 2000; trial++ {
			src, c1 := row(w), row(w)
			var c2, occB []float64
			if trial&1 == 1 {
				c2 = row(w)
			}
			if trial&2 == 2 {
				occB = row(w)
			}
			v1, v2, occA := draw(), draw(), draw()
			vec, gol := nanRow(w), nanRow(w)
			colSweep(vec, src, c1, c2, v1, v2, occA, occB)
			colSweepFrom(0, gol, src, c1, c2, v1, v2, occA, occB)
			if !same(vec, gol) {
				t.Fatalf("width %d (src %v c1 %v c2 %v v1 %v v2 %v occA %v occB %v):\nsweep %v\nGo    %v",
					w, src, c1, c2, v1, v2, occA, occB, vec, gol)
			}
		}
	}

	const L = 6
	for w := 0; w <= 17; w++ {
		for trial := 0; trial < 500; trial++ {
			lo := rng.Intn(3)
			m := lo + w + rng.Intn(3)
			sc := pspScratch{sbT: row(L * m), occA: make([]float64, L), occB: row(m), zero: make([]float64, m), m: m}
			sc.faOff = make([]int32, L+1)
			for i := 0; i < L; i++ { // A column i holds i letters; column 0 is empty
				sc.faOff[i] = int32(len(sc.faIdx))
				for _, y := range rng.Perm(L)[:i] {
					sc.faIdx = append(sc.faIdx, int32(y))
				}
				slices.Sort(sc.faIdx[sc.faOff[i]:])
				for range i {
					sc.faVal = append(sc.faVal, draw())
				}
				if i > 0 {
					sc.occA[i] = draw()
				}
			}
			sc.faOff[L] = int32(len(sc.faIdx))
			for i := 0; i < L; i++ {
				got := nanRow(w)
				sc.colScores(got, i, lo)
				want := make([]float64, w)
				for j := range want {
					var s float64
					for k := sc.faOff[i]; k < sc.faOff[i+1]; k++ {
						s += sc.faVal[k] * sc.sbT[int(sc.faIdx[k])*m+lo+j]
					}
					want[j] = s * sc.occA[i] * sc.occB[lo+j]
				}
				if !same(got, want) {
					k0, k1 := sc.faOff[i], sc.faOff[i+1]
					t.Fatalf("width %d, A column of %d letters %v vals %v occA %v:\ncolScores %v\nper cell  %v",
						w, i, sc.faIdx[k0:k1], sc.faVal[k0:k1], sc.occA[i], got, want)
				}
			}
		}
	}
}
