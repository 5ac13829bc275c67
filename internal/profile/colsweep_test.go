package profile

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/bio"
	"repro/internal/dp"
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
			if !sameBits(vec, gol) {
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
				if !sameBits(got, want) {
					k0, k1 := sc.faOff[i], sc.faOff[i+1]
					t.Fatalf("width %d, A column of %d letters %v vals %v occA %v:\ncolScores %v\nper cell  %v",
						w, i, sc.faIdx[k0:k1], sc.faVal[k0:k1], sc.occA[i], got, want)
				}
			}
		}
	}
}

// sameBits reports whether a and b hold the same float64s bit for bit,
// so a zero's sign and a NaN count.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestLetterSumsMatchDotProduct holds letterSums — letterDots on a CPU
// with AVX2, the sweeps elsewhere and under UseSSE2 — to the per-cell
// dot product ((+0 + v1·c1) + v2·c2 + …)·occA·occB bit for bit, on every
// width from 0 to 70, so each count of sixteen-cell strips, four-cell
// strips and Go tail cells occurs, and every letter count from 0 to all
// 20. The table is letter-major, read from an offset lo > 0 with a
// stride wider than the row; its entries and the letters' values are
// drawn from both zeros, subnormals, and fractions whose products and
// sums round, and occB holds zeros. Each case runs scaled and unscaled,
// into a row of NaNs, so a cell left unwritten cannot pass.
func TestLetterSumsMatchDotProduct(t *testing.T) {
	const L = 20
	negZero := math.Copysign(0, -1)
	sub := math.SmallestNonzeroFloat64
	entries := []float64{0, negZero, 1, -1, 2, 0.1, -0.3, 1.0 / 3, 0.7, sub, -3 * sub, 0x1p-1030, -0x1.8p-1022, 1e-300}
	rng := rand.New(rand.NewSource(47))
	draw := func() float64 { return entries[rng.Intn(len(entries))] }
	row := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = draw()
		}
		return v
	}
	for w := 0; w <= 70; w++ {
		for nz := 0; nz <= L; nz++ {
			for trial := 0; trial < 12; trial++ {
				lo := 1 + rng.Intn(5)
				stride := lo + w + 1 + rng.Intn(9)
				tab := row(L * stride)
				idx := make([]int32, 0, nz)
				for _, y := range rng.Perm(L)[:nz] {
					idx = append(idx, int32(y))
				}
				slices.Sort(idx)
				val, occB, occA := row(nz), row(lo+w), draw()
				for _, scaled := range []bool{false, true} {
					var ob []float64
					if scaled {
						ob = occB[lo:]
					}
					got := make([]float64, w)
					for i := range got {
						got[i] = math.NaN()
					}
					letterSums(got, make([]float64, max(w, L)), idx, val, tab[lo:], stride, occA, ob)
					want := make([]float64, w)
					for c := range want {
						var x float64
						for k, y := range idx {
							x += val[k] * tab[int(y)*stride+lo+c]
						}
						if scaled {
							x = x * occA * ob[c]
						}
						want[c] = x
					}
					if !sameBits(got, want) {
						t.Fatalf("width %d, letters %v vals %v, lo %d stride %d, occA %v scaled %v:\nletterSums %v\nper cell   %v",
							w, idx, val, lo, stride, occA, scaled, got, want)
					}
				}
			}
		}
	}
}

// TestPSPSetupMatchesPerEntry holds pspSetup's tables to a plain loop
// over every entry — the nonzero letters of each A column found by
// c != 0, sbT[x·m+j] summed letter by letter from +0 — on columns that
// are all gaps, empty altogether, unknown residues (every letter a
// fraction of the row weight), all 20 letters, and a few letters with
// gap mass, in both profiles.
func TestPSPSetupMatchesPerEntry(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	L := bio.AminoAcids.Len()
	column := func(kind int) Column {
		col := Column{Counts: make([]float64, L)}
		switch kind {
		case 0: // all gaps
			col.Gaps = float64(1 + rng.Intn(7))
		case 1: // no rows at all
		case 2: // unknown residues: each row's weight spread over the alphabet
			w := 0.3 + rng.Float64()*5
			for y := range col.Counts {
				col.Counts[y] = w / float64(L)
			}
			col.Gaps = rng.Float64()
		case 3: // every letter
			for y := range col.Counts {
				col.Counts[y] = 0.1 + rng.Float64()
			}
		default: // a few letters and gaps
			for range 1 + rng.Intn(4) {
				col.Counts[rng.Intn(L)] += 0.2 + rng.Float64()
			}
			col.Gaps = float64(rng.Intn(3)) / 3
		}
		return col
	}
	prof := func(n int) *Profile {
		p := &Profile{Alpha: bio.AminoAcids, Cols: make([]Column, n), Weight: 1}
		for i := range p.Cols {
			p.Cols[i] = column(i % 6)
		}
		rng.Shuffle(n, func(i, j int) { p.Cols[i], p.Cols[j] = p.Cols[j], p.Cols[i] })
		return p
	}
	freqs := func(col *Column) (idx []int32, val []float64) {
		res := col.Residues()
		if res == 0 {
			return nil, nil
		}
		for y, c := range col.Counts {
			if c != 0 {
				idx, val = append(idx, int32(y)), append(val, c/res)
			}
		}
		return idx, val
	}
	al := testAligner
	open, ext := al.Gap.Open, al.Gap.Extend
	for trial := 0; trial < 20; trial++ {
		a, b := prof(6+rng.Intn(30)), prof(6+rng.Intn(30))
		n, m := a.Len(), b.Len()
		var w dp.Workspace
		sc := al.pspSetup(&w, a, b)

		var faOff, faIdx []int32
		var faVal, occA []float64
		for i := range a.Cols {
			col := &a.Cols[i]
			faOff = append(faOff, int32(len(faIdx)))
			occA = append(occA, occupancy(col.Residues(), col.Gaps))
			idx, val := freqs(col)
			faIdx, faVal = append(faIdx, idx...), append(faVal, val...)
		}
		faOff = append(faOff, int32(len(faIdx)))
		sbT := make([]float64, L*m)
		var occB, openB, extB []float64
		for j := range b.Cols {
			col := &b.Cols[j]
			occ := occupancy(col.Residues(), col.Gaps)
			occB, openB, extB = append(occB, occ), append(openB, (open+ext)*occ), append(extB, ext*occ)
			idx, val := freqs(col)
			for x := 0; x < L; x++ {
				var s float64
				for k, y := range idx {
					s += val[k] * al.Sub.ScoreIdx(x, int(y))
				}
				sbT[x*m+j] = s
			}
		}
		nz := faOff[n]
		for _, c := range []struct {
			name      string
			got, want []float64
		}{
			{"faVal", sc.faVal[:nz], faVal}, {"sbT", sc.sbT, sbT}, {"occA", sc.occA, occA},
			{"occB", sc.occB, occB}, {"openB", sc.openB, openB}, {"extB", sc.extB, extB},
		} {
			if !sameBits(c.got, c.want) {
				t.Fatalf("trial %d: %s\npspSetup %v\nper entry %v", trial, c.name, c.got, c.want)
			}
		}
		if !slices.Equal(sc.faOff, faOff) || !slices.Equal(sc.faIdx[:nz], faIdx) {
			t.Fatalf("trial %d: faOff/faIdx\npspSetup %v %v\nper entry %v %v", trial, sc.faOff, sc.faIdx[:nz], faOff, faIdx)
		}
	}
}

// BenchmarkColScores times a row of column scores alone, in ns per cell,
// through each form that runs somewhere: letterDots ("avx2", CPUs with
// AVX2), sweepLetters ("sse2", amd64 CPUs without it) and the same
// sweeps in colSweepFrom alone ("go", every other architecture), over
// rows 300 and 2100 cells wide. The A columns hold the letter counts of
// a deep merge: 231 columns in the proportions of a 20-row half of a
// ROSE family (2100 long, relatedness 400), where 1 to 7 letters are
// present, 2.8 on average. The values are random fractions; the table
// is letter-major with the row's width as its stride, as in pspSetup.
func BenchmarkColScores(b *testing.B) {
	const L = 20
	perCount := []int{1: 39, 2: 61, 3: 62, 4: 43, 5: 18, 6: 6, 7: 2}
	rng := rand.New(rand.NewSource(49))
	var cols [][]int32
	for nz, n := range perCount {
		for range n {
			idx := make([]int32, 0, nz)
			for _, y := range rng.Perm(L)[:nz] {
				idx = append(idx, int32(y))
			}
			slices.Sort(idx)
			cols = append(cols, idx)
		}
	}
	val := make([]float64, L)
	for i := range val {
		val[i] = rng.Float64()
	}
	type sumFunc func(dst, zero []float64, idx []int32, val, tab []float64, stride int, occA float64, occB []float64)
	for _, kernel := range []struct {
		name string
		sum  sumFunc
	}{
		{"avx2", func(dst, _ []float64, idx []int32, val, tab []float64, stride int, occA float64, occB []float64) {
			letterDots(dst, idx, val, tab, stride, occA, occB)
		}},
		{"sse2", sweepLetters},
		{"go", sweepLettersGo},
	} {
		for _, w := range []int{300, 2100} {
			b.Run(fmt.Sprintf("%s/width=%d", kernel.name, w), func(b *testing.B) {
				if runtime.GOARCH != "amd64" && kernel.name != "go" || kernel.name == "avx2" && !useAVX2 {
					b.Skip("this CPU does not run it")
				}
				tab, occB := make([]float64, L*w), make([]float64, w)
				for i := range tab {
					tab[i] = 4 * rng.Float64()
				}
				for i := range occB {
					occB[i] = rng.Float64()
				}
				dst, zero := make([]float64, w), make([]float64, w)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, idx := range cols {
						kernel.sum(dst, zero, idx, val, tab, w, 0.9, occB)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(cols)*w), "ns/cell")
			})
		}
	}
}

// sweepLettersGo is sweepLetters with each sweep run by colSweepFrom
// alone, as off amd64, so that form has a number on an amd64 host too.
func sweepLettersGo(dst, zero []float64, idx []int32, val, tab []float64, stride int, occA float64, occB []float64) {
	src := zero
	for k := 0; k < len(idx); k += 2 {
		var scale, c2 []float64
		var v2 float64
		if k+2 >= len(idx) {
			scale = occB
		}
		if k+1 < len(idx) {
			c2, v2 = tab[int(idx[k+1])*stride:][:len(dst)], val[k+1]
		}
		colSweepFrom(0, dst, src, tab[int(idx[k])*stride:], c2, val[k], v2, occA, scale)
		src = dst
	}
}
