package profile

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bio"
	"repro/internal/dp"
)

// The reference PSP aligner: the three-plane scalar kernel Align and
// AlignBanded ran before the rolling-row kernel replaced it, kept
// test-only as the oracle. It fills full (n+1)×(m+1) float64 M/X/Y
// planes, recomputes the sparse column dot product per cell, and has
// one body per entry point — every structural choice the kernel under
// test does differently — while performing the same float64 operations
// in the same order, so scores must agree to the bit and paths op for
// op.

// refScratch is the row-major scoring table of the old kernel:
// sb[j·L+x] = Σ_y fb[j][y]·S(x,y), A's columns as sparse (idx, val)
// lists in ascending letter order.
type refScratch struct {
	faOff      []int
	faIdx      []int
	faVal      []float64
	sb         []float64
	occA, occB []float64
	alphaLen   int
}

func refSetup(al *Aligner, a, b *Profile) refScratch {
	n, m := a.Len(), b.Len()
	L := al.Sub.Alphabet().Len()
	sc := refScratch{
		faOff:    make([]int, n+1),
		sb:       make([]float64, m*L),
		occA:     make([]float64, n),
		occB:     make([]float64, m),
		alphaLen: L,
	}
	for i := range a.Cols {
		col := &a.Cols[i]
		res := col.Residues()
		sc.occA[i] = col.Occupancy()
		sc.faOff[i] = len(sc.faIdx)
		if res == 0 {
			continue
		}
		for y, c := range col.Counts {
			if c != 0 {
				sc.faIdx = append(sc.faIdx, y)
				sc.faVal = append(sc.faVal, c/res)
			}
		}
	}
	sc.faOff[n] = len(sc.faIdx)
	for j := range b.Cols {
		col := &b.Cols[j]
		res := col.Residues()
		sc.occB[j] = col.Occupancy()
		if res == 0 {
			continue
		}
		row := sc.sb[j*L : (j+1)*L]
		for y, c := range col.Counts {
			if c == 0 {
				continue
			}
			fy := c / res
			for x := 0; x < L; x++ {
				row[x] += fy * al.Sub.ScoreIdx(x, y)
			}
		}
	}
	return sc
}

func (sc *refScratch) colScore(i, j int) float64 {
	var s float64
	sb := sc.sb[j*sc.alphaLen : (j+1)*sc.alphaLen]
	for k := sc.faOff[i]; k < sc.faOff[i+1]; k++ {
		s += sc.faVal[k] * sb[sc.faIdx[k]]
	}
	return s * sc.occA[i] * sc.occB[j]
}

// refPlanes is a private stand-in for the old full workspace reserve.
type refPlanes struct {
	M, X, Y []float64
	w       dp.Workspace
}

func newRefPlanes(n, m int) *refPlanes {
	cells := (n + 1) * (m + 1)
	p := &refPlanes{M: make([]float64, cells), X: make([]float64, cells), Y: make([]float64, cells)}
	p.w.ReserveTB(cells)
	return p
}

func (p *refPlanes) finish(n, m int) (Path, float64) {
	end := n*(m+1) + m
	state, score := sM, p.M[end]
	if p.X[end] > score {
		state, score = sX, p.X[end]
	}
	if p.Y[end] > score {
		state, score = sY, p.Y[end]
	}
	return tracePath(&p.w, n, m, state), score
}

// refAlign is the old Align body past its striped routing.
func refAlign(al *Aligner, a, b *Profile) (Path, float64) {
	n, m := a.Len(), b.Len()
	if n == 0 || m == 0 {
		return al.alignTrivial(n, m)
	}
	sc := refSetup(al, a, b)
	open, ext := al.Gap.Open, al.Gap.Extend
	negInf := math.Inf(-1)
	p := newRefPlanes(n, m)
	M, X, Y, tb := p.M, p.X, p.Y, p.w.TB
	cols := m + 1

	M[0] = 0
	X[0], Y[0] = negInf, negInf
	for i := 1; i <= n; i++ {
		idx := i * cols
		M[idx], Y[idx] = negInf, negInf
		X[idx] = leadGap(i, X[idx-cols], open, ext, sc.occA[i-1])
		tb[idx] = dp.PackTB(sM, sX, sM)
	}
	for j := 1; j <= m; j++ {
		M[j], X[j] = negInf, negInf
		Y[j] = leadGap(j, Y[j-1], open, ext, sc.occB[j-1])
		tb[j] = dp.PackTB(sM, sM, sY)
	}

	for i := 1; i <= n; i++ {
		row := i * cols
		prev := row - cols
		wA := sc.occA[i-1]
		openA, extA := (open+ext)*wA, ext*wA
		for j := 1; j <= m; j++ {
			s := sc.colScore(i-1, j-1)
			d := prev + j - 1
			bm, bs := sM, M[d]
			if X[d] > bs {
				bm, bs = sX, X[d]
			}
			if Y[d] > bs {
				bm, bs = sY, Y[d]
			}
			M[row+j] = bs + s

			up := prev + j
			bx := sM
			openX := M[up] - openA
			if extX := X[up] - extA; openX >= extX {
				X[row+j] = openX
			} else {
				X[row+j] = extX
				bx = sX
			}
			// The conversions round the products before the
			// subtraction, as the kernel's hoisted per-column arrays do;
			// a no-op wherever the compiler does not fuse multiply-add.
			wB := sc.occB[j-1]
			left := row + j - 1
			by := sM
			openY := M[left] - float64((open+ext)*wB)
			if extY := Y[left] - float64(ext*wB); openY >= extY {
				Y[row+j] = openY
			} else {
				Y[row+j] = extY
				by = sY
			}
			tb[row+j] = dp.PackTB(bm, bx, by)
		}
	}
	return p.finish(n, m)
}

// refAlignBanded is the old AlignBanded body past its striped routing:
// three planes pre-filled with −∞, the band walked inside them.
func refAlignBanded(al *Aligner, a, b *Profile, diagLo, diagHi int) (Path, float64) {
	n, m := a.Len(), b.Len()
	if n == 0 || m == 0 {
		return al.alignTrivial(n, m)
	}
	if diagLo > diagHi {
		diagLo, diagHi = diagHi, diagLo
	}
	if diagLo > 0 {
		diagLo = 0
	}
	if diagLo > m-n {
		diagLo = m - n
	}
	if diagHi < 0 {
		diagHi = 0
	}
	if diagHi < m-n {
		diagHi = m - n
	}
	sc := refSetup(al, a, b)
	open, ext := al.Gap.Open, al.Gap.Extend
	negInf := math.Inf(-1)
	p := newRefPlanes(n, m)
	M, X, Y, tb := p.M, p.X, p.Y, p.w.TB
	cols := m + 1

	for i := range M {
		M[i], X[i], Y[i] = negInf, negInf, negInf
	}
	inBand := func(i, j int) bool {
		d := j - i
		return d >= diagLo && d <= diagHi
	}
	M[0] = 0
	for i := 1; i <= n && inBand(i, 0); i++ {
		idx := i * cols
		X[idx] = leadGap(i, X[idx-cols], open, ext, sc.occA[i-1])
		tb[idx] = dp.PackTB(sM, sX, sM)
	}
	for j := 1; j <= m && inBand(0, j); j++ {
		Y[j] = leadGap(j, Y[j-1], open, ext, sc.occB[j-1])
		tb[j] = dp.PackTB(sM, sM, sY)
	}

	for i := 1; i <= n; i++ {
		jLo := i + diagLo
		if jLo < 1 {
			jLo = 1
		}
		jHi := i + diagHi
		if jHi > m {
			jHi = m
		}
		row := i * cols
		prev := row - cols
		wA := sc.occA[i-1]
		openA, extA := (open+ext)*wA, ext*wA
		for j := jLo; j <= jHi; j++ {
			s := sc.colScore(i-1, j-1)
			d := prev + j - 1
			bm, bs := sM, M[d]
			if X[d] > bs {
				bm, bs = sX, X[d]
			}
			if Y[d] > bs {
				bm, bs = sY, Y[d]
			}
			if bs > negInf {
				M[row+j] = bs + s
			} else {
				bm = sM
			}

			up := prev + j
			bx := sM
			openX := M[up] - openA
			if extX := X[up] - extA; openX >= extX {
				X[row+j] = openX
			} else {
				X[row+j] = extX
				bx = sX
			}
			wB := sc.occB[j-1]
			left := row + j - 1
			by := sM
			openY := M[left] - float64((open+ext)*wB)
			if extY := Y[left] - float64(ext*wB); openY >= extY {
				Y[row+j] = openY
			} else {
				Y[row+j] = extY
				by = sY
			}
			tb[row+j] = dp.PackTB(bm, bx, by)
		}
	}
	return p.finish(n, m)
}

// oracleProfile draws a profile meant to reach every branch of the
// scoring set-up: several rows, gap mass, non-unit weights, unknown
// residues (spread over all letters), all-gap columns (Residues() == 0)
// and, at rows == 1 with none of those, plain unit leaves.
func oracleProfile(t testing.TB, rng *rand.Rand, rows, width int) *Profile {
	t.Helper()
	letters := bio.AminoAcids.Letters()
	if rng.Intn(3) == 0 {
		letters = []byte("AG") // tie-heavy: many equal-scoring paths
	}
	gapPct, unkPct := rng.Intn(40), rng.Intn(8)
	data := make([][]byte, rows)
	for r := range data {
		data[r] = make([]byte, width)
	}
	for c := 0; c < width; c++ {
		allGap := rows > 1 && rng.Intn(12) == 0
		for r := range data {
			switch p := rng.Intn(100); {
			case allGap || (rows > 1 && p < gapPct):
				data[r][c] = bio.Gap
			case p >= 100-unkPct:
				data[r][c] = 'X'
			default:
				data[r][c] = letters[rng.Intn(len(letters))]
			}
		}
	}
	var weights []float64
	if rng.Intn(2) == 0 {
		weights = make([]float64, rows)
		for r := range weights {
			weights[r] = 0.05 + 3*rng.Float64()
		}
	}
	p, err := FromRows(bio.AminoAcids, data, weights)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// oracleLen draws a column count: mostly 1–90, with the edges — one
// column, two, and more than 256 — each drawn often enough that all of
// them meet one another.
func oracleLen(rng *rand.Rand) int {
	switch rng.Intn(12) {
	case 0, 1:
		return 1
	case 2:
		return 2
	case 3:
		return 257 + rng.Intn(40)
	}
	return 1 + rng.Intn(90)
}

// assertSameAlignment requires got to equal want exactly:
// math.Float64bits on the score, op for op on the path.
func assertSameAlignment(t testing.TB, tag string, wantP Path, wantS float64, gotP Path, gotS float64) {
	t.Helper()
	if math.Float64bits(wantS) != math.Float64bits(gotS) {
		t.Fatalf("%s: score %v (%#x), want %v (%#x)", tag, gotS, math.Float64bits(gotS), wantS, math.Float64bits(wantS))
	}
	if !pathsEqual(wantP, gotP) {
		t.Fatalf("%s: paths differ:\nwant %v\ngot  %v", tag, wantP, gotP)
	}
}

// checkAgainstOracle runs Align and AlignBanded over each band for one
// profile pair and compares each result with the reference.
func checkAgainstOracle(t testing.TB, a, b *Profile, bands [][2]int) {
	t.Helper()
	wantP, wantS := refAlign(testAligner, a, b)
	gotP, gotS := testAligner.Align(a, b)
	assertSameAlignment(t, "Align", wantP, wantS, gotP, gotS)
	for _, band := range bands {
		wantP, wantS = refAlignBanded(testAligner, a, b, band[0], band[1])
		gotP, gotS = testAligner.AlignBanded(a, b, band[0], band[1])
		assertSameAlignment(t, fmt.Sprintf("AlignBanded%v", band), wantP, wantS, gotP, gotS)
	}
}

func TestAlignMatchesReferenceBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 150; trial++ {
		n, m := oracleLen(rng), oracleLen(rng)
		if trial%5 == 0 {
			m = n // square: {0, 0} stays a band one cell wide
		}
		a := oracleProfile(t, rng, 1+rng.Intn(5), n)
		b := oracleProfile(t, rng, 1+rng.Intn(5), m)
		bands := [][2]int{
			{-n, m},        // everything in band
			{0, 0},         // clamps at both corners to min/max(0, m−n)
			{m - n, m - n}, // the end corner's diagonal only
			{5, -5},        // inverted
			{3, 9},         // excludes diagonal 0 until clamped
			{-9, -3},
			{-rng.Intn(12), rng.Intn(12)},
			{m - n - rng.Intn(6), m - n + rng.Intn(6)},
		}
		checkAgainstOracle(t, a, b, bands)
	}
	// Unit-leaf pairs, the merges at the bottom of every guide tree:
	// frequencies and occupancies are exactly 1, so PSP degenerates to
	// the pairwise DP and ties are as dense as they get on two letters.
	for trial := 0; trial < 80; trial++ {
		letters := bio.AminoAcids.Letters()
		if trial%2 == 1 {
			letters = []byte("AG")
		}
		a, b := randLeaf(rng, 1+rng.Intn(120), letters), randLeaf(rng, 1+rng.Intn(120), letters)
		checkAgainstOracle(t, a, b, [][2]int{{0, 0}, {-8, 8}})
	}
}

func randLeaf(rng *rand.Rand, n int, letters []byte) *Profile {
	s := make([]byte, n)
	for i := range s {
		s[i] = letters[rng.Intn(len(letters))]
	}
	return FromSequence(bio.AminoAcids, s)
}
