package pairwise

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/bio"
	"repro/internal/dp"
	"repro/internal/dpkern"
	"repro/internal/submat"
)

// Cross-kernel property tests: Global and GlobalIdentityInto run the DP
// body in int16 wherever its bounds hold and in float64 otherwise, and
// both must produce the rows and the score of the oracle, the full-plane
// float64 body below, to the byte and the bit — the int16 instantiation
// is an exactness contract, not an approximation, and the escape must
// keep that true when the bounds do not hold. The oracle is called
// directly (scalarGlobal), the body through the dispatch, with the
// dispatch tally read to show which instantiation ran.

func randSeqOf(rng *rand.Rand, n int, letters []byte) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = letters[rng.Intn(len(letters))]
	}
	return s
}

// scalarGlobal is Global through the oracle: the full-plane float64
// Gotoh body, whatever the input.
func scalarGlobal(al Aligner, a, b []byte) Result {
	state, score, tb := al.globalScalar(a, b)
	ra, rb := traceAffine(tb, a, b, state)
	return Result{A: ra, B: rb, Score: score}
}

// globalScalar is the reference Gotoh DP: three (n+1)×(m+1) float64
// score planes, the substitution score looked up per cell, and the
// packed traceback plane it returns with the end state and score.
func (al Aligner) globalScalar(a, b []byte) (byte, float64, []byte) {
	n, m := len(a), len(b)
	open, ext := al.Gap.Open, al.Gap.Extend
	negInf := math.Inf(-1)

	// DP planes. M: last pair aligned; X: gap in b; Y: gap in a.
	cols := m + 1
	M := make([]float64, (n+1)*cols)
	X := make([]float64, (n+1)*cols)
	Y := make([]float64, (n+1)*cols)
	tb := make([]byte, (n+1)*cols)

	M[0] = 0
	X[0], Y[0] = negInf, negInf
	for i := 1; i <= n; i++ {
		idx := i * cols
		M[idx], Y[idx] = negInf, negInf
		X[idx] = -(open + float64(i)*ext)
		tb[idx] = dp.PackTB(stM, stX, stM)
	}
	for j := 1; j <= m; j++ {
		M[j], X[j] = negInf, negInf
		Y[j] = -(open + float64(j)*ext)
		tb[j] = dp.PackTB(stM, stM, stY)
	}

	for i := 1; i <= n; i++ {
		row := i * cols
		prev := row - cols
		for j := 1; j <= m; j++ {
			s := al.Sub.Score(a[i-1], b[j-1])
			// M from best of three diagonal predecessors
			d := prev + j - 1
			bm, bs := stM, M[d]
			if X[d] > bs {
				bm, bs = stX, X[d]
			}
			if Y[d] > bs {
				bm, bs = stY, Y[d]
			}
			M[row+j] = bs + s

			// X: consume a[i-1] against a gap
			up := prev + j
			bx := stM
			openX := M[up] - open - ext
			if extX := X[up] - ext; openX >= extX {
				X[row+j] = openX
			} else {
				X[row+j] = extX
				bx = stX
			}

			// Y: consume b[j-1] against a gap
			left := row + j - 1
			by := stM
			openY := M[left] - open - ext
			if extY := Y[left] - ext; openY >= extY {
				Y[row+j] = openY
			} else {
				Y[row+j] = extY
				by = stY
			}
			tb[row+j] = dp.PackTB(bm, bx, by)
		}
	}

	// choose the best final state
	end := n*cols + m
	state, score := stM, M[end]
	if X[end] > score {
		state, score = stX, X[end]
	}
	if Y[end] > score {
		state, score = stY, Y[end]
	}
	return state, score, tb
}

// dispatched runs f and returns how many alignments inside it took the
// int16 kernel and how many escaped to the float64 body.
func dispatched(f func()) (int16Calls, escapes int64) {
	t0 := dpkern.TallySnapshot()
	f()
	d := dpkern.TallySnapshot().Sub(t0)
	return d.Striped, d.Escaped
}

func assertSameResult(t testing.TB, tag string, want, got Result) {
	t.Helper()
	if want.Score != got.Score {
		t.Fatalf("%s: score %v (scalar) != %v (dispatched)", tag, want.Score, got.Score)
	}
	if string(want.A) != string(got.A) || string(want.B) != string(got.B) {
		t.Fatalf("%s: rows differ\nscalar     %q\n           %q\ndispatched %q\n           %q",
			tag, want.A, want.B, got.A, got.B)
	}
}

func TestStripedGlobalMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	al := NewProtein()
	letters := bio.AminoAcids.Letters()
	fast, _ := dispatched(func() {
		for trial := 0; trial < 60; trial++ {
			n, m := 1+rng.Intn(120), 1+rng.Intn(120)
			a, b := randSeqOf(rng, n, letters), randSeqOf(rng, m, letters)
			assertSameResult(t, "random", scalarGlobal(al, a, b), al.Global(a, b))
		}
	})
	if fast != 60 {
		t.Fatalf("int16 kernel took %d of 60 pairs inside its bounds", fast)
	}
	// An empty side never fits; the float64 body's boundary rows answer.
	a := randSeqOf(rng, 30, letters)
	assertSameResult(t, "empty b", scalarGlobal(al, a, nil), al.Global(a, nil))
	assertSameResult(t, "empty a", scalarGlobal(al, nil, a), al.Global(nil, a))
}

func TestStripedGlobalMatchesScalarTieHeavy(t *testing.T) {
	// Two-letter sequences produce many equal-scoring paths; the int16
	// kernel must break every tie exactly like the scalar loop, so the
	// traceback (not just the score) has to match.
	rng := rand.New(rand.NewSource(62))
	al := NewProtein()
	// DNA matrices hit the 4-letter table path.
	dna := Aligner{Sub: submat.DNASimple, Gap: submat.DefaultDNAGap}
	fast, _ := dispatched(func() {
		for trial := 0; trial < 60; trial++ {
			a := randSeqOf(rng, 30+rng.Intn(60), []byte("AG"))
			b := randSeqOf(rng, 30+rng.Intn(60), []byte("AG"))
			assertSameResult(t, "tie-heavy", scalarGlobal(al, a, b), al.Global(a, b))
		}
		for trial := 0; trial < 30; trial++ {
			a := randSeqOf(rng, 40+rng.Intn(40), []byte("ACGT"))
			b := randSeqOf(rng, 40+rng.Intn(40), []byte("ACGT"))
			assertSameResult(t, "dna", scalarGlobal(dna, a, b), dna.Global(a, b))
		}
	})
	if fast != 90 {
		t.Fatalf("int16 kernel took %d of 90 pairs inside its bounds", fast)
	}
}

// scalarIdentity is GlobalIdentityInto's definition: Identity over the
// rows of the float64 body.
func scalarIdentity(al Aligner, a, b []byte) float64 {
	res := scalarGlobal(al, a, b)
	return Identity(res.A, res.B)
}

func TestStripedIdentityMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	al := NewProtein()
	letters := bio.AminoAcids.Letters()
	var fast int64
	dp.With(func(w *dp.Workspace) {
		fast, _ = dispatched(func() {
			for trial := 0; trial < 40; trial++ {
				a := randSeqOf(rng, 1+rng.Intn(100), letters)
				b := randSeqOf(rng, 1+rng.Intn(100), letters)
				if got, want := al.GlobalIdentityInto(w, a, b), scalarIdentity(al, a, b); got != want {
					t.Fatalf("identity %v != Identity(scalar rows) %v", got, want)
				}
			}
		})
	})
	if fast != 40 {
		t.Fatalf("int16 kernel took %d of 40 pairs inside its bounds", fast)
	}
}

// bigMatrix is exactly int16-representable but its scores are large
// enough that moderate lengths overflow the a-priori value bounds — the
// adversarial range that must trigger the saturation escape.
func bigMatrix() *submat.Matrix {
	L := bio.AminoAcids.Len()
	table := make([][]float64, L)
	for i := range table {
		table[i] = make([]float64, L)
		for j := range table[i] {
			if i == j {
				table[i][j] = 900
			} else {
				table[i][j] = -900
			}
		}
	}
	return submat.New("big", bio.AminoAcids, table, -900)
}

func TestSaturationEscapeTriggersAndStaysExact(t *testing.T) {
	al := Aligner{Sub: bigMatrix(), Gap: submat.DefaultProteinGap}
	tbl := dpkern.For(al.Sub, al.Gap)
	if tbl == nil {
		t.Fatal("big matrix is integral; table must exist")
	}
	if !tbl.Fits(10, 10) {
		t.Fatal("10x10 with the big matrix should still fit")
	}
	if tbl.Fits(40, 40) {
		t.Fatal("40x40 with the big matrix must overflow the positive bound")
	}
	rng := rand.New(rand.NewSource(65))
	letters := bio.AminoAcids.Letters()
	fast, escaped := dispatched(func() {
		for trial := 0; trial < 20; trial++ {
			// Straddle the fit boundary so both the int16 kernel (small)
			// and the escape (large) are exercised against the scalar.
			n, m := 5+rng.Intn(60), 5+rng.Intn(60)
			a, b := randSeqOf(rng, n, letters), randSeqOf(rng, m, letters)
			assertSameResult(t, "saturation", scalarGlobal(al, a, b), al.Global(a, b))
		}
	})
	if fast == 0 || escaped == 0 {
		t.Fatalf("trials must straddle the bound: %d int16, %d escaped", fast, escaped)
	}
}

func TestNonIntegralMatrixEscapes(t *testing.T) {
	L := bio.AminoAcids.Len()
	table := make([][]float64, L)
	for i := range table {
		table[i] = make([]float64, L)
		for j := range table[i] {
			if i == j {
				table[i][j] = 1.3
			} else {
				table[i][j] = -0.7
			}
		}
	}
	al := Aligner{Sub: submat.New("frac", bio.AminoAcids, table, -0.7), Gap: submat.DefaultProteinGap}
	if dpkern.For(al.Sub, al.Gap) != nil {
		t.Fatal("fractional matrix must have no int16 table")
	}
	rng := rand.New(rand.NewSource(66))
	letters := bio.AminoAcids.Letters()
	fast, escaped := dispatched(func() {
		for trial := 0; trial < 10; trial++ {
			a := randSeqOf(rng, 10+rng.Intn(50), letters)
			b := randSeqOf(rng, 10+rng.Intn(50), letters)
			assertSameResult(t, "fractional", scalarGlobal(al, a, b), al.Global(a, b))
		}
	})
	if fast != 0 || escaped != 10 {
		t.Fatalf("fractional matrix: %d int16, %d escaped, want 0 and 10", fast, escaped)
	}
}

// TestInt16BoundPairsMatchOracle runs one pair on each side of
// BLOSUM62's int16 bound, the shortest side at 1 271 (Fits holds) and at
// 1 272 (it does not), and holds both to the oracle. The pairs are
// near-copies of a run of W, BLOSUM62's highest score, so the int16 side
// ends close to the largest value Fits admits.
func TestInt16BoundPairsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	letters := bio.AminoAcids.Letters()
	tbl := dpkern.For(prot.Sub, prot.Gap)
	for _, c := range []struct {
		n          int
		int16, f64 int64
	}{{1271, 1, 0}, {1272, 0, 1}} {
		if tbl.Fits(c.n, c.n) != (c.int16 == 1) {
			t.Fatalf("Fits(%d, %d) = %v", c.n, c.n, tbl.Fits(c.n, c.n))
		}
		a := bytes.Repeat([]byte{'W'}, c.n)
		b := bytes.Repeat([]byte{'W'}, c.n)
		for k := 0; k < c.n/20; k++ {
			b[rng.Intn(c.n)] = letters[rng.Intn(len(letters))]
		}
		var got Result
		int16Calls, escapes := dispatched(func() { got = prot.Global(a, b) })
		if int16Calls != c.int16 || escapes != c.f64 {
			t.Fatalf("n=%d: %d int16, %d float64 calls, want %d and %d", c.n, int16Calls, escapes, c.int16, c.f64)
		}
		assertSameResult(t, fmt.Sprintf("n=%d", c.n), scalarGlobal(prot, a, b), got)
	}
}

// TestGlobalCommitsAboutOneBytePerCell pins the memory shape of one
// call on a fresh workspace: the 1 B/cell traceback plane plus O(n+m)
// rows, profile and classes, under 2 B/cell in all, in both number
// types — where full score planes beside the traceback would be 7 B/cell
// in int16 and 25 in float64.
func TestGlobalCommitsAboutOneBytePerCell(t *testing.T) {
	rng := rand.New(rand.NewSource(68))
	tbl := dpkern.For(prot.Sub, prot.Gap)
	for _, n := range []int{500, 1500} {
		a, b := randomSeq(rng, n), randomSeq(rng, n)
		if tbl.Fits(n, n) != (n == 500) {
			t.Fatalf("n=%d: want the int16 path at 500 only", n)
		}
		var w dp.Workspace
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		prot.globalInto(&w, a, b)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*(n+1)*(n+1)); got >= limit {
			t.Errorf("n=%d: allocated %d bytes, want < %d (2 B/cell)", n, got, limit)
		}
	}
}

// FuzzKernelEquivalence holds the dispatched kernel to the float64 body
// on arbitrary residue bytes (bytes outside the alphabet score as
// unknown in both; the gap byte is replaced, since Identity reads it as
// a gap): rows and score of Global, and GlobalIdentityInto. useBig
// selects the matrix whose bounds a few dozen residues overflow, so the
// fuzzer crosses between the int16 kernel and its escape; the length
// cap keeps a case inside the fuzz engine's per-exec budget.
func FuzzKernelEquivalence(f *testing.F) {
	f.Add([]byte("HEAGAWGHEE"), []byte("PAWHEAE"), false)
	f.Add([]byte("AGAGAGAGAGAGAG"), []byte("GAGAGAGA"), false) // tie-heavy
	f.Add([]byte{}, []byte("ACDE"), false)
	f.Add([]byte{0xff, 0x00, 0x41, bio.Gap}, []byte{0x80, 0x7f}, false)
	f.Add([]byte("ACDEFGHIKL"), []byte("ACDEFGHIKL"), true) // fits the big matrix
	// 40 identical residues at +900 pass the int16 bound: this one escapes.
	f.Add([]byte("ACDEFGHIKLMNPQRSTVWYACDEFGHIKLMNPQRSTVWY"),
		[]byte("ACDEFGHIKLMNPQRSTVWYACDEFGHIKLMNPQRSTVWY"), true)

	big := Aligner{Sub: bigMatrix(), Gap: submat.DefaultProteinGap}
	residues := func(raw []byte) []byte {
		if len(raw) > 256 {
			raw = raw[:256]
		}
		return bytes.ReplaceAll(raw, []byte{bio.Gap}, []byte{'X'})
	}
	f.Fuzz(func(t *testing.T, rawA, rawB []byte, useBig bool) {
		a, b := residues(rawA), residues(rawB)
		al := prot
		if useBig {
			al = big
		}
		assertSameResult(t, "Global", scalarGlobal(al, a, b), al.Global(a, b))
		dp.With(func(w *dp.Workspace) {
			if got, want := al.GlobalIdentityInto(w, a, b), scalarIdentity(al, a, b); got != want {
				t.Fatalf("identity %v != Identity(scalar rows) %v", got, want)
			}
		})
	})
}

// fracMatrix is an amino-acid matrix whose scores are not multiples of
// ½, so no exact int16 image exists and every pair runs in float64.
func fracMatrix() *submat.Matrix {
	L := bio.AminoAcids.Len()
	table := make([][]float64, L)
	for i := range table {
		table[i] = make([]float64, L)
		for j := range table[i] {
			if i == j {
				table[i][j] = 1.3
			} else {
				table[i][j] = -0.7
			}
		}
	}
	return submat.New("frac", bio.AminoAcids, table, -0.7)
}

// BenchmarkPairwiseGlobal prices Global on one random pair per case:
// lengths 100, 300 and 500 run in int16; 1 500, past BLOSUM62's int16
// bound, and the fractional matrix at 500 run in float64.
func BenchmarkPairwiseGlobal(b *testing.B) {
	frac := Aligner{Sub: fracMatrix(), Gap: submat.DefaultProteinGap}
	for _, c := range []struct {
		name string
		al   Aligner
		n    int
	}{
		{"len=100", prot, 100},
		{"len=300", prot, 300},
		{"len=500", prot, 500},
		{"len=1500", prot, 1500},
		{"frac/len=500", frac, 500},
	} {
		rng := rand.New(rand.NewSource(3))
		x, y := randomSeq(rng, c.n), randomSeq(rng, c.n)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.al.Global(x, y)
			}
		})
	}
}
