package pairwise

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/bio"
	"repro/internal/dp"
	"repro/internal/dpkern"
	"repro/internal/submat"
)

// Cross-kernel property tests: Global and GlobalIdentityInto choose the
// int16 kernel wherever its bounds hold, and must then produce the rows
// and the score of the float64 body to the byte and the bit — the int16
// kernel is an exactness contract, not an approximation, and the escape
// must keep that true when the bounds do not hold. The float64 body is
// called directly (scalarGlobal), the int16 one through the dispatch,
// with the dispatch tally read to show which body ran.

func randSeqOf(rng *rand.Rand, n int, letters []byte) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = letters[rng.Intn(len(letters))]
	}
	return s
}

// scalarGlobal is Global through the float64 body whatever the input.
func scalarGlobal(al Aligner, a, b []byte) Result {
	w := dp.GetRaw()
	defer dp.Put(w)
	state, score := al.globalScalar(w, a, b)
	ra, rb := traceAffine(w, a, b, state)
	return Result{A: ra, B: rb, Score: score}
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
	w := dp.GetRaw()
	defer dp.Put(w)
	fast, _ := dispatched(func() {
		for trial := 0; trial < 40; trial++ {
			a := randSeqOf(rng, 1+rng.Intn(100), letters)
			b := randSeqOf(rng, 1+rng.Intn(100), letters)
			if got, want := al.GlobalIdentityInto(w, a, b), scalarIdentity(al, a, b); got != want {
				t.Fatalf("identity %v != Identity(scalar rows) %v", got, want)
			}
		}
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
		w := dp.GetRaw()
		defer dp.Put(w)
		if got, want := al.GlobalIdentityInto(w, a, b), scalarIdentity(al, a, b); got != want {
			t.Fatalf("identity %v != Identity(scalar rows) %v", got, want)
		}
	})
}

// BenchmarkPairwiseGlobal prices the two bodies on one 500×500 pair.
func BenchmarkPairwiseGlobal(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x, y := randomSeq(rng, 500), randomSeq(rng, 500)
	b.Run("kernel=scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			scalarGlobal(prot, x, y)
		}
	})
	b.Run("kernel=int16", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			prot.Global(x, y)
		}
	})
}
