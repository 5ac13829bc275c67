package pairwise

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bio"
	"repro/internal/dp"
	"repro/internal/dpkern"
	"repro/internal/submat"
)

// Cross-kernel property tests: Global and GlobalIdentityInto run the DP
// body in int64 on the scale-2 image of internal/dpkern, and must
// produce the rows and the score of the oracle, the full-plane float64
// body below, to the byte and the bit, at any length — the integer DP is
// an exactness contract, not an approximation. The oracle is called
// directly (scalarGlobal), the kernel through Global, with the dispatch
// tally read to show the integer DP ran.

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

// intCalls runs f and returns how many alignments inside it ran the
// integer DP.
func intCalls(f func()) int64 {
	t0 := dpkern.TallySnapshot()
	f()
	return dpkern.TallySnapshot().Sub(t0).Striped
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
	fast := intCalls(func() {
		for trial := 0; trial < 60; trial++ {
			n, m := 1+rng.Intn(120), 1+rng.Intn(120)
			a, b := randSeqOf(rng, n, letters), randSeqOf(rng, m, letters)
			assertSameResult(t, "random", scalarGlobal(al, a, b), al.Global(a, b))
		}
	})
	if fast != 60 {
		t.Fatalf("integer DP ran %d of 60 pairs", fast)
	}
}

// TestEmptySidesMatchScalar holds empty sides to the oracle: the
// integer DP's boundary rows answer them as the float64 body's do.
func TestEmptySidesMatchScalar(t *testing.T) {
	al := NewProtein()
	a := randSeqOf(rand.New(rand.NewSource(63)), 30, bio.AminoAcids.Letters())
	fast := intCalls(func() {
		assertSameResult(t, "empty b", scalarGlobal(al, a, nil), al.Global(a, nil))
		assertSameResult(t, "empty a", scalarGlobal(al, nil, a), al.Global(nil, a))
		assertSameResult(t, "both empty", scalarGlobal(al, nil, nil), al.Global(nil, nil))
		dp.With(func(w *dp.Workspace) {
			if got := al.GlobalIdentityInto(w, a, nil); got != 0 {
				t.Fatalf("identity against an empty side = %v, want 0", got)
			}
		})
	})
	if fast != 4 {
		t.Fatalf("integer DP ran %d of 4 calls with an empty side", fast)
	}
}

func TestStripedGlobalMatchesScalarTieHeavy(t *testing.T) {
	// Two-letter sequences produce many equal-scoring paths; the integer
	// DP must break every tie exactly like the scalar loop, so the
	// traceback (not just the score) has to match.
	rng := rand.New(rand.NewSource(62))
	al := NewProtein()
	// DNA matrices hit the 4-letter table path.
	dna := Aligner{Sub: submat.DNASimple, Gap: submat.DefaultDNAGap}
	fast := intCalls(func() {
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
		t.Fatalf("integer DP ran %d of 90 pairs", fast)
	}
}

// scalarIdentity is GlobalIdentityInto's definition: Identity over the
// rows of the float64 body.
func scalarIdentity(al Aligner, a, b []byte) float64 {
	res := scalarGlobal(al, a, b)
	return Identity(res.A, res.B)
}

// TestStripedIdentityMatchesScalar holds the identity pass to the
// oracle on random pairs and on one pair long enough (1 300 residues)
// that BLOSUM62 once needed float64 for it.
func TestStripedIdentityMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	al := NewProtein()
	letters := bio.AminoAcids.Letters()
	check := func(w *dp.Workspace, a, b []byte) {
		if got, want := al.GlobalIdentityInto(w, a, b), scalarIdentity(al, a, b); got != want {
			t.Fatalf("%d×%d: identity %v != Identity(scalar rows) %v", len(a), len(b), got, want)
		}
	}
	var fast int64
	dp.With(func(w *dp.Workspace) {
		fast = intCalls(func() {
			for trial := 0; trial < 40; trial++ {
				check(w, randSeqOf(rng, 1+rng.Intn(100), letters), randSeqOf(rng, 1+rng.Intn(100), letters))
			}
			a := randSeqOf(rng, 1300, letters)
			b := bytes.Clone(a)
			for k := 0; k < 300; k++ {
				b[rng.Intn(len(b))] = letters[rng.Intn(len(letters))]
			}
			check(w, a, b)
		})
	})
	if fast != 41 {
		t.Fatalf("integer DP ran %d of 41 pairs", fast)
	}
}

// bigMatrix is a half-integral matrix of ±900, the magnitude that took
// a few dozen residues past the old int16 value bound; int64 holds it
// at any length.
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

// TestBigMatrixStaysExact holds the ±900 matrix to the oracle at
// lengths 40 to 300, where the int16 DP used to escape to float64.
func TestBigMatrixStaysExact(t *testing.T) {
	al := Aligner{Sub: bigMatrix(), Gap: submat.DefaultProteinGap}
	rng := rand.New(rand.NewSource(65))
	letters := bio.AminoAcids.Letters()
	fast := intCalls(func() {
		for trial := 0; trial < 20; trial++ {
			n, m := 40+rng.Intn(260), 40+rng.Intn(260)
			a, b := randSeqOf(rng, n, letters), randSeqOf(rng, m, letters)
			assertSameResult(t, "big", scalarGlobal(al, a, b), al.Global(a, b))
		}
	})
	if fast != 20 {
		t.Fatalf("integer DP ran %d of 20 pairs", fast)
	}
}

// fracMatrix is an amino-acid matrix whose scores are not multiples of
// ½, so it has no exact half-unit integer image.
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

// TestNonIntegralMatrixPanics: a model with no half-unit image — a
// fractional matrix, a negative gap cost — makes Global panic with the
// matrix's name instead of returning an inexact alignment.
func TestNonIntegralMatrixPanics(t *testing.T) {
	for _, al := range []Aligner{
		{Sub: fracMatrix(), Gap: submat.DefaultProteinGap},
		{Sub: submat.BLOSUM62, Gap: submat.Gap{Open: -1, Extend: 1}},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, al.Sub.Name()) {
					t.Errorf("%s %+v: panic %q, want one naming the matrix", al.Sub.Name(), al.Gap, msg)
				}
			}()
			al.Global([]byte("ACDEF"), []byte("ACDF"))
		}()
	}
}

// TestLongPairsMatchOracle holds two long pairs to the oracle: the
// shortest side at 1 272, one past BLOSUM62's old int16 bound, and at
// 3 000. The pairs are near-copies of a run of W, BLOSUM62's highest
// score, so the scores are the largest these lengths reach.
func TestLongPairsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	letters := bio.AminoAcids.Letters()
	for _, n := range []int{1272, 3000} {
		a := bytes.Repeat([]byte{'W'}, n)
		b := bytes.Repeat([]byte{'W'}, n)
		for k := 0; k < n/20; k++ {
			b[rng.Intn(n)] = letters[rng.Intn(len(letters))]
		}
		var got Result
		if fast := intCalls(func() { got = prot.Global(a, b) }); fast != 1 {
			t.Fatalf("n=%d: integer DP ran %d calls, want 1", n, fast)
		}
		assertSameResult(t, fmt.Sprintf("n=%d", n), scalarGlobal(prot, a, b), got)
	}
}

// TestGlobalCommitsAboutOneBytePerCell pins the memory shape of one
// call on a fresh workspace: the 1 B/cell traceback plane plus O(n+m)
// rows, profile and classes, under 2 B/cell in all — where full int64
// score planes beside the traceback would be 25 B/cell.
func TestGlobalCommitsAboutOneBytePerCell(t *testing.T) {
	rng := rand.New(rand.NewSource(68))
	for _, n := range []int{500, 1500} {
		a, b := randomSeq(rng, n), randomSeq(rng, n)
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

// FuzzKernelEquivalence holds the integer DP to the float64 body on
// arbitrary residue bytes (bytes outside the alphabet score as unknown
// in both; the gap byte is replaced, since Identity reads it as a gap):
// rows and score of Global, and GlobalIdentityInto. useBig selects the
// ±900 matrix, whose values grow 80 times faster than BLOSUM62's; the
// length cap keeps a case inside the fuzz engine's per-exec budget.
func FuzzKernelEquivalence(f *testing.F) {
	f.Add([]byte("HEAGAWGHEE"), []byte("PAWHEAE"), false)
	f.Add([]byte("AGAGAGAGAGAGAG"), []byte("GAGAGAGA"), false) // tie-heavy
	f.Add([]byte{}, []byte("ACDE"), false)
	f.Add([]byte{0xff, 0x00, 0x41, bio.Gap}, []byte{0x80, 0x7f}, false)
	f.Add([]byte("ACDEFGHIKL"), []byte("ACDEFGHIKL"), true)
	// 40 identical residues at +900: past where int16 used to escape.
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

// BenchmarkPairwiseGlobal prices Global on one random pair per length,
// 100 to 3 000; every case runs the integer DP.
func BenchmarkPairwiseGlobal(b *testing.B) {
	for _, n := range []int{100, 300, 500, 1500, 3000} {
		rng := rand.New(rand.NewSource(3))
		x, y := randomSeq(rng, n), randomSeq(rng, n)
		b.Run(fmt.Sprintf("len=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				prot.Global(x, y)
			}
		})
	}
}
