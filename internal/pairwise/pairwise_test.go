package pairwise

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bio"
	"repro/internal/submat"
)

var prot = NewProtein()

func checkValidAlignment(t *testing.T, r Result, a, b []byte) {
	t.Helper()
	if len(r.A) != len(r.B) {
		t.Fatalf("aligned rows differ in length: %d vs %d", len(r.A), len(r.B))
	}
	if !bytes.Equal(bio.Ungap(r.A), a) {
		t.Fatalf("row A ungapped %q != input %q", bio.Ungap(r.A), a)
	}
	if !bytes.Equal(bio.Ungap(r.B), b) {
		t.Fatalf("row B ungapped %q != input %q", bio.Ungap(r.B), b)
	}
	for i := range r.A {
		if r.A[i] == bio.Gap && r.B[i] == bio.Gap {
			t.Fatalf("all-gap column at %d", i)
		}
	}
}

func scoreAlignment(al Aligner, ra, rb []byte) float64 {
	// score an alignment under the affine model, for cross-checking
	var score float64
	inX, inY := false, false
	for i := range ra {
		switch {
		case ra[i] != bio.Gap && rb[i] != bio.Gap:
			score += al.Sub.Score(ra[i], rb[i])
			inX, inY = false, false
		case rb[i] == bio.Gap:
			if !inX {
				score -= al.Gap.Open
			}
			score -= al.Gap.Extend
			inX, inY = true, false
		default:
			if !inY {
				score -= al.Gap.Open
			}
			score -= al.Gap.Extend
			inX, inY = false, true
		}
	}
	return score
}

func TestGlobalIdenticalSequences(t *testing.T) {
	s := []byte("MKVLATGHWQERY")
	r := prot.Global(s, s)
	checkValidAlignment(t, r, s, s)
	if !bytes.Equal(r.A, s) || !bytes.Equal(r.B, s) {
		t.Fatalf("identical inputs got gaps: %q / %q", r.A, r.B)
	}
	want := 0.0
	for _, c := range s {
		want += prot.Sub.Score(c, c)
	}
	if r.Score != want {
		t.Fatalf("score = %g, want %g", r.Score, want)
	}
}

func TestGlobalSimpleGap(t *testing.T) {
	a := []byte("ACDEFGHIKLMNPQRST")
	b := []byte("ACDEFGHIKLMNPQR") // two residues deleted at the end
	r := prot.Global(a, b)
	checkValidAlignment(t, r, a, b)
	// The natural alignment puts a terminal 2-gap in B.
	if got := scoreAlignment(prot, r.A, r.B); got != r.Score {
		t.Fatalf("reported score %g != recomputed %g", r.Score, got)
	}
}

func TestGlobalEmptyInputs(t *testing.T) {
	r := prot.Global(nil, []byte("ACD"))
	checkValidAlignment(t, r, nil, []byte("ACD"))
	if r.Score != -(prot.Gap.Open + 3*prot.Gap.Extend) {
		t.Fatalf("empty-vs-ACD score = %g", r.Score)
	}
	r = prot.Global(nil, nil)
	if len(r.A) != 0 || r.Score != 0 {
		t.Fatalf("empty alignment: %+v", r)
	}
}

func randSeq(rng *rand.Rand, n int) []byte {
	letters := bio.AminoAcids.Letters()
	out := make([]byte, n)
	for i := range out {
		out[i] = letters[rng.Intn(len(letters))]
	}
	return out
}

func TestGlobalScoreMatchesTracebackScore(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		a := randSeq(rng, 1+rng.Intn(60))
		b := randSeq(rng, 1+rng.Intn(60))
		r := prot.Global(a, b)
		checkValidAlignment(t, r, a, b)
		if got := scoreAlignment(prot, r.A, r.B); got != r.Score {
			t.Fatalf("trial %d: alignment rescues to %g, reported %g", trial, got, r.Score)
		}
	}
}

func TestGlobalSymmetryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(x, y uint8) bool {
		a := randSeq(rng, 1+int(x)%50)
		b := randSeq(rng, 1+int(y)%50)
		return prot.Global(a, b).Score == prot.Global(b, a).Score
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestGlobalOptimalVsBruteForceSmall(t *testing.T) {
	// Exhaustive check on tiny alphabet-3 sequences: enumerate all
	// alignments via recursion and compare the optimum.
	al := Aligner{Sub: submat.DNASimple, Gap: submat.Gap{Open: 4, Extend: 1}}
	var brute func(a, b []byte, state byte) float64
	memo := map[[3]string]float64{}
	brute = func(a, b []byte, state byte) float64 {
		key := [3]string{string(a), string(b), string(state)}
		if v, ok := memo[key]; ok {
			return v
		}
		var best float64
		switch {
		case len(a) == 0 && len(b) == 0:
			best = 0
		case len(a) == 0:
			cost := al.Gap.Extend * float64(len(b))
			if state != 'Y' {
				cost += al.Gap.Open
			}
			best = -cost
		case len(b) == 0:
			cost := al.Gap.Extend * float64(len(a))
			if state != 'X' {
				cost += al.Gap.Open
			}
			best = -cost
		default:
			best = al.Sub.Score(a[0], b[0]) + brute(a[1:], b[1:], 'M')
			gx := -al.Gap.Extend + brute(a[1:], b, 'X')
			if state != 'X' {
				gx -= al.Gap.Open
			}
			if gx > best {
				best = gx
			}
			gy := -al.Gap.Extend + brute(a, b[1:], 'Y')
			if state != 'Y' {
				gy -= al.Gap.Open
			}
			if gy > best {
				best = gy
			}
		}
		memo[key] = best
		return best
	}
	rng := rand.New(rand.NewSource(17))
	dna := bio.DNA.Letters()
	for trial := 0; trial < 30; trial++ {
		a := make([]byte, 1+rng.Intn(8))
		b := make([]byte, 1+rng.Intn(8))
		for i := range a {
			a[i] = dna[rng.Intn(4)]
		}
		for i := range b {
			b[i] = dna[rng.Intn(4)]
		}
		want := brute(a, b, 'M')
		got := al.Global(a, b).Score
		if got != want {
			t.Fatalf("trial %d: %q vs %q: Global=%g brute=%g", trial, a, b, got, want)
		}
	}
}

func TestIdentity(t *testing.T) {
	if id := Identity([]byte("ACDEF"), []byte("ACDEF")); id != 1 {
		t.Errorf("identical rows: %g", id)
	}
	if id := Identity([]byte("ACDEF"), []byte("ACDEW")); id != 0.8 {
		t.Errorf("4/5 identity: %g", id)
	}
	if id := Identity([]byte("AC-EF"), []byte("ACW-F")); id != 1 {
		t.Errorf("gap columns excluded: %g", id)
	}
	if id := Identity([]byte("--"), []byte("AC")); id != 0 {
		t.Errorf("no residue pairs: %g", id)
	}
	if id := Identity([]byte("AB"), []byte("A")); id != 0 {
		t.Errorf("length mismatch: %g", id)
	}
}
