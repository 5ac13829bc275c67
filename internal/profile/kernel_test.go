package profile

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bio"
	"repro/internal/dpkern"
	"repro/internal/submat"
)

// Cross-kernel property tests for the profile aligner: whatever the
// Kernel setting, Align must produce identical paths and bit-identical
// scores. The scalar configuration is what everything is compared
// against here; ref_test.go holds the scalar kernel itself to the
// three-plane reference.

func kernelAligners() (scalar, striped *Aligner) {
	scalar = NewAligner(submat.BLOSUM62, submat.DefaultProteinGap)
	scalar.Kernel = dpkern.Scalar
	striped = NewAligner(submat.BLOSUM62, submat.DefaultProteinGap)
	striped.Kernel = dpkern.Striped
	return scalar, striped
}

func randLeaf(rng *rand.Rand, n int, letters []byte) *Profile {
	s := make([]byte, n)
	for i := range s {
		s[i] = letters[rng.Intn(len(letters))]
	}
	return FromSequence(bio.AminoAcids, s)
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

func TestStripedLeafAlignMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	scalar, striped := kernelAligners()
	letters := bio.AminoAcids.Letters()
	for trial := 0; trial < 40; trial++ {
		a := randLeaf(rng, 1+rng.Intn(120), letters)
		b := randLeaf(rng, 1+rng.Intn(120), letters)
		sp, ss := scalar.Align(a, b)
		tp, ts := striped.Align(a, b)
		assertSameAlignment(t, "leaf", sp, ss, tp, ts)
	}
	// Tie-heavy: two-letter sequences maximise equal-scoring paths.
	for trial := 0; trial < 40; trial++ {
		a := randLeaf(rng, 20+rng.Intn(80), []byte("AG"))
		b := randLeaf(rng, 20+rng.Intn(80), []byte("AG"))
		sp, ss := scalar.Align(a, b)
		tp, ts := striped.Align(a, b)
		assertSameAlignment(t, "tie-heavy leaf", sp, ss, tp, ts)
	}
}

func TestStripedRoutesOnlyUnitLeaves(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	scalar, striped := kernelAligners()
	// Multi-row profiles have fractional columns: the striped kernel
	// must decline them (isUnitLeaf false) and the scalar path runs for
	// both settings — this asserts the routing does not corrupt results.
	for trial := 0; trial < 10; trial++ {
		a := randProfile(rng, 3, 40+rng.Intn(40))
		b := randProfile(rng, 2, 40+rng.Intn(40))
		if _, _, ok := striped.alignStriped(a, b, false, 0, 0); ok {
			t.Fatal("striped kernel accepted a multi-row profile")
		}
		sp, ss := scalar.Align(a, b)
		tp, ts := striped.Align(a, b)
		assertSameAlignment(t, "multi-row", sp, ss, tp, ts)
	}
	// A gapped single-sequence profile is not a unit leaf either.
	g, err := FromRows(bio.AminoAcids, [][]byte{[]byte("AC-DE")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if isUnitLeaf(g) {
		t.Fatal("gapped column counted as unit leaf")
	}
}
