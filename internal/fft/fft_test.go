package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestTransformKnownDC(t *testing.T) {
	x := []complex128{1, 1, 1, 1}
	if err := transform(x, false); err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(x[0]-4) > 1e-12 {
		t.Fatalf("DC bin = %v", x[0])
	}
	for i := 1; i < 4; i++ {
		if cmplx.Abs(x[i]) > 1e-12 {
			t.Fatalf("bin %d = %v", i, x[i])
		}
	}
}

func TestTransformRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 8, 64, 256} {
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			orig[i] = x[i]
		}
		if err := transform(x, false); err != nil {
			t.Fatal(err)
		}
		if err := transform(x, true); err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
				t.Fatalf("n=%d: round trip error at %d: %v vs %v", n, i, x[i], orig[i])
			}
		}
	}
}

func TestTransformRejectsNonPow2(t *testing.T) {
	if err := transform(make([]complex128, 3), false); err == nil {
		t.Fatal("length 3 accepted")
	}
}

func TestTransformParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 128
	x := make([]complex128, n)
	var timeEnergy float64
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
		timeEnergy += real(x[i]) * real(x[i])
	}
	if err := transform(x, false); err != nil {
		t.Fatal(err)
	}
	var freqEnergy float64
	for _, v := range x {
		freqEnergy += real(v)*real(v) + imag(v)*imag(v)
	}
	freqEnergy /= float64(n)
	if math.Abs(timeEnergy-freqEnergy) > 1e-9*timeEnergy {
		t.Fatalf("Parseval violated: %g vs %g", timeEnergy, freqEnergy)
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024}
	for in, want := range cases {
		if got := nextPow2(in); got != want {
			t.Errorf("nextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func bruteCorrelate(a, b []float64) []float64 {
	out := make([]float64, len(a)+len(b)-1)
	for s := -(len(a) - 1); s <= len(b)-1; s++ {
		var sum float64
		for t := 0; t < len(a); t++ {
			bt := t + s
			if bt >= 0 && bt < len(b) {
				sum += a[t] * b[bt]
			}
		}
		out[len(a)-1+s] = sum
	}
	return out
}

func TestCrossCorrelateMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		a := make([]float64, 1+rng.Intn(50))
		b := make([]float64, 1+rng.Intn(50))
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		got, err := CrossCorrelate(a, b)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteCorrelate(a, b)
		if len(got) != len(want) {
			t.Fatalf("length %d != %d", len(got), len(want))
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("trial %d: corr[%d] = %g, want %g", trial, i, got[i], want[i])
			}
		}
	}
}

func TestCrossCorrelatePeakAtSharedSegment(t *testing.T) {
	// b is a copy of a shifted by 7: the correlation must peak at s=7.
	rng := rand.New(rand.NewSource(4))
	a := make([]float64, 60)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	b := make([]float64, 67)
	copy(b[7:], a)
	corr, err := CrossCorrelate(a, b)
	if err != nil {
		t.Fatal(err)
	}
	best, bestIdx := math.Inf(-1), -1
	for i, v := range corr {
		if v > best {
			best, bestIdx = v, i
		}
	}
	if shift := bestIdx - (len(a) - 1); shift != 7 {
		t.Fatalf("peak at shift %d, want 7", shift)
	}
}

func TestCrossCorrelateEmpty(t *testing.T) {
	if _, err := CrossCorrelate(nil, []float64{1}); err == nil {
		t.Fatal("empty signal accepted")
	}
}
