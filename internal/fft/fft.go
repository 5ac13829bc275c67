// Package fft provides the radix-2 complex FFT (stdlib-only) behind the
// MAFFT-like aligner's homologous-segment detection: cross-correlating
// residue property signals of two sequences peaks at the offsets where
// they share homologous segments (Katoh et al. 2002).
package fft

import (
	"fmt"
	"math"
	"math/bits"
)

// transform computes the in-place radix-2 decimation-in-time FFT of x.
// len(x) must be a power of two. inverse selects the inverse transform
// (scaled by 1/n).
func transform(x []complex128, inverse bool) error {
	n := len(x)
	if n == 0 {
		return nil
	}
	if n&(n-1) != 0 {
		return fmt.Errorf("fft: length %d is not a power of two", n)
	}
	// bit-reversal permutation
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 1; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		angle := 2 * math.Pi / float64(size)
		if !inverse {
			angle = -angle
		}
		wStep := complex(math.Cos(angle), math.Sin(angle))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wStep
			}
		}
	}
	if inverse {
		inv := complex(1/float64(n), 0)
		for i := range x {
			x[i] *= inv
		}
	}
	return nil
}

// nextPow2 returns the smallest power of two >= n (and at least 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// CrossCorrelate returns the linear cross-correlation of two real
// signals: out[k] = Σ_t a[t]·b[t+k-(len(a)-1)], indexed so that
// out[len(a)-1+s] is the correlation at shift s of b relative to a
// (s ∈ [-(len(a)-1), len(b)-1]). Computed via FFT in O(n log n).
func CrossCorrelate(a, b []float64) ([]float64, error) {
	if len(a) == 0 || len(b) == 0 {
		return nil, fmt.Errorf("fft: empty signal")
	}
	outLen := len(a) + len(b) - 1
	n := nextPow2(outLen)
	fa := make([]complex128, n)
	fb := make([]complex128, n)
	// reverse a so convolution becomes correlation
	for i, v := range a {
		fa[len(a)-1-i] = complex(v, 0)
	}
	for i, v := range b {
		fb[i] = complex(v, 0)
	}
	if err := transform(fa, false); err != nil {
		return nil, err
	}
	if err := transform(fb, false); err != nil {
		return nil, err
	}
	for i := range fa {
		fa[i] *= fb[i]
	}
	if err := transform(fa, true); err != nil {
		return nil, err
	}
	out := make([]float64, outLen)
	for i := range out {
		out[i] = real(fa[i])
	}
	return out, nil
}
