package profile

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// TestRowMXPairsMatchGoLoop holds rowMX — the vector pass over the whole
// pairs plus the Go loop over the rest — to the Go loop run over the
// whole row, on every width from 0 to 17 (each tail length, odd and
// even) and on entries drawn from +∞, both zeros and a few repeated
// small integers, so every tie, every unreachable predecessor and every
// zero-sign case occurs. Traceback bytes must be identical and values
// equal under ==; a zero's sign is the one difference allowed.
func TestRowMXPairsMatchGoLoop(t *testing.T) {
	inf, negZero := math.Inf(1), math.Copysign(0, -1)
	costs := []float64{inf, 0, negZero, 1, 1, 2, -1}
	scores := []float64{0, negZero, 1, -1, 2} // column scores are finite
	gaps := []float64{0, negZero, 1, 2}
	rng := rand.New(rand.NewSource(28))
	draw := func(set []float64, n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = set[rng.Intn(len(set))]
		}
		return v
	}
	for w := 0; w <= 17; w++ {
		z, tb := make([]float64, w+1), make([]byte, w)
		if got := rowMXPairs(z[:w], z[:w], tb, z, z, z[:w], z[:w], 0, 0); runtime.GOARCH == "amd64" && got != w&^1 {
			t.Fatalf("width %d: rowMXPairs stopped at %d, want %d", w, got, w&^1)
		}
		for trial := 0; trial < 2000; trial++ {
			pM, pX, pY := draw(costs, w+1), draw(costs, w+1), draw(costs, w)
			s := draw(scores, w)
			openA, extA := gaps[rng.Intn(len(gaps))], gaps[rng.Intn(len(gaps))]

			vM, vX, vTB := make([]float64, w), make([]float64, w), make([]byte, w)
			gM, gX, gTB := make([]float64, w), make([]float64, w), make([]byte, w)
			for i := range vM {
				vM[i], vX[i], gM[i], gX[i] = math.NaN(), math.NaN(), math.NaN(), math.NaN()
				vTB[i], gTB[i] = 0xff, 0xff
			}
			rowMX(vM, vX, vTB, pM, pX, pY, s, openA, extA)
			rowMXFrom(0, gM, gX, gTB, pM, pX, pY, s, openA, extA)
			for i := 0; i < w; i++ {
				if vTB[i] != gTB[i] || vM[i] != gM[i] || vX[i] != gX[i] || math.IsNaN(vM[i]) || math.IsNaN(vX[i]) {
					t.Fatalf("width %d cell %d (pM %v pX %v pY %v s %v open %v ext %v):\nvector tb %#x M %v X %v\nGo     tb %#x M %v X %v",
						w, i, pM, pX, pY, s, openA, extA, vTB[i], vM[i], vX[i], gTB[i], gM[i], gX[i])
				}
			}
		}
	}
}
