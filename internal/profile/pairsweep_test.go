package profile

import (
	"math"
	"math/rand"
	"testing"
)

// TestPairSweepMatchesGoStep holds pairSweep — the SSE2 loop on amd64 —
// to its Go form, pairSweepGo, on every sweep width from 0 to 17 and on
// entries drawn from +∞, both zeros and a few repeated small integers,
// so every tie, every unreachable predecessor and every zero-sign case
// occurs in both lanes. Traceback bytes must be identical, values equal
// under == and never NaN, and so must the state the sweep hands back;
// a zero's sign is the one difference allowed. Every traceback byte
// starts as 0xff, which no step writes, so a step the assembly skipped
// cannot pass.
func TestPairSweepMatchesGoStep(t *testing.T) {
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
	pair := func(set []float64) [2]float64 { return [2]float64(draw(set, 2)) }
	type run struct {
		st       sweepState
		m, x, y  []float64
		tb0, tb1 []byte
	}
	for w := 0; w <= 17; w++ {
		for trial := 0; trial < 2000; trial++ {
			var in sweepState
			in.dM, in.dX, in.dY = pair(costs), pair(costs), pair(costs)
			in.lM, in.lX, in.lY = pair(costs), pair(costs), pair(costs)
			in.openA, in.extA = pair(gaps), pair(gaps)
			m, x, y := draw(costs, w+1), draw(costs, w+1), draw(costs, w+1)
			s0, s1 := draw(scores, w), draw(scores, w)
			openB, extB := draw(gaps, w+1), draw(gaps, w+1)

			var asm, ref run
			for _, r := range []*run{&asm, &ref} {
				r.st = in
				r.m, r.x, r.y = append([]float64(nil), m...), append([]float64(nil), x...), append([]float64(nil), y...)
				r.tb0, r.tb1 = make([]byte, w), make([]byte, w)
				for i := 0; i < w; i++ {
					r.tb0[i], r.tb1[i] = 0xff, 0xff
				}
			}
			pairSweep(&asm.st, asm.m, asm.x, asm.y, s0, s1, openB, extB, asm.tb0, asm.tb1)
			pairSweepGo(&ref.st, ref.m, ref.x, ref.y, s0, s1, openB, extB, ref.tb0, ref.tb1)

			fail := func(what string, i int) {
				t.Fatalf("width %d %s %d (in %+v m %v x %v y %v s0 %v s1 %v openB %v extB %v):\nsweep %+v\nGo    %+v",
					w, what, i, in, m, x, y, s0, s1, openB, extB, asm, ref)
			}
			for i := 0; i < w; i++ {
				if asm.tb0[i] != ref.tb0[i] || asm.tb1[i] != ref.tb1[i] || asm.tb0[i] == 0xff || asm.tb1[i] == 0xff {
					fail("traceback step", i)
				}
				for _, v := range [][2]float64{{asm.m[i], ref.m[i]}, {asm.x[i], ref.x[i]}, {asm.y[i], ref.y[i]}} {
					if v[0] != v[1] || math.IsNaN(v[0]) {
						fail("cell of step", i)
					}
				}
			}
			got, want := asm.st, ref.st
			for k, v := range [][2][2]float64{{got.dM, want.dM}, {got.dX, want.dX}, {got.dY, want.dY}, {got.lM, want.lM}, {got.lX, want.lX}, {got.lY, want.lY}} {
				for lane := range v[0] {
					if v[0][lane] != v[1][lane] || math.IsNaN(v[0][lane]) {
						fail("state field", k)
					}
				}
			}
		}
	}
}

// TestAlignSmallGridMatchesReference pins every edge of the row pairs —
// an odd last row, a sweep of no steps, windows that start or end a
// column apart, column 0 in and out of band — against the reference:
// Align and every band (lo, hi) with −n−1 ≤ lo, hi ≤ m+1, inverted ones
// included, on every shape n, m ≤ 5, for a unit-leaf pair and for a
// weighted two-row pair with gap mass, whose gapped columns are
// occupied 1/6, so gaps against them are cheap and the band's edges
// get taken.
func TestAlignSmallGridMatchesReference(t *testing.T) {
	leaf := func(s string) *Profile { return FromSequence(testAligner.Sub.Alphabet(), []byte(s)) }
	multi := func(r0, r1 string) *Profile {
		p, err := FromRows(testAligner.Sub.Alphabet(), [][]byte{[]byte(r0), []byte(r1)}, []float64{0.2, 1})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	const a0, a1, b0, b1 = "HEAGA", "P-W-E", "PAWHE", "-AGH-"
	for n := 1; n <= 5; n++ {
		for m := 1; m <= 5; m++ {
			var bands [][2]int
			for lo := -n - 1; lo <= m+1; lo++ {
				for hi := -n - 1; hi <= m+1; hi++ {
					bands = append(bands, [2]int{lo, hi})
				}
			}
			checkAgainstOracle(t, leaf(a0[:n]), leaf(b0[:m]), bands)
			checkAgainstOracle(t, multi(a0[:n], a1[:n]), multi(b0[:m], b1[:m]), bands)
		}
	}
}
