package profile

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// TestPairSweepMatchesGoStep holds pairSweep — the SSE2 loop on amd64 —
// to its Go form, sweepGo at h = 2, on every sweep width from 0 to 17
// and on entries drawn from +∞, both zeros and a few repeated small
// integers, so every tie, every unreachable predecessor and every
// zero-sign case occurs in both lanes. Traceback bytes must be
// identical, values equal under == and never NaN, and so must the state
// the sweep hands back; a zero's sign is the one difference allowed.
// Every traceback byte starts as 0xff, which no step writes, so a step
// the assembly skipped cannot pass.
func TestPairSweepMatchesGoStep(t *testing.T) { checkSweepMatchesGo(t, 2, pairSweep) }

// TestQuadSweepMatchesGoStep is TestPairSweepMatchesGoStep for
// quadSweep, the AVX2 loop, against sweepGo at h = 4.
func TestQuadSweepMatchesGoStep(t *testing.T) {
	if runtime.GOARCH == "amd64" && !useAVX2 {
		t.Skip("the CPU has no AVX2")
	}
	checkSweepMatchesGo(t, 4, quadSweep)
}

func checkSweepMatchesGo(t *testing.T, h int, sweep func(st *sweepState, m, x, y, s, openB, extB []float64, tb []byte, sStride int)) {
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
	lanes := func(set []float64) [4]float64 { return [4]float64(draw(set, 4)) }
	type run struct {
		st      sweepState
		m, x, y []float64
		tb      []byte
	}
	for w := 0; w <= 17; w++ {
		// The lanes' scores sit a few entries further apart than a sweep
		// reaches.
		sStride := w + 2
		for trial := 0; trial < 2000; trial++ {
			var in sweepState
			in.dM, in.dX, in.dY = lanes(costs), lanes(costs), lanes(costs)
			in.lM, in.lX, in.lY = lanes(costs), lanes(costs), lanes(costs)
			in.openA, in.extA = lanes(gaps), lanes(gaps)
			m, x, y := draw(costs, w+h), draw(costs, w+h), draw(costs, w+h)
			s := draw(scores, (h-1)*sStride+w)
			openB, extB := draw(gaps, w+h-1), draw(gaps, w+h-1)

			var asm, ref run
			for _, r := range []*run{&asm, &ref} {
				r.st = in
				r.m, r.x, r.y = append([]float64(nil), m...), append([]float64(nil), x...), append([]float64(nil), y...)
				r.tb = make([]byte, h*w)
				for i := range r.tb {
					r.tb[i] = 0xff
				}
			}
			sweep(&asm.st, asm.m, asm.x, asm.y, s, openB, extB, asm.tb, sStride)
			sweepGo(&ref.st, h, ref.m, ref.x, ref.y, s, openB, extB, ref.tb, sStride)

			fail := func(what string, i int) {
				t.Fatalf("h %d width %d %s %d (in %+v m %v x %v y %v s %v openB %v extB %v):\nsweep %+v\nGo    %+v",
					h, w, what, i, in, m, x, y, s, openB, extB, asm, ref)
			}
			for i := range asm.tb {
				if asm.tb[i] != ref.tb[i] || asm.tb[i] == 0xff {
					fail("traceback byte", i)
				}
			}
			for i := range m {
				for _, v := range [][2]float64{{asm.m[i], ref.m[i]}, {asm.x[i], ref.x[i]}, {asm.y[i], ref.y[i]}} {
					if v[0] != v[1] || math.IsNaN(v[0]) {
						fail("rolling-row entry", i)
					}
				}
			}
			got, want := asm.st, ref.st
			for k, v := range [][2][4]float64{{got.dM, want.dM}, {got.dX, want.dX}, {got.dY, want.dY}, {got.lM, want.lM}, {got.lX, want.lX}, {got.lY, want.lY}} {
				for lane := range v[0] {
					if v[0][lane] != v[1][lane] || math.IsNaN(v[0][lane]) {
						fail("state field", k)
					}
				}
			}
		}
	}
}

// TestAlignSmallGridMatchesReference pins every edge of the row blocks —
// a last block of each length, one or two full blocks, sweeps of no
// steps, windows that start or end a column apart, bands narrower than
// a block so no step has every lane in its window, column 0 in and out
// of band — against the reference: Align and every band (lo, hi) with
// −n−1 ≤ lo, hi ≤ m+1, inverted ones included, on every shape
// n, m ≤ 9, for a unit-leaf pair and for a weighted two-row pair with
// gap mass, whose gapped columns are occupied 1/6, so gaps against them
// are cheap and the band's edges get taken.
func TestAlignSmallGridMatchesReference(t *testing.T) {
	leaf := func(s string) *Profile { return FromSequence(testAligner.Sub.Alphabet(), []byte(s)) }
	multi := func(r0, r1 string) *Profile {
		p, err := FromRows(testAligner.Sub.Alphabet(), [][]byte{[]byte(r0), []byte(r1)}, []float64{0.2, 1})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	const a0, a1, b0, b1 = "HEAGAWGHE", "P-W-E-AG-", "PAWHEAEWG", "-AGH--E-W"
	for n := 1; n <= len(a0); n++ {
		for m := 1; m <= len(b0); m++ {
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

// TestSSE2KernelMatchesOracles runs the kernel's oracle tests again with
// AVX2 switched off, so that a host with AVX2, where every other test
// runs four rows per sweep and sums column scores in letterDots, also
// holds the two-row SSE2 sweep and the SSE2 column sweeps — what a CPU
// without AVX2 runs — to the reference.
func TestSSE2KernelMatchesOracles(t *testing.T) {
	if !UseSSE2(t) {
		t.Skip("no AVX2: the other tests already run the SSE2 kernel")
	}
	t.Run("AlignMatchesReferenceBitForBit", TestAlignMatchesReferenceBitForBit)
	t.Run("AlignSmallGridMatchesReference", TestAlignSmallGridMatchesReference)
	t.Run("ColSweepsMatchGoLoop", TestColSweepsMatchGoLoop)
	t.Run("LetterSumsMatchDotProduct", TestLetterSumsMatchDotProduct)
	t.Run("PSPSetupMatchesPerEntry", TestPSPSetupMatchesPerEntry)
	t.Run("PairSweepMatchesGoStep", TestPairSweepMatchesGoStep)
}

// BenchmarkRowSweep times the row sweep alone over rows 300 and 2100
// columns wide, in ns per DP cell (h·width cells a call): the assembly,
// pairSweep (h = 2) and quadSweep (h = 4, on a CPU with AVX2), beside
// sweepGo at both h, the loop every non-amd64 build runs. The entries
// are finite costs of PSP magnitude, so no step meets +∞.
func BenchmarkRowSweep(b *testing.B) {
	type sweepFunc func(st *sweepState, m, x, y, s, openB, extB []float64, tb []byte, sStride int)
	goSweep := func(h int) sweepFunc {
		return func(st *sweepState, m, x, y, s, openB, extB []float64, tb []byte, sStride int) {
			sweepGo(st, h, m, x, y, s, openB, extB, tb, sStride)
		}
	}
	for _, kernel := range []string{"asm", "go"} {
		for _, h := range []int{2, 4} {
			sweep := goSweep(h)
			if kernel == "asm" {
				sweep = map[int]sweepFunc{2: pairSweep, 4: quadSweep}[h]
			}
			for _, w := range []int{300, 2100} {
				b.Run(fmt.Sprintf("%s/h=%d/width=%d", kernel, h, w), func(b *testing.B) {
					if kernel == "asm" && h == 4 && runtime.GOARCH == "amd64" && !useAVX2 {
						b.Skip("the CPU has no AVX2")
					}
					rng := rand.New(rand.NewSource(31))
					row := func(n int, scale float64) []float64 {
						v := make([]float64, n)
						for i := range v {
							v[i] = scale * rng.Float64()
						}
						return v
					}
					var st sweepState
					st.openA, st.extA = [4]float64{11, 11, 11, 11}, [4]float64{1, 1, 1, 1}
					m, x, y := row(w+h, 50), row(w+h, 50), row(w+h, 50)
					s := row((h-1)*w+w, 4)
					openB, extB := row(w+h-1, 11), row(w+h-1, 1)
					tb := make([]byte, h*w)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						sweep(&st, m, x, y, s, openB, extB, tb, w)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(h*w), "ns/cell")
				})
			}
		}
	}
}
