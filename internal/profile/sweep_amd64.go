package profile

// useAVX2 picks quadSweep's four rows per sweep in AVX2 over pairSweep's
// two in SSE2, which every amd64 CPU runs, and letterDots' one pass per
// row of column scores over the two-letter SSE2 sweeps. It is set once,
// when the package initialises, from what the CPU and the operating
// system report; tests clear it to hold the SSE2 sweeps to their
// oracles on an AVX2 host too.
var useAVX2 = hasAVX2()

// hasAVX2 reports whether the CPU has AVX2 and the operating system
// saves the YMM registers (cpu_amd64.s).
func hasAVX2() bool

// pairSweep is sweepGo's loop for h = 2 in SSE2 (pairsweep_amd64.s), one
// step per iteration with each lane in one half of an XMM register.
//
//go:noescape
func pairSweep(st *sweepState, m, x, y, s, openB, extB []float64, tb []byte, sStride int)

// quadSweep is sweepGo's loop for h = 4 in AVX2 (quadsweep_amd64.s), one
// step per iteration with lane k in element k of a YMM register. The
// CPU must have AVX2.
//
//go:noescape
func quadSweep(st *sweepState, m, x, y, s, openB, extB []float64, tb []byte, sStride int)

// pairTB maps two lanes' comparison masks, packed as gx | gy<<2 |
// bx<<4 | by<<6 with the lower lane's bit first in each, to the two
// lanes' traceback bytes, the lower lane's in the low byte.
var pairTB = func() (t [256]uint16) {
	for idx := range t {
		for lane := 0; lane < 2; lane++ {
			bit := func(mask int) byte { return byte(idx>>(2*mask+lane)) & 1 }
			t[idx] |= uint16(tbByte(bit(0), bit(1), bit(2), bit(3))) << (8 * lane)
		}
	}
	return t
}()
