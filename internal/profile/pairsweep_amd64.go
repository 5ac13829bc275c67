package profile

// pairSweep is pairSweepGo's loop in SSE2 (pairsweep_amd64.s), one step
// per iteration with each lane in one half of an XMM register.
//
//go:noescape
func pairSweep(st *sweepState, m, x, y, s0, s1, openB, extB []float64, tb0, tb1 []byte)

// pairTB maps the step's four comparison masks, packed as gx | gy<<2 |
// bx<<4 | by<<6 with lane k's bit k of each, to the two lanes'
// traceback bytes, lane 0's in the low byte and lane 1's in the high.
var pairTB = func() (t [256]uint16) {
	for idx := range t {
		for lane := 0; lane < 2; lane++ {
			bit := func(mask int) byte { return byte(idx>>(2*mask+lane)) & 1 }
			t[idx] |= uint16(tbByte(bit(0), bit(1), bit(2), bit(3))) << (8 * lane)
		}
	}
	return t
}()
