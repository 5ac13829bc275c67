//go:build !amd64

package profile

// useAVX2 is false off amd64: the sweeps run two rows at a time in Go,
// and the column scores in colSweepFrom's sweeps.
var useAVX2 = false

func pairSweep(st *sweepState, m, x, y, s, openB, extB []float64, tb []byte, sStride int) {
	sweepGo(st, 2, m, x, y, s, openB, extB, tb, sStride)
}

func quadSweep(st *sweepState, m, x, y, s, openB, extB []float64, tb []byte, sStride int) {
	sweepGo(st, 4, m, x, y, s, openB, extB, tb, sStride)
}
