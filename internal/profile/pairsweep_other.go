//go:build !amd64

package profile

func pairSweep(st *sweepState, m, x, y, s0, s1, openB, extB []float64, tb0, tb1 []byte) {
	pairSweepGo(st, m, x, y, s0, s1, openB, extB, tb0, tb1)
}
