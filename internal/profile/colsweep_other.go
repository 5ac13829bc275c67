//go:build !amd64

package profile

func colSweepPairs(dst, src, c1, c2, occB []float64, v1, v2, occA float64) int {
	return 0
}
