//go:build !amd64

package profile

func colSweepPairs(dst, src, c1, c2, occB []float64, v1, v2, occA float64) int {
	return 0
}

func letterDotStrips(dst []float64, idx []int32, val, tab []float64, stride int, occA float64, occB []float64) int {
	return 0
}
