//go:build !amd64

package profile

func rowMXPairs(cM, cX []float64, tb []byte, pM, pX, pY, s []float64, openA, extA float64) int {
	return 0
}
