package profile

// rowMXPairs runs rowMX's loop over cells [0, len(s)&^1) two at a time
// (rowmx_amd64.s) and returns where it stopped. The slices must have
// rowMX's lengths: len(s) for cM, cX, tb and pY, len(s)+1 for pM, pX.
//
//go:noescape
func rowMXPairs(cM, cX []float64, tb []byte, pM, pX, pY, s []float64, openA, extA float64) int
