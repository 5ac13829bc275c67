package profile

// colSweepPairs runs colSweep's loop over cells [0, len(dst)&^1) two at
// a time (colsweep_amd64.s) and returns where it stopped. src and c1
// must be at least len(dst) long, and so must c2 and occB unless empty.
//
//go:noescape
func colSweepPairs(dst, src, c1, c2, occB []float64, v1, v2, occA float64) int

// letterDotStrips runs letterDots' loop over cells [0, len(dst)&^3) in
// AVX2 (letterdots_amd64.s) and returns where it stopped. The CPU must
// have AVX2, and the slices must be as letterDots checks them.
//
//go:noescape
func letterDotStrips(dst []float64, idx []int32, val, tab []float64, stride int, occA float64, occB []float64) int
