package profile

// colSweepPairs runs colSweep's loop over cells [0, len(dst)&^1) two at
// a time (colsweep_amd64.s) and returns where it stopped. src and c1
// must be at least len(dst) long, and so must c2 and occB unless empty.
//
//go:noescape
func colSweepPairs(dst, src, c1, c2, occB []float64, v1, v2, occA float64) int
