package profile

// letterSums fills dst with sums of letter columns as sweepLetters
// describes, through letterDots where the CPU has AVX2 and through
// sweepLetters elsewhere; every byte is the same either way. idx may be
// empty: every sum is then +0, scaled.
func letterSums(dst, zero []float64, idx []int32, val, tab []float64, stride int, occA float64, occB []float64) {
	switch {
	case useAVX2:
		letterDots(dst, idx, val, tab, stride, occA, occB)
	case len(idx) == 0:
		for t := range dst {
			var x float64
			if occB != nil {
				x = x * occA * occB[t]
			}
			dst[t] = x
		}
	default:
		sweepLetters(dst, zero, idx, val, tab, stride, occA, occB)
	}
}

// letterDots is sweepLetters in one pass over dst: cell t becomes
//
//	(+0 + val[0]·tab[idx[0]·stride+t] + val[1]·tab[idx[1]·stride+t] + …)·occA·occB[t]
//
// added in the order given, each product rounded before its add, and
// scaled only when occB is non-empty. The sum stays in a register over
// every letter, so each cell is written once: on amd64 letterDotStrips
// runs the cells in strips of sixteen and four in AVX2 (the CPU must
// have it), and the Go loop here the last few. idx may be empty.
func letterDots(dst []float64, idx []int32, val, tab []float64, stride int, occA float64, occB []float64) {
	val = val[:len(idx)]
	for _, y := range idx {
		_ = tab[int(y)*stride:][:len(dst)]
	}
	if len(occB) > 0 {
		occB = occB[:len(dst)]
	}
	for t := letterDotStrips(dst, idx, val, tab, stride, occA, occB); t < len(dst); t++ {
		var x float64
		for k, y := range idx {
			x += val[k] * tab[int(y)*stride+t]
		}
		if len(occB) > 0 {
			x = x * occA * occB[t]
		}
		dst[t] = x
	}
}

// sweepLetters fills dst with sums of letter columns, cell t becoming
//
//	(+0 + val[0]·tab[idx[0]·stride+t] + val[1]·tab[idx[1]·stride+t] + …)·occA·occB[t]
//
// added in the order given, each product rounded before its add — the
// order a per-cell sparse dot product adds them in — and scaled only
// when occB is non-nil. It makes ⌈len(idx)/2⌉ sweeps over dst, two
// letters per sweep and a lone last letter in one of its own: the first
// sweep reads zero (+0 in every cell, at least len(dst) long), so the
// sums start from +0 with no clearing pass, and the last one applies
// the scale. idx must not be empty.
func sweepLetters(dst, zero []float64, idx []int32, val, tab []float64, stride int, occA float64, occB []float64) {
	src := zero
	for k := 0; k < len(idx); k += 2 {
		var scale []float64
		if k+2 >= len(idx) {
			scale = occB
		}
		c1 := tab[int(idx[k])*stride:]
		if k+1 < len(idx) {
			colSweep(dst, src, c1, tab[int(idx[k+1])*stride:], val[k], val[k+1], occA, scale)
		} else {
			colSweep(dst, src, c1, nil, val[k], 0, occA, scale)
		}
		src = dst
	}
}

// colSweep is one sweep over a row, cell t becoming
//
//	(src[t] + v1·c1[t] + v2·c2[t])·occA·occB[t]
//
// left to right, each product rounded before its add; a nil c2 drops
// the second letter (no 0·c2 term: adding one can flip a zero's sign)
// and a nil occB the scale. dst may be src. On amd64 colSweepPairs runs
// the whole pairs two cells per SSE2 instruction and colSweepFrom the
// odd cell left; elsewhere colSweepFrom runs them all.
func colSweep(dst, src, c1, c2 []float64, v1, v2, occA float64, occB []float64) {
	src, c1 = src[:len(dst)], c1[:len(dst)]
	if c2 != nil {
		c2 = c2[:len(dst)]
	}
	if occB != nil {
		occB = occB[:len(dst)]
	}
	from := colSweepPairs(dst, src, c1, c2, occB, v1, v2, occA)
	colSweepFrom(from, dst, src, c1, c2, v1, v2, occA, occB)
}

// colSweepFrom is colSweep's loop over cells [from, len(dst)).
func colSweepFrom(from int, dst, src, c1, c2 []float64, v1, v2, occA float64, occB []float64) {
	src, c1 = src[:len(dst)], c1[:len(dst)]
	for t := from; t < len(dst); t++ {
		x := src[t] + v1*c1[t]
		if c2 != nil {
			x += v2 * c2[t]
		}
		if occB != nil {
			x = x * occA * occB[t]
		}
		dst[t] = x
	}
}
