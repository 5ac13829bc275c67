// Package stats provides the summary statistics and histogram helpers
// used to report the paper's Table 1 and the rank-distribution figures.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Summary holds the descriptive statistics reported in the paper's
// Table 1 for a set of k-mer ranks.
type Summary struct {
	N        int
	Min, Max float64
	Mean     float64
	Variance float64 // population variance
	StdDev   float64
}

// Summarize computes a Summary of xs. An empty input returns a zero
// Summary with N == 0.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.Min, s.Max = math.Inf(1), math.Inf(-1)
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	s.Variance = ss / float64(len(xs))
	s.StdDev = math.Sqrt(s.Variance)
	return s
}

// DiffStats returns the variance and standard deviation of the pairwise
// differences a[i]-b[i]; the paper's Table 1 reports the globalised
// ranks' variance/σ "w.r.t." the centralised ranks this way.
func DiffStats(a, b []float64) (variance, stddev float64, err error) {
	if len(a) != len(b) {
		return 0, 0, fmt.Errorf("stats: length mismatch %d != %d", len(a), len(b))
	}
	if len(a) == 0 {
		return 0, 0, nil
	}
	diffs := make([]float64, len(a))
	for i := range a {
		diffs[i] = a[i] - b[i]
	}
	s := Summarize(diffs)
	return s.Variance, s.StdDev, nil
}

// Histogram is a fixed-width binning of a sample, used to render the
// rank-distribution figures (Fig. 1 and Fig. 3) as text.
type Histogram struct {
	Lo, Hi float64
	Counts []int
}

// NewHistogram bins xs into `bins` equal-width buckets spanning
// [min,max]. Values exactly at max land in the final bucket.
func NewHistogram(xs []float64, bins int) Histogram {
	s := Summarize(xs)
	h := Histogram{Lo: s.Min, Hi: s.Max, Counts: make([]int, bins)}
	if s.N == 0 || bins == 0 {
		return h
	}
	width := (s.Max - s.Min) / float64(bins)
	if width == 0 {
		h.Counts[0] = s.N
		return h
	}
	for _, x := range xs {
		b := int((x - s.Min) / width)
		if b >= bins {
			b = bins - 1
		}
		h.Counts[b]++
	}
	return h
}

// BinCenter returns the midpoint of bucket i.
func (h Histogram) BinCenter(i int) float64 {
	if len(h.Counts) == 0 {
		return 0
	}
	width := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*width
}

// Render draws the histogram as rows of "center | #### count" text, the
// form the bench harness prints for the figure reproductions.
func (h Histogram) Render(barWidth int) string {
	maxC := 0
	for _, c := range h.Counts {
		if c > maxC {
			maxC = c
		}
	}
	var b strings.Builder
	for i, c := range h.Counts {
		bar := 0
		if maxC > 0 {
			bar = c * barWidth / maxC
		}
		fmt.Fprintf(&b, "%8.3f | %-*s %d\n", h.BinCenter(i), barWidth, strings.Repeat("#", bar), c)
	}
	return b.String()
}

// Correlation returns the Pearson correlation of two equal-length samples.
func Correlation(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("stats: length mismatch %d != %d", len(a), len(b))
	}
	if len(a) < 2 {
		return 0, fmt.Errorf("stats: need at least 2 points")
	}
	sa, sb := Summarize(a), Summarize(b)
	var cov float64
	for i := range a {
		cov += (a[i] - sa.Mean) * (b[i] - sb.Mean)
	}
	cov /= float64(len(a))
	if sa.StdDev == 0 || sb.StdDev == 0 {
		return 0, fmt.Errorf("stats: zero variance sample")
	}
	return cov / (sa.StdDev * sb.StdDev), nil
}
