package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// median returns the middle of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p ≤
// 100): the smallest sample with at least p % of the samples at or
// below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// supported reports whether n samples carry the p-th percentile: a
// percentile is only reported when at least ten samples lie beyond it.
func supported(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= 10
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's high-water resident set (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// stopwatch brackets one timed region with wall and process CPU time.
type stopwatch struct {
	t0   time.Time
	cpu0 float64
}

func startWatch() stopwatch { return stopwatch{t0: time.Now(), cpu0: cpuSeconds()} }

func (w stopwatch) stop() (wall, cpu float64) {
	return time.Since(w.t0).Seconds(), cpuSeconds() - w.cpu0
}

// quartiles returns the first and third quartile of xs the way
// Python's statistics.quantiles(xs, n=4) does (the driver's spread is
// their distance over the median). It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	const n = 4
	ld := len(s)
	at := func(i int) float64 {
		j := min(max(i*(ld+1)/n, 1), ld-1)
		delta := float64(i*(ld+1) - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return at(1), at(3)
}
