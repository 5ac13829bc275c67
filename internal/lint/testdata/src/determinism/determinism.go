// Fixture for the determinism analyzer: wall-clock reads, math/rand,
// and map-iteration order leaking into ordered output.
package determinism

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand" // want `imports math/rand`
	"sort"
	"time"

	"repro/internal/obs"
)

func clock() int64 {
	t := time.Now() // want `reads the wall clock via time\.Now`
	return t.Unix()
}

func elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want `reads the wall clock via time\.Since`
}

func seeded() int {
	rng := rand.New(rand.NewSource(42))
	return rng.Int()
}

func mapAppend(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `append inside map iteration`
	}
	return keys
}

func mapAppendSorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func counterIndexed(m map[string]float64) []float64 {
	out := make([]float64, len(m))
	i := 0
	for _, v := range m {
		out[i] = v // want `counter-indexed slice write`
		i++
	}
	return out
}

func keyIndexed(m map[int]float64) []float64 {
	out := make([]float64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func floatAccum(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v // want `float accumulation inside map iteration`
	}
	return sum
}

func keyedAccum(m map[string]float64, acc map[string]float64) {
	for k, v := range m {
		acc[k] += v
	}
}

func intAccum(m map[string]int) int {
	var n int
	for _, v := range m {
		n += v // integer addition commutes exactly
	}
	return n
}

func buffered(m map[string]string, buf *bytes.Buffer) {
	for k := range m {
		buf.WriteString(k) // want `buffer write inside map iteration`
	}
}

func printed(m map[string]int, w io.Writer) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v) // want `fmt\.Fprintf inside map iteration`
	}
}

func argmax(m map[string]float64) string {
	var bestK string
	best := -1.0
	for k, v := range m {
		if v > best { // want `min/max selection over map iteration`
			best, bestK = v, k
		}
	}
	return bestK
}

func argmaxTieBroken(m map[string]float64) string {
	var bestK string
	best := -1.0
	for k, v := range m {
		if v > best || (v == best && k < bestK) {
			best, bestK = v, k
		}
	}
	return bestK
}

func sliceRangeFine(s []float64) float64 {
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum
}

func allowedClock() int64 {
	//lint:allow determinism fixture: timing for a progress report, never reaches alignment bytes
	t := time.Now()
	return t.UnixNano()
}

func traceDoc(tr *obs.Tracer) *obs.Document {
	return tr.Document() // want `reads trace timings via obs\.\(\*Tracer\)\.Document`
}

func spanWrites(ctx context.Context, depth int) {
	// Emitting spans is write-only instrumentation: Start, the attribute
	// setters and End never hand timing values back to the caller.
	ctx, sp := obs.Start(ctx, "phase")
	sp.SetInt("n", 1)
	sp.End()
	_, dsp := obs.StartDepth(ctx, "deep", depth)
	dsp.SetBool("sampled", true)
	dsp.End()
}
