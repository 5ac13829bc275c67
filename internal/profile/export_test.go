package profile

import "testing"

// UseSSE2 switches AVX2 off until t ends, so the kernel runs two rows
// per sweep and sums column scores in the SSE2 column sweeps, as on a
// CPU without AVX2. It reports false, changing nothing, where it is off
// already.
func UseSSE2(t testing.TB) bool {
	if !useAVX2 {
		return false
	}
	useAVX2 = false
	t.Cleanup(func() { useAVX2 = true })
	return true
}
