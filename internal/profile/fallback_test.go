package profile_test

import (
	"testing"

	"repro/internal/profile"
)

// TestKernelGoldenHashSSE2 pins the two-row SSE2 kernel, the fallback
// for CPUs without AVX2, to the same hash on a host whose default is the
// four-row AVX2 one.
func TestKernelGoldenHashSSE2(t *testing.T) {
	if !profile.UseSSE2(t) {
		t.Skip("no AVX2: TestKernelGoldenHash already ran the SSE2 kernel")
	}
	TestKernelGoldenHash(t)
}
