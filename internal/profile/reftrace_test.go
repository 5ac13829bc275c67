package profile

import "repro/internal/dp"

// tracePath is the reference kernel's traceback (ref_test.go): its
// plane is row-major, the traceback plane of one-row blocks.
func tracePath(w *dp.Workspace, n, m int, state byte) Path {
	return tbPlane{m, 1}.trace(w.TB, n, state)
}
