// Fixture for the pooldiscipline analyzer: leaked, early-returning and
// escaping pooled workspaces, against the approved borrow patterns.
package pooldiscipline

import (
	"sync"

	"repro/internal/dp"
)

func deferred(n, m int) float64 {
	w := dp.GetScore(n, m)
	defer dp.Put(w)
	w.MP[0] = 1
	return w.MP[0]
}

func deferredInClosure(n, m int) float64 {
	w := dp.GetScore(n, m)
	defer func() { dp.Put(w) }()
	return w.MP[0]
}

func leaked(n, m int) {
	w := dp.GetScore(n, m) // want `never releases`
	w.MP[0] = 1
}

func leakedRaw() {
	w := dp.GetRaw() // want `never releases`
	w.Reserve(1, 1)
}

func earlyReturn(n, m int, bad bool) float64 {
	w := dp.GetScore(n, m)
	if bad {
		return 0 // want `return leaks the workspace`
	}
	s := w.MP[0]
	dp.Put(w)
	return s
}

func putOnEveryPath(n, m int) float64 {
	w := dp.GetScore(n, m)
	s := w.MP[0]
	dp.Put(w)
	return s
}

func escapesPlane(n, m int) []float64 {
	w := dp.GetScore(n, m)
	defer dp.Put(w)
	return w.MP // want `escapes via return`
}

func escapesWorkspace(n, m int) *dp.Workspace {
	w := dp.GetScore(n, m)
	defer dp.Put(w)
	return w // want `escapes via return`
}

func scalarCopyOut(n, m int) float64 {
	w := dp.GetScore(n, m)
	defer dp.Put(w)
	return w.MP[0]
}

func rawPoolLeaked(p *sync.Pool) any {
	buf := p.Get() // want `never releases`
	return buf
}

func rawPoolDeferred(p *sync.Pool) {
	buf := p.Get()
	defer p.Put(buf)
	_ = buf
}
