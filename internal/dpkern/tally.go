package dpkern

import "sync/atomic"

// Process-wide kernel-dispatch tally: how many pairwise global
// alignments ran the int16 kernel vs. escaped to the scalar float64
// kernel because the exactness bounds failed. The tracer samples deltas
// around each bucket alignment, turning the tally into per-span
// striped/escape counts.
//
// The counters are observational only; nothing in alignment control
// flow reads them, so they cannot perturb the byte-identical
// determinism contract. Note they are process-wide: concurrent jobs in
// one server overlap in the deltas.
var (
	stripedCalls atomic.Int64
	escapeCalls  atomic.Int64
)

// NoteStriped records one alignment dispatched to the int16 kernel.
func NoteStriped() { stripedCalls.Add(1) }

// NoteEscape records one alignment that ran the scalar kernel because
// the int16 kernel could not take it.
func NoteEscape() { escapeCalls.Add(1) }

// Tally is a snapshot of the kernel-dispatch counters.
type Tally struct {
	Striped int64
	Escaped int64
}

// TallySnapshot returns the current process-wide dispatch counts.
func TallySnapshot() Tally {
	return Tally{Striped: stripedCalls.Load(), Escaped: escapeCalls.Load()}
}

// Sub returns the delta t - t0, for bracketing a pipeline phase.
func (t Tally) Sub(t0 Tally) Tally {
	return Tally{Striped: t.Striped - t0.Striped, Escaped: t.Escaped - t0.Escaped}
}
