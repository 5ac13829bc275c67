package dpkern

import "sync/atomic"

// Process-wide kernel-dispatch tally: how many pairwise global
// alignments ran the DP in int16 vs. escaped to float64 because the
// exactness bounds failed. The tracer samples deltas
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

// NoteStriped records one alignment whose DP ran in int16.
func NoteStriped() { stripedCalls.Add(1) }

// NoteEscape records one alignment whose DP ran in float64 because
// int16 could not hold it exactly.
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
