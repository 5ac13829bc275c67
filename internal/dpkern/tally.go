package dpkern

import "sync/atomic"

// Process-wide tally of pairwise global alignments run by the integer
// DP. The tracer samples deltas around each bucket alignment, turning
// the tally into per-span counts.
//
// The counter is observational only; nothing in alignment control flow
// reads it, so it cannot perturb the byte-identical determinism
// contract. It is process-wide: concurrent jobs in one server overlap
// in the deltas.
var stripedCalls atomic.Int64

// NoteStriped records one alignment whose DP ran in int64.
func NoteStriped() { stripedCalls.Add(1) }

// Tally is a snapshot of the kernel-dispatch counters. Escaped is
// always 0: every call runs the integer DP. It stays for readers of
// the old two-path tally (the benchmark's replay reports it).
type Tally struct {
	Striped int64
	Escaped int64
}

// TallySnapshot returns the current process-wide dispatch counts.
func TallySnapshot() Tally {
	return Tally{Striped: stripedCalls.Load()}
}

// Sub returns the delta t - t0, for bracketing a pipeline phase.
func (t Tally) Sub(t0 Tally) Tally {
	return Tally{Striped: t.Striped - t0.Striped, Escaped: t.Escaped - t0.Escaped}
}
