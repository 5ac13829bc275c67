// Package dp provides pooled, reusable scratch memory for the
// dynamic-programming alignment kernels in internal/pairwise and
// internal/profile, and for the msa and cons engines' own DP passes.
//
// A progressive alignment of a large bucket performs thousands of DP
// passes, and allocating score and traceback memory per pass makes the
// allocator and GC a first-order cost. A Workspace holds all of that
// scratch as flat backing arrays that grow in place and are recycled
// through a sync.Pool: a kernel borrows one for the length of a
// function literal with With, reserves and fills the plane and scratch
// it needs inside it, and the workspace goes back to the pool when the
// literal returns, so steady-state kernels run allocation-free.
//
// The affine-gap kernels of internal/pairwise (int64) and
// internal/profile (float64) keep their scores in O(n+m) rolling rows
// drawn from the typed scratch arenas; the only O(n·m) memory of such a
// pass is the traceback plane, one byte per cell. A DP that traces back
// through its scores instead (the cons merge) takes its score matrix
// from the float arena.
//
// The three per-state traceback arrays of the classic affine-gap
// formulation are merged into a single byte plane: each cell packs the
// M-, X- and Y-state predecessors into three 2-bit fields (PackTB /
// TBM / TBX / TBY), cutting traceback memory threefold and halving the
// number of backing arrays.
//
// Kernels must write every traceback cell they later read (the plane is
// not zeroed between borrows); all kernels in this repository initialise
// their boundaries and fill their band/interior before tracing back,
// so recycled garbage is never observed.
package dp

import "sync"

// Traceback states shared by every affine-gap kernel: which DP plane a
// cell's best predecessor lives in.
const (
	M byte = iota
	X
	Y
)

// PackTB packs the three per-plane predecessor states of one cell into
// a single byte (2 bits each).
func PackTB(m, x, y byte) byte { return m | x<<2 | y<<4 }

// TBM extracts the M-plane predecessor from a packed traceback byte.
func TBM(b byte) byte { return b & 3 }

// TBX extracts the X-plane predecessor from a packed traceback byte.
func TBX(b byte) byte { return (b >> 2) & 3 }

// TBY extracts the Y-plane predecessor from a packed traceback byte.
func TBY(b byte) byte { return (b >> 4) & 3 }

// Workspace is the reusable scratch memory of one DP pass: one merged
// traceback plane and typed arenas for kernel-specific scratch (rolling
// score rows, query profiles, residue classes, profile frequencies).
//
// A Workspace is not safe for concurrent use; borrow one per goroutine.
type Workspace struct {
	// TB is the merged traceback plane, one packed byte per cell
	// (see PackTB). Not zeroed between borrows.
	TB []byte

	f   arena[float64]
	i64 arena[int64]
	b   arena[byte]
	i32 arena[int32]
}

// ReserveTB sizes the traceback plane to cells bytes and resets the
// scratch arenas. Every kernel keeps its scores in scratch rows or
// tables, so a borrow commits one byte per traceback cell. The plane
// grows in place (never shrinks), so repeated borrows of similar sizes
// allocate nothing; a caller that makes many DP passes inside one
// borrow calls ReserveTB before each.
func (w *Workspace) ReserveTB(cells int) {
	if cap(w.TB) < cells {
		w.TB = make([]byte, cells)
	}
	w.TB = w.TB[:cells]
	w.f.off, w.i64.off, w.b.off, w.i32.off = 0, 0, 0, 0
}

// arena hands out zeroed slices of one element type from a backing
// array that is reused after each ReserveTB.
type arena[T any] struct {
	buf []T
	off int
}

// take returns a zeroed length-n slice. When the backing array must
// grow, slices already handed out keep the old one, so a borrow may mix
// slices from two backings — callers never notice.
func (a *arena[T]) take(n int) []T {
	if a.off+n > len(a.buf) {
		a.buf = make([]T, 2*len(a.buf)+n)
		a.off = 0
	}
	s := a.buf[a.off : a.off+n : a.off+n]
	a.off += n
	clear(s)
	return s
}

// Floats hands out a zeroed length-n float64 slice from the scratch
// arena. Slices stay valid until the next ReserveTB.
func (w *Workspace) Floats(n int) []float64 { return w.f.take(n) }

// Int64s hands out a zeroed length-n int64 slice, with the same
// lifetime as Floats.
func (w *Workspace) Int64s(n int) []int64 { return w.i64.take(n) }

// Bytes hands out a zeroed length-n byte slice, with the same lifetime
// as Floats.
func (w *Workspace) Bytes(n int) []byte { return w.b.take(n) }

// Ints hands out a zeroed length-n int32 slice, with the same lifetime
// as Floats.
func (w *Workspace) Ints(n int) []int32 { return w.i32.take(n) }

var pool = sync.Pool{New: func() any { return new(Workspace) }}

// With borrows a workspace from the pool, calls f with it and returns it
// to the pool when f returns (or panics). The workspace has no plane
// reserved: f calls ReserveTB before using it. Neither the workspace
// nor any slice obtained from it may outlive f.
func With(f func(w *Workspace)) {
	w := pool.Get().(*Workspace)
	defer pool.Put(w)
	f(w)
}
