// Package dp provides pooled, reusable scratch memory for the
// dynamic-programming alignment kernels in internal/pairwise,
// internal/profile and internal/mafft.
//
// A progressive alignment of a large bucket performs thousands of DP
// passes, and allocating score and traceback memory per pass makes the
// allocator and GC a first-order cost. A Workspace holds all of that
// scratch as flat backing arrays that grow in place and are recycled
// through a sync.Pool: a kernel borrows one for the length of a
// function literal with With, reserves and fills the planes it needs
// inside it, and the workspace goes back to the pool when the literal
// returns, so steady-state kernels run allocation-free.
//
// Which planes a kernel needs differs. The pairwise kernels keep three
// O(n·m) score planes (float64 MP/XP/YP, or int16 MI/XI/YI for the
// integer kernel of internal/dpkern) next to the traceback plane. The
// profile–profile PSP kernel does not: its scores live in O(n+m)
// rolling rows drawn from the Floats arena, and the only O(n·m) memory
// it keeps is the 1 B/cell traceback plane — that is what the
// traceback-only reserve (ReserveTB) is for: a 2100×2100 profile merge
// commits 1 B/cell, where three float64 planes beside it would be 25.
//
// The three per-state traceback arrays of the classic affine-gap
// formulation are merged into a single byte plane: each cell packs the
// M-, X- and Y-state predecessors into three 2-bit fields (PackTB /
// TBM / TBX / TBY), cutting traceback memory threefold and halving the
// number of backing arrays.
//
// Kernels must write every cell they later read (score planes are not
// zeroed between borrows); all kernels in this repository initialise
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

// Workspace is the reusable scratch arena of one DP pass: three flat
// score planes (M/X/Y, rows×cols each), one merged traceback plane and
// a float64 arena for kernel-specific scratch (profile frequencies,
// expected-score tables, rolling rows).
//
// A Workspace is not safe for concurrent use; borrow one per goroutine.
type Workspace struct {
	// MP, XP, YP are the match / gap-in-B / gap-in-A score planes,
	// indexed with At. Valid up to rows*cols after Reserve.
	MP, XP, YP []float64
	// MI, XI, YI are the scaled-integer score planes used by the
	// int16 kernel in internal/dpkern, indexed with At.
	// Valid up to rows*cols after ReserveInt.
	MI, XI, YI []int16
	// TB is the merged traceback plane, one packed byte per cell
	// (see PackTB). Not zeroed between borrows.
	TB []byte

	rows, cols int

	aux      []float64
	auxOff   int
	aux16    []int16
	aux16Off int
	auxB     []byte
	auxBOff  int
	auxI     []int32
	auxIOff  int
}

func (w *Workspace) resetAux() {
	w.auxOff, w.aux16Off, w.auxBOff, w.auxIOff = 0, 0, 0, 0
}

// Reserve sizes all four planes for a rows×cols affine-gap DP and
// resets the scratch arena. Backing arrays grow in place (never
// shrink), so repeated borrows of similar sizes allocate nothing.
func (w *Workspace) Reserve(rows, cols int) {
	w.ReserveTB(rows, cols)
	n := rows * cols
	w.MP = growF(w.MP, n)
	w.XP = growF(w.XP, n)
	w.YP = growF(w.YP, n)
}

// ReserveTB sizes only the traceback plane for a rows×cols DP whose
// scores live in rolling rows (the profile PSP kernel), leaving every
// score plane at zero length: the borrow commits one byte per cell.
func (w *Workspace) ReserveTB(rows, cols int) {
	n := rows * cols
	if cap(w.TB) < n {
		w.TB = make([]byte, n)
	}
	w.TB = w.TB[:n]
	w.MP, w.XP, w.YP = w.MP[:0], w.XP[:0], w.YP[:0]
	w.MI, w.XI, w.YI = w.MI[:0], w.XI[:0], w.YI[:0]
	w.rows, w.cols = rows, cols
	w.resetAux()
}

// ReserveInt sizes the three int16 planes plus the traceback plane for a
// rows×cols scaled-integer affine-gap DP (see internal/dpkern), leaving
// the float64 planes at zero length. At/Rows/Cols index the int16 planes
// exactly as they do the float64 ones after Reserve, so traceback code is
// shared between the two kernels.
func (w *Workspace) ReserveInt(rows, cols int) {
	w.ReserveTB(rows, cols)
	n := rows * cols
	w.MI = growI16(w.MI, n)
	w.XI = growI16(w.XI, n)
	w.YI = growI16(w.YI, n)
}

// ReserveScore sizes only the MP plane (rows×cols) for single-plane
// kernels — linear-gap DP, score-only rolling rows — leaving XP/YP/TB
// at zero length so a score-only borrow commits one float64 per cell,
// not four planes.
func (w *Workspace) ReserveScore(rows, cols int) {
	w.MP = growF(w.MP, rows*cols)
	w.XP = w.XP[:0]
	w.YP = w.YP[:0]
	w.TB = w.TB[:0]
	w.MI, w.XI, w.YI = w.MI[:0], w.XI[:0], w.YI[:0]
	w.rows, w.cols = rows, cols
	w.resetAux()
}

func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growI16(s []int16, n int) []int16 {
	if cap(s) < n {
		return make([]int16, n)
	}
	return s[:n]
}

// Rows returns the reserved row count.
func (w *Workspace) Rows() int { return w.rows }

// Cols returns the reserved column count (the flat-index stride).
func (w *Workspace) Cols() int { return w.cols }

// At returns the flat index of cell (i, j).
func (w *Workspace) At(i, j int) int { return i*w.cols + j }

// Floats hands out a zeroed length-n slice from the workspace's scratch
// arena. Slices stay valid until the next Reserve; when the arena must
// grow, previously handed-out slices keep their (old) backing array, so
// a borrow may mix slices from two backings — callers never notice.
func (w *Workspace) Floats(n int) []float64 {
	if w.auxOff+n > len(w.aux) {
		w.aux = make([]float64, 2*len(w.aux)+n)
		w.auxOff = 0
	}
	s := w.aux[w.auxOff : w.auxOff+n : w.auxOff+n]
	w.auxOff += n
	for i := range s {
		s[i] = 0
	}
	return s
}

// Int16s hands out a zeroed length-n int16 slice from the workspace's
// scratch arena, with the same lifetime rules as Floats. Used by the
// dpkern query-profile tables.
func (w *Workspace) Int16s(n int) []int16 {
	if w.aux16Off+n > len(w.aux16) {
		w.aux16 = make([]int16, 2*len(w.aux16)+n)
		w.aux16Off = 0
	}
	s := w.aux16[w.aux16Off : w.aux16Off+n : w.aux16Off+n]
	w.aux16Off += n
	for i := range s {
		s[i] = 0
	}
	return s
}

// Bytes hands out a zeroed length-n byte slice from the workspace's
// scratch arena, with the same lifetime rules as Floats. Used for
// residue-row maps in the dpkern kernels.
func (w *Workspace) Bytes(n int) []byte {
	if w.auxBOff+n > len(w.auxB) {
		w.auxB = make([]byte, 2*len(w.auxB)+n)
		w.auxBOff = 0
	}
	s := w.auxB[w.auxBOff : w.auxBOff+n : w.auxBOff+n]
	w.auxBOff += n
	for i := range s {
		s[i] = 0
	}
	return s
}

// Ints hands out a zeroed length-n int32 slice from the workspace's
// scratch arena, with the same lifetime rules as Floats. Used for the
// sparse nonzero-residue index lists of the profile PSP scorer.
func (w *Workspace) Ints(n int) []int32 {
	if w.auxIOff+n > len(w.auxI) {
		w.auxI = make([]int32, 2*len(w.auxI)+n)
		w.auxIOff = 0
	}
	s := w.auxI[w.auxIOff : w.auxIOff+n : w.auxIOff+n]
	w.auxIOff += n
	for i := range s {
		s[i] = 0
	}
	return s
}

var pool = sync.Pool{New: func() any { return new(Workspace) }}

// With borrows a workspace from the pool, calls f with it and returns it
// to the pool when f returns (or panics). The workspace has no planes
// reserved: f calls one of the Reserve variants before using it. Neither
// the workspace nor any slice obtained from it may outlive f.
func With(f func(w *Workspace)) {
	w := pool.Get().(*Workspace)
	defer pool.Put(w)
	f(w)
}
