package dp

import (
	"sync"
	"testing"
)

func TestPackTBRoundTrip(t *testing.T) {
	states := []byte{M, X, Y, 3} // 3: the widest value a 2-bit field holds
	for _, m := range states {
		for _, x := range states {
			for _, y := range states {
				b := PackTB(m, x, y)
				if TBM(b) != m || TBX(b) != x || TBY(b) != y {
					t.Fatalf("pack(%d,%d,%d) = %08b unpacked to (%d,%d,%d)",
						m, x, y, b, TBM(b), TBX(b), TBY(b))
				}
			}
		}
	}
}

func TestReserveSizesTracebackPlane(t *testing.T) {
	var w Workspace
	w.ReserveTB(15)
	if len(w.TB) != 15 {
		t.Fatalf("plane length %d, want 15", len(w.TB))
	}
	w.ReserveTB(0)
	if len(w.TB) != 0 {
		t.Fatalf("plane length %d, want 0", len(w.TB))
	}
}

func TestReserveGrowsInPlace(t *testing.T) {
	var w Workspace
	w.ReserveTB(100)
	big := &w.TB[0]
	w.ReserveTB(16) // shrink: must reuse the same backing
	if len(w.TB) != 16 {
		t.Fatalf("len %d", len(w.TB))
	}
	if &w.TB[0] != big {
		t.Fatal("shrinking ReserveTB reallocated the backing array")
	}
	w.ReserveTB(400) // grow: must reallocate
	if len(w.TB) != 400 {
		t.Fatalf("len %d", len(w.TB))
	}
}

func TestFloatsZeroedAndDisjoint(t *testing.T) {
	var w Workspace
	w.ReserveTB(1)
	a := w.Floats(8)
	b := w.Floats(8)
	for i := range a {
		a[i] = 1
	}
	for i, v := range b {
		if v != 0 {
			t.Fatalf("b[%d] = %v after writing a", i, v)
		}
	}
	// dirty both, re-reserve, and check fresh slices are zeroed again
	for i := range b {
		b[i] = 2
	}
	w.ReserveTB(1)
	c := w.Floats(16)
	for i, v := range c {
		if v != 0 {
			t.Fatalf("c[%d] = %v after reuse", i, v)
		}
	}
}

func TestFloatsGrowKeepsEarlierSlices(t *testing.T) {
	var w Workspace
	w.ReserveTB(1)
	a := w.Floats(4)
	for i := range a {
		a[i] = 7
	}
	// force arena growth; a must keep its values (old backing retained)
	_ = w.Floats(1 << 16)
	for i, v := range a {
		if v != 7 {
			t.Fatalf("a[%d] = %v after arena growth", i, v)
		}
	}
}

// TestPoolConcurrent hammers With from many goroutines, each writing
// a distinct pattern and verifying it before returning the workspace.
// Run with -race to prove borrows never alias.
func TestPoolConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				rows := 5 + g%7
				cols := 3 + iter%11
				With(func(w *Workspace) {
					w.ReserveTB(rows * cols)
					v := float64(g*1000 + iter)
					mat := w.Floats(rows * cols)
					for i := range mat {
						mat[i] = v
						w.TB[i] = byte(g)
					}
					aux := w.Floats(64)
					for i := range aux {
						aux[i] = v
					}
					for i := range mat {
						if mat[i] != v || w.TB[i] != byte(g) {
							t.Errorf("workspace aliased across goroutines")
							break
						}
					}
				})
			}
		}(g)
	}
	wg.Wait()
}

// TestReserveResetsEveryArena checks that each typed arena hands out
// slices disjoint from the others and from the plane, and that ReserveTB
// rewinds all four: the second borrow of each type reuses its first
// backing, zeroed again.
func TestReserveResetsEveryArena(t *testing.T) {
	var w Workspace
	w.ReserveTB(8)
	f, i64, b, i32 := w.Floats(8), w.Int64s(8), w.Bytes(8), w.Ints(8)
	for k := range 8 {
		f[k], i64[k], b[k], i32[k], w.TB[k] = 1, 2, 3, 4, 5
	}
	if f[0] != 1 || i64[0] != 2 || b[0] != 3 || i32[0] != 4 || w.TB[0] != 5 {
		t.Fatal("arenas alias each other or the plane")
	}
	w.ReserveTB(8)
	f2, i642, b2, i322 := w.Floats(8), w.Int64s(8), w.Bytes(8), w.Ints(8)
	if &f2[0] != &f[0] || &i642[0] != &i64[0] || &b2[0] != &b[0] || &i322[0] != &i32[0] {
		t.Fatal("ReserveTB did not rewind every arena")
	}
	for k := range 8 {
		if f2[k] != 0 || i642[k] != 0 || b2[k] != 0 || i322[k] != 0 {
			t.Fatalf("reused slices not zeroed at %d", k)
		}
	}
}
