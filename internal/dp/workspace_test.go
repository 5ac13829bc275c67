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

func TestReserveSizesAndIndexing(t *testing.T) {
	var w Workspace
	w.Reserve(3, 5)
	if w.Rows() != 3 || w.Cols() != 5 {
		t.Fatalf("dims %dx%d", w.Rows(), w.Cols())
	}
	if len(w.MP) != 15 || len(w.XP) != 15 || len(w.YP) != 15 || len(w.TB) != 15 {
		t.Fatalf("plane lengths %d %d %d %d", len(w.MP), len(w.XP), len(w.YP), len(w.TB))
	}
	if w.At(2, 4) != 14 || w.At(0, 0) != 0 || w.At(1, 0) != 5 {
		t.Fatalf("At broken: %d %d %d", w.At(2, 4), w.At(0, 0), w.At(1, 0))
	}
}

func TestReserveGrowsInPlace(t *testing.T) {
	var w Workspace
	w.Reserve(10, 10)
	big := &w.MP[0]
	w.Reserve(4, 4) // shrink: must reuse the same backing
	if len(w.MP) != 16 {
		t.Fatalf("len %d", len(w.MP))
	}
	if &w.MP[0] != big {
		t.Fatal("shrinking Reserve reallocated the backing array")
	}
	w.Reserve(20, 20) // grow: must reallocate
	if len(w.MP) != 400 {
		t.Fatalf("len %d", len(w.MP))
	}
}

func TestFloatsZeroedAndDisjoint(t *testing.T) {
	var w Workspace
	w.Reserve(1, 1)
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
	// dirty both, re-Reserve, and check fresh slices are zeroed again
	for i := range b {
		b[i] = 2
	}
	w.Reserve(1, 1)
	c := w.Floats(16)
	for i, v := range c {
		if v != 0 {
			t.Fatalf("c[%d] = %v after reuse", i, v)
		}
	}
}

func TestFloatsGrowKeepsEarlierSlices(t *testing.T) {
	var w Workspace
	w.Reserve(1, 1)
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
					w.Reserve(rows, cols)
					v := float64(g*1000 + iter)
					for i := range w.MP {
						w.MP[i] = v
						w.TB[i] = byte(g)
					}
					aux := w.Floats(64)
					for i := range aux {
						aux[i] = v
					}
					for i := range w.MP {
						if w.MP[i] != v || w.TB[i] != byte(g) {
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

func TestReserveScoreThenReserve(t *testing.T) {
	// A score-only borrow grows MP alone; a later full Reserve on the
	// same (pooled) workspace must still size XP/YP/TB correctly.
	var w Workspace
	w.ReserveScore(30, 30)
	if len(w.MP) != 900 || len(w.XP) != 0 || len(w.YP) != 0 || len(w.TB) != 0 {
		t.Fatalf("score reserve: MP=%d XP=%d YP=%d TB=%d", len(w.MP), len(w.XP), len(w.YP), len(w.TB))
	}
	w.Reserve(20, 20)
	if len(w.MP) != 400 || len(w.XP) != 400 || len(w.YP) != 400 || len(w.TB) != 400 {
		t.Fatalf("full reserve after score: MP=%d XP=%d YP=%d TB=%d", len(w.MP), len(w.XP), len(w.YP), len(w.TB))
	}
	for i := range w.XP {
		w.XP[i] = 1 // must not panic or alias MP
	}
	if w.MP[0] == 1 {
		t.Fatal("XP aliases MP")
	}
}
