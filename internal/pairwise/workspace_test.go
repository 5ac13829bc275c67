package pairwise

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bio"
)

func randomSeq(rng *rand.Rand, n int) []byte {
	letters := bio.AminoAcids.Letters()
	out := make([]byte, n)
	for i := range out {
		out[i] = letters[rng.Intn(len(letters))]
	}
	return out
}

// TestKernelsDeterministicAcrossReuse runs Global and the oracle twice
// over the same inputs with other work in between, proving recycled
// workspace memory never leaks into results.
func TestKernelsDeterministicAcrossReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	al := NewProtein()
	a := randomSeq(rng, 83)
	b := randomSeq(rng, 97)

	first := al.Global(a, b)
	firstScalar := scalarGlobal(al, a, b)

	// pollute the pool with differently-sized DPs
	for i := 0; i < 5; i++ {
		x := randomSeq(rng, 10+i*50)
		y := randomSeq(rng, 200-i*30)
		al.Global(x, y)
		scalarGlobal(al, x, y)
	}

	second := al.Global(a, b)
	if string(first.A) != string(second.A) || string(first.B) != string(second.B) || first.Score != second.Score {
		t.Fatal("Global result changed across workspace reuse")
	}
	if r := scalarGlobal(al, a, b); string(firstScalar.A) != string(r.A) || firstScalar.Score != r.Score {
		t.Fatal("scalar result changed across workspace reuse")
	}
}

// TestGlobalConcurrent runs the kernel from many goroutines at once;
// with -race this proves pooled workspaces are never shared.
func TestGlobalConcurrent(t *testing.T) {
	al := NewProtein()
	rng := rand.New(rand.NewSource(11))
	type pair struct{ a, b []byte }
	pairs := make([]pair, 8)
	want := make([]Result, 8)
	for i := range pairs {
		pairs[i] = pair{randomSeq(rng, 60+i*13), randomSeq(rng, 70+i*7)}
		want[i] = al.Global(pairs[i].a, pairs[i].b)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				i := iter % len(pairs)
				r := al.Global(pairs[i].a, pairs[i].b)
				if r.Score != want[i].Score || string(r.A) != string(want[i].A) {
					t.Errorf("concurrent Global diverged on pair %d", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkGlobal measures the steady-state cost of the pooled Gotoh
// kernel; allocs/op should stay O(1) (just the result rows),
// independent of sequence length.
func BenchmarkGlobal(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	al := NewProtein()
	x := randomSeq(rng, 400)
	y := randomSeq(rng, 400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		al.Global(x, y)
	}
}
