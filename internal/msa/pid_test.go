package msa

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dp"
	"repro/internal/pairwise"
)

// TestPIDMatrixMatchesPairLoop holds the CLUSTAL recipe's %-identity
// distance matrix to its definition: every cell is 1 − GlobalIdentityInto
// of that pair, computed one pair at a time, bit for bit, at every worker
// count. A cancelled context is the context's error.
func TestPIDMatrixMatchesPairLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	pool := family(rng, 40, 60, 0.3)
	for _, n := range []int{0, 1, 2, 17, 40} {
		seqs := pool[:n]
		ref := ClustalLike(1)
		al := pairwise.Aligner{Sub: ref.sub, Gap: ref.gap}
		want := make([][]float64, n)
		dp.With(func(w *dp.Workspace) {
			for i := range want {
				want[i] = make([]float64, n)
				for j := i + 1; j < n; j++ {
					want[i][j] = 1 - al.GlobalIdentityInto(w, seqs[i].Data, seqs[j].Data)
				}
			}
		})
		for _, workers := range []int{1, 2, 3, 8} {
			p := ClustalLike(workers)
			m, err := p.DistanceMatrixContext(context.Background(), seqs)
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			if m.N != n {
				t.Fatalf("n=%d workers=%d: matrix is %d×%d", n, workers, m.N, m.N)
			}
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if got := m.At(i, j); math.Float64bits(got) != math.Float64bits(want[i][j]) {
						t.Fatalf("n=%d workers=%d: d(%d,%d) = %v, pair loop %v", n, workers, i, j, got, want[i][j])
					}
				}
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := p.DistanceMatrixContext(ctx, seqs); !errors.Is(err, context.Canceled) {
				t.Fatalf("n=%d workers=%d: pre-cancelled ctx gave err = %v", n, workers, err)
			}
		}
	}
}
