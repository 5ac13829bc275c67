package msa

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/bio"
)

// renderAlignment flattens an alignment to one comparable byte string.
func renderAlignment(a *Alignment) []byte {
	var buf bytes.Buffer
	for _, s := range a.Seqs {
		buf.WriteString(s.ID)
		buf.WriteByte('\t')
		buf.Write(s.Data)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestProgressiveWorkersDeterminism pins the core guarantee of the
// task-parallel guide-tree merge: the alignment is byte-identical for
// every Workers value. Runs under -race in CI, which also exercises the
// scheduler's dep-to-dependent hand-offs across every engine variant.
func TestProgressiveWorkersDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	seqs := family(rng, 36, 90, 0.25)
	engines := []struct {
		name  string
		build func(workers int) Aligner
	}{
		{"muscle-like", func(w int) Aligner { return MuscleLike(w) }},
		{"muscle-like+refine", func(w int) Aligner { return MuscleLikeRefined(w) }},
		{"clustalw-like", func(w int) Aligner { return ClustalLike(w) }},
	}
	for _, e := range engines {
		inputs := [][]bio.Sequence{seqs}
		if e.name == "muscle-like+refine" {
			// 70 rows: past the switch to the sampled objective, whose
			// per-slot pair-score tables the chunk workers fill side by side.
			inputs = append(inputs, family(rng, 70, 40, 0.25))
		}
		t.Run(e.name, func(t *testing.T) {
			for _, in := range inputs {
				ref := renderAlignment(mustAlign(t, e.build(1), in))
				for _, w := range []int{4, 8} {
					got := renderAlignment(mustAlign(t, e.build(w), in))
					if !bytes.Equal(got, ref) {
						t.Fatalf("n=%d workers=%d alignment differs from workers=1", len(in), w)
					}
				}
			}
		})
	}
}
