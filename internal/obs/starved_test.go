package obs_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/fasta"
	"repro/internal/msa"
	"repro/internal/obs"
	"repro/internal/rose"
)

// TestSpanStarvedTracerKeepsBytes: a tracer that hits its span cap
// drops spans from then on, and the pipeline must not notice — the
// alignment bytes equal the untraced run's for each engine of the
// determinism matrix.
func TestSpanStarvedTracerKeepsBytes(t *testing.T) {
	fam, err := rose.Evolve(rose.Config{N: 40, MeanLen: 70, Relatedness: 800, Seed: 2031})
	if err != nil {
		t.Fatal(err)
	}
	seqs := fam.Seqs()
	const p = 3
	for _, eng := range []string{"muscle", "fftnsi", "tcoffee"} {
		t.Run(eng, func(t *testing.T) {
			cfg := core.Config{NewLocalAligner: func(workers int) msa.Aligner {
				al, _ := engines.New(eng, workers) // a registered name
				return al
			}}
			run := func(ctx context.Context) string {
				res, err := core.AlignInprocContext(ctx, seqs, p, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return fasta.FormatString(res.Alignment.Seqs)
			}
			want := run(context.Background())
			tr := obs.NewCapped("starved", 4)
			if got := run(obs.WithTracer(context.Background(), tr)); got != want {
				t.Fatalf("%s with a span-starved tracer differs from the untraced run", eng)
			}
			if doc := tr.Document(); doc.SpanCount != 4 || doc.DroppedSpans == 0 {
				t.Fatalf("span count %d, dropped %d: the cap was never reached", doc.SpanCount, doc.DroppedSpans)
			}
		})
	}
}
