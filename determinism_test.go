package samplealign

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/bio"
	"repro/internal/kmer"
	"repro/internal/obs"
	"repro/internal/tree"
)

// This file is the cross-engine determinism matrix for parallel
// guide-tree construction: whatever the worker count or the transport,
// the guide tree — and therefore the final alignment — must be
// byte-identical to the sequential path. The indexed distance matrix
// writes every pair exactly once from the same shared k-mer count and
// the same float ops as the pair-by-pair loop, and UPGMA/NJ break score
// ties by the lower cluster index, so these are exact-equality
// assertions, not tolerances.

// TestGuideTreeConstructionDeterminism builds, from real k-mer
// distances over a realistic dataset, the UPGMA and NJ trees at
// Workers {1, 4, 8} on top of distance matrices computed at the same
// worker counts, and asserts every one equals the pair-by-pair
// kmer.Distance loop and yields the same Newick serialisation
// (topology, merge order and branch lengths).
func TestGuideTreeConstructionDeterminism(t *testing.T) {
	seqs, err := GenerateDiverseSet(120, 90, 2027)
	if err != nil {
		t.Fatal(err)
	}
	counter := kmer.MustCounter(bio.Dayhoff6, kmer.DefaultK)
	profiles := counter.Profiles(seqs, 0)
	names := bio.IDs(seqs)

	ref := kmer.NewMatrix(len(profiles))
	for i := range profiles {
		for j := i + 1; j < len(profiles); j++ {
			ref.Set(i, j, kmer.Distance(profiles[i], profiles[j]))
		}
	}
	upgmaRef := tree.UPGMAWorkers(ref, names, 1).Newick()
	njRef := tree.NeighborJoiningWorkers(ref, names, 1).Newick()
	for _, w := range []int{1, 4, 8} {
		d, err := kmer.DistanceMatrixContext(t.Context(), profiles, w)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < d.N; i++ {
			for j := i + 1; j < d.N; j++ {
				if d.At(i, j) != ref.At(i, j) {
					t.Fatalf("workers=%d: distance (%d,%d) differs", w, i, j)
				}
			}
		}
		if got := tree.UPGMAWorkers(d, names, w).Newick(); got != upgmaRef {
			t.Fatalf("workers=%d: UPGMA tree differs", w)
		}
		if got := tree.NeighborJoiningWorkers(d, names, w).Newick(); got != njRef {
			t.Fatalf("workers=%d: NJ tree differs", w)
		}
	}
}

// matrixEngines are the three progressive engines of the determinism
// matrix: msa (k-mer + UPGMA), mafft (FFT bands + UPGMA) and cons
// (T-Coffee-like + NJ) — between them both tree builders and all three
// merge pipelines are exercised.
var matrixEngines = []string{"muscle", "fftnsi", "tcoffee"}

// TestEngineWorkersDeterminism: each sequential engine alone must be
// byte-identical across worker counts now that its guide-tree
// construction (not just its merging) is parallel.
func TestEngineWorkersDeterminism(t *testing.T) {
	seqs, err := GenerateDiverseSet(48, 80, 2028)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range matrixEngines {
		t.Run(eng, func(t *testing.T) {
			al, err := NewAligner(eng, 1)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := al.AlignContext(context.Background(), seqs)
			if err != nil {
				t.Fatal(err)
			}
			refRows := renderRows(ref)
			for _, w := range []int{4, 8} {
				al, err := NewAligner(eng, w)
				if err != nil {
					t.Fatal(err)
				}
				aln, err := al.AlignContext(context.Background(), seqs)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(renderRows(aln), refRows) {
					t.Fatalf("%s: workers=%d differs from workers=1", eng, w)
				}
			}
		})
	}
}

// TestCrossEngineBackendDeterminismMatrix is the full matrix: engines
// {msa, mafft, cons} × Workers {1, 4, 8} × backends {inproc, TCP p=4},
// each cell's final distributed alignment compared byte-for-byte
// against the engine's inproc Workers=1 reference.
func TestCrossEngineBackendDeterminismMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp cluster matrix in -short mode")
	}
	seqs, err := GenerateDiverseSet(40, 70, 2029)
	if err != nil {
		t.Fatal(err)
	}
	const p = 4
	for _, eng := range matrixEngines {
		t.Run(eng, func(t *testing.T) {
			ref, _, err := Align(seqs, p, WithLocalAligner(eng))
			if err != nil {
				t.Fatal(err)
			}
			refRows := renderRows(ref)
			for _, w := range []int{4, 8} {
				t.Run(fmt.Sprintf("inproc/workers=%d", w), func(t *testing.T) {
					aln, _, err := Align(seqs, p, WithLocalAligner(eng), WithWorkers(w))
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(renderRows(aln), refRows) {
						t.Fatalf("%s inproc workers=%d differs from workers=1", eng, w)
					}
				})
			}
			t.Run("tcp/workers=4", func(t *testing.T) {
				tcp := runTCPCluster(t, seqs, p, WithLocalAligner(eng), WithWorkers(4))
				if !bytes.Equal(renderRows(tcp), refRows) {
					t.Fatalf("%s tcp p=%d differs from inproc workers=1", eng, p)
				}
			})
		})
	}
}

// TestTracingDeterminismMatrix is the observability dimension of the
// matrix: pipeline tracing is pure instrumentation, so running the
// full pipeline with no tracer, a default tracer, an aggressively
// sampled tracer and a span-starved tracer must all produce
// byte-identical alignments. Span attributes carry counts and flags,
// never timing-derived decisions — the determinism lint analyzer
// enforces the read side (no obs.(*Span).Wall / obs.(*Tracer).Document
// in determinism-critical packages); this test pins the end-to-end
// byte contract.
func TestTracingDeterminismMatrix(t *testing.T) {
	seqs, err := GenerateDiverseSet(40, 70, 2031)
	if err != nil {
		t.Fatal(err)
	}
	const p = 3
	for _, eng := range matrixEngines {
		t.Run(eng, func(t *testing.T) {
			ref, _, err := AlignContext(context.Background(), seqs, p, WithLocalAligner(eng))
			if err != nil {
				t.Fatal(err)
			}
			refRows := renderRows(ref)
			tracers := []struct {
				name string
				opts obs.Options
			}{
				{"default", obs.Options{}},
				{"sample-everything", obs.Options{SampleDepth: 1 << 20}},
				{"sample-nothing", obs.Options{SampleDepth: -1}},
				{"span-starved", obs.Options{MaxSpans: 4}},
			}
			for _, tc := range tracers {
				t.Run(tc.name, func(t *testing.T) {
					tr := obs.New(tc.opts)
					ctx := obs.WithTracer(context.Background(), tr)
					aln, _, err := AlignContext(ctx, seqs, p, WithLocalAligner(eng))
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(renderRows(aln), refRows) {
						t.Fatalf("%s with tracer %s differs from untraced run", eng, tc.name)
					}
					if doc := tr.Document(); doc.SpanCount == 0 {
						t.Fatalf("%s tracer %s recorded no spans — the dimension is vacuous", eng, tc.name)
					}
				})
			}
			// The streaming variant exercises both span-finish hooks (the
			// metric feed and the live-event feed): firing synchronous
			// callbacks from every span close must not perturb output.
			t.Run("streaming", func(t *testing.T) {
				var ends, closes atomic.Int64
				tr := obs.New(obs.Options{
					OnSpanEnd:   func(string, float64) { ends.Add(1) },
					OnSpanClose: func(obs.SpanClose) { closes.Add(1) },
				})
				ctx := obs.WithTracer(context.Background(), tr)
				aln, _, err := AlignContext(ctx, seqs, p, WithLocalAligner(eng))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(renderRows(aln), refRows) {
					t.Fatalf("%s with streaming hooks differs from untraced run", eng)
				}
				if ends.Load() == 0 || closes.Load() == 0 {
					t.Fatalf("streaming hooks never fired (ends=%d closes=%d) — the dimension is vacuous",
						ends.Load(), closes.Load())
				}
			})
		})
	}
}
