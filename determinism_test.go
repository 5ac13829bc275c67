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
// full pipeline with no tracer, a tracer and a tracer with a span-close
// hook must all produce byte-identical alignments (a tracer that hits
// its span cap is internal/obs's TestSpanStarvedTracerKeepsBytes). Span
// attributes carry counts and flags, never timing-derived decisions —
// the determinism lint analyzer enforces the read side (no
// obs.(*Tracer).Document in determinism-critical packages); this test
// pins the end-to-end byte contract.
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
			t.Run("default", func(t *testing.T) {
				tr := obs.New("", nil)
				ctx := obs.WithTracer(context.Background(), tr)
				aln, _, err := AlignContext(ctx, seqs, p, WithLocalAligner(eng))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(renderRows(aln), refRows) {
					t.Fatalf("%s with a tracer differs from untraced run", eng)
				}
				if doc := tr.Document(); doc.SpanCount == 0 {
					t.Fatalf("%s tracer recorded no spans — the dimension is vacuous", eng)
				}
			})
			// The streaming variant exercises the span-finish hook (the
			// metric and live-event feed): firing a synchronous callback
			// from every span close must not perturb output.
			t.Run("streaming", func(t *testing.T) {
				var closes atomic.Int64
				tr := obs.New("", func(obs.SpanClose) { closes.Add(1) })
				ctx := obs.WithTracer(context.Background(), tr)
				aln, _, err := AlignContext(ctx, seqs, p, WithLocalAligner(eng))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(renderRows(aln), refRows) {
					t.Fatalf("%s with streaming hooks differs from untraced run", eng)
				}
				if closes.Load() == 0 {
					t.Fatalf("streaming hook never fired — the dimension is vacuous")
				}
			})
		})
	}
}
