// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus ablations (sample size, bucket aligner, k-mer
// alphabet) and micro-benchmarks of the hot kernels.
//
// Every run executes the actual distributed pipeline at laptop scale
// (hundreds of sequences). cmd/msabench prints the same experiments as
// human-readable tables beside the paper's own numbers.
package samplealign

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/bio"
	"repro/internal/core"
	"repro/internal/kmer"
	"repro/internal/mafft"
	"repro/internal/mpi"
	"repro/internal/msa"
	"repro/internal/prefab"
	"repro/internal/profile"
	"repro/internal/stats"
	"repro/internal/submat"
	"repro/internal/tree"
)

// ---- shared fixtures (built once) ----

var fixtures struct {
	once      sync.Once
	fam500    []bio.Sequence // Fig. 1 scale (N=500)
	fam1000   []bio.Sequence // Table 1 / Fig. 3 scale (laptop substitute for 5000)
	famBench  []bio.Sequence // Fig. 4/5 real-run scale
	genome160 []bio.Sequence // Fig. 6 real-run scale
	prefabS   []prefab.Set   // Table 2 sets
}

func loadFixtures(b *testing.B) {
	b.Helper()
	fixtures.once.Do(func() {
		// Phylogenetically diverse mixtures (many families of varied
		// divergence) — the workload the paper targets; single deep
		// families saturate every rank to the same value.
		f1, err := GenerateDiverseSet(500, 120, 101)
		if err != nil {
			panic(err)
		}
		fixtures.fam500 = f1
		f2, err := GenerateDiverseSet(1000, 120, 102)
		if err != nil {
			panic(err)
		}
		fixtures.fam1000 = f2
		f3, err := GenerateDiverseSet(256, 100, 103)
		if err != nil {
			panic(err)
		}
		fixtures.famBench = f3
		seqs, err := SampleGenomeProteins(GenomeConfig{TargetBP: 300000, MeanProteinLen: 110, Seed: 104}, 160, 105)
		if err != nil {
			panic(err)
		}
		fixtures.genome160 = seqs
		sets, err := prefab.Generate(prefab.Config{NumSets: 3, SeqsPerSet: 12, MeanLen: 110, Seed: 106})
		if err != nil {
			panic(err)
		}
		fixtures.prefabS = sets
	})
}

// kmerRanks and kmerMatrix are the k-mer entry points on the
// benchmark's context, failing the benchmark on error.
func kmerRanks(b *testing.B, targets, reference []kmer.Profile) []float64 {
	b.Helper()
	ranks, err := kmer.RanksContext(b.Context(), targets, reference, kmer.DefaultRankScale, 0)
	if err != nil {
		b.Fatal(err)
	}
	return ranks
}

func kmerMatrix(b *testing.B, profiles []kmer.Profile, workers int) *kmer.Matrix {
	b.Helper()
	m, err := kmer.DistanceMatrixContext(b.Context(), profiles, workers)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func centralAndGlobalRanks(b *testing.B, seqs []bio.Sequence, p int) (central, global []float64) {
	counter := kmer.MustCounter(bio.Dayhoff6, kmer.DefaultK)
	profiles := counter.Profiles(seqs, 0)
	central = kmerRanks(b, profiles, profiles)
	// globalised: k·p regular samples, k = p−1 per "processor" block
	k := p - 1
	var samplePool []kmer.Profile
	n := len(seqs)
	for r := 0; r < p; r++ {
		lo, hi := r*n/p, (r+1)*n/p
		for i := 0; i < k; i++ {
			idx := lo + (i+1)*(hi-lo)/(k+1)
			if idx >= hi {
				idx = hi - 1
			}
			samplePool = append(samplePool, profiles[idx])
		}
	}
	global = kmerRanks(b, profiles, samplePool)
	return central, global
}

// ---- Fig. 1: centralised vs globalised rank distributions (N=500) ----

func BenchmarkFig1RankDistributions(b *testing.B) {
	loadFixtures(b)
	var central, global []float64
	for i := 0; i < b.N; i++ {
		central, global = centralAndGlobalRanks(b, fixtures.fam500, 16)
	}
	sc, sg := stats.Summarize(central), stats.Summarize(global)
	b.ReportMetric(sc.Mean, "centralMean")
	b.ReportMetric(sg.Mean, "globalMean")
	b.ReportMetric(sc.StdDev, "centralStdDev")
	b.ReportMetric(sg.StdDev, "globalStdDev")
}

// ---- Table 1: statistics of globalised vs centralised rank ----

func BenchmarkTable1GlobalizedVsCentralized(b *testing.B) {
	loadFixtures(b)
	var central, global []float64
	for i := 0; i < b.N; i++ {
		central, global = centralAndGlobalRanks(b, fixtures.fam1000, 16)
	}
	sc, sg := stats.Summarize(central), stats.Summarize(global)
	variance, stddev, err := stats.DiffStats(global, central)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(sc.Max, "centralMax")
	b.ReportMetric(sg.Max, "globalMax")
	b.ReportMetric(sc.Mean, "centralAvg")
	b.ReportMetric(sg.Mean, "globalAvg")
	b.ReportMetric(variance, "varianceWrtCentral")
	b.ReportMetric(stddev, "stdDevWrtCentral")
}

// ---- Fig. 3: input rank distribution (evenly spread) ----

func BenchmarkFig3InputRankDistribution(b *testing.B) {
	loadFixtures(b)
	counter := kmer.MustCounter(bio.Dayhoff6, kmer.DefaultK)
	var ranks []float64
	for i := 0; i < b.N; i++ {
		profiles := counter.Profiles(fixtures.fam1000, 0)
		ranks = kmerRanks(b, profiles, profiles)
	}
	s := stats.Summarize(ranks)
	h := stats.NewHistogram(ranks, 10)
	occupied := 0
	for _, c := range h.Counts {
		if c > 0 {
			occupied++
		}
	}
	b.ReportMetric(s.Mean, "rankMean")
	b.ReportMetric(s.Max-s.Min, "rankSpread")
	b.ReportMetric(float64(occupied), "occupiedBins10")
}

// ---- Fig. 4: execution time vs processors ----

func BenchmarkFig4ScalingTime(b *testing.B) {
	loadFixtures(b)
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("real/N=256/p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.AlignInprocContext(context.Background(), fixtures.famBench, p, core.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Fig. 5: superlinear speedup ----

func BenchmarkFig5Speedup(b *testing.B) {
	loadFixtures(b)
	b.Run("real/N=256", func(b *testing.B) {
		var t1, t4 float64
		for i := 0; i < b.N; i++ {
			r1, err := core.AlignInprocContext(context.Background(), fixtures.famBench, 1, core.Config{})
			if err != nil {
				b.Fatal(err)
			}
			r4, err := core.AlignInprocContext(context.Background(), fixtures.famBench, 4, core.Config{})
			if err != nil {
				b.Fatal(err)
			}
			t1 = r1.Stats[0].Timings.Total.Seconds()
			t4 = r4.Stats[0].Timings.Total.Seconds()
		}
		if t4 > 0 {
			b.ReportMetric(t1/t4, "speedup_p4")
		}
	})
}

// ---- Fig. 6: genome proteins, sequential MUSCLE vs Sample-Align-D ----

func BenchmarkFig6GenomeAlignment(b *testing.B) {
	loadFixtures(b)
	for _, p := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("real/N=160/p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.AlignInprocContext(context.Background(), fixtures.genome160, p, core.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Table 2: PREFAB Q scores per method ----

func BenchmarkTable2PrefabQScores(b *testing.B) {
	loadFixtures(b)
	methods := []string{"muscle", "muscle-refined", "clustal", "tcoffee", "nwnsi", "fftnsi", "sample-align-d:4"}
	for _, name := range methods {
		b.Run(name, func(b *testing.B) {
			al, err := resolveAligner(name)
			if err != nil {
				b.Fatal(err)
			}
			var q float64
			for i := 0; i < b.N; i++ {
				q, _, err = prefab.Evaluate(context.Background(), al, fixtures.prefabS)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(q, "Q")
		})
	}
}

// ---- §3: communication-cost shares ----

func BenchmarkCommRounds(b *testing.B) {
	loadFixtures(b)
	var bytes int64
	for i := 0; i < b.N; i++ {
		res, err := core.AlignInprocContext(context.Background(), fixtures.famBench, 4, core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		bytes = 0
		for _, s := range res.Stats {
			bytes += s.Comm.BytesSent
		}
	}
	b.ReportMetric(float64(bytes), "bytesExchanged")
}

// ---- ablations ----

func BenchmarkAblationSampleSize(b *testing.B) {
	loadFixtures(b)
	for _, k := range []int{1, 3, 15} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var maxBucket int
			for i := 0; i < b.N; i++ {
				res, err := core.AlignInprocContext(context.Background(), fixtures.famBench, 4, core.Config{SampleSize: k})
				if err != nil {
					b.Fatal(err)
				}
				maxBucket = 0
				for _, sz := range res.Stats[0].BucketSizes {
					if sz > maxBucket {
						maxBucket = sz
					}
				}
			}
			b.ReportMetric(float64(maxBucket), "maxBucket")
		})
	}
}

func BenchmarkAblationLocalAligner(b *testing.B) {
	loadFixtures(b)
	for _, name := range []string{"muscle", "muscle-refined", "nwnsi"} {
		b.Run(name, func(b *testing.B) {
			cfg := core.Config{}
			al := name
			cfg.NewLocalAligner = func(workers int) msa.Aligner {
				a, _ := NewAligner(al, workers)
				return a
			}
			for i := 0; i < b.N; i++ {
				if _, err := core.AlignInprocContext(context.Background(), fixtures.famBench, 4, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationAlphabet(b *testing.B) {
	loadFixtures(b)
	configs := []struct {
		name string
		comp *bio.Compressed
		k    int
	}{
		{"dayhoff6-k6", bio.Dayhoff6, 6},
		{"seb14-k5", bio.SEB14, 5},
		{"full20-k4", bio.Identity(bio.AminoAcids), 4},
	}
	for _, c := range configs {
		b.Run(c.name, func(b *testing.B) {
			counter := kmer.MustCounter(c.comp, c.k)
			for i := 0; i < b.N; i++ {
				profiles := counter.Profiles(fixtures.fam500, 0)
				kmerMatrix(b, profiles, 0)
			}
		})
	}
}

// ---- intra-rank parallelism: task-parallel guide-tree merging ----

// BenchmarkProgressiveWorkers measures the wall-clock effect of running
// the guide-tree merges on the dependency-aware scheduler: MuscleLike
// over a 224-sequence input at increasing worker counts. Alignments are
// asserted byte-identical across all worker counts (the parallel
// schedule must never change the result). On a machine with >= 8 cores
// workers=8 should run >= 1.8x faster than workers=1; on fewer cores
// the speedup saturates at the core count.
func BenchmarkProgressiveWorkers(b *testing.B) {
	seqs, err := GenerateDiverseSet(224, 200, 107)
	if err != nil {
		b.Fatal(err)
	}
	var ref []byte
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			var aln *msa.Alignment
			for i := 0; i < b.N; i++ {
				var err error
				aln, err = msa.MuscleLike(w).AlignContext(context.Background(), seqs)
				if err != nil {
					b.Fatal(err)
				}
			}
			var flat []byte
			for _, s := range aln.Seqs {
				flat = append(flat, s.Data...)
				flat = append(flat, '\n')
			}
			if ref == nil {
				ref = flat
			} else if !bytes.Equal(ref, flat) {
				b.Fatal("alignment differs across worker counts")
			}
		})
	}
}

// BenchmarkMafftWorkers is the same sweep for the MAFFT-like banded
// engine, whose merges also run on the scheduler.
func BenchmarkMafftWorkers(b *testing.B) {
	seqs, err := GenerateDiverseSet(96, 150, 108)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mafft.NewFFTNSI(w).AlignContext(context.Background(), seqs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- parallel guide-tree construction (tiled distance matrix + UPGMA/NJ) ----

// guideTreeFixture lazily builds the N=2000 profile set the
// construction benchmarks share (generation and counting are setup, not
// measured).
var guideTreeFixture struct {
	once     sync.Once
	profiles []kmer.Profile
	dist     *kmer.Matrix
	err      error
}

func loadGuideTreeFixture(b *testing.B) ([]kmer.Profile, *kmer.Matrix) {
	b.Helper()
	f := &guideTreeFixture
	f.once.Do(func() {
		seqs, err := GenerateDiverseSet(2000, 120, 109)
		if err != nil {
			f.err = err
			return
		}
		counter := kmer.MustCounter(bio.Dayhoff6, kmer.DefaultK)
		f.profiles = counter.Profiles(seqs, 0)
		f.dist, f.err = kmer.DistanceMatrixContext(b.Context(), f.profiles, 0)
	})
	if f.err != nil {
		b.Fatal(f.err)
	}
	return f.profiles, f.dist
}

// BenchmarkDistanceMatrix sweeps worker counts over the indexed k-mer
// distance matrix at N=2000 — the first half of guide-tree
// construction. workers=1 is the sequential baseline; on a machine
// with >= 4 cores workers=4 should run >= 2x faster (this container may
// have fewer).
func BenchmarkDistanceMatrix(b *testing.B) {
	profiles, _ := loadGuideTreeFixture(b)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("n=2000/workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				kmerMatrix(b, profiles, w)
			}
		})
	}
}

// BenchmarkDistanceMatrixIdentical is the index's worst case beside the
// diverse one: N copies of one sequence share every k-mer, so each
// posting list holds all N sequences and a pair costs its full profile.
// The pairwise sub-benchmark is the two-profile merge over the same
// pairs — the bound the index must stay within a constant of.
func BenchmarkDistanceMatrixIdentical(b *testing.B) {
	all, _ := loadGuideTreeFixture(b)
	profiles := make([]kmer.Profile, 1000)
	for i := range profiles {
		profiles[i] = all[0]
	}
	b.Run("n=1000/index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kmerMatrix(b, profiles, 1)
		}
	})
	b.Run("n=1000/pairwise", func(b *testing.B) {
		m := kmer.NewMatrix(len(profiles))
		for i := 0; i < b.N; i++ {
			for x := range profiles {
				for y := x + 1; y < len(profiles); y++ {
					m.Set(x, y, kmer.Distance(profiles[x], profiles[y]))
				}
			}
		}
	})
}

// BenchmarkGuideTreeWorkers sweeps worker counts over tree building —
// the second half of guide-tree construction: UPGMA at N=2000 (its
// O(n²) scans parallelise) and NJ at N=600 (O(n³), the CLUSTALW-scale
// input class).
func BenchmarkGuideTreeWorkers(b *testing.B) {
	profiles, dist := loadGuideTreeFixture(b)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("upgma/n=2000/workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tree.UPGMAWorkers(dist, nil, w)
			}
		})
	}
	njDist := kmerMatrix(b, profiles[:600], 0)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("nj/n=600/workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tree.NeighborJoiningWorkers(njDist, nil, w)
			}
		})
	}
}

// ---- micro-benchmarks of the hot kernels ----

func BenchmarkKmerProfile(b *testing.B) {
	loadFixtures(b)
	counter := kmer.MustCounter(bio.Dayhoff6, 6)
	data := fixtures.fam500[0].Data
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		counter.Profile(data)
	}
}

func BenchmarkKmerDistance(b *testing.B) {
	loadFixtures(b)
	counter := kmer.MustCounter(bio.Dayhoff6, 6)
	pa := counter.Profile(fixtures.fam500[0].Data)
	pb := counter.Profile(fixtures.fam500[1].Data)
	for i := 0; i < b.N; i++ {
		kmer.Distance(pa, pb)
	}
}

// BenchmarkProfilePSP measures the profile-profile PSP hot path on a
// unit-leaf pair, the shape a guide tree's first merges are made of:
// two 500-residue sequences, where PSP degenerates to the pairwise DP.
func BenchmarkProfilePSP(b *testing.B) {
	seqs, err := GenerateDiverseSet(2, 500, 110)
	if err != nil {
		b.Fatal(err)
	}
	sub := submat.BLOSUM62
	alpha := sub.Alphabet()
	pa := profile.FromSequence(alpha, bio.Ungap(seqs[0].Data))
	pb := profile.FromSequence(alpha, bio.Ungap(seqs[1].Data))
	al := profile.NewAligner(sub, submat.DefaultProteinGap)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		al.Align(pa, pb)
	}
}

// BenchmarkProfileAlignDeep times the PSP kernel on the merge
// shape that dominates the benchmark's ops: the two halves of one long
// homologous family (ROSE, 20 × 1200, relatedness 400), each already
// aligned, joined by one profile-profile DP. Unlike random profiles —
// where every max/argmax is a coin flip — the branches here behave as
// they do near a guide tree's root. Reports ns per DP cell.
func BenchmarkProfileAlignDeep(b *testing.B) {
	fam, err := GenerateFamily(FamilyConfig{N: 20, MeanLen: 1200, Relatedness: 400, Seed: 16})
	if err != nil {
		b.Fatal(err)
	}
	sub := submat.BLOSUM62
	var halves [2]*profile.Profile
	for h := range halves {
		aln, err := msa.MuscleLike(1).AlignContext(context.Background(), fam[h*10:(h+1)*10])
		if err != nil {
			b.Fatal(err)
		}
		if halves[h], err = aln.Profile(sub.Alphabet()); err != nil {
			b.Fatal(err)
		}
	}
	al := profile.NewAligner(sub, submat.DefaultProteinGap)
	b.ReportAllocs()
	b.ResetTimer() // the two MuscleLike set-up alignments are not the kernel
	for i := 0; i < b.N; i++ {
		al.Align(halves[0], halves[1])
	}
	cells := float64(halves[0].Len()) * float64(halves[1].Len())
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/cells, "ns/cell")
}

// BenchmarkRefine times tree-bipartition refinement the way the NS-i
// bucket engines run it: one ROSE family, aligned progressively along
// its guide tree outside the timer, then two rounds of refinement.
// n=40 scores candidates by exact SP, n=90 by the sampled objective.
func BenchmarkRefine(b *testing.B) {
	for _, n := range []int{40, 90} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			fam, err := GenerateFamily(FamilyConfig{N: n, MeanLen: 300, Relatedness: 400, Seed: 18})
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			eng := msa.MuscleLike(1)
			d, err := eng.DistanceMatrixContext(ctx, fam)
			if err != nil {
				b.Fatal(err)
			}
			gt := eng.GuideTree(d, fam)
			aln, err := eng.AlignWithTreeContext(ctx, fam, gt, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.RefineAlignmentContext(ctx, aln, gt, 2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkProfileProfileAlign(b *testing.B) {
	loadFixtures(b)
	sub := submat.BLOSUM62
	a1, err := msa.MuscleLike(0).AlignContext(context.Background(), fixtures.fam500[:8])
	if err != nil {
		b.Fatal(err)
	}
	a2, err := msa.MuscleLike(0).AlignContext(context.Background(), fixtures.fam500[8:16])
	if err != nil {
		b.Fatal(err)
	}
	p1, _ := a1.Profile(sub.Alphabet())
	p2, _ := a2.Profile(sub.Alphabet())
	al := profile.NewAligner(sub, submat.DefaultProteinGap)
	b.ReportAllocs()
	b.ResetTimer() // the two MuscleLike set-up alignments are not the kernel
	for i := 0; i < b.N; i++ {
		al.Align(p1, p2)
	}
}

func BenchmarkUPGMA(b *testing.B) {
	loadFixtures(b)
	counter := kmer.MustCounter(bio.Dayhoff6, 6)
	profiles := counter.Profiles(fixtures.fam500, 0)
	d := kmerMatrix(b, profiles, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.UPGMAWorkers(d, nil, 1)
	}
}

func BenchmarkMuscleLikeEndToEnd(b *testing.B) {
	loadFixtures(b)
	seqs := fixtures.famBench[:64]
	for i := 0; i < b.N; i++ {
		if _, err := msa.MuscleLike(0).AlignContext(context.Background(), seqs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMPIAllToAll(b *testing.B) {
	payload := make([]byte, 64*1024)
	for i := 0; i < b.N; i++ {
		err := mpi.RunContext(context.Background(), 8, func(c mpi.Comm) error {
			parts := make([][]byte, 8)
			for q := range parts {
				parts[q] = payload
			}
			_, err := mpi.AllToAllValues(c, 1, parts)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(8 * 7 * len(payload)))
}
