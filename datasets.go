package samplealign

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/msa"
	"repro/internal/prefab"
	"repro/internal/rose"
)

func newSplitRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func fmtFamID(fam, member int) string { return fmt.Sprintf("f%03dm%03d", fam, member) }

// Dataset helpers: the synthetic workloads the paper evaluates on,
// exposed so downstream users (and the examples) can regenerate them.

// FamilyConfig parameterises a ROSE-like synthetic protein family
// (the paper's Fig. 3/4/5 workload).
type FamilyConfig struct {
	N           int     // number of sequences
	MeanLen     int     // ancestor length (paper: 300)
	Relatedness float64 // ROSE relatedness knob (paper: 800)
	Seed        int64
}

// GenerateFamily evolves a synthetic homologous family.
func GenerateFamily(cfg FamilyConfig) ([]Sequence, error) {
	f, err := rose.Evolve(rose.Config{
		N: cfg.N, MeanLen: cfg.MeanLen, Relatedness: cfg.Relatedness, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return f.Seqs(), nil
}

// GenerateDiverseSet builds a phylogenetically diverse sequence set —
// the workload Sample-Align-D targets — by pooling many independent
// families of varied size and divergence. Unlike a single deep family
// (where every k-mer rank saturates), a mixture spreads the rank
// distribution the way the paper's Fig. 3 shows, and redistribution then
// groups related sequences onto the same rank.
func GenerateDiverseSet(n, meanLen int, seed int64) ([]Sequence, error) {
	if n < 0 {
		return nil, fmt.Errorf("samplealign: %d sequences requested, want >= 0", n)
	}
	rng := newSplitRand(seed)
	var out []Sequence
	fam := 0
	for len(out) < n {
		// Family sizes span singletons to ~40% of the set and divergence
		// spans tight (50) to saturated (800): members of large tight
		// families have low average k-mer distance, singletons high, so
		// the rank distribution spreads the way the paper's Fig. 3 shows.
		size := 2 + rng.Intn(max(4, 2*n/5))
		if size > n-len(out) {
			size = n - len(out)
		}
		f, err := rose.Evolve(rose.Config{
			N:           size,
			MeanLen:     meanLen/2 + rng.Intn(meanLen+1),
			Relatedness: 50 + rng.Float64()*750,
			Seed:        rng.Int63(),
		})
		if err != nil {
			return nil, err
		}
		for m, s := range f.Seqs() {
			out = append(out, Sequence{
				ID:   fmtFamID(fam, m),
				Data: s.Data,
			})
		}
		fam++
	}
	return out[:n], nil
}

// GenomeConfig parameterises the genome workload standing in for
// Methanosarcina acetivorans (paper: 5 Mbp, ~2000 sampled proteins of
// average length 316). The proteins come from an evolved proteome:
// paralog families of varied size and depth, evolved by duplication and
// divergence so a random sample holds homologous clusters, as a real
// genome's does. TargetBP sets the gene count at an 85 % coding density,
// ≈ 0.85·TargetBP / (3·MeanProteinLen + 6); no DNA is built.
type GenomeConfig struct {
	TargetBP       int // genome size in base pairs, at least 1000
	MeanProteinLen int // mean protein length; 10 or less means 316
	Seed           int64
}

// genomeFamilyMean is the mean paralog family size of the proteome.
const genomeFamilyMean = 4

// SampleGenomeProteins evolves the proteome cfg describes and draws n of
// its proteins uniformly without replacement under sampleSeed, the way
// the paper "randomly selected 2000 sequences" for its Fig. 6 run. If n
// exceeds the proteome size the whole proteome is returned.
func SampleGenomeProteins(cfg GenomeConfig, n int, sampleSeed int64) ([]Sequence, error) {
	if n < 0 {
		return nil, fmt.Errorf("samplealign: %d proteins requested, want >= 0", n)
	}
	if cfg.TargetBP < 1000 {
		return nil, fmt.Errorf("samplealign: genome TargetBP = %d, want >= 1000", cfg.TargetBP)
	}
	if cfg.MeanProteinLen <= 10 {
		cfg.MeanProteinLen = 316
	}
	rng := newSplitRand(cfg.Seed)
	targetGenes := max(1, int(float64(cfg.TargetBP)*0.85)/(cfg.MeanProteinLen*3+6))
	var proteins []Sequence
	for fam := 0; len(proteins) < targetGenes; fam++ {
		size := min(1+rng.Intn(2*genomeFamilyMean-1), targetGenes-len(proteins))
		f, err := rose.Evolve(rose.Config{
			N:           size,
			MeanLen:     cfg.MeanProteinLen/2 + rng.Intn(cfg.MeanProteinLen+1),
			Relatedness: 200 + rng.Float64()*600,
			Seed:        rng.Int63(),
		})
		if err != nil {
			return nil, err
		}
		for m, s := range f.Seqs() {
			proteins = append(proteins, Sequence{
				ID:   fmt.Sprintf("MA%04d", len(proteins)),
				Desc: fmt.Sprintf("family %d member %d", fam, m),
				Data: s.Data,
			})
		}
	}
	if n >= len(proteins) {
		return proteins, nil
	}
	out := make([]Sequence, n)
	for i, j := range newSplitRand(sampleSeed).Perm(len(proteins))[:n] {
		out[i] = proteins[j]
	}
	return out, nil
}

// PrefabSet is one PREFAB-like benchmark unit: sequences plus the true
// reference alignment of two of them.
type PrefabSet = prefab.Set

// GeneratePrefab builds a PREFAB-like quality benchmark (the paper's
// Table 2 workload): numSets sets of ~24 sequences of varying divergence.
// numSets must be at least 1.
func GeneratePrefab(numSets int, seed int64) ([]PrefabSet, error) {
	if numSets < 1 {
		return nil, fmt.Errorf("samplealign: %d PREFAB sets requested, want >= 1", numSets)
	}
	return prefab.Generate(prefab.Config{NumSets: numSets, Seed: seed})
}

// EvaluatePrefab scores an aligner (by name, or "sample-align-d:p" for
// the distributed aligner on p ranks) on a PREFAB-like benchmark and
// returns the mean Q score. Cancelling ctx stops the evaluation with the
// context's error.
func EvaluatePrefab(ctx context.Context, alignerName string, sets []PrefabSet) (float64, error) {
	al, err := resolveAligner(alignerName)
	if err != nil {
		return 0, err
	}
	mean, _, err := prefab.Evaluate(ctx, al, sets)
	return mean, err
}

func resolveAligner(name string) (msa.Aligner, error) {
	if n, ok := parseSampleAlignName(name); ok {
		return &core.InprocAligner{P: n}, nil
	}
	return NewAligner(name, 0)
}
