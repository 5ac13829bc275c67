package core

import (
	"context"
	"fmt"

	"repro/internal/bio"
	"repro/internal/mpi"
	"repro/internal/msa"
)

// Result is the outcome of a driver run.
type Result struct {
	Alignment *msa.Alignment
	Stats     []*Stats // indexed by rank
}

// AlignInprocContext runs Sample-Align-D over p in-process ranks on a
// single sequence list: the paper's experimental setup ("files were
// divided into equal parts and placed on the cluster nodes") on one
// machine. Sequences are dealt out block-wise (rank r gets
// seqs[r·N/p:(r+1)·N/p]) and the final alignment is returned in input
// order. Cancelling ctx unwinds all p ranks (each returns the context's
// error) and AlignInprocContext reports it.
func AlignInprocContext(ctx context.Context, seqs []bio.Sequence, p int, cfg Config) (*Result, error) {
	if p < 1 {
		return nil, fmt.Errorf("core: p = %d", p)
	}
	if err := checkUniqueIDs(seqs); err != nil {
		return nil, err
	}
	parts, origParts := SplitBlocks(seqs, p)

	// Each rank writes only its own Stats slot (and rank 0 the
	// alignment); RunContext returns after every rank has.
	res := &Result{Stats: make([]*Stats, p)}
	err := mpi.RunContext(ctx, p, func(c mpi.Comm) error {
		// checkUniqueIDs above already covered the whole input, so the
		// ranks skip the cluster-wide ID collective.
		aln, stats, err := alignTagged(ctx, c, parts[c.Rank()], origParts[c.Rank()], cfg, true)
		if err != nil {
			return err
		}
		res.Stats[c.Rank()] = stats
		if c.Rank() == 0 {
			res.Alignment = aln
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// SplitBlocks deals sequences into p contiguous blocks with their global
// indices, mimicking the paper's pre-placed input files.
func SplitBlocks(seqs []bio.Sequence, p int) ([][]bio.Sequence, [][]int64) {
	parts := make([][]bio.Sequence, p)
	origs := make([][]int64, p)
	n := len(seqs)
	for r := 0; r < p; r++ {
		lo := r * n / p
		hi := (r + 1) * n / p
		parts[r] = seqs[lo:hi]
		ids := make([]int64, hi-lo)
		for i := range ids {
			ids[i] = int64(lo + i)
		}
		origs[r] = ids
	}
	return parts, origs
}

func checkUniqueIDs(seqs []bio.Sequence) error {
	ids := make([]string, len(seqs))
	for i := range seqs {
		ids[i] = seqs[i].ID
	}
	return duplicateIDError(ids)
}

// duplicateIDError returns an error naming the first ID occurring twice
// in ids, or nil. The empty ID counts like any other (bare FASTA '>'
// headers parse to ID "", and two of those still collide in the glue).
func duplicateIDError(ids []string) error {
	seen := make(map[string]bool, len(ids))
	for _, id := range ids {
		if seen[id] {
			return fmt.Errorf("core: duplicate sequence id %q (ids must be unique)", id)
		}
		seen[id] = true
	}
	return nil
}

// InprocAligner adapts AlignInprocContext to the msa.Aligner interface
// so Sample-Align-D can be evaluated by the PREFAB harness alongside the
// sequential baselines.
type InprocAligner struct {
	P   int
	Cfg Config
}

// Name identifies the aligner and its rank count in the form the public
// API parses back ("sample-align-d:<p>").
func (a *InprocAligner) Name() string { return fmt.Sprintf("sample-align-d:%d", a.P) }

// AlignContext satisfies msa.Aligner.
func (a *InprocAligner) AlignContext(ctx context.Context, seqs []bio.Sequence) (*msa.Alignment, error) {
	res, err := AlignInprocContext(ctx, seqs, a.P, a.Cfg)
	if err != nil {
		return nil, err
	}
	return res.Alignment, nil
}
