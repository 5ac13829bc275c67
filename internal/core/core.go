// Package core implements Sample-Align-D, the paper's contribution: a
// distributed multiple sequence aligner modelled on parallel sorting by
// regular sampling.
//
// The SPMD algorithm (one call to Align per rank):
//
//  1. Each rank k-mer-ranks and sorts its N/p local sequences.
//  2. Each rank contributes k evenly spaced sample sequences; the samples
//     are all-gathered so every rank can compute a "globalised" k-mer
//     rank for each local sequence against the k·p global sample.
//  3. Ranks re-sort locally, regular-sample p−1 rank values each, and
//     send them to the root, which picks p−1 pivots from the sorted
//     p(p−1) values and broadcasts them.
//  4. An all-to-all personalised exchange redistributes sequences so
//     bucket i (pivot range i) lands on rank i; regular sampling bounds
//     any bucket by 2N/p.
//  5. Every rank aligns its bucket with a sequential MSA (MUSCLE-like by
//     default) and extracts its local ancestor (consensus).
//  6. The root aligns the p local ancestors into the global ancestor GA
//     and broadcasts it.
//  7. Every rank profile-aligns its local alignment against the GA
//     template (fine-tuning); the root glues the per-rank alignments in
//     GA coordinates into the final global alignment of all N sequences.
package core

import (
	"fmt"
	"time"

	"repro/internal/bio"
	"repro/internal/kmer"
	"repro/internal/mpi"
	"repro/internal/msa"
)

// Config parameterises Sample-Align-D: the zero value is the paper's
// configuration. The k-mer alphabet (bio.Dayhoff6), the rank scale
// (kmer.DefaultRankScale), the ancestor occupancy and the fine-tuning
// scoring (BLOSUM62, submat.DefaultProteinGap) are the pipeline's own.
type Config struct {
	// K is the k-mer length (default kmer.DefaultK = 6).
	K int
	// SampleSize is k, the number of sample sequences each rank
	// contributes to the globalised rank estimate (paper: k << N/p,
	// analysed at k = p−1). Default: max(p−1, 4), clamped to the local
	// set size.
	SampleSize int
	// NewLocalAligner builds the sequential MSA run on each bucket and on
	// the ancestor set (default msa.MuscleLike).
	NewLocalAligner func(workers int) msa.Aligner
	// Workers bounds shared-memory parallelism inside one rank: k-mer
	// ranking, the local aligner's guide-tree construction (distance
	// matrix, UPGMA/NJ nearest-neighbour scans) and its
	// guide-tree merges all share this budget. Results are identical
	// for every value (default 1: ranks model single-CPU cluster
	// nodes).
	Workers int
}

// CheckK reports whether k is a usable k-mer length: k ≥ 1, and the 6^k
// codes over bio.Dayhoff6 fit the counter's code space. The callers
// that take k from outside (the public options, the job API) ask here,
// so a bad k is refused before any rank starts.
func CheckK(k int) error {
	if _, err := kmer.NewCounter(bio.Dayhoff6, k); err != nil {
		return fmt.Errorf("k = %d: %w", k, err)
	}
	return nil
}

// ancestorOcc is the minimum column occupancy for ancestor extraction.
const ancestorOcc = 0.5

func (c Config) withDefaults(worldSize int) Config {
	if c.K == 0 {
		c.K = kmer.DefaultK
	}
	if c.SampleSize == 0 {
		c.SampleSize = worldSize - 1
		if c.SampleSize < 4 {
			c.SampleSize = 4
		}
	}
	if c.NewLocalAligner == nil {
		c.NewLocalAligner = func(workers int) msa.Aligner { return msa.MuscleLike(workers) }
	}
	if c.Workers == 0 {
		c.Workers = 1
	}
	return c
}

// Timings records wall-clock per algorithm phase on one rank.
type Timings struct {
	LocalRank  time.Duration // local k-mer ranking and sorting
	Sampling   time.Duration // sample exchange + globalised ranking
	Pivoting   time.Duration // pivot gather/select/broadcast
	Redistrib  time.Duration // all-to-all sequence exchange
	LocalAlign time.Duration // sequential MSA on the bucket
	Ancestor   time.Duration // local/global ancestor phases
	FineTune   time.Duration // GA profile re-alignment
	Glue       time.Duration // final gather and merge (root-heavy)
	Total      time.Duration
}

// Stats is the per-rank execution report.
type Stats struct {
	Rank        int
	Timings     Timings
	Comm        mpi.Stats
	BucketSize  int   // sequences this rank aligned after redistribution
	BucketSizes []int // root only: all bucket sizes, read off the glue gather
	GALen       int   // global ancestor length
}

// message tags (one per phase, SPMD discipline)
const (
	tagSamples = 100 + iota
	tagPivotGather
	tagPivots
	tagRedist
	tagAncGather
	tagGA
	tagGlue
	tagIDCheck
)

// wireSeq is the on-the-wire form of a sequence plus its provenance, so
// the root can restore a deterministic global order after redistribution.
type wireSeq struct {
	ID   string
	Desc string
	Data []byte
	Orig int64 // global ordering key (driver-provided or rank-derived)
	Rank float64
}
