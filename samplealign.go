// Package samplealign is the public API of the Sample-Align-D
// reproduction: a high-performance multiple sequence alignment system
// using phylogenetic sampling and domain decomposition (Saeed & Khokhar,
// IPDPS 2008).
//
// The package aligns large sets of homologous protein sequences by
// partitioning them across p ranks with a SampleSort-style k-mer-rank
// redistribution, aligning each bucket independently with a sequential
// MSA pipeline, and reconciling the buckets through a global ancestor
// profile. Ranks can be in-process goroutines (Align) or separate
// processes connected over TCP (AlignTCPContext / the samplealignd
// daemon).
// For continuous workloads the same pipeline runs behind a long-lived
// HTTP job service (NewServer / the samplealignsrv daemon) with
// queueing, backpressure and content-addressed result caching.
//
// Quick start:
//
//	seqs, _ := samplealign.ReadFASTAFile("input.fa")
//	aln, report, err := samplealign.Align(seqs, 8)
//	if err != nil { ... }
//	fmt.Println(report.Summary())
//	samplealign.WriteFASTAFile("aligned.fa", aln.Seqs)
package samplealign

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/bio"
	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/fasta"
	"repro/internal/mpi"
	"repro/internal/msa"
	"repro/internal/submat"
)

// Sequence is a named biological sequence (alias of the internal type so
// callers can construct inputs directly).
type Sequence = bio.Sequence

// Alignment is a multiple sequence alignment: equal-length gapped rows.
type Alignment = msa.Alignment

// NewSequence builds a sequence from an id and residue string.
func NewSequence(id, residues string) Sequence { return bio.NewSequence(id, residues) }

// RunReport summarises one distributed run: per-rank phase timings,
// communication counters and bucket sizes.
type RunReport struct {
	Procs       int
	BucketSizes []int
	Elapsed     time.Duration
	PerRank     []RankReport
}

// RankReport is the per-rank slice of a RunReport.
type RankReport struct {
	Rank       int
	BucketSize int
	BytesSent  int64
	BytesRecv  int64
	MsgsSent   int64
	LocalAlign time.Duration
	Total      time.Duration
}

// Summary renders a one-paragraph human-readable report.
func (r *RunReport) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sample-align-d: %d ranks, %v elapsed; buckets %v; ",
		r.Procs, r.Elapsed.Round(time.Millisecond), r.BucketSizes)
	var sent, recv int64
	for _, pr := range r.PerRank {
		sent += pr.BytesSent
		recv += pr.BytesRecv
	}
	fmt.Fprintf(&b, "%d bytes sent / %d bytes received", sent, recv)
	return b.String()
}

// Align aligns the sequences with Sample-Align-D over `procs` in-process
// ranks. Sequence IDs must be unique and sequences non-empty. The result
// rows come back in input order.
func Align(seqs []Sequence, procs int, opts ...Option) (*Alignment, *RunReport, error) {
	//lint:allow ctxflow context-free twin kept while bench/ calls it (ROADMAP S, benchmark PR B)
	return AlignContext(context.Background(), seqs, procs, opts...)
}

// AlignContext is Align bound to a context: cancelling ctx (or passing
// one with an expired deadline) aborts the run on every rank — blocked
// collectives unblock, bucket aligners stop at their next merge, worker
// goroutines drain — and the call returns the context's error
// (context.Canceled / context.DeadlineExceeded).
func AlignContext(ctx context.Context, seqs []Sequence, procs int, opts ...Option) (*Alignment, *RunReport, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	res, err := core.AlignInprocContext(ctx, seqs, procs, cfg)
	if err != nil {
		return nil, nil, err
	}
	report := &RunReport{Procs: procs, Elapsed: time.Since(start)}
	if len(res.Stats) > 0 && res.Stats[0] != nil {
		report.BucketSizes = res.Stats[0].BucketSizes
	}
	for _, s := range res.Stats {
		if s == nil {
			continue
		}
		report.PerRank = append(report.PerRank, RankReport{
			Rank:       s.Rank,
			BucketSize: s.BucketSize,
			BytesSent:  s.Comm.BytesSent,
			BytesRecv:  s.Comm.BytesRecv,
			MsgsSent:   s.Comm.MsgsSent,
			LocalAlign: s.Timings.LocalAlign,
			Total:      s.Timings.Total,
		})
	}
	return res.Alignment, report, nil
}

// TCPRankConfig configures one rank of a multi-process TCP cluster run.
type TCPRankConfig struct {
	Rank  int      // this process's rank
	Addrs []string // listen address of every rank, indexed by rank; the same list on every rank
}

// AlignTCPContext participates in a distributed alignment as one rank
// of a TCP cluster: every rank calls it with its local slice of
// sequences; rank 0 receives the full alignment (others get nil).
// Cancelling ctx aborts the mesh setup or the run in progress on this
// rank — the communicator, which lives as long as ctx, closes, so peer
// connections and reader goroutines shut down — and the call returns the
// context's error. A hung or oversized cluster job can thus be abandoned
// cleanly from any rank.
func AlignTCPContext(ctx context.Context, tcpCfg TCPRankConfig, local []Sequence, opts ...Option) (*Alignment, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	comm, err := mpi.DialTCPContext(ctx, mpi.TCPConfig{Rank: tcpCfg.Rank, Addrs: tcpCfg.Addrs})
	if err != nil {
		return nil, err
	}
	defer comm.Close()
	aln, _, err := core.AlignContext(ctx, comm, local, cfg)
	return aln, err
}

// SequentialAligners lists the built-in sequential MSA pipelines by name,
// usable with WithLocalAligner, as standalone aligners via NewAligner,
// and as the "aligner" field of HTTP job requests (see NewServer).
func SequentialAligners() []string { return engines.Names() }

// QScore computes the PREFAB accuracy measure of a test alignment
// against a reference alignment (rows matched by ID; the reference may
// cover a subset of rows).
func QScore(test, ref *Alignment) (float64, error) { return msa.QScore(test, ref) }

// SPScore computes the affine-gap sum-of-pairs score of an alignment
// under BLOSUM62 (the paper's "score of the global map").
func SPScore(a *Alignment) float64 {
	return msa.SPScore(a, submat.BLOSUM62, submat.DefaultProteinGap, 0)
}

// ReadFASTA parses FASTA records from r.
func ReadFASTA(r io.Reader) ([]Sequence, error) { return fasta.Read(r) }

// ReadFASTAFile parses FASTA records from a file.
func ReadFASTAFile(path string) ([]Sequence, error) { return fasta.ReadFile(path) }

// WriteFASTA writes sequences (or alignment rows) to w in FASTA format.
func WriteFASTA(w io.Writer, seqs []Sequence) error { return fasta.Write(w, seqs) }

// WriteFASTAFile writes sequences to a file in FASTA format.
func WriteFASTAFile(path string, seqs []Sequence) error { return fasta.WriteFile(path, seqs) }
