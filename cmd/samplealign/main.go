// Command samplealign aligns a FASTA file with Sample-Align-D over
// in-process ranks (one machine standing in for the cluster).
//
// Usage:
//
//	samplealign -in seqs.fa -out aligned.fa -p 8
//	samplealign -in seqs.fa -p 4 -aligner muscle-refined -stats
//
// SIGINT/SIGTERM cancel the run: every rank unwinds and the command
// exits with "context canceled", writing no output.
//
// For multi-process TCP cluster runs use samplealignd on every node.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	samplealign "repro"
)

func main() {
	in := flag.String("in", "", "input FASTA file (required)")
	out := flag.String("out", "", "output FASTA file (default stdout)")
	procs := flag.Int("p", 4, "number of ranks (simulated cluster nodes)")
	workers := flag.Int("workers", 1, "shared-memory workers per rank, covering guide-tree construction (distance matrix, UPGMA/NJ) and merging; identical output for any value (0 = all cores)")
	aligner := flag.String("aligner", "muscle",
		fmt.Sprintf("bucket aligner: %s", strings.Join(samplealign.SequentialAligners(), "|")))
	sampleSize := flag.Int("samples", 0, "samples per rank for the globalised rank (0 = max(p-1, 4))")
	showStats := flag.Bool("stats", false, "print the per-rank run report to stderr")
	flag.Parse()

	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	seqs, err := samplealign.ReadFASTAFile(*in)
	if err != nil {
		fatal(err)
	}
	if len(seqs) == 0 {
		fatal(fmt.Errorf("no sequences in %s", *in))
	}

	opts := []samplealign.Option{
		samplealign.WithWorkers(*workers),
		samplealign.WithLocalAligner(*aligner),
	}
	if *sampleSize != 0 {
		opts = append(opts, samplealign.WithSampleSize(*sampleSize))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	aln, report, err := samplealign.AlignContext(ctx, seqs, *procs, opts...)
	if err != nil {
		fatal(err)
	}
	if *showStats {
		fmt.Fprintln(os.Stderr, report.Summary())
		for _, pr := range report.PerRank {
			fmt.Fprintf(os.Stderr, "  rank %d: bucket %d, align %v, total %v, %d B sent\n",
				pr.Rank, pr.BucketSize, pr.LocalAlign.Round(1e6), pr.Total.Round(1e6), pr.BytesSent)
		}
	}
	if *out == "" {
		if err := samplealign.WriteFASTA(os.Stdout, aln.Seqs); err != nil {
			fatal(err)
		}
		return
	}
	if err := samplealign.WriteFASTAFile(*out, aln.Seqs); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "aligned %d sequences (width %d) -> %s\n",
		aln.NumSeqs(), aln.Width(), *out)
}

// fatal prints err once under the program's name (library errors
// already carry it) and exits 1.
func fatal(err error) {
	msg := err.Error()
	if !strings.HasPrefix(msg, "samplealign: ") {
		msg = "samplealign: " + msg
	}
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(1)
}
