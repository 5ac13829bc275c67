// genome2000 reproduces the paper's §4 real-data experiment at laptop
// scale: a run on proteins sampled from the synthetic archaeal genome
// (the paper: 2000 proteins on 16 nodes, 9.82 min against 23 h of
// sequential MUSCLE). Run with:
//
//	go run ./examples/genome2000 [-n 200] [-p 4]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	samplealign "repro"
)

func main() {
	n := flag.Int("n", 200, "number of proteins to sample (paper: 2000)")
	p := flag.Int("p", 4, "ranks for the real run (paper: 16 nodes)")
	flag.Parse()

	fmt.Printf("synthesising archaeal genome and sampling %d proteins...\n", *n)
	seqs, err := samplealign.SampleGenomeProteins(samplealign.GenomeConfig{
		TargetBP:       1_000_000, // scaled from the paper's 5 Mbp
		MeanProteinLen: 150,       // scaled from the paper's 316
		Seed:           2008,
	}, *n, 42)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("aligning %d proteins on %d ranks...\n", len(seqs), *p)
	start := time.Now()
	aln, report, err := samplealign.Align(seqs, *p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("done in %v: %d rows × %d columns\n",
		time.Since(start).Round(time.Millisecond), aln.NumSeqs(), aln.Width())
	fmt.Println(report.Summary())
	fmt.Println("(paper: 2000 proteins, 9.82 min on 16 nodes against ~23 h of sequential MUSCLE — a 142x speedup)")
}
