// Command seqgen generates the synthetic data sets the paper evaluates
// on: ROSE-like families, phylogenetically diverse mixtures and protein
// samples from the evolved proteome of a 5 Mbp archaeal genome.
//
// Usage:
//
//	seqgen -kind family  -n 5000 -len 300 -relatedness 800 -out fam.fa
//	seqgen -kind diverse -n 2000 -len 300 -out mix.fa
//	seqgen -kind genome  -n 2000 -out genes.fa
//	seqgen -kind shards  -n 512 -p 4 -out shard.fa   # shard0.fa … shard3.fa
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	samplealign "repro"
	"repro/internal/core"
	"repro/internal/fasta"
)

func main() {
	kind := flag.String("kind", "family", "family|diverse|genome|shards")
	n := flag.Int("n", 1000, "number of sequences")
	length := flag.Int("len", 300, "mean sequence length")
	relatedness := flag.Float64("relatedness", 800, "ROSE relatedness (family only)")
	procs := flag.Int("p", 4, "shard count (shards only)")
	seed := flag.Int64("seed", 1, "RNG seed")
	out := flag.String("out", "", "output FASTA file (required; shards derive names from it)")
	flag.Parse()

	if *out == "" {
		flag.Usage()
		os.Exit(2)
	}
	var (
		seqs []samplealign.Sequence
		err  error
	)
	switch *kind {
	case "family":
		seqs, err = samplealign.GenerateFamily(samplealign.FamilyConfig{
			N: *n, MeanLen: *length, Relatedness: *relatedness, Seed: *seed,
		})
	case "diverse":
		seqs, err = samplealign.GenerateDiverseSet(*n, *length, *seed)
	case "genome":
		seqs, err = samplealign.SampleGenomeProteins(samplealign.GenomeConfig{
			TargetBP: 5_000_000, MeanProteinLen: 316, Seed: *seed,
		}, *n, *seed+1)
	case "shards":
		seqs, err = samplealign.GenerateDiverseSet(*n, *length, *seed)
		if err == nil {
			err = writeShards(seqs, *procs, *out)
			if err == nil {
				return
			}
		}
	default:
		err = fmt.Errorf("unknown kind %q", *kind)
	}
	if err != nil {
		fatal(err)
	}
	if err := samplealign.WriteFASTAFile(*out, seqs); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "seqgen: wrote %d sequences to %s\n", len(seqs), *out)
}

// writeShards splits the set block-wise (the paper's pre-placed input
// files) into shard<i>.<ext> files for samplealignd ranks.
func writeShards(seqs []samplealign.Sequence, p int, out string) error {
	base, ext := out, ".fa"
	if i := strings.LastIndex(out, "."); i > 0 {
		base, ext = out[:i], out[i:]
	}
	parts, _ := core.SplitBlocks(seqs, p)
	for r, part := range parts {
		name := fmt.Sprintf("%s%d%s", base, r, ext)
		if err := fasta.WriteFile(name, part); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "seqgen: wrote %d sequences to %s\n", len(part), name)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "seqgen:", err)
	os.Exit(1)
}
