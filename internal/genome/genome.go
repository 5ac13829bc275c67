// Package genome synthesises an archaeal-like genome standing in for the
// Methanosarcina acetivorans data the paper samples its real-data
// experiment from (5 Mbp, the largest known archaeal genome, ~2000
// randomly selected proteins of average length 316).
//
// The synthetic genome is built gene-first: protein families are evolved
// by duplication-and-divergence (so random samples contain homologous
// clusters, like a real genome), back-translated through the standard
// genetic code, and laid onto a chromosome with intergenic spacers. An
// ORF scanner and translator recover proteins from the DNA, exercising
// the same "sample proteins from a genome" path the paper uses.
package genome

import (
	"fmt"
	"math/rand"

	"repro/internal/bio"
	"repro/internal/rose"
)

// Config parameterises the synthetic genome.
type Config struct {
	TargetBP       int     // approximate chromosome size in base pairs
	MeanProteinLen int     // mean protein length (paper: ~316)
	FamilySizeMean int     // mean paralog family size (duplication factor)
	GC             float64 // GC content of intergenic DNA (archaeal ~0.42)
	Seed           int64
}

func (c *Config) fillDefaults() error {
	if c.TargetBP < 1000 {
		return fmt.Errorf("genome: TargetBP = %d, want >= 1000", c.TargetBP)
	}
	if c.MeanProteinLen <= 10 {
		c.MeanProteinLen = 316
	}
	if c.FamilySizeMean < 1 {
		c.FamilySizeMean = 4
	}
	if c.GC <= 0 || c.GC >= 1 {
		c.GC = 0.42
	}
	return nil
}

// Genome is a synthesised chromosome plus its true proteome.
type Genome struct {
	DNA      []byte
	proteins []bio.Sequence
}

// Proteins returns the true proteome (the proteins encoded on the
// chromosome, in genomic order).
func (g *Genome) Proteins() []bio.Sequence { return g.proteins }

// Sample returns n proteins drawn uniformly without replacement, the way
// the paper "randomly selected 2000 sequences" from the genome. If n
// exceeds the proteome size the whole proteome is returned.
func (g *Genome) Sample(n int, seed int64) []bio.Sequence {
	if n >= len(g.proteins) {
		return bio.CloneAll(g.proteins)
	}
	rng := rand.New(rand.NewSource(seed))
	idx := rng.Perm(len(g.proteins))[:n]
	out := make([]bio.Sequence, n)
	for i, j := range idx {
		out[i] = g.proteins[j].Clone()
	}
	return out
}

// Synthesize builds the genome.
func Synthesize(cfg Config) (*Genome, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Estimate gene count: coding density ~85% like real archaea.
	codingBP := int(float64(cfg.TargetBP) * 0.85)
	geneBP := cfg.MeanProteinLen*3 + 6 // + start/stop
	targetGenes := codingBP / geneBP
	if targetGenes < 1 {
		targetGenes = 1
	}

	// Evolve families until we have enough genes.
	var proteins []bio.Sequence
	famID := 0
	for len(proteins) < targetGenes {
		famSize := 1 + rng.Intn(2*cfg.FamilySizeMean-1)
		if famSize > targetGenes-len(proteins) {
			famSize = targetGenes - len(proteins)
		}
		length := cfg.MeanProteinLen/2 + rng.Intn(cfg.MeanProteinLen+1)
		fam, err := rose.Evolve(rose.Config{
			N:           famSize,
			MeanLen:     length,
			Relatedness: 200 + rng.Float64()*600, // families of varied depth
			Seed:        rng.Int63(),
		})
		if err != nil {
			return nil, err
		}
		for m, s := range fam.Seqs() {
			proteins = append(proteins, bio.Sequence{
				ID:   fmt.Sprintf("MA%04d", len(proteins)),
				Desc: fmt.Sprintf("family %d member %d", famID, m),
				Data: s.Data,
			})
		}
		famID++
	}

	// Lay genes on the chromosome with intergenic spacers.
	g := &Genome{proteins: proteins}
	dna := make([]byte, 0, cfg.TargetBP+cfg.TargetBP/10)
	for _, p := range proteins {
		dna = append(dna, randomDNA(rng, 20+rng.Intn(180), cfg.GC)...)
		dna = append(dna, 'A', 'T', 'G') // start codon
		dna = append(dna, backTranslate(p.Data, rng)...)
		dna = append(dna, stopCodons[rng.Intn(len(stopCodons))]...)
	}
	dna = append(dna, randomDNA(rng, 20+rng.Intn(180), cfg.GC)...)
	g.DNA = dna
	return g, nil
}

func randomDNA(rng *rand.Rand, n int, gc float64) []byte {
	out := make([]byte, n)
	for i := range out {
		r := rng.Float64()
		switch {
		case r < gc/2:
			out[i] = 'G'
		case r < gc:
			out[i] = 'C'
		case r < gc+(1-gc)/2:
			out[i] = 'A'
		default:
			out[i] = 'T'
		}
	}
	// avoid accidental in-frame stops breaking ORF statistics is not
	// needed for spacers; ORF scanning tolerates them.
	return out
}
