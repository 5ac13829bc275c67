package main

import (
	"fmt"
	"math/rand"

	"repro/internal/bio"
	"repro/internal/msa"
	"repro/internal/rose"
)

// dataset is one workload's input together with what the output checks
// and q_score need: the ROSE families the sequences came from (which
// know their true alignments) and a fixed seeded sample of
// intra-family pairs.
type dataset struct {
	seqs     []bio.Sequence // what the program sees
	fams     []*rose.Family
	famOf    []int    // per input index: family
	memberOf []int    // per input index: leaf index inside the family
	pairs    [][2]int // input-index pairs scored by qScore
}

// The family mixture follows samplealign.GenerateDiverseSet — unrelated
// ROSE families of differing ancestor length and relatedness — with two
// changes that make the work and the quality repeat across seeds,
// which the driver's noise check (ten runs, ten seeds) needs: families
// are small and of one size, and the (length, relatedness) of family f
// comes from these ladders instead of the rng, so every seed draws the
// same shape of problem and only the residues and the ROSE trees
// differ. 5 and 4 are coprime, so 20 consecutive families cover every
// combination.
var (
	lenLadder = []float64{0.6, 0.8, 1.0, 1.2, 1.4} // × meanLen, mean 1.0
	relLadder = []float64{100, 300, 500, 700}
)

// qPairs is the size of the intra-family pair sample q_score is
// computed on. Whether a pair lands in one bucket or two makes its Q
// nearly 1 or nearly 0, so a sample of 300 moved q_score by ±9 % on
// its own; 3000 holds the sampling error under 3 %.
const qPairs = 3000

// diverseSet generates n sequences in families of famSize, shuffled so
// that the contiguous blocks core.SplitBlocks deals to the ranks each
// hold a mixture (the paper's "files divided into equal parts").
func diverseSet(n, famSize, meanLen int, seed int64) (*dataset, error) {
	rng := rand.New(rand.NewSource(seed))
	var cfgs []rose.Config
	for f := 0; f*famSize < n; f++ {
		cfgs = append(cfgs, rose.Config{
			N:           min(famSize, n-f*famSize),
			MeanLen:     int(float64(meanLen) * lenLadder[f%len(lenLadder)]),
			Relatedness: relLadder[f%len(relLadder)],
			Seed:        rng.Int63(),
		})
	}
	return fromFamilies(cfgs, qPairs, rng)
}

// oneFamily generates a single ROSE family of n sequences.
func oneFamily(n, meanLen int, relatedness float64, seed int64) (*dataset, error) {
	rng := rand.New(rand.NewSource(seed))
	return fromFamilies([]rose.Config{{N: n, MeanLen: meanLen, Relatedness: relatedness, Seed: rng.Int63()}}, qPairs, rng)
}

// fromFamilies evolves the families, renames their members to unique
// IDs, shuffles them into one input and draws the q_score sample of
// pairs pairs.
func fromFamilies(cfgs []rose.Config, pairs int, rng *rand.Rand) (*dataset, error) {
	d := &dataset{}
	for f, cfg := range cfgs {
		fam, err := rose.Evolve(cfg)
		if err != nil {
			return nil, err
		}
		d.fams = append(d.fams, fam)
		for m, s := range fam.Seqs() {
			d.seqs = append(d.seqs, bio.Sequence{ID: fmt.Sprintf("f%03dm%03d", f, m), Data: s.Data})
			d.famOf = append(d.famOf, f)
			d.memberOf = append(d.memberOf, m)
		}
	}
	rng.Shuffle(len(d.seqs), func(i, j int) {
		d.seqs[i], d.seqs[j] = d.seqs[j], d.seqs[i]
		d.famOf[i], d.famOf[j] = d.famOf[j], d.famOf[i]
		d.memberOf[i], d.memberOf[j] = d.memberOf[j], d.memberOf[i]
	})
	d.pairs = samplePairs(d.famOf, pairs, rng)
	return d, nil
}

// samplePairs draws count pairs (i, j), i ≠ j, of inputs that share a
// family — or returns every such pair once, when there are no more
// than count. Singleton families contribute nothing.
func samplePairs(famOf []int, count int, rng *rand.Rand) [][2]int {
	members := map[int][]int{}
	for i, f := range famOf {
		members[f] = append(members[f], i)
	}
	var all [][2]int
	for i, f := range famOf {
		for _, j := range members[f] {
			if j > i && len(all) <= count {
				all = append(all, [2]int{i, j})
			}
		}
	}
	if len(all) <= count {
		return all
	}
	var eligible []int
	for i, f := range famOf {
		if len(members[f]) > 1 {
			eligible = append(eligible, i)
		}
	}
	pairs := make([][2]int, 0, count)
	for len(pairs) < count {
		i := eligible[rng.Intn(len(eligible))]
		mates := members[famOf[i]]
		j := mates[rng.Intn(len(mates))]
		if j != i {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	return pairs
}

// qScore is the PREFAB Q of aln over the dataset's pair sample: for
// each pair, the share of residue pairs of the ROSE true pairwise
// alignment that aln also aligns; the mean over pairs. aln's rows are
// in input order.
func (d *dataset) qScore(aln *msa.Alignment) (float64, error) {
	if aln.NumSeqs() != len(d.seqs) {
		return 0, fmt.Errorf("q_score: %d rows for %d inputs", aln.NumSeqs(), len(d.seqs))
	}
	var sum float64
	for _, p := range d.pairs {
		i, j := p[0], p[1]
		ref, err := d.fams[d.famOf[i]].TrueAlignment([]int{d.memberOf[i], d.memberOf[j]})
		if err != nil {
			return 0, err
		}
		ref.Seqs[0].ID, ref.Seqs[1].ID = d.seqs[i].ID, d.seqs[j].ID
		q, err := msa.QScore(&msa.Alignment{Seqs: []bio.Sequence{aln.Seqs[i], aln.Seqs[j]}}, ref)
		if err != nil {
			return 0, err
		}
		sum += q
	}
	return sum / float64(len(d.pairs)), nil
}
