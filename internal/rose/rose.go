// Package rose generates synthetic protein families the way the ROSE
// sequence generator (Stoye, Evers & Meyer 1998) does: a random ancestor
// is evolved down a random binary tree with PAM-style substitutions and
// geometric-length indels. It stands in for the paper's synthetic data
// sets (N = 5000/10000/20000, average length 300, relatedness 800).
//
// Unlike naive mutators, every residue carries a persistent site key, so
// the generator knows the *true* multiple alignment of any subset of the
// family — which is what the PREFAB-like quality benchmark needs for its
// reference alignments.
package rose

import (
	"fmt"
	"math"
	//lint:allow determinism Evolve's rng is seeded by Config.Seed alone, so a seed names one family
	"math/rand"
	"sort"

	"repro/internal/bio"
	"repro/internal/msa"
	"repro/internal/submat"
)

// Config parameterises a synthetic family.
type Config struct {
	// N is the number of sequences (leaves).
	N int
	// MeanLen is the ancestor length; leaf lengths drift around it.
	MeanLen int
	// Relatedness mirrors the ROSE knob the paper sets to 800. We map it
	// to root→leaf divergence as Divergence = Relatedness/1000 expected
	// substitutions per site, so 800 yields strongly diverged families
	// (pairwise leaf distance ≈ 1.6 subs/site) matching the paper's
	// "not very close to each other".
	Relatedness float64
	// IndelRate is the per-site indel event probability per unit
	// divergence (default 0.03).
	IndelRate float64
	// MeanIndelLen is the mean geometric indel length (default 2.5).
	MeanIndelLen float64
	// Seed drives all randomness; families are reproducible.
	Seed int64
}

func (c *Config) fillDefaults() error {
	if c.N < 1 {
		return fmt.Errorf("rose: N = %d", c.N)
	}
	if c.MeanLen < 1 {
		return fmt.Errorf("rose: MeanLen = %d", c.MeanLen)
	}
	if c.Relatedness <= 0 {
		c.Relatedness = 800
	}
	if c.IndelRate <= 0 {
		c.IndelRate = 0.03
	}
	if c.MeanIndelLen <= 0 {
		c.MeanIndelLen = 2.5
	}
	return nil
}

// site is one residue with its immortal alignment key. Keys order sites
// globally: the true alignment of any leaf set is the sorted union of
// their keys.
type site struct {
	key float64
	res byte
}

// Family is a generated sequence family that remembers its evolution.
type Family struct {
	cfg      Config
	lineages [][]site
	seqs     []bio.Sequence
}

// Seqs returns the family's sequences (shared storage).
func (f *Family) Seqs() []bio.Sequence { return f.seqs }

// Evolve generates a family per the config.
func Evolve(cfg Config) (*Family, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	ev := &evolver{
		rng:      rng,
		probs:    submat.BLOSUM62.MutationProbs(2),
		cfg:      cfg,
		lineages: make([][]site, 0, cfg.N),
	}
	root := ev.randomAncestor(cfg.MeanLen)
	divergence := cfg.Relatedness / 1000
	levels := int(math.Ceil(math.Log2(float64(cfg.N))))
	if levels < 1 {
		levels = 1
	}
	ev.perLevel = divergence / float64(levels)
	ev.evolve(root, cfg.N)

	f := &Family{cfg: cfg, lineages: ev.lineages}
	f.seqs = make([]bio.Sequence, len(ev.lineages))
	for i, lin := range ev.lineages {
		data := make([]byte, len(lin))
		for j, s := range lin {
			data[j] = s.res
		}
		f.seqs[i] = bio.Sequence{ID: fmt.Sprintf("seq%04d", i), Data: data}
	}
	return f, nil
}

type evolver struct {
	rng      *rand.Rand
	probs    [][]float64
	cfg      Config
	perLevel float64
	lineages [][]site
	nextKey  float64
}

// keySpacing leaves room for ~50 nested insertions between root sites
// before float64 precision matters.
const keySpacing = 1 << 20

func (e *evolver) randomAncestor(n int) []site {
	anc := make([]site, n)
	for i := range anc {
		anc[i] = site{key: float64(i+1) * keySpacing, res: e.randomResidue()}
	}
	e.nextKey = float64(n+1) * keySpacing
	return anc
}

func (e *evolver) randomResidue() byte {
	r := e.rng.Float64()
	acc := 0.0
	for i := 0; i < 20; i++ {
		acc += submat.BackgroundFreq(i)
		if r < acc {
			return bio.AminoAcids.Letter(i)
		}
	}
	return bio.AminoAcids.Letter(19)
}

// evolve recursively splits n leaves between two children, mutating a
// copy of the parent along each branch.
func (e *evolver) evolve(seq []site, n int) {
	if n == 1 {
		e.lineages = append(e.lineages, seq)
		return
	}
	nl := 1 + e.rng.Intn(n-1)
	nr := n - nl
	left := e.mutate(seq, e.perLevel)
	right := e.mutate(seq, e.perLevel)
	e.evolve(left, nl)
	e.evolve(right, nr)
}

// mutate applies substitutions and indels for a branch of the given
// divergence (expected substitutions per site).
func (e *evolver) mutate(seq []site, t float64) []site {
	pSub := 1 - math.Exp(-t)
	pIndel := e.cfg.IndelRate * t
	out := make([]site, 0, len(seq)+4)
	for i := 0; i < len(seq); i++ {
		s := seq[i]
		r := e.rng.Float64()
		switch {
		case r < pIndel/2:
			// deletion of a short run starting here
			runLen := e.geomLen()
			i += runLen - 1 // skip run (loop increments once more)
			continue
		case r < pIndel:
			// insertion before this site
			runLen := e.geomLen()
			prevKey := 0.0
			if len(out) > 0 {
				prevKey = out[len(out)-1].key
			}
			for k := 0; k < runLen; k++ {
				key := e.insertKey(prevKey, s.key)
				out = append(out, site{key: key, res: e.randomResidue()})
				prevKey = key
			}
		}
		if e.rng.Float64() < pSub {
			s.res = e.substitute(s.res)
		}
		out = append(out, s)
	}
	if len(out) == 0 {
		// pathological total deletion: keep one random residue so the
		// sequence stays alignable
		out = append(out, site{key: e.freshKey(), res: e.randomResidue()})
	}
	return out
}

func (e *evolver) geomLen() int {
	// geometric with mean MeanIndelLen
	p := 1 / e.cfg.MeanIndelLen
	n := 1
	for e.rng.Float64() > p && n < 50 {
		n++
	}
	return n
}

func (e *evolver) insertKey(lo, hi float64) float64 {
	if hi <= lo {
		return e.freshKey()
	}
	return lo + (hi-lo)/2
}

func (e *evolver) freshKey() float64 {
	e.nextKey += keySpacing
	return e.nextKey
}

func (e *evolver) substitute(res byte) byte {
	i := bio.AminoAcids.Index(res)
	if i < 0 {
		return res
	}
	r := e.rng.Float64()
	acc := 0.0
	for j, p := range e.probs[i] {
		acc += p
		if r < acc {
			return bio.AminoAcids.Letter(j)
		}
	}
	return res
}

// TrueAlignment reconstructs the true multiple alignment of the leaves
// with the given indices (nil means all leaves): sites are placed in
// global key order; a leaf lacking a site shows a gap.
func (f *Family) TrueAlignment(indices []int) (*msa.Alignment, error) {
	if indices == nil {
		indices = make([]int, len(f.lineages))
		for i := range indices {
			indices[i] = i
		}
	}
	// collect the union of keys
	keySet := map[float64]bool{}
	for _, idx := range indices {
		if idx < 0 || idx >= len(f.lineages) {
			return nil, fmt.Errorf("rose: leaf index %d out of range", idx)
		}
		for _, s := range f.lineages[idx] {
			keySet[s.key] = true
		}
	}
	keys := make([]float64, 0, len(keySet))
	for k := range keySet {
		keys = append(keys, k)
	}
	sort.Float64s(keys)
	colOf := make(map[float64]int, len(keys))
	for c, k := range keys {
		colOf[k] = c
	}
	aln := &msa.Alignment{Seqs: make([]bio.Sequence, len(indices))}
	for out, idx := range indices {
		row := make([]byte, len(keys))
		for i := range row {
			row[i] = bio.Gap
		}
		for _, s := range f.lineages[idx] {
			row[colOf[s.key]] = s.res
		}
		aln.Seqs[out] = bio.Sequence{ID: f.seqs[idx].ID, Data: row}
	}
	return aln, nil
}
