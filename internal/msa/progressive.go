package msa

import (
	"bytes"
	"context"
	"fmt"

	"repro/internal/bio"
	"repro/internal/dp"
	"repro/internal/kmer"
	"repro/internal/obs"
	"repro/internal/pairwise"
	"repro/internal/par"
	"repro/internal/profile"
	"repro/internal/submat"
	"repro/internal/tree"
)

// Aligner is any multiple sequence aligner. Implementations in this
// repository: the Progressive engine (MUSCLE-like, CLUSTAL-like), the
// consistency aligner in internal/cons, the MAFFT-like aligner in
// internal/mafft and Sample-Align-D itself in internal/core.
type Aligner interface {
	Name() string
	Align(seqs []bio.Sequence) (*Alignment, error)
}

// ContextAligner is an Aligner whose runs can be cancelled through a
// context: a long alignment observes cancellation at phase and
// guide-tree-merge granularity and returns the context's error.
type ContextAligner interface {
	Aligner
	AlignContext(ctx context.Context, seqs []bio.Sequence) (*Alignment, error)
}

// AlignWithContext runs a's AlignContext when it supports cancellation,
// falling back to plain Align (after an upfront ctx check) otherwise.
func AlignWithContext(ctx context.Context, a Aligner, seqs []bio.Sequence) (*Alignment, error) {
	if ca, ok := a.(ContextAligner); ok {
		return ca.AlignContext(ctx, seqs)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return a.Align(seqs)
}

// DistanceMethod selects how the guide-tree distance matrix is computed.
type DistanceMethod int

const (
	// KmerDistance uses compressed-alphabet k-mer distances (MUSCLE
	// draft stage): O(N²·L) and alignment-free.
	KmerDistance DistanceMethod = iota
	// PIDDistance uses 1 − fractional identity from global pairwise
	// alignments (CLUSTALW stage 1): O(N²·L²) and much slower.
	PIDDistance
)

// TreeMethod selects the guide-tree construction.
type TreeMethod int

const (
	UPGMATree TreeMethod = iota
	NJTree
)

// Options configures the progressive engine.
type Options struct {
	Sub       *submat.Matrix
	Gap       submat.Gap
	Distance  DistanceMethod
	Tree      TreeMethod
	K         int             // k-mer length for KmerDistance
	Compress  *bio.Compressed // compressed alphabet for k-mers
	Weighting bool            // CLUSTALW-style tree-derived sequence weights
	Refine    int             // rounds of tree-bipartition refinement
	Workers   int             // shared-memory workers (<=0: all cores)
	NameTag   string
}

// Progressive is a progressive multiple aligner: distance matrix → guide
// tree → post-order profile merging (→ optional refinement).
type Progressive struct {
	opts Options
}

// NewProgressive builds a progressive aligner, applying defaults for
// unset options.
func NewProgressive(opts Options) *Progressive {
	if opts.Sub == nil {
		opts.Sub = submat.BLOSUM62
	}
	if opts.Gap == (submat.Gap{}) {
		opts.Gap = submat.DefaultProteinGap
	}
	if opts.K == 0 {
		opts.K = kmer.DefaultK
	}
	if opts.Compress == nil {
		opts.Compress = bio.Dayhoff6
	}
	if opts.NameTag == "" {
		opts.NameTag = "progressive"
	}
	return &Progressive{opts: opts}
}

// MuscleLike returns the MUSCLE-style pipeline the paper runs inside each
// processor: k-mer distances, UPGMA tree, PSP profile alignment.
func MuscleLike(workers int) *Progressive {
	return NewProgressive(Options{
		Distance: KmerDistance,
		Tree:     UPGMATree,
		Workers:  workers,
		NameTag:  "muscle-like",
	})
}

// MuscleLikeRefined adds MUSCLE stage-3 style iterative refinement.
func MuscleLikeRefined(workers, rounds int) *Progressive {
	return NewProgressive(Options{
		Distance: KmerDistance,
		Tree:     UPGMATree,
		Workers:  workers,
		Refine:   rounds,
		NameTag:  "muscle-like+refine",
	})
}

// ClustalLike returns the CLUSTALW-style pipeline used as the paper's
// quality baseline: %-identity distances, NJ tree, weighted profiles.
func ClustalLike(workers int) *Progressive {
	return NewProgressive(Options{
		Distance:  PIDDistance,
		Tree:      NJTree,
		Weighting: true,
		Workers:   workers,
		NameTag:   "clustalw-like",
	})
}

// Name identifies the pipeline configuration.
func (p *Progressive) Name() string { return p.opts.NameTag }

// Options returns a copy of the engine's configuration.
func (p *Progressive) Options() Options { return p.opts }

// DistanceMatrix computes the configured guide-tree distance matrix.
func (p *Progressive) DistanceMatrix(seqs []bio.Sequence) (*kmer.Matrix, error) {
	//lint:allow ctxflow context-free compat wrapper: delegates to the Context-bound variant
	return p.DistanceMatrixContext(context.Background(), seqs)
}

// DistanceMatrixContext is DistanceMatrix bound to a context; the
// O(N²·L²) PID path stops dispatching pair rows on cancellation.
func (p *Progressive) DistanceMatrixContext(ctx context.Context, seqs []bio.Sequence) (*kmer.Matrix, error) {
	switch p.opts.Distance {
	case KmerDistance:
		counter, err := kmer.NewCounter(p.opts.Compress, p.opts.K)
		if err != nil {
			return nil, err
		}
		profiles := counter.Profiles(seqs, p.opts.Workers)
		return kmer.DistanceMatrixContext(ctx, profiles, p.opts.Workers)
	case PIDDistance:
		// The O(N²·L²) pair space is dispatched as cache-sized tiles
		// (kmer.PairTiles), so the dynamic scheduler balances the quadratic tail instead of handing each
		// worker whole rows of shrinking length. Each tile borrows one
		// pooled DP workspace for all of its alignments, and the identity
		// is counted directly off the traceback plane
		// (GlobalIdentityInto) without materializing aligned rows.
		ctx, sp := obs.Start(ctx, "distmatrix")
		defer sp.End()
		sp.SetStr("method", "pid")
		sp.SetInt("n", int64(len(seqs)))
		sp.SetInt("workers", int64(p.opts.Workers))
		n := len(seqs)
		m := kmer.NewMatrix(n)
		al := pairwise.Aligner{Sub: p.opts.Sub, Gap: p.opts.Gap}
		tiles := kmer.PairTiles(n, p.opts.Workers, 0)
		if err := par.ForDynamicCtx(ctx, len(tiles), p.opts.Workers, func(t int) {
			tl := tiles[t]
			w := dp.GetRaw()
			defer dp.Put(w)
			for i := tl.RLo; i < tl.RHi; i++ {
				a := seqs[i].Data
				jlo := tl.CLo
				if jlo <= i {
					jlo = i + 1 // diagonal tile: stay above the diagonal
				}
				for j := jlo; j < tl.CHi; j++ {
					m.Set(i, j, 1-al.GlobalIdentityInto(w, a, seqs[j].Data))
				}
			}
		}); err != nil {
			return nil, err
		}
		return m, nil
	default:
		return nil, fmt.Errorf("msa: unknown distance method %d", p.opts.Distance)
	}
}

// GuideTree builds the configured guide tree from a distance matrix.
// Construction runs the nearest-neighbour scans on Options.Workers
// workers; the tree is identical for every worker count.
func (p *Progressive) GuideTree(d *kmer.Matrix, seqs []bio.Sequence) *tree.Node {
	names := bio.IDs(seqs)
	switch p.opts.Tree {
	case NJTree:
		return tree.NeighborJoiningWorkers(d, names, p.opts.Workers)
	default:
		return tree.UPGMAWorkers(d, names, p.opts.Workers)
	}
}

// Align runs the full progressive pipeline.
func (p *Progressive) Align(seqs []bio.Sequence) (*Alignment, error) {
	//lint:allow ctxflow context-free compat wrapper: delegates to the Context-bound variant
	return p.AlignContext(context.Background(), seqs)
}

// AlignContext runs the full progressive pipeline under a context:
// cancellation is observed between phases, per guide-tree merge and per
// refinement split, and surfaces as the context's error.
func (p *Progressive) AlignContext(ctx context.Context, seqs []bio.Sequence) (*Alignment, error) {
	switch len(seqs) {
	case 0:
		return &Alignment{}, nil
	case 1:
		return &Alignment{Seqs: bio.CloneAll(seqs)}, nil
	}
	for i := range seqs {
		if len(bio.Ungap(seqs[i].Data)) == 0 {
			return nil, fmt.Errorf("msa: sequence %q is empty", seqs[i].ID)
		}
	}
	d, err := p.DistanceMatrixContext(ctx, seqs)
	if err != nil {
		return nil, err
	}
	_, gsp := obs.Start(ctx, "guidetree")
	if p.opts.Tree == NJTree {
		gsp.SetStr("method", "nj")
	} else {
		gsp.SetStr("method", "upgma")
	}
	gsp.SetInt("n", int64(len(seqs)))
	gsp.SetInt("workers", int64(p.opts.Workers))
	gt := p.GuideTree(d, seqs)
	gsp.End()
	var weights []float64
	if p.opts.Weighting {
		weights = TreeWeights(gt, len(seqs))
	}
	aln, err := p.AlignWithTreeContext(ctx, seqs, gt, weights)
	if err != nil {
		return nil, err
	}
	if p.opts.Refine > 0 {
		aln, err = p.RefineAlignmentContext(ctx, aln, gt, p.opts.Refine)
		if err != nil {
			return nil, err
		}
	}
	return aln, nil
}

// group is the partial alignment carried up the guide tree: a recipe
// for its rows — a leaf's residues, or two child groups and the path
// that joined them — and, while the group waits for its parent, its
// profile. Rows are built once, at the root (expandRows).
type group struct {
	id          int    // leaf: sequence index
	seq         []byte // leaf: ungapped residues
	left, right *group // merged group
	path        profile.Path
	leaves      int
	prof        *profile.Profile // until the group's parent exists
}

// expandRows builds the row of every leaf under g into rows, indexed by
// sequence and total columns wide. cols[c] is the final column of g's
// column c; each path on the way down splits that map between the two
// children — O(width) per node, one allocation per row.
func (g *group) expandRows(rows [][]byte, cols []int32, total int) {
	if g.left == nil {
		row := bytes.Repeat([]byte{bio.Gap}, total)
		for c, b := range g.seq {
			row[cols[c]] = b
		}
		rows[g.id] = row
		return
	}
	lc, rc := make([]int32, 0, len(cols)), make([]int32, 0, len(cols))
	for c, op := range g.path {
		if op != profile.OpB {
			lc = append(lc, cols[c])
		}
		if op != profile.OpA {
			rc = append(rc, cols[c])
		}
	}
	g.left.expandRows(rows, lc, total)
	g.right.expandRows(rows, rc, total)
}

// AlignWithTree performs the post-order progressive merge over an
// explicit guide tree. weights may be nil (unit weights).
func (p *Progressive) AlignWithTree(seqs []bio.Sequence, gt *tree.Node, weights []float64) (*Alignment, error) {
	//lint:allow ctxflow context-free compat wrapper: delegates to the Context-bound variant
	return p.AlignWithTreeContext(context.Background(), seqs, gt, weights)
}

// AlignWithTreeContext is AlignWithTree bound to a context: every merge
// aligns its two profiles with full profile-profile DP.
func (p *Progressive) AlignWithTreeContext(ctx context.Context, seqs []bio.Sequence, gt *tree.Node, weights []float64) (*Alignment, error) {
	palign := profile.NewAligner(p.opts.Sub, p.opts.Gap)
	return p.AlignWithTreePairs(ctx, seqs, gt, weights, func(pl, pr *profile.Profile) (profile.Path, error) {
		path, _ := palign.Align(pl, pr)
		return path, nil
	})
}

// PairPath picks the alignment path between the two profiles one
// guide-tree merge joins — the only step progressive engines differ in
// (full DP here, FFT-banded DP in mafft).
type PairPath func(pl, pr *profile.Profile) (profile.Path, error)

// AlignWithTreePairs is the progressive merge driver under a caller's
// pair strategy. The merge recursion runs as a parallel post-order
// schedule on a task DAG (tree.ParallelReduce): disjoint subtrees merge
// concurrently on Workers workers, each merge borrowing its own pooled
// DP workspace. Output is byte-identical for every Workers value — a
// node's merge depends only on its children, never on execution order.
//
// A merge touches profiles only: it aligns its children's with pair,
// joins them along the path (profile.Merge: O(width), no rows read) and
// lets them go; a leaf's one-row profile is made when ParallelReduce
// calls leaf, which is inside the merge that consumes it. A profile so
// lives from the merge that makes it to the merge that uses it, and
// ParallelReduce's order keeps those few. The carried profile is the
// definition of a group's profile: it equals profile.FromRows of the
// group's rows exactly with unit weights over the alphabet's letters,
// and to within rounding with tree weights or unknown residues
// ((ΣA)+(ΣB) where FromRows adds row by row).
func (p *Progressive) AlignWithTreePairs(ctx context.Context, seqs []bio.Sequence, gt *tree.Node, weights []float64, pair PairPath) (*Alignment, error) {
	ctx, psp := obs.Start(ctx, "progressive")
	defer psp.End()
	psp.SetInt("n", int64(len(seqs)))
	psp.SetInt("workers", int64(p.opts.Workers))
	alpha := p.opts.Sub.Alphabet()

	leaf := func(n *tree.Node) (*group, error) {
		if n.ID < 0 || n.ID >= len(seqs) {
			return nil, fmt.Errorf("msa: guide tree leaf id %d out of range", n.ID)
		}
		g := &group{id: n.ID, seq: bio.Ungap(seqs[n.ID].Data), leaves: 1}
		var w []float64
		if weights != nil {
			w = weights[n.ID : n.ID+1]
		}
		var err error
		g.prof, err = profile.FromRows(alpha, [][]byte{g.seq}, w)
		return g, err
	}
	merge := func(mi tree.Merge, left, right *group) (*group, error) {
		_, msp := obs.StartDepth(ctx, "mergenode", mi.Depth)
		defer msp.End()
		g := &group{left: left, right: right, leaves: left.leaves + right.leaves}
		msp.SetInt("depth", int64(mi.Depth))
		msp.SetInt("rows", int64(g.leaves))
		pl, pr := left.prof, right.prof
		left.prof, right.prof = nil, nil // the children stay, as recipes
		var err error
		if g.path, err = pair(pl, pr); err != nil {
			return nil, err
		}
		if g.prof, err = profile.Merge(pl, pr, g.path); err != nil {
			return nil, err
		}
		return g, nil
	}

	g, err := tree.ParallelReduce(ctx, gt, p.opts.Workers, leaf, merge)
	if err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("msa: empty guide tree")
	}
	cols := make([]int32, max(len(g.seq), len(g.path))) // one of them is the root's
	for c := range cols {
		cols[c] = int32(c)
	}
	rows := make([][]byte, len(seqs))
	g.expandRows(rows, cols, len(cols))
	aln := &Alignment{Seqs: make([]bio.Sequence, len(seqs))}
	for idx, row := range rows {
		aln.Seqs[idx] = bio.Sequence{ID: seqs[idx].ID, Desc: seqs[idx].Desc, Data: row}
	}
	aln.RemoveAllGapColumns()
	return aln, nil
}
