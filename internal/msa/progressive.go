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
// repository: the Progressive engine (MUSCLE-like, CLUSTAL-like, and
// MAFFT-like with internal/mafft's FFT band), the consistency aligner in
// internal/cons and Sample-Align-D itself in internal/core. A long
// alignment observes cancellation at phase and guide-tree-merge
// granularity and returns the context's error.
type Aligner interface {
	Name() string
	AlignContext(ctx context.Context, seqs []bio.Sequence) (*Alignment, error)
}

// AlignWithContext runs a.AlignContext. It stays for the benchmark
// module, which calls it; code here calls the method.
func AlignWithContext(ctx context.Context, a Aligner, seqs []bio.Sequence) (*Alignment, error) {
	return a.AlignContext(ctx, seqs)
}

// Options configures the progressive engine. The scoring model
// (BLOSUM62, default protein gaps) and the k-mer draft distances
// (Dayhoff-6, kmer.DefaultK) are the same in every engine.
type Options struct {
	Refine  int // rounds of tree-bipartition refinement
	Workers int // shared-memory workers (<=0: all cores)
	NameTag string
	// Band, when set, restricts every guide-tree merge to the diagonals
	// lo..hi it picks for the two profiles (profile.AlignBanded), as
	// MAFFT's FFT-NS does; refinement realigns with full DP either way.
	Band func(a, b *profile.Profile) (lo, hi int, err error)

	// clustal selects the CLUSTALW recipe: %-identity distances, an NJ
	// tree and tree-derived sequence weights in place of k-mer
	// distances, UPGMA and unit weights.
	clustal bool
}

// Progressive is a progressive multiple aligner: distance matrix → guide
// tree → post-order profile merging (→ optional refinement).
type Progressive struct {
	opts Options
	sub  *submat.Matrix // BLOSUM62; tests swap in a model whose sums round
	gap  submat.Gap
}

// NewProgressive builds a progressive aligner.
func NewProgressive(opts Options) *Progressive {
	return &Progressive{opts: opts, sub: submat.BLOSUM62, gap: submat.DefaultProteinGap}
}

// MuscleLike returns the MUSCLE-style pipeline the paper runs inside each
// processor: k-mer distances, UPGMA tree, PSP profile alignment.
func MuscleLike(workers int) *Progressive {
	return NewProgressive(Options{Workers: workers, NameTag: "muscle-like"})
}

// MuscleLikeRefined adds two rounds of MUSCLE stage-3 style iterative
// refinement.
func MuscleLikeRefined(workers int) *Progressive {
	return NewProgressive(Options{Refine: 2, Workers: workers, NameTag: "muscle-like+refine"})
}

// ClustalLike returns the CLUSTALW-style pipeline used as the paper's
// quality baseline: %-identity distances, NJ tree, weighted profiles.
func ClustalLike(workers int) *Progressive {
	return NewProgressive(Options{Workers: workers, NameTag: "clustalw-like", clustal: true})
}

// Name identifies the pipeline configuration.
func (p *Progressive) Name() string { return p.opts.NameTag }

// DistanceMatrixContext computes the guide-tree distance matrix:
// compressed-alphabet k-mer distances (MUSCLE's draft stage, O(N²·L) and
// alignment-free), or for the CLUSTALW recipe 1 − fractional identity
// from global pairwise alignments (O(N²·L²)), whose pair rows stop
// dispatching on cancellation.
func (p *Progressive) DistanceMatrixContext(ctx context.Context, seqs []bio.Sequence) (*kmer.Matrix, error) {
	if !p.opts.clustal {
		counter, err := kmer.NewCounter(bio.Dayhoff6, kmer.DefaultK)
		if err != nil {
			return nil, err
		}
		profiles := counter.Profiles(seqs, p.opts.Workers)
		return kmer.DistanceMatrixContext(ctx, profiles, p.opts.Workers)
	}
	// Rows are dispatched one at a time, so the workers balance the
	// triangle's shrinking rows between them. Each row borrows one
	// pooled DP workspace for all of its alignments, and the identity
	// is counted directly off the traceback plane (GlobalIdentityInto)
	// without materializing aligned rows.
	ctx, sp := obs.Start(ctx, "distmatrix")
	defer sp.End()
	sp.SetStr("method", "pid")
	sp.SetInt("n", int64(len(seqs)))
	sp.SetInt("workers", int64(p.opts.Workers))
	n := len(seqs)
	// The pid matrix aligns every pair once: (|a|+1)·(|b|+1) DP cells
	// each, summed as ((Σ(L+1))² − Σ(L+1)²) / 2.
	var sum, sumSq int64
	for i := range seqs {
		l := int64(len(seqs[i].Data)) + 1
		sum, sumSq = sum+l, sumSq+l*l
	}
	sp.SetInt("pairs", int64(n*(n-1)/2))
	sp.SetInt("cells", (sum*sum-sumSq)/2)
	m := kmer.NewMatrix(n)
	al := pairwise.Aligner{Sub: p.sub, Gap: p.gap}
	if err := par.ForCtx(ctx, n-1, 1, p.opts.Workers, func(i, _ int) {
		dp.With(func(w *dp.Workspace) {
			for j := i + 1; j < n; j++ {
				m.Set(i, j, 1-al.GlobalIdentityInto(w, seqs[i].Data, seqs[j].Data))
			}
		})
	}); err != nil {
		return nil, err
	}
	return m, nil
}

// GuideTree builds the configured guide tree from a distance matrix.
// Construction runs the nearest-neighbour scans on Options.Workers
// workers; the tree is identical for every worker count.
func (p *Progressive) GuideTree(d *kmer.Matrix, seqs []bio.Sequence) *tree.Node {
	names := bio.IDs(seqs)
	if p.opts.clustal {
		return tree.NeighborJoiningWorkers(d, names, p.opts.Workers)
	}
	return tree.UPGMAWorkers(d, names, p.opts.Workers)
}

// AlignContext runs the full progressive pipeline under a context:
// cancellation is observed between phases, per guide-tree merge and per
// refinement split, and surfaces as the context's error.
func (p *Progressive) AlignContext(ctx context.Context, seqs []bio.Sequence) (*Alignment, error) {
	switch len(seqs) {
	case 0:
		return &Alignment{}, nil
	case 1:
		return &Alignment{Seqs: []bio.Sequence{seqs[0].Ungapped()}}, nil
	}
	for i := range seqs {
		if len(bytes.Trim(seqs[i].Data, string(bio.Gap))) == 0 {
			return nil, fmt.Errorf("msa: sequence %q is empty", seqs[i].ID)
		}
	}
	d, err := p.DistanceMatrixContext(ctx, seqs)
	if err != nil {
		return nil, err
	}
	_, gsp := obs.Start(ctx, "guidetree")
	if p.opts.clustal {
		gsp.SetStr("method", "nj")
	} else {
		gsp.SetStr("method", "upgma")
	}
	gsp.SetInt("n", int64(len(seqs)))
	gsp.SetInt("workers", int64(p.opts.Workers))
	gt := p.GuideTree(d, seqs)
	gsp.End()
	var weights []float64
	if p.opts.clustal {
		weights = treeWeights(gt, len(seqs))
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

// AlignWithTreeContext performs the post-order progressive merge over
// an explicit guide tree, every merge aligning its two profiles with
// full profile-profile DP, or inside the diagonals Options.Band picks
// when it is set. weights may be nil (unit weights).
func (p *Progressive) AlignWithTreeContext(ctx context.Context, seqs []bio.Sequence, gt *tree.Node, weights []float64) (*Alignment, error) {
	palign := profile.NewAligner(p.sub, p.gap)
	return p.alignWithTreePairs(ctx, seqs, gt, weights, func(pl, pr *profile.Profile) (profile.Path, error) {
		if p.opts.Band == nil {
			path, _ := palign.Align(pl, pr)
			return path, nil
		}
		lo, hi, err := p.opts.Band(pl, pr)
		if err != nil {
			return nil, err
		}
		path, _ := palign.AlignBanded(pl, pr, lo, hi)
		return path, nil
	})
}

// pairPath picks the alignment path between the two profiles one
// guide-tree merge joins.
type pairPath func(pl, pr *profile.Profile) (profile.Path, error)

// alignWithTreePairs is the progressive merge driver under a pair
// strategy. The merge recursion runs as a parallel post-order
// schedule on a task DAG (tree.ParallelReduce): disjoint subtrees merge
// concurrently on Workers workers, each merge borrowing its own pooled
// DP workspace. Output is byte-identical for every Workers value — a
// node's merge depends only on its children, never on execution order.
//
// A merge touches profiles only: it aligns its children's with pair,
// joins them along the path (profile.Merge: O(width), no rows read) and
// releases them, so the next FromRows or Merge reuses their column
// storage; a leaf's one-row profile is made when ParallelReduce calls
// leaf, which is inside the merge that consumes it. A profile so lives
// from the merge that makes it to the merge that uses it, and
// ParallelReduce's order keeps those few. pair must not keep either
// profile past its return. The carried profile is the definition of a
// group's profile: it equals profile.FromRows of the group's rows
// exactly with unit weights over the alphabet's letters, and to within
// rounding with tree weights or unknown residues ((ΣA)+(ΣB) where
// FromRows adds row by row).
func (p *Progressive) alignWithTreePairs(ctx context.Context, seqs []bio.Sequence, gt *tree.Node, weights []float64, pair pairPath) (*Alignment, error) {
	ctx, psp := obs.Start(ctx, "progressive")
	defer psp.End()
	psp.SetInt("n", int64(len(seqs)))
	psp.SetInt("workers", int64(p.opts.Workers))
	alpha := p.sub.Alphabet()

	leaf := func(n *tree.Node) (*group, error) {
		if n.ID < 0 || n.ID >= len(seqs) {
			return nil, fmt.Errorf("msa: guide tree leaf id %d out of range", n.ID)
		}
		g := &group{id: n.ID, seq: seqs[n.ID].Data, leaves: 1}
		if bytes.IndexByte(g.seq, bio.Gap) >= 0 { // read only: no copy unless gapped
			g.seq = bio.Ungap(g.seq)
		}
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
		pl.Release()
		pr.Release()
		return g, nil
	}

	g, err := tree.ParallelReduce(ctx, gt, p.opts.Workers, leaf, merge)
	if err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("msa: empty guide tree")
	}
	g.prof.Release() // the rows come from the recipes

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
