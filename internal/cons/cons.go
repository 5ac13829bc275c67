// Package cons implements a T-Coffee-like consistency-based multiple
// aligner (Notredame, Higgins & Heringa 2000) for the paper's Table 2
// baseline: a library of weighted residue pairs is built from all global
// pairwise alignments, extended through third sequences (the consistency
// transform), and a progressive alignment then maximises library support
// instead of raw substitution scores.
//
// A global alignment pairs each residue with at most one partner, so the
// library is one residue map and one weight per sequence pair. The
// extension is never stored: a pair's support through third sequences
// is summed inside the one guide-tree merge that puts the pair's two
// sequences on opposite sides, straight into that merge's column-pair
// scores.
//
// Consistency methods are accurate but expensive — the extension is
// O(N³·L) however it is laid out — which is exactly why T-Coffee "is
// reported to not able to handle more than 10² sequences" in the paper.
// Use on PREFAB-sized sets.
package cons

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/bio"
	"repro/internal/dp"
	"repro/internal/kmer"
	"repro/internal/msa"
	"repro/internal/obs"
	"repro/internal/pairwise"
	"repro/internal/par"
	"repro/internal/submat"
	"repro/internal/tree"
)

// maxSequences guards against accidental O(N³) blowups, mirroring
// T-Coffee's practical limit the paper cites.
const maxSequences = 200

// Aligner is the consistency-based aligner. Its pairwise library scores
// with BLOSUM62 and the default protein gaps.
type Aligner struct {
	extend  bool // apply the triplet consistency transform
	workers int
}

// New returns a T-Coffee-like aligner with library extension enabled.
func New(workers int) *Aligner {
	return &Aligner{extend: true, workers: workers}
}

// Name identifies the aligner.
func (a *Aligner) Name() string { return "tcoffee-like" }

// library is the direct library. A global alignment pairs each residue
// with at most one partner, and every residue pair of it carries the
// same weight, so per ordered sequence pair (i, j) it is to[i][j], the
// partner in j of each residue of i or -1, and w[i][j], the pair's
// identity. The consistency extension is not stored: support sums each
// pair's terms at the one merge that scores the pair.
type library struct {
	to     [][][]int32
	w      [][]float64
	extend bool
}

// support adds the support of every residue pair (a, b) of sequences i
// and j to cell (ci[a], cj[b]) of m, a matrix wb columns wide. A pair's
// support is its direct weight and then, when the library is extended,
// min(w(i,k), w(k,j)) through each third sequence k, in ascending k,
// that aligns a and b to one residue. acc is zeroed scratch as long as
// sequence j, and is left zeroed.
func (l *library) support(m []float64, wb int, i, j int, ci, cj []int32, acc []float64) {
	var buf [maxSequences]int32 // a residue has one partner per other sequence
	for a, b := range l.to[i][j] {
		hits := buf[:0]
		if b >= 0 {
			acc[b] = l.w[i][j]
			hits = append(hits, b)
		}
		for k := 0; l.extend && k < len(l.to); k++ {
			if k == i || k == j {
				continue
			}
			c := l.to[i][k][a]
			if c < 0 {
				continue
			}
			if b := l.to[k][j][c]; b >= 0 {
				if acc[b] == 0 {
					hits = append(hits, b)
				}
				acc[b] += math.Min(l.w[i][k], l.w[k][j])
			}
		}
		row := int(ci[a]) * wb
		for _, b := range hits {
			m[row+int(cj[b])] += acc[b]
			acc[b] = 0
		}
	}
}

// AlignContext runs the full consistency pipeline under a context:
// cancellation is observed per sequence pair in the library build, per
// guide-tree merge, and inside each merge once per row of its left
// group, where the consistency extension is summed.
func (a *Aligner) AlignContext(ctx context.Context, seqs []bio.Sequence) (*msa.Alignment, error) {
	switch len(seqs) {
	case 0:
		return &msa.Alignment{}, nil
	case 1:
		return &msa.Alignment{Seqs: []bio.Sequence{seqs[0].Ungapped()}}, nil
	}
	if len(seqs) > maxSequences {
		return nil, fmt.Errorf("cons: %d sequences exceed the consistency limit %d",
			len(seqs), maxSequences)
	}
	clean := make([][]byte, len(seqs))
	for i := range seqs {
		clean[i] = bio.Ungap(seqs[i].Data)
		if len(clean[i]) == 0 {
			return nil, fmt.Errorf("cons: sequence %q is empty", seqs[i].ID)
		}
	}

	// The pairwise library build doubles as the distance-matrix pass in
	// this engine (it returns 1-identity distances for the guide tree),
	// so the span carries both roles.
	_, lsp := obs.Start(ctx, "library")
	lsp.SetInt("n", int64(len(seqs)))
	lsp.SetInt("workers", int64(a.workers))
	lsp.SetBool("extend", a.extend)
	// The library aligns every pair once: (|a|+1)·(|b|+1) DP cells
	// each, summed as ((Σ(L+1))² − Σ(L+1)²) / 2.
	var sum, sumSq int64
	for _, s := range clean {
		l := int64(len(s)) + 1
		sum, sumSq = sum+l, sumSq+l*l
	}
	lsp.SetInt("pairs", int64(len(clean)*(len(clean)-1)/2))
	lsp.SetInt("cells", (sum*sum-sumSq)/2)
	lib, dist, err := a.buildLibrary(ctx, clean)
	lsp.End()
	if err != nil {
		return nil, err
	}
	_, gsp := obs.Start(ctx, "guidetree")
	gsp.SetStr("method", "nj")
	gsp.SetInt("n", int64(len(seqs)))
	gsp.SetInt("workers", int64(a.workers))
	gt := tree.NeighborJoiningWorkers(dist, bio.IDs(seqs), a.workers)
	gsp.End()
	rows, ids, err := a.progressive(ctx, clean, gt, lib)
	if err != nil {
		return nil, err
	}
	aln := &msa.Alignment{Seqs: make([]bio.Sequence, len(seqs))}
	for k, idx := range ids {
		aln.Seqs[idx] = bio.Sequence{ID: seqs[idx].ID, Desc: seqs[idx].Desc, Data: rows[k]}
	}
	aln.RemoveAllGapColumns()
	return aln, nil
}

// buildLibrary computes all global pairwise alignments; every aligned
// residue pair enters the library weighted by the alignment's fractional
// identity (T-Coffee's sequence weighting). Also returns the distance
// matrix (1 − identity) for the guide tree.
func (a *Aligner) buildLibrary(ctx context.Context, seqs [][]byte) (*library, *kmer.Matrix, error) {
	n := len(seqs)
	lib := &library{to: make([][][]int32, n), w: make([][]float64, n), extend: a.extend}
	for i := range n {
		lib.to[i] = make([][]int32, n)
		lib.w[i] = make([]float64, n)
	}
	dist := kmer.NewMatrix(n)
	pw := pairwise.Aligner{Sub: submat.BLOSUM62, Gap: submat.DefaultProteinGap}
	var pairs [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	ids := make([]float64, len(pairs))
	err := par.ForCtx(ctx, len(pairs), 1, a.workers, func(k, _ int) {
		i, j := pairs[k][0], pairs[k][1]
		r := pw.Global(seqs[i], seqs[j])
		ids[k] = pairwise.Identity(r.A, r.B)
		ij, ji := slices.Repeat([]int32{-1}, len(seqs[i])), slices.Repeat([]int32{-1}, len(seqs[j]))
		pi, pj := int32(0), int32(0)
		for c := range r.A {
			gi, gj := r.A[c] == bio.Gap, r.B[c] == bio.Gap
			if !gi && !gj {
				ij[pi], ji[pj] = pj, pi
			}
			if !gi {
				pi++
			}
			if !gj {
				pj++
			}
		}
		lib.to[i][j], lib.to[j][i] = ij, ji
	})
	if err != nil {
		return nil, nil, err
	}
	for k, p := range pairs {
		i, j := p[0], p[1]
		dist.Set(i, j, 1-ids[k])
		w := ids[k]
		if w <= 0 {
			w = 0.01 // unrelated pairs still contribute minimal support
		}
		lib.w[i][j], lib.w[j][i] = w, w
	}
	return lib, dist, nil
}

// group is a partially aligned set of rows: row x is sequence ids[x],
// its residue a sits in column cols[x][a], and the rows are width
// columns wide. Rows become bytes once, at the root.
type group struct {
	ids   []int
	cols  [][]int32
	width int
}

// progressive merges groups up the guide tree, scoring columns by
// average library support. The merges run as a parallel post-order
// schedule (tree.ParallelReduce): disjoint subtrees merge concurrently
// on Workers workers against the read-only library; output is
// byte-identical for every Workers value.
//
// It cannot run on msa's progressive merge driver, whose pair step sees
// two *profile.Profile, which are letter counts per column; this merge
// scores a column pair by summing library support over (sequence,
// residue) pairs, and a profile cannot tell which sequence put which
// residue in a column. What the engines can share is the schedule,
// tree.ParallelReduce, and they already do.
func (a *Aligner) progressive(ctx context.Context, seqs [][]byte, gt *tree.Node, lib *library) ([][]byte, []int, error) {
	ctx, psp := obs.Start(ctx, "progressive")
	defer psp.End()
	psp.SetInt("n", int64(len(seqs)))
	psp.SetInt("workers", int64(a.workers))
	leaf := func(n *tree.Node) (*group, error) {
		if n.ID < 0 || n.ID >= len(seqs) {
			return nil, fmt.Errorf("cons: leaf id %d out of range", n.ID)
		}
		cols := make([]int32, len(seqs[n.ID]))
		for i := range cols {
			cols[i] = int32(i)
		}
		return &group{ids: []int{n.ID}, cols: [][]int32{cols}, width: len(cols)}, nil
	}
	merge := func(mi tree.Merge, l, r *group) (*group, error) {
		_, msp := obs.StartDepth(ctx, "mergenode", mi.Depth)
		defer msp.End()
		msp.SetInt("depth", int64(mi.Depth))
		msp.SetInt("rows", int64(len(l.ids)+len(r.ids)))
		return a.mergeGroups(ctx, l, r, lib)
	}
	g, err := tree.ParallelReduce(ctx, gt, a.workers, leaf, merge)
	if err != nil {
		return nil, nil, err
	}
	if g == nil {
		return nil, nil, fmt.Errorf("cons: empty guide tree")
	}
	rows := make([][]byte, len(g.ids))
	for x, id := range g.ids {
		rows[x] = bytes.Repeat([]byte{bio.Gap}, g.width)
		for a, c := range g.cols[x] {
			rows[x][c] = seqs[id][a]
		}
	}
	return rows, g.ids, nil
}

// mergeGroups aligns two groups with a linear-gap DP over average library
// support (T-Coffee's progressive stage runs with zero gap penalties: the
// extended library already encodes where gaps belong). Each sequence
// pair with one row on either side is scored here and nowhere else, so
// this is where its consistency support is summed; ctx is checked once
// per row of l. l and r are consumed: their column maps are rewritten
// into the merged group's.
func (a *Aligner) mergeGroups(ctx context.Context, l, r *group, lib *library) (*group, error) {
	wa, wb := l.width, r.width
	var err error
	width := 0
	dp.With(func(w *dp.Workspace) {
		w.ReserveTB(0)
		// sc[ca*wb+cb] sums the support of every residue pair in column
		// pair (ca, cb), one term per row pair, in row-pair order.
		sc := w.Floats(wa * wb)
		acc := w.Floats(wb) // no row of r has more residues than columns
		for x, i := range l.ids {
			if err = ctx.Err(); err != nil {
				return
			}
			for y, j := range r.ids {
				lib.support(sc, wb, i, j, l.cols[x], r.cols[y], acc)
			}
		}
		den := float64(len(l.ids) * len(r.ids))
		for c := range sc {
			sc[c] /= den
		}
		// NW with zero gap cost, maximising total support.
		mat := w.Floats((wa + 1) * (wb + 1))
		cols := wb + 1
		for i := 1; i <= wa; i++ {
			row := i * cols
			prev := row - cols
			for j := 1; j <= wb; j++ {
				best := mat[prev+j-1] + sc[(i-1)*wb+j-1]
				if mat[prev+j] > best {
					best = mat[prev+j]
				}
				if mat[row+j-1] > best {
					best = mat[row+j-1]
				}
				mat[row+j] = best
			}
		}
		// The traceback numbers the merged columns from the right.
		toL, toR := w.Ints(wa), w.Ints(wb)
		i, j := wa, wb
		for i > 0 || j > 0 {
			switch {
			case i > 0 && j > 0 && mat[i*cols+j] == mat[(i-1)*cols+j-1]+sc[(i-1)*wb+j-1]:
				i--
				j--
				toL[i], toR[j] = int32(width), int32(width)
			case i > 0 && mat[i*cols+j] == mat[(i-1)*cols+j]:
				i--
				toL[i] = int32(width)
			default:
				j--
				toR[j] = int32(width)
			}
			width++
		}
		remap := func(rows [][]int32, to []int32) {
			for _, row := range rows {
				for k, c := range row {
					row[k] = int32(width-1) - to[c]
				}
			}
		}
		remap(l.cols, toL)
		remap(r.cols, toR)
	})
	if err != nil {
		return nil, err
	}
	return &group{ids: slices.Concat(l.ids, r.ids), cols: slices.Concat(l.cols, r.cols), width: width}, nil
}
