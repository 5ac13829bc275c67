// Package cons implements a T-Coffee-like consistency-based multiple
// aligner (Notredame, Higgins & Heringa 2000) for the paper's Table 2
// baseline: a library of weighted residue pairs is built from all global
// pairwise alignments, extended through third sequences (the consistency
// transform), and a progressive alignment then maximises library support
// instead of raw substitution scores.
//
// Consistency methods are accurate but expensive — O(N³·L) extension and
// a library of O(N²·L) pairs — which is exactly why T-Coffee "is reported
// to not able to handle more than 10² sequences" in the paper. Use on
// PREFAB-sized sets.
package cons

import (
	"context"
	"fmt"
	"math"
	"sort"

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

// pairKey identifies an ordered residue pair between two sequences.
type pairKey struct {
	posI, posJ int32
}

// library holds, for every sequence pair (i<j), the weighted residue
// pairs supporting their alignment.
type library struct {
	n     int
	pairs []map[pairKey]float64 // indexed by pairIdx(i,j)
}

func newLibrary(n int) *library {
	return &library{n: n, pairs: make([]map[pairKey]float64, n*(n-1)/2)}
}

func (l *library) idx(i, j int) int {
	// caller guarantees i < j
	return i*(2*l.n-i-1)/2 + (j - i - 1)
}

func (l *library) get(i, j int) map[pairKey]float64 {
	if m := l.pairs[l.idx(i, j)]; m != nil {
		return m
	}
	m := map[pairKey]float64{}
	l.pairs[l.idx(i, j)] = m
	return m
}

// weight looks up the library weight of residue a of sequence i aligned
// to residue b of sequence j (any order).
func (l *library) weight(i int, a int, j int, b int) float64 {
	if i == j {
		return 0
	}
	if i > j {
		i, j, a, b = j, i, b, a
	}
	m := l.pairs[l.idx(i, j)]
	if m == nil {
		return 0
	}
	return m[pairKey{int32(a), int32(b)}]
}

// AlignContext runs the full consistency pipeline under a context:
// cancellation is observed per sequence pair in the library build and
// the consistency extension, and per guide-tree merge.
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
	lib, dist, err := a.buildLibrary(ctx, clean)
	if err == nil && a.extend {
		lib, err = a.extendLibrary(ctx, lib, clean)
	}
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
	lib := newLibrary(n)
	dist := kmer.NewMatrix(n)
	pw := pairwise.Aligner{Sub: submat.BLOSUM62, Gap: submat.DefaultProteinGap}

	type pairResult struct {
		i, j int
		id   float64
		keys []pairKey
	}
	var pairs [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	results := make([]pairResult, len(pairs))
	err := par.ForCtx(ctx, len(pairs), 1, a.workers, func(k, _ int) {
		i, j := pairs[k][0], pairs[k][1]
		r := pw.Global(seqs[i], seqs[j])
		id := pairwise.Identity(r.A, r.B)
		var keys []pairKey
		pi, pj := 0, 0
		for c := range r.A {
			gi, gj := r.A[c] == bio.Gap, r.B[c] == bio.Gap
			if !gi && !gj {
				keys = append(keys, pairKey{int32(pi), int32(pj)})
			}
			if !gi {
				pi++
			}
			if !gj {
				pj++
			}
		}
		results[k] = pairResult{i: i, j: j, id: id, keys: keys}
	})
	if err != nil {
		return nil, nil, err
	}
	for _, r := range results {
		dist.Set(r.i, r.j, 1-r.id)
		m := lib.get(r.i, r.j)
		w := r.id
		if w <= 0 {
			w = 0.01 // unrelated pairs still contribute minimal support
		}
		for _, k := range r.keys {
			m[k] += w
		}
	}
	return lib, dist, nil
}

// extendLibrary applies the triplet consistency transform: the support
// for (i,a)↔(j,b) grows by min(w(i,a,k,c), w(k,c,j,b)) summed over all
// third sequences k that align both to the same residue c.
func (a *Aligner) extendLibrary(ctx context.Context, lib *library, seqs [][]byte) (*library, error) {
	n := len(seqs)
	out := newLibrary(n)
	// adjacency: for pair (x,k), map residue of x → (residue of k, w)
	type edge struct {
		to int32
		w  float64
	}
	adj := make([][]map[int32][]edge, n)
	for x := 0; x < n; x++ {
		adj[x] = make([]map[int32][]edge, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m := lib.pairs[lib.idx(i, j)]
			if m == nil {
				continue
			}
			// Build the adjacency from sorted keys, not map order:
			// the extension below accumulates min-weights in edge-list
			// order, and float rounding makes that order visible in the
			// support values across runs.
			keys := make([]pairKey, 0, len(m))
			for k := range m {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(a, b int) bool {
				if keys[a].posI != keys[b].posI {
					return keys[a].posI < keys[b].posI
				}
				return keys[a].posJ < keys[b].posJ
			})
			fwd := map[int32][]edge{}
			rev := map[int32][]edge{}
			for _, k := range keys {
				w := m[k]
				fwd[k.posI] = append(fwd[k.posI], edge{to: k.posJ, w: w})
				rev[k.posJ] = append(rev[k.posJ], edge{to: k.posI, w: w})
			}
			adj[i][j] = fwd
			adj[j][i] = rev
		}
	}
	type job struct{ i, j int }
	var jobs []job
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			jobs = append(jobs, job{i, j})
		}
	}
	mats := make([]map[pairKey]float64, len(jobs))
	err := par.ForCtx(ctx, len(jobs), 1, a.workers, func(t, _ int) {
		i, j := jobs[t].i, jobs[t].j
		acc := map[pairKey]float64{}
		// direct support
		if m := lib.pairs[lib.idx(i, j)]; m != nil {
			for k, w := range m {
				acc[k] += w
			}
		}
		// support through every third sequence
		for k := 0; k < n; k++ {
			if k == i || k == j {
				continue
			}
			ik := adj[i][k]
			kj := adj[k][j]
			if ik == nil || kj == nil {
				continue
			}
			for ai, edges1 := range ik {
				for _, e1 := range edges1 {
					for _, e2 := range kj[e1.to] {
						w := math.Min(e1.w, e2.w)
						acc[pairKey{ai, e2.to}] += w
					}
				}
			}
		}
		mats[t] = acc
	})
	if err != nil {
		return nil, err
	}
	for t, m := range mats {
		out.pairs[out.idx(jobs[t].i, jobs[t].j)] = m
	}
	return out, nil
}

// group is a partially aligned set of rows. ords tracks, per row, the
// residue ordinal at every column (-1 for gap) so library lookups during
// the DP are O(1).
type group struct {
	ids  []int
	rows [][]byte
	ords [][]int32
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
// residue ordinal) pairs, and a profile cannot tell which sequence put
// which residue in a column. What the engines can share is the
// schedule, tree.ParallelReduce, and they already do.
func (a *Aligner) progressive(ctx context.Context, seqs [][]byte, gt *tree.Node, lib *library) ([][]byte, []int, error) {
	ctx, psp := obs.Start(ctx, "progressive")
	defer psp.End()
	psp.SetInt("n", int64(len(seqs)))
	psp.SetInt("workers", int64(a.workers))
	leaf := func(n *tree.Node) (*group, error) {
		if n.ID < 0 || n.ID >= len(seqs) {
			return nil, fmt.Errorf("cons: leaf id %d out of range", n.ID)
		}
		row := seqs[n.ID]
		ords := make([]int32, len(row))
		for i := range ords {
			ords[i] = int32(i)
		}
		return &group{ids: []int{n.ID}, rows: [][]byte{row}, ords: [][]int32{ords}}, nil
	}
	merge := func(mi tree.Merge, l, r *group) (*group, error) {
		_, msp := obs.StartDepth(ctx, "mergenode", mi.Depth)
		defer msp.End()
		msp.SetInt("depth", int64(mi.Depth))
		msp.SetInt("rows", int64(len(l.ids)+len(r.ids)))
		return a.mergeGroups(l, r, lib), nil
	}
	g, err := tree.ParallelReduce(ctx, gt, a.workers, leaf, merge)
	if err != nil {
		return nil, nil, err
	}
	if g == nil {
		return nil, nil, fmt.Errorf("cons: empty guide tree")
	}
	return g.rows, g.ids, nil
}

// mergeGroups aligns two groups with a linear-gap DP over average library
// support (T-Coffee's progressive stage runs with zero gap penalties: the
// extended library already encodes where gaps belong).
func (a *Aligner) mergeGroups(l, r *group, lib *library) *group {
	wa, wb := len(l.rows[0]), len(r.rows[0])
	score := func(ca, cb int) float64 {
		var s float64
		for x, idx := range l.ids {
			oa := l.ords[x][ca]
			if oa < 0 {
				continue
			}
			for y, idy := range r.ids {
				ob := r.ords[y][cb]
				if ob < 0 {
					continue
				}
				s += lib.weight(idx, int(oa), idy, int(ob))
			}
		}
		return s / float64(len(l.ids)*len(r.ids))
	}
	// NW with zero gap cost, maximising total support; the score plane
	// comes from the pooled DP workspace.
	type op byte
	const (
		opM, opA, opB op = 0, 1, 2
	)
	var rev []op
	dp.With(func(w *dp.Workspace) {
		w.ReserveScore(wa+1, wb+1)
		mat := w.MP
		cols := wb + 1
		for j := 0; j <= wb; j++ {
			mat[j] = 0
		}
		for i := 1; i <= wa; i++ {
			row := i * cols
			prev := row - cols
			mat[row] = 0
			for j := 1; j <= wb; j++ {
				best := mat[prev+j-1] + score(i-1, j-1)
				if mat[prev+j] > best {
					best = mat[prev+j]
				}
				if mat[row+j-1] > best {
					best = mat[row+j-1]
				}
				mat[row+j] = best
			}
		}
		// traceback into a merge recipe
		i, j := wa, wb
		for i > 0 || j > 0 {
			switch {
			case i > 0 && j > 0 && mat[i*cols+j] == mat[(i-1)*cols+j-1]+score(i-1, j-1):
				rev = append(rev, opM)
				i--
				j--
			case i > 0 && mat[i*cols+j] == mat[(i-1)*cols+j]:
				rev = append(rev, opA)
				i--
			default:
				rev = append(rev, opB)
				j--
			}
		}
	})
	width := len(rev)
	out := &group{ids: append(append([]int{}, l.ids...), r.ids...)}
	out.rows = make([][]byte, 0, len(out.ids))
	out.ords = make([][]int32, 0, len(out.ids))
	expand := func(g *group, takeA bool) {
		for x := range g.rows {
			row := make([]byte, 0, width)
			ord := make([]int32, 0, width)
			src := 0
			for k := width - 1; k >= 0; k-- {
				o := rev[k]
				consume := o == opM || (takeA && o == opA) || (!takeA && o == opB)
				if consume {
					row = append(row, g.rows[x][src])
					ord = append(ord, g.ords[x][src])
					src++
				} else {
					row = append(row, bio.Gap)
					ord = append(ord, -1)
				}
			}
			out.rows = append(out.rows, row)
			out.ords = append(out.ords, ord)
		}
	}
	expand(l, true)
	expand(r, false)
	return out
}
