package cons

// The reference below is the map-based consistency library this package
// used before its library became one residue map per sequence pair: one
// Go map of residue pairs per sequence pair, an extension materialised
// through adjacency maps, and a merge DP that looks every cell's support
// up row pair by row pair. It is kept as a test oracle. The production
// library's support sums and final rows are held to it bit for bit.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/bio"
	"repro/internal/dp"
	"repro/internal/kmer"
	"repro/internal/msa"
	"repro/internal/pairwise"
	"repro/internal/par"
	"repro/internal/rose"
	"repro/internal/submat"
	"repro/internal/tree"
)

// weight looks up the direct library weight of residue a of sequence i
// aligned to residue b of sequence j (any order).
func (l *library) weight(i int, a int, j int, b int) float64 {
	if i == j || l.to[i][j][a] != int32(b) {
		return 0
	}
	return l.w[i][j]
}

// refPairKey identifies an ordered residue pair between two sequences.
type refPairKey struct {
	posI, posJ int32
}

// refLibrary holds, for every sequence pair (i<j), the weighted residue
// pairs supporting their alignment.
type refLibrary struct {
	n     int
	pairs []map[refPairKey]float64 // indexed by idx(i,j)
}

func newRefLibrary(n int) *refLibrary {
	return &refLibrary{n: n, pairs: make([]map[refPairKey]float64, n*(n-1)/2)}
}

func (l *refLibrary) idx(i, j int) int {
	// caller guarantees i < j
	return i*(2*l.n-i-1)/2 + (j - i - 1)
}

func (l *refLibrary) get(i, j int) map[refPairKey]float64 {
	if m := l.pairs[l.idx(i, j)]; m != nil {
		return m
	}
	m := map[refPairKey]float64{}
	l.pairs[l.idx(i, j)] = m
	return m
}

// weight looks up the library weight of residue a of sequence i aligned
// to residue b of sequence j (any order).
func (l *refLibrary) weight(i int, a int, j int, b int) float64 {
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
	return m[refPairKey{int32(a), int32(b)}]
}

// refBuildLibrary computes all global pairwise alignments; every aligned
// residue pair enters the library weighted by the alignment's fractional
// identity. Also returns the distance matrix (1 − identity).
func refBuildLibrary(ctx context.Context, seqs [][]byte, workers int) (*refLibrary, *kmer.Matrix, error) {
	n := len(seqs)
	lib := newRefLibrary(n)
	dist := kmer.NewMatrix(n)
	pw := pairwise.Aligner{Sub: submat.BLOSUM62, Gap: submat.DefaultProteinGap}

	type pairResult struct {
		i, j int
		id   float64
		keys []refPairKey
	}
	var pairs [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	results := make([]pairResult, len(pairs))
	err := par.ForCtx(ctx, len(pairs), 1, workers, func(k, _ int) {
		i, j := pairs[k][0], pairs[k][1]
		r := pw.Global(seqs[i], seqs[j])
		id := pairwise.Identity(r.A, r.B)
		var keys []refPairKey
		pi, pj := 0, 0
		for c := range r.A {
			gi, gj := r.A[c] == bio.Gap, r.B[c] == bio.Gap
			if !gi && !gj {
				keys = append(keys, refPairKey{int32(pi), int32(pj)})
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
			w = 0.01
		}
		for _, k := range r.keys {
			m[k] += w
		}
	}
	return lib, dist, nil
}

// refExtendLibrary applies the triplet consistency transform: the
// support for (i,a)↔(j,b) grows by min(w(i,a,k,c), w(k,c,j,b)) summed
// over all third sequences k that align both to the same residue c.
func refExtendLibrary(ctx context.Context, lib *refLibrary, seqs [][]byte, workers int) (*refLibrary, error) {
	n := len(seqs)
	out := newRefLibrary(n)
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
			keys := make([]refPairKey, 0, len(m))
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
	mats := make([]map[refPairKey]float64, len(jobs))
	err := par.ForCtx(ctx, len(jobs), 1, workers, func(t, _ int) {
		i, j := jobs[t].i, jobs[t].j
		acc := map[refPairKey]float64{}
		if m := lib.pairs[lib.idx(i, j)]; m != nil {
			for k, w := range m {
				acc[k] += w
			}
		}
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
						acc[refPairKey{ai, e2.to}] += w
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

// refGroup is a partially aligned set of rows; ords holds, per row, the
// residue ordinal at every column (-1 for gap).
type refGroup struct {
	ids  []int
	rows [][]byte
	ords [][]int32
}

// refProgressive merges groups up the guide tree, scoring columns by
// average library support.
func refProgressive(ctx context.Context, seqs [][]byte, gt *tree.Node, lib *refLibrary, workers int) ([][]byte, []int, error) {
	leaf := func(n *tree.Node) (*refGroup, error) {
		row := seqs[n.ID]
		ords := make([]int32, len(row))
		for i := range ords {
			ords[i] = int32(i)
		}
		return &refGroup{ids: []int{n.ID}, rows: [][]byte{row}, ords: [][]int32{ords}}, nil
	}
	merge := func(_ tree.Merge, l, r *refGroup) (*refGroup, error) {
		return refMergeGroups(l, r, lib), nil
	}
	g, err := tree.ParallelReduce(ctx, gt, workers, leaf, merge)
	if err != nil {
		return nil, nil, err
	}
	return g.rows, g.ids, nil
}

// refMergeGroups aligns two groups with a zero-gap DP over average
// library support, looking each cell's support up row pair by row pair.
func refMergeGroups(l, r *refGroup, lib *refLibrary) *refGroup {
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
	type op byte
	const (
		opM, opA, opB op = 0, 1, 2
	)
	var rev []op
	dp.With(func(w *dp.Workspace) {
		w.ReserveTB(0)
		mat := w.Floats((wa + 1) * (wb + 1))
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
	out := &refGroup{ids: append(append([]int{}, l.ids...), r.ids...)}
	expand := func(g *refGroup, takeA bool) {
		for x := range g.rows {
			row := make([]byte, 0, width)
			ord := make([]int32, 0, width)
			src := 0
			for k := width - 1; k >= 0; k-- {
				o := rev[k]
				if o == opM || (takeA && o == opA) || (!takeA && o == opB) {
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

// refAlign runs the reference pipeline: library, extension when extend
// is set, NJ guide tree, progressive merges. It returns the reference
// library the merges scored with and the rows in input order.
func refAlign(t testing.TB, seqs [][]byte, extend bool, workers int) (*refLibrary, [][]byte) {
	t.Helper()
	ctx := context.Background()
	lib, dist, err := refBuildLibrary(ctx, seqs, workers)
	if err == nil && extend {
		lib, err = refExtendLibrary(ctx, lib, seqs, workers)
	}
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(seqs))
	for i := range ids {
		ids[i] = fmt.Sprint("s", i)
	}
	gt := tree.NeighborJoiningWorkers(dist, ids, workers)
	rows, order, err := refProgressive(ctx, seqs, gt, lib, workers)
	if err != nil {
		t.Fatal(err)
	}
	aln := &msa.Alignment{Seqs: make([]bio.Sequence, len(seqs))}
	for k, idx := range order {
		aln.Seqs[idx] = bio.Sequence{ID: ids[idx], Data: rows[k]}
	}
	aln.RemoveAllGapColumns()
	out := make([][]byte, len(seqs))
	for i, s := range aln.Seqs {
		out[i] = s.Data
	}
	return lib, out
}

// checkAgainstReference holds the library's support sums for every
// ordered sequence pair, and the aligner's rows, to the reference bit
// for bit.
func checkAgainstReference(t testing.TB, seqs [][]byte, extend bool, workers int) {
	t.Helper()
	ref, refRows := refAlign(t, seqs, extend, workers)
	al := &Aligner{extend: extend, workers: workers}
	lib, _, err := al.buildLibrary(context.Background(), seqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seqs {
		for j := range seqs {
			if i == j {
				continue
			}
			li, lj := len(seqs[i]), len(seqs[j])
			m := make([]float64, li*lj)
			lib.support(m, lj, i, j, identityCols(li), identityCols(lj), make([]float64, lj))
			for a := range li {
				for b := range lj {
					got, want := m[a*lj+b], ref.weight(i, a, j, b)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("extend=%v support of (%d:%d, %d:%d) = %v, reference %v",
							extend, i, a, j, b, got, want)
					}
				}
			}
		}
	}
	in := make([]bio.Sequence, len(seqs))
	for i, s := range seqs {
		in[i] = bio.Sequence{ID: fmt.Sprint("s", i), Data: s}
	}
	aln, err := al.AlignContext(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range refRows {
		if !bytes.Equal(aln.Seqs[i].Data, refRows[i]) {
			t.Fatalf("extend=%v workers=%d row %d:\n got %s\nwant %s",
				extend, workers, i, aln.Seqs[i].Data, refRows[i])
		}
	}
}

func identityCols(n int) []int32 {
	c := make([]int32, n)
	for i := range c {
		c[i] = int32(i)
	}
	return c
}

func ungapped(seqs []bio.Sequence) [][]byte {
	out := make([][]byte, len(seqs))
	for i, s := range seqs {
		out[i] = bio.Ungap(s.Data)
	}
	return out
}

func TestSupportMatchesReference(t *testing.T) {
	for _, n := range []int{5, 12, 25} {
		seqs := ungapped(famSeqs(t, n, 70, 600, int64(n)))
		for _, extend := range []bool{true, false} {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("n%d/extend=%v/workers%d", n, extend, workers), func(t *testing.T) {
					checkAgainstReference(t, seqs, extend, workers)
				})
			}
		}
	}
}

// FuzzSupportMatchesReference draws families of up to 12 sequences of up
// to 60 residues, from near-identical to unrelated, and holds both the
// extended and the direct library to the reference.
func FuzzSupportMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(40))
	f.Add(int64(2), uint8(12), uint8(60))
	f.Add(int64(3), uint8(2), uint8(1))
	f.Add(int64(4), uint8(9), uint8(8))
	f.Fuzz(func(t *testing.T, seed int64, n, length uint8) {
		rng := rand.New(rand.NewSource(seed))
		fam, err := rose.Evolve(rose.Config{
			N:           2 + int(n)%11,
			MeanLen:     1 + int(length)%60,
			Relatedness: float64(50 + rng.Intn(2000)),
			Seed:        seed,
		})
		if err != nil {
			t.Skip(err)
		}
		seqs := ungapped(fam.Seqs())
		for _, s := range seqs {
			if len(s) == 0 {
				t.Skip("an empty leaf")
			}
		}
		checkAgainstReference(t, seqs, true, 1)
		checkAgainstReference(t, seqs, false, 1)
	})
}
