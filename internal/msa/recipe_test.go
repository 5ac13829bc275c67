package msa

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bio"
	"repro/internal/profile"
	"repro/internal/submat"
	"repro/internal/tree"
)

// The reference merge chain: what alignWithTreePairs did at every node
// before a group became a recipe — rows rebuilt with mergeRows (refine_ref_test.go),
// ids concatenated, a profile available from profile.FromRows of those
// rows — kept test-only. It also carries the profile.Merge chain, so
// one walk yields both sides of "carried ≡ rebuilt".
type refGroup struct {
	rows    [][]byte
	ids     []int
	carried *profile.Profile
}

// refReduce walks gt in post-order. Every merge asks pair for a path
// between the two carried profiles, and check (if not nil) sees each
// merged node's carried profile beside the one rebuilt from its rows.
func refReduce(t *testing.T, gt *tree.Node, seqs []bio.Sequence, weights []float64, pair pairPath,
	check func(carried, rebuilt *profile.Profile)) refGroup {
	t.Helper()
	alpha := bio.AminoAcids
	weightsOf := func(ids []int) []float64 {
		if weights == nil {
			return nil
		}
		w := make([]float64, len(ids))
		for i, id := range ids {
			w[i] = weights[id]
		}
		return w
	}
	var walk func(n *tree.Node) refGroup
	walk = func(n *tree.Node) refGroup {
		if n.IsLeaf() {
			g := refGroup{rows: [][]byte{bio.Ungap(seqs[n.ID].Data)}, ids: []int{n.ID}}
			p, err := profile.FromRows(alpha, g.rows, weightsOf(g.ids))
			if err != nil {
				t.Fatal(err)
			}
			g.carried = p
			return g
		}
		l, r := walk(n.Left), walk(n.Right)
		path, err := pair(l.carried, r.carried)
		if err != nil {
			t.Fatal(err)
		}
		g := refGroup{
			rows: mergeRows(l.rows, r.rows, path),
			ids:  append(append([]int(nil), l.ids...), r.ids...),
		}
		if g.carried, err = profile.Merge(l.carried, r.carried, path); err != nil {
			t.Fatal(err)
		}
		if check != nil {
			rebuilt, err := profile.FromRows(alpha, g.rows, weightsOf(g.ids))
			if err != nil {
				t.Fatal(err)
			}
			check(g.carried, rebuilt)
		}
		return g
	}
	return walk(gt)
}

// shapedTree builds a guide tree over leaves 0..n-1 in a random
// assignment: "balanced" halves, "caterpillar" peels one leaf per level
// (on a random side, so spines run both ways), "random" splits anywhere.
func shapedTree(rng *rand.Rand, shape string, n int) *tree.Node {
	ids := rng.Perm(n)
	var build func(ids []int) *tree.Node
	build = func(ids []int) *tree.Node {
		if len(ids) == 1 {
			return &tree.Node{ID: ids[0]}
		}
		cut := len(ids) / 2
		switch shape {
		case "caterpillar":
			cut = 1
			if rng.Intn(2) == 0 {
				cut = len(ids) - 1
			}
		case "random":
			cut = 1 + rng.Intn(len(ids)-1)
		}
		return &tree.Node{ID: -1, Left: build(ids[:cut]), Right: build(ids[cut:])}
	}
	return build(ids)
}

// recipeSeqs draws n sequences of 1–30 residues; with unknown set,
// about one residue in ten is a letter outside the alphabet.
func recipeSeqs(rng *rand.Rand, n int, unknown bool) []bio.Sequence {
	letters := bio.AminoAcids.Letters()
	seqs := make([]bio.Sequence, n)
	for i := range seqs {
		data := make([]byte, 1+rng.Intn(30))
		for k := range data {
			data[k] = letters[rng.Intn(len(letters))]
			if unknown && rng.Intn(10) == 0 {
				data[k] = "XBZ"[rng.Intn(3)]
			}
		}
		seqs[i] = bio.Sequence{ID: fmt.Sprintf("s%d", i), Data: data}
	}
	return seqs
}

// randomPairPath returns a pairPath that ignores scores: a random valid
// path, a function of the two lengths and the seed alone — so the
// driver and the reference chain, asking in different orders, are given
// the same path at the same node. Paths open and close on any op.
func randomPairPath(seed int64) pairPath {
	return func(pl, pr *profile.Profile) (profile.Path, error) {
		n, m := pl.Len(), pr.Len()
		rng := rand.New(rand.NewSource(seed + int64(n)*1_000_003 + int64(m)))
		path := make(profile.Path, 0, n+m)
		for i, j := 0, 0; i < n || j < m; {
			switch op := profile.Op(rng.Intn(3)); {
			case op == profile.OpMatch && i < n && j < m:
				path = append(path, op)
				i++
				j++
			case op == profile.OpA && i < n:
				path = append(path, op)
				i++
			case op == profile.OpB && j < m:
				path = append(path, op)
				j++
			}
		}
		return path, nil
	}
}

// TestRecipeRowsMatchMergeRowsChain: the rows alignWithTreePairs builds
// once at the root, by pushing a column map down its tree of paths, are
// the rows the per-node mergeRows chain produces from the same paths.
func TestRecipeRowsMatchMergeRowsChain(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, shape := range []string{"balanced", "caterpillar", "random"} {
		for trial := 0; trial < 40; trial++ {
			n := 2 + rng.Intn(39)
			seqs := recipeSeqs(rng, n, trial%2 == 1)
			gt := shapedTree(rng, shape, n)
			pair := randomPairPath(rng.Int63())

			ref := refReduce(t, gt, seqs, nil, pair, nil)
			want := &Alignment{Seqs: make([]bio.Sequence, n)}
			for k, id := range ref.ids {
				want.Seqs[id] = bio.Sequence{ID: seqs[id].ID, Data: ref.rows[k]}
			}
			want.RemoveAllGapColumns()

			for _, workers := range []int{1, 4} {
				p := NewProgressive(Options{Workers: workers})
				got, err := p.alignWithTreePairs(context.Background(), seqs, gt, nil, pair)
				if err != nil {
					t.Fatalf("%s n=%d workers=%d: %v", shape, n, workers, err)
				}
				checkPreservesSequences(t, got, seqs)
				for i := range want.Seqs {
					if !bytes.Equal(got.Seqs[i].Data, want.Seqs[i].Data) {
						t.Fatalf("%s n=%d workers=%d row %d:\n got %s\nwant %s",
							shape, n, workers, i, got.Seqs[i].Data, want.Seqs[i].Data)
					}
				}
			}
		}
	}
}

// TestCarriedProfileMatchesRebuilt: profile.Merge chained up a whole
// guide tree against profile.FromRows of the rows at every node —
// exactly equal with unit weights over the alphabet's letters (every
// count is a small integer), within 1e-12 once weights or spread
// unknown residues make the counts fractions: (ΣA)+(ΣB) is then not the
// row-by-row sum to the last bit.
func TestCarriedProfileMatchesRebuilt(t *testing.T) {
	palign := profile.NewAligner(submat.BLOSUM62, submat.DefaultProteinGap)
	pair := func(pl, pr *profile.Profile) (profile.Path, error) {
		path, _ := palign.Align(pl, pr)
		return path, nil
	}
	rng := rand.New(rand.NewSource(61))
	for _, tc := range []struct {
		name              string
		weighted, unknown bool
		tol               float64
	}{
		{"unit", false, false, 0},
		{"weighted", true, false, 1e-12},
		{"unknown", false, true, 1e-12},
	} {
		for _, shape := range []string{"balanced", "caterpillar", "random"} {
			for trial := 0; trial < 10; trial++ {
				n := 2 + rng.Intn(39)
				seqs := recipeSeqs(rng, n, tc.unknown)
				gt := shapedTree(rng, shape, n)
				var weights []float64
				if tc.weighted {
					weights = make([]float64, n)
					for i := range weights {
						weights[i] = 0.05 + 3*rng.Float64()
					}
				}
				tag := fmt.Sprintf("%s/%s n=%d", tc.name, shape, n)
				refReduce(t, gt, seqs, weights, pair, func(carried, rebuilt *profile.Profile) {
					assertProfilesWithin(t, tag, carried, rebuilt, tc.tol)
				})
			}
		}
	}
}

// assertProfilesWithin compares two profiles value by value; tol == 0
// demands identical bits.
func assertProfilesWithin(t *testing.T, tag string, got, want *profile.Profile, tol float64) {
	t.Helper()
	same := func(what string, col int, g, w float64) {
		t.Helper()
		if (tol == 0 && math.Float64bits(g) != math.Float64bits(w)) || math.Abs(g-w) > tol {
			t.Fatalf("%s: %s of column %d: carried %v (%#x), rebuilt %v (%#x)",
				tag, what, col, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d columns carried, %d rebuilt", tag, got.Len(), want.Len())
	}
	same("weight", -1, got.Weight, want.Weight)
	for c := range want.Cols {
		same("gaps", c, got.Cols[c].Gaps, want.Cols[c].Gaps)
		for k := range want.Cols[c].Counts {
			same("count", c, got.Cols[c].Counts[k], want.Cols[c].Counts[k])
		}
	}
}
