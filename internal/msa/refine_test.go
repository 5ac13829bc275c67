package msa

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bio"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/submat"
	"repro/internal/tree"
)

// refineModel is a scoring model the refinement tests run under.
type refineModel struct {
	name string
	sub  *submat.Matrix
	gap  submat.Gap
}

// engine returns a progressive engine scoring with the model.
func (m refineModel) engine(workers int) *Progressive {
	p := NewProgressive(Options{Workers: workers})
	p.sub, p.gap = m.sub, m.gap
	return p
}

// refineModels are the two scoring models the refinement tests run
// under: the default (BLOSUM62 and 11/1 gaps — all integers, so every
// sum is exact whatever its order) and a non-dyadic one (BLOSUM62 ÷ 3,
// gaps 2.9/0.3) whose sums round, so a changed addition order shows in
// the last bits.
func refineModels() []refineModel {
	L := bio.AminoAcids.Len()
	table := make([][]float64, L)
	for i := range table {
		table[i] = make([]float64, L)
		for j := range table[i] {
			table[i][j] = submat.BLOSUM62.ScoreIdx(i, j) / 3
		}
	}
	third := submat.New("BLOSUM62/3", bio.AminoAcids, table, -4.0/3)
	return []refineModel{
		{"blosum62", submat.BLOSUM62, submat.DefaultProteinGap},
		{"third", third, submat.Gap{Open: 2.9, Extend: 0.3}},
	}
}

// refineSizes straddle the objective's switch from exact SP (≤ 63 rows)
// to the sampled pair list (≥ 64).
var refineSizes = []int{3, 12, 40, 63, 64, 90}

// refineInput is one kind of alignment refinement is handed. odd puts
// residues outside the alphabet (X, B, Z and a stray byte, each of
// which a side profile spreads as 1/L on every letter) and lowercase
// letters into the sequences; caterpillar aligns them along a
// caterpillar guide tree, whose splits run from one row to all but one,
// so each side is the smaller one in turn.
type refineInput struct {
	name             string
	odd, caterpillar bool
	sizes            []int
	seeds            int64 // inputs per size in TestRefineMatchesOracle
}

var refineInputs = []refineInput{
	{name: "family", sizes: refineSizes, seeds: 2},
	{name: "odd", odd: true, sizes: []int{12, 40, 63, 90}, seeds: 1},
	{name: "odd-caterpillar", odd: true, caterpillar: true, sizes: []int{12, 63, 90}, seeds: 1},
}

// build aligns one `family` set progressively along its guide tree:
// what RefineAlignmentContext is handed by the engines.
func (in refineInput) build(t *testing.T, model refineModel, n int, seed int64) (*Alignment, *tree.Node) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	seqs := family(rng, n, 24, 0.25)
	if in.odd {
		for _, s := range seqs {
			for i, b := range s.Data {
				switch r := rng.Float64(); {
				case r < 0.03:
					s.Data[i] = "XBZ#"[rng.Intn(4)]
				case r < 0.15:
					s.Data[i] = b - 'A' + 'a'
				}
			}
		}
	}
	p := model.engine(0)
	var gt *tree.Node
	if in.caterpillar {
		order := rng.Perm(n)
		gt = &tree.Node{ID: order[0]}
		for _, i := range order[1:] {
			gt = &tree.Node{ID: -1, Left: gt, Right: &tree.Node{ID: i}}
		}
	} else {
		d, err := p.DistanceMatrixContext(context.Background(), seqs)
		if err != nil {
			t.Fatal(err)
		}
		gt = p.GuideTree(d, seqs)
	}
	aln, err := p.AlignWithTreeContext(context.Background(), seqs, gt, nil)
	if err != nil {
		t.Fatal(err)
	}
	return aln, gt
}

// TestRefineMatchesOracle: refinement with the pair-score table and
// the side profiles from column totals returns the alignment and the
// final objective value of the full-re-score sequential greedy loop
// (refine_ref_test.go), byte for byte and bit for bit, on both branches
// of the objective, for every Workers value, under a model whose sums
// depend on addition order, and on inputs with residues outside the
// alphabet and a caterpillar guide tree.
func TestRefineMatchesOracle(t *testing.T) {
	accepted := 0
	for _, model := range refineModels() {
		for _, in := range refineInputs {
			for _, n := range in.sizes {
				for seed := int64(1); seed <= in.seeds; seed++ {
					aln, gt := in.build(t, model, n, 100*int64(n)+seed)
					want, wantScore := model.engine(0).refRefine(aln, gt, 2)
					for _, workers := range []int{1, 3, 8} {
						got, st, err := model.engine(workers).refine(context.Background(), aln, gt, 2)
						if err != nil {
							t.Fatal(err)
						}
						name := fmt.Sprintf("%s %s n=%d seed=%d workers=%d", model.name, in.name, n, seed, workers)
						if !bytes.Equal(renderAlignment(got), renderAlignment(want)) {
							t.Fatalf("%s: alignment differs from the oracle's", name)
						}
						if math.Float64bits(st.score) != math.Float64bits(wantScore) {
							t.Fatalf("%s: final objective %v (%#x), oracle %v (%#x)", name,
								st.score, math.Float64bits(st.score), wantScore, math.Float64bits(wantScore))
						}
						if st.judged > st.evaluated || (workers == 1 && st.judged != st.evaluated) {
							t.Fatalf("%s: judged %d, evaluated %d", name, st.judged, st.evaluated)
						}
						accepted += st.accepted
					}
				}
			}
		}
	}
	if accepted == 0 {
		t.Fatal("no refinement step was accepted anywhere: the comparison is vacuous")
	}
}

// randomSides returns the side masks of a random leaf, cherry, half and
// all-but-one subset of n rows.
func randomSides(rng *rand.Rand, n int) [][]bool {
	var out [][]bool
	for _, size := range []int{1, 2, n / 2, n - 1} {
		if size <= 0 || size >= n {
			continue
		}
		side := make([]bool, n)
		for _, i := range rng.Perm(n)[:size] {
			side[i] = true
		}
		out = append(out, side)
	}
	return out
}

// treeSides returns the side masks of up to eight of gt's edges, spread
// over its post-order.
func treeSides(gt *tree.Node, n int) [][]bool {
	var all [][]bool
	gt.PostOrder(func(nd *tree.Node) {
		if nd == gt {
			return
		}
		side := make([]bool, n)
		for _, i := range nd.Leaves() {
			side[i] = true
		}
		all = append(all, side)
	})
	step := max(1, len(all)/8)
	var out [][]bool
	for k := 0; k < len(all); k += step {
		out = append(out, all[k])
	}
	return out
}

// sideProfile is the oracle's profile of one part of a split: its rows
// cloned, their all-gap columns removed, FromRows.
func sideProfile(t *testing.T, aln *Alignment, side []bool, want bool) *profile.Profile {
	t.Helper()
	var part Alignment
	for i, s := range aln.Seqs {
		if side[i] == want {
			part.Seqs = append(part.Seqs, s.Clone())
		}
	}
	part.RemoveAllGapColumns()
	p, err := part.Profile(bio.AminoAcids)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// sameProfileBits reports where two profiles differ in any float's bits.
func sameProfileBits(got, want *profile.Profile) error {
	if math.Float64bits(got.Weight) != math.Float64bits(want.Weight) || got.Len() != want.Len() {
		return fmt.Errorf("weight %v over %d columns, want %v over %d", got.Weight, got.Len(), want.Weight, want.Len())
	}
	for c := range got.Cols {
		g, w := &got.Cols[c], &want.Cols[c]
		if math.Float64bits(g.Gaps) != math.Float64bits(w.Gaps) {
			return fmt.Errorf("column %d: gaps %v, want %v", c, g.Gaps, w.Gaps)
		}
		for x := range g.Counts {
			if math.Float64bits(g.Counts[x]) != math.Float64bits(w.Counts[x]) {
				return fmt.Errorf("column %d letter %d: count %v (%#x), want %v (%#x)", c, x,
					g.Counts[x], math.Float64bits(g.Counts[x]), w.Counts[x], math.Float64bits(w.Counts[x]))
			}
		}
	}
	return nil
}

// TestRefineCandidateScoreAndInvariant takes single steps: for random
// splits and guide-tree splits of progressive alignments, the side
// profiles built from the smaller side and the column totals are the
// oracle's FromRows profiles float for float, unknown-residue columns
// included; the candidate's merged alignment is the oracle's bytes; its
// table with only the crossing pairs re-scored on code rows totals to
// the full re-score of the candidate, bit for bit; and the reason it
// may — every same-side pair scores the same float64 before and after
// the realignment — holds for all pairs, listed or not. The candidate
// validates (no all-gap column) and keeps every row's residues.
func TestRefineCandidateScoreAndInvariant(t *testing.T) {
	unknownCols := 0
	for _, model := range refineModels() {
		p := model.engine(0)
		sub, gap := model.sub, model.gap
		sc := newPairScorer(sub, gap)
		for _, in := range refineInputs {
			for _, n := range in.sizes {
				aln, gt := in.build(t, model, n, 7000+int64(n))
				rng := rand.New(rand.NewSource(int64(n)))
				obj := newSPObjective(n, sc)
				base := newRefineBase(aln, sc)
				for _, u := range base.unk {
					if u {
						unknownCols++
					}
				}
				table := make([]float64, len(obj.pairs))
				if got := obj.rescore(table, base.codes, nil); got != len(table) {
					t.Fatalf("n=%d: full rescore touched %d of %d pairs", n, got, len(table))
				}
				if got, want := obj.total(table), p.refRefineScore(aln); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s %s n=%d: table total %v, full score %v", model.name, in.name, n, got, want)
				}
				w := &splitWork{table: make([]float64, len(table))}
				sides := randomSides(rng, n)
				if in.caterpillar {
					sides = append(sides, treeSides(gt, n)...)
				}
				for _, side := range sides {
					var idx []int
					for i, a := range side {
						if a {
							idx = append(idx, i)
						}
					}
					name := fmt.Sprintf("%s %s n=%d |A|=%d", model.name, in.name, n, len(idx))
					pa, pb, _, _ := w.profiles(sub.Alphabet(), base, side)
					if err := sameProfileBits(pa, sideProfile(t, aln, side, true)); err != nil {
						t.Fatalf("%s: side A profile: %v", name, err)
					}
					if err := sameProfileBits(pb, sideProfile(t, aln, side, false)); err != nil {
						t.Fatalf("%s: side B profile: %v", name, err)
					}

					copy(w.table, table)
					c := w.evaluate(p, base, obj, side)
					cand := w.merge(aln, side)
					ref, err := p.refRealignSplit(aln, idx)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(renderAlignment(cand), renderAlignment(ref)) {
						t.Fatalf("%s: candidate differs from the oracle's", name)
					}
					if err := cand.Validate(); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					checkPreservesSequences(t, cand, aln.Ungapped())

					if want := min(len(idx), n-len(idx)); c.walked != want {
						t.Fatalf("%s: walked %d rows, the smaller side has %d", name, c.walked, want)
					}
					touched := map[int32]bool{}
					for _, pr := range obj.pairs {
						if side[pr[0]] != side[pr[1]] {
							touched[pr[0]], touched[pr[1]] = true, true
						}
					}
					if c.built != len(touched) || (obj.exact && c.built != n) {
						t.Fatalf("%s: built %d rows, crossing pairs touch %d", name, c.built, len(touched))
					}
					if obj.exact && c.rescored != len(idx)*(n-len(idx)) {
						t.Fatalf("%s: %d pairs re-scored, |A|·|B| = %d", name, c.rescored, len(idx)*(n-len(idx)))
					}
					if c.rescored >= len(table) {
						t.Fatalf("%s: all %d pairs re-scored", name, c.rescored)
					}
					if want := p.refRefineScore(cand); math.Float64bits(c.score) != math.Float64bits(want) {
						t.Fatalf("%s: table total %v (%#x), full re-score %v (%#x)", name,
							c.score, math.Float64bits(c.score), want, math.Float64bits(want))
					}
					// The same table from the merged alignment's own codes.
					tbl := slices.Clone(table)
					obj.rescore(tbl, newRefineBase(cand, sc).codes, side)
					for k := range tbl {
						if math.Float64bits(tbl[k]) != math.Float64bits(w.table[k]) {
							t.Fatalf("%s: pair %v scored %v on built rows, %v on the merged alignment", name, obj.pairs[k], w.table[k], tbl[k])
						}
					}
					before, after := aln.Rows(), cand.Rows()
					for i := 0; i < n; i++ {
						for j := 0; j < n; j++ {
							if i == j || side[i] != side[j] {
								continue
							}
							b := pairScore(before[i], before[j], sub, gap)
							a := pairScore(after[i], after[j], sub, gap)
							if math.Float64bits(a) != math.Float64bits(b) {
								t.Fatalf("%s: same-side pair (%d,%d) scored %v before, %v after", name, i, j, b, a)
							}
						}
					}
				}
			}
		}
	}
	if unknownCols == 0 {
		t.Fatal("no column holds a residue outside the alphabet: the fallback went untested")
	}
}

// TestSPScoreMatchesBytePairScore: SPScore's coded pair body adds the
// floats the oracle's byte pairScore adds, in its order, also over
// lowercase letters and bytes outside the alphabet.
func TestSPScoreMatchesBytePairScore(t *testing.T) {
	for _, model := range refineModels() {
		aln, _ := refineInputs[1].build(t, model, 30, 11)
		rows := aln.Rows()
		var want float64
		for i := range rows {
			var s float64
			for j := i + 1; j < len(rows); j++ {
				s += pairScore(rows[i], rows[j], model.sub, model.gap)
			}
			want += s
		}
		if got := SPScore(aln, model.sub, model.gap, 3); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: SPScore %v (%#x), byte pairScore sum %v (%#x)", model.name,
				got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestRefineSpanCounts: a refinement call is one `refine` span whose
// work counts describe the greedy search, not the schedule — equal at
// Workers 1 and 4 — except `evaluated`, which also counts speculative
// realignments thrown away; the table re-scores fewer pairs than the
// full objective would; side profiles read at most half the rows per
// candidate (walked); and rows are built (built) for every crossing
// pair on the exact branch — all n per judged candidate, plus n per
// accept — but only for the sampled pairs' rows above 63 rows.
func TestRefineSpanCounts(t *testing.T) {
	for _, n := range []int{30, 90} {
		seqs := family(rand.New(rand.NewSource(5)), n, 60, 0.25)
		attrs := func(workers int) map[string]int64 {
			tr := obs.New("", nil)
			ctx := obs.WithTracer(context.Background(), tr)
			if _, err := MuscleLikeRefined(workers).AlignContext(ctx, seqs); err != nil {
				t.Fatal(err)
			}
			var found []*obs.SpanDoc
			var walk func(spans []*obs.SpanDoc)
			walk = func(spans []*obs.SpanDoc) {
				for _, sp := range spans {
					if sp.Name == "refine" {
						found = append(found, sp)
					}
					walk(sp.Children)
				}
			}
			walk(tr.Document().Spans)
			if len(found) != 1 {
				t.Fatalf("n=%d workers=%d: %d refine spans, want 1", n, workers, len(found))
			}
			out := map[string]int64{}
			for _, a := range found[0].Attrs {
				var v int64
				if _, err := fmt.Sscan(a.Value, &v); err != nil {
					t.Fatalf("n=%d workers=%d: attribute %s=%q: %v", n, workers, a.Key, a.Value, err)
				}
				out[a.Key] = v
			}
			for _, key := range []string{"n", "splits", "rounds", "judged", "accepted", "evaluated", "pairs", "rescored", "walked", "built"} {
				if _, ok := out[key]; !ok {
					t.Fatalf("n=%d workers=%d: refine span has no %q attribute: %v", n, workers, key, found[0].Attrs)
				}
			}
			if out["judged"] > out["evaluated"] {
				t.Fatalf("n=%d workers=%d: judged %d > evaluated %d", n, workers, out["judged"], out["evaluated"])
			}
			if out["accepted"] == 0 || out["rescored"] >= out["judged"]*out["pairs"] {
				t.Fatalf("n=%d workers=%d: accepted %d, rescored %d of judged·pairs %d", n, workers,
					out["accepted"], out["rescored"], out["judged"]*out["pairs"])
			}
			if out["walked"] < out["judged"] || out["walked"] > out["judged"]*int64(n/2) {
				t.Fatalf("n=%d workers=%d: walked %d rows for %d judged candidates", n, workers, out["walked"], out["judged"])
			}
			full := (out["judged"] + out["accepted"]) * int64(n)
			if (n <= 63 && out["built"] != full) || (n > 63 && out["built"] >= full) {
				t.Fatalf("n=%d workers=%d: built %d rows, (judged+accepted)·n = %d", n, workers, out["built"], full)
			}
			return out
		}
		one, four := attrs(1), attrs(4)
		if one["evaluated"] != one["judged"] {
			t.Fatalf("n=%d: workers=1 evaluated %d candidates but judged %d", n, one["evaluated"], one["judged"])
		}
		delete(one, "evaluated")
		delete(four, "evaluated")
		if fmt.Sprint(one) != fmt.Sprint(four) {
			t.Fatalf("n=%d: refine span counts depend on the worker count:\n%v\n%v", n, one, four)
		}
	}
}
