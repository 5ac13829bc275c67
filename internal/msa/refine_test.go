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

// refineInput aligns one `family` set progressively along its guide
// tree: what RefineAlignmentContext is handed by the engines.
func refineInput(t *testing.T, model refineModel, n int, seed int64) (*Alignment, *tree.Node) {
	t.Helper()
	seqs := family(rand.New(rand.NewSource(seed)), n, 24, 0.25)
	p := model.engine(0)
	d, err := p.DistanceMatrixContext(context.Background(), seqs)
	if err != nil {
		t.Fatal(err)
	}
	gt := p.GuideTree(d, seqs)
	aln, err := p.AlignWithTreeContext(context.Background(), seqs, gt, nil)
	if err != nil {
		t.Fatal(err)
	}
	return aln, gt
}

// TestRefineMatchesOracle: refinement with the pair-score table returns
// the alignment and the final objective value of the full-re-score
// sequential greedy loop (refine_ref_test.go), byte for byte and bit
// for bit, on both branches of the objective, for every Workers value
// and under a model whose sums depend on addition order.
func TestRefineMatchesOracle(t *testing.T) {
	accepted := 0
	for _, model := range refineModels() {
		for _, n := range refineSizes {
			for seed := int64(1); seed <= 2; seed++ {
				aln, gt := refineInput(t, model, n, 100*int64(n)+seed)
				want, wantScore := model.engine(0).refRefine(aln, gt, 2)
				for _, workers := range []int{1, 3, 8} {
					got, st, err := model.engine(workers).refine(context.Background(), aln, gt, 2)
					if err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("%s n=%d seed=%d workers=%d", model.name, n, seed, workers)
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

// TestRefineCandidateScoreAndInvariant takes single steps: for random
// splits of progressive alignments the new realignSplit returns the
// oracle's bytes; the table with only its crossing pairs re-scored
// totals to the full re-score of the candidate, bit for bit; and the
// reason it may — every same-side pair scores the same float64 before
// and after the realignment — holds for all pairs, listed or not. The
// candidate validates (no all-gap column) and keeps every row's residues.
func TestRefineCandidateScoreAndInvariant(t *testing.T) {
	for _, model := range refineModels() {
		p := model.engine(0)
		sub, gap := model.sub, model.gap
		for _, n := range refineSizes {
			aln, _ := refineInput(t, model, n, 7000+int64(n))
			rng := rand.New(rand.NewSource(int64(n)))
			obj := newSPObjective(n, sub, gap)
			table := make([]float64, len(obj.pairs))
			if got := obj.rescore(table, aln.Rows(), nil); got != len(table) {
				t.Fatalf("n=%d: full rescore touched %d of %d pairs", n, got, len(table))
			}
			if got, want := obj.total(table), p.refRefineScore(aln, 1); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s n=%d: table total %v, full score %v", model.name, n, got, want)
			}
			for _, side := range randomSides(rng, n) {
				var idx []int
				for i, in := range side {
					if in {
						idx = append(idx, i)
					}
				}
				name := fmt.Sprintf("%s n=%d |A|=%d", model.name, n, len(idx))
				cand, err := p.realignSplit(aln, side)
				if err != nil {
					t.Fatal(err)
				}
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

				tbl := slices.Clone(table)
				crossing := obj.rescore(tbl, cand.Rows(), side)
				if obj.exact && crossing != len(idx)*(n-len(idx)) {
					t.Fatalf("%s: %d pairs re-scored, |A|·|B| = %d", name, crossing, len(idx)*(n-len(idx)))
				}
				if crossing >= len(tbl) {
					t.Fatalf("%s: all %d pairs re-scored", name, crossing)
				}
				if got, want := obj.total(tbl), p.refRefineScore(cand, 1); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: table total %v (%#x), full re-score %v (%#x)", name,
						got, math.Float64bits(got), want, math.Float64bits(want))
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

// TestRefineSpanCounts: a refinement call is one `refine` span whose
// work counts describe the greedy search, not the schedule — equal at
// Workers 1 and 4 — except `evaluated`, which also counts speculative
// realignments thrown away; and the table re-scores fewer pairs than
// the full objective would.
func TestRefineSpanCounts(t *testing.T) {
	seqs := family(rand.New(rand.NewSource(5)), 30, 60, 0.25)
	attrs := func(workers int) map[string]int64 {
		tr := obs.New(obs.Options{})
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
			t.Fatalf("workers=%d: %d refine spans, want 1", workers, len(found))
		}
		out := map[string]int64{}
		for _, a := range found[0].Attrs {
			var v int64
			if _, err := fmt.Sscan(a.Value, &v); err != nil {
				t.Fatalf("workers=%d: attribute %s=%q: %v", workers, a.Key, a.Value, err)
			}
			out[a.Key] = v
		}
		for _, key := range []string{"n", "splits", "rounds", "judged", "accepted", "evaluated", "pairs", "rescored"} {
			if _, ok := out[key]; !ok {
				t.Fatalf("workers=%d: refine span has no %q attribute: %v", workers, key, found[0].Attrs)
			}
		}
		if out["judged"] > out["evaluated"] {
			t.Fatalf("workers=%d: judged %d > evaluated %d", workers, out["judged"], out["evaluated"])
		}
		if out["accepted"] == 0 || out["rescored"] >= out["judged"]*out["pairs"] {
			t.Fatalf("workers=%d: accepted %d, rescored %d of judged·pairs %d", workers,
				out["accepted"], out["rescored"], out["judged"]*out["pairs"])
		}
		return out
	}
	one, four := attrs(1), attrs(4)
	if one["evaluated"] != one["judged"] {
		t.Fatalf("workers=1 evaluated %d candidates but judged %d", one["evaluated"], one["judged"])
	}
	delete(one, "evaluated")
	delete(four, "evaluated")
	if fmt.Sprint(one) != fmt.Sprint(four) {
		t.Fatalf("refine span counts depend on the worker count:\n%v\n%v", one, four)
	}
}
