package core

import (
	"bytes"
	"context"
	"slices"
	"strconv"
	"testing"

	"repro/internal/bio"
	"repro/internal/msa"
	"repro/internal/obs"
	"repro/internal/rose"
)

// testFamily generates a reproducible family for core tests.
func testFamily(t *testing.T, n, meanLen int, relatedness float64, seed int64) []bio.Sequence {
	t.Helper()
	f, err := rose.Evolve(rose.Config{N: n, MeanLen: meanLen, Relatedness: relatedness, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return f.Seqs()
}

// checkCompleteAlignment verifies the fundamental Sample-Align-D output
// contract: a valid alignment containing every input exactly once, in
// input order, ungapping to the original residues.
func checkCompleteAlignment(t *testing.T, aln *msa.Alignment, seqs []bio.Sequence) {
	t.Helper()
	if aln == nil {
		t.Fatal("nil alignment on rank 0")
	}
	if err := aln.Validate(); err != nil {
		t.Fatalf("invalid alignment: %v", err)
	}
	if aln.NumSeqs() != len(seqs) {
		t.Fatalf("alignment has %d rows for %d inputs", aln.NumSeqs(), len(seqs))
	}
	for i, s := range seqs {
		if aln.Seqs[i].ID != s.ID {
			t.Fatalf("row %d: id %q, want %q (input order lost)", i, aln.Seqs[i].ID, s.ID)
		}
		if !bytes.Equal(bio.Ungap(aln.Seqs[i].Data), bio.Ungap(s.Data)) {
			t.Fatalf("row %d (%s) does not ungap to its input", i, s.ID)
		}
	}
}

func TestSingleRankEqualsLocalAligner(t *testing.T) {
	seqs := testFamily(t, 12, 60, 300, 1)
	res, err := AlignInprocContext(context.Background(), seqs, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	checkCompleteAlignment(t, res.Alignment, seqs)
	direct, err := msa.MuscleLike(1).AlignContext(context.Background(), seqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Alignment.Width() != direct.Width() {
		t.Fatalf("p=1 width %d != direct %d", res.Alignment.Width(), direct.Width())
	}
	for i := range seqs {
		if !bytes.Equal(res.Alignment.Seqs[i].Data, direct.Seqs[i].Data) {
			t.Fatalf("p=1 row %d differs from direct aligner", i)
		}
	}
}

func TestMultiRankCompleteness(t *testing.T) {
	seqs := testFamily(t, 40, 80, 500, 2)
	for _, p := range []int{2, 3, 4, 8} {
		res, err := AlignInprocContext(context.Background(), seqs, p, Config{})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		checkCompleteAlignment(t, res.Alignment, seqs)
		if len(res.Stats) != p {
			t.Fatalf("p=%d: %d stats", p, len(res.Stats))
		}
		total := 0
		for r, s := range res.Stats {
			if s == nil {
				t.Fatalf("p=%d: rank %d stats missing", p, r)
			}
			total += s.BucketSize
		}
		if total != len(seqs) {
			t.Fatalf("p=%d: buckets hold %d of %d sequences", p, total, len(seqs))
		}
	}
}

func TestDeterministic(t *testing.T) {
	seqs := testFamily(t, 24, 60, 400, 3)
	a, err := AlignInprocContext(context.Background(), seqs, 4, Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := AlignInprocContext(context.Background(), seqs, 4, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Alignment.Width() != b.Alignment.Width() {
		t.Fatalf("widths differ: %d vs %d", a.Alignment.Width(), b.Alignment.Width())
	}
	for i := range a.Alignment.Seqs {
		if !bytes.Equal(a.Alignment.Seqs[i].Data, b.Alignment.Seqs[i].Data) {
			t.Fatalf("row %d differs between identical runs", i)
		}
	}
}

func TestMoreRanksThanSequences(t *testing.T) {
	seqs := testFamily(t, 3, 40, 200, 4)
	res, err := AlignInprocContext(context.Background(), seqs, 8, Config{})
	if err != nil {
		t.Fatal(err)
	}
	checkCompleteAlignment(t, res.Alignment, seqs)
}

func TestIdenticalSequences(t *testing.T) {
	// All ranks tie: the pivot ranges collapse and most buckets are
	// empty. The algorithm must still produce a complete alignment.
	seq := []byte("MKVLWACDEFGHIKLMNPQRST")
	seqs := make([]bio.Sequence, 12)
	for i := range seqs {
		seqs[i] = bio.Sequence{ID: string(rune('a' + i)), Data: seq}
	}
	res, err := AlignInprocContext(context.Background(), seqs, 4, Config{})
	if err != nil {
		t.Fatal(err)
	}
	checkCompleteAlignment(t, res.Alignment, seqs)
	if res.Alignment.Width() != len(seq) {
		t.Fatalf("identical sequences aligned to width %d, want %d",
			res.Alignment.Width(), len(seq))
	}
}

// TestDecompositionKeepsQ is the paper's claim about its glue: on one
// phylogeny, aligning p buckets apart and joining them on the global
// ancestor loses no quality against aligning everything at once. Q is
// scored against the family's true alignment; a glue that merely
// stacked the buckets side by side would keep the ≈ 1/p of pairs that
// share a bucket and lose the rest. The small family stays at
// relatedness 500, where one seed does not swing by more than the
// margin; the second case is the paper's own regime (relatedness 800,
// N = 600, length 300), which -short skips.
func TestDecompositionKeepsQ(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   rose.Config
		heavy bool
	}{
		{"n96-rel500", rose.Config{N: 96, MeanLen: 80, Relatedness: 500, Seed: 6}, false},
		{"n600-rel800", rose.Config{N: 600, MeanLen: 300, Relatedness: 800, Seed: 2008}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.heavy && testing.Short() {
				t.Skip("N = 600 takes seconds per p")
			}
			f, err := rose.Evolve(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := f.TrueAlignment(nil)
			if err != nil {
				t.Fatal(err)
			}
			q := func(p int) float64 {
				res, err := AlignInprocContext(context.Background(), f.Seqs(), p, Config{})
				if err != nil {
					t.Fatal(err)
				}
				checkCompleteAlignment(t, res.Alignment, f.Seqs())
				q, err := msa.QScore(res.Alignment, ref)
				if err != nil {
					t.Fatal(err)
				}
				return q
			}
			q1 := q(1)
			for _, p := range []int{4, 8} {
				qp := q(p)
				t.Logf("p=%d: Q = %.3f, single-rank Q = %.3f", p, qp, q1)
				if qp < q1-0.05 {
					t.Errorf("p=%d: Q = %.3f, more than 0.05 under the single-rank Q = %.3f", p, qp, q1)
				}
			}
		})
	}
}

func TestRegularSamplingBucketBound(t *testing.T) {
	// §3 of the paper: with regular sampling no bucket exceeds 2N/p.
	// Check the statistical claim on a well-spread family (ties relaxed
	// with small slack for duplicate ranks).
	seqs := testFamily(t, 96, 60, 700, 8)
	for _, p := range []int{4, 8} {
		res, err := AlignInprocContext(context.Background(), seqs, p, Config{})
		if err != nil {
			t.Fatal(err)
		}
		sizes := res.Stats[0].BucketSizes
		if len(sizes) != p {
			t.Fatalf("p=%d: %d bucket sizes", p, len(sizes))
		}
		bound := 2*len(seqs)/p + p // + p slack for rank ties
		for r, sz := range sizes {
			if sz > bound {
				t.Fatalf("p=%d: bucket %d holds %d > bound %d (sizes %v)",
					p, r, sz, bound, sizes)
			}
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	seqs := testFamily(t, 24, 60, 400, 9)
	res, err := AlignInprocContext(context.Background(), seqs, 4, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for r, s := range res.Stats {
		if s.Timings.Total <= 0 {
			t.Fatalf("rank %d: zero total time", r)
		}
		if s.Timings.LocalAlign <= 0 {
			t.Fatalf("rank %d: zero align time", r)
		}
		if s.Comm.BytesSent == 0 {
			t.Fatalf("rank %d: no bytes sent", r)
		}
	}
	if res.Stats[0].GALen == 0 {
		t.Fatal("global ancestor is empty")
	}
}

// TestBucketSizesComeFromTheGlueGather: the root reads every bucket's
// size off the rows it gathers, so a run is the collectives the
// algorithm needs and no more: (p−1)(p+7) messages on p in-process ranks.
func TestBucketSizesComeFromTheGlueGather(t *testing.T) {
	seqs := testFamily(t, 40, 60, 400, 10)
	for _, p := range []int{2, 3, 8} {
		res, err := AlignInprocContext(context.Background(), seqs, p, Config{})
		if err != nil {
			t.Fatal(err)
		}
		sizes := res.Stats[0].BucketSizes
		if len(sizes) != p {
			t.Fatalf("p=%d: bucket sizes %v", p, sizes)
		}
		var msgs int64
		for r, s := range res.Stats {
			if sizes[r] != s.BucketSize {
				t.Errorf("p=%d: root says bucket %d holds %d, rank %d aligned %d", p, r, sizes[r], r, s.BucketSize)
			}
			if r > 0 && s.BucketSizes != nil {
				t.Errorf("rank %d has bucket sizes %v", r, s.BucketSizes)
			}
			msgs += s.Comm.MsgsSent
		}
		if want := int64((p - 1) * (p + 7)); msgs != want {
			t.Errorf("p=%d: %d messages, want %d", p, msgs, want)
		}
	}
}

// TestKmerWorkCountsOnSpans: every rank's localrank and sample span and
// every k-mer distmatrix span carries the index kernel's work count, and
// the counts are a property of the input — the same at any worker count.
func TestKmerWorkCountsOnSpans(t *testing.T) {
	seqs := testFamily(t, 30, 60, 400, 12)
	const p = 3
	counts := func(workers int) []string {
		tr := obs.New("", nil)
		ctx := obs.WithTracer(context.Background(), tr)
		if _, err := AlignInprocContext(ctx, seqs, p, Config{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		var out []string
		seen := map[string]int{}
		var walk func(spans []*obs.SpanDoc)
		walk = func(spans []*obs.SpanDoc) {
			for _, sp := range spans {
				want := map[string][]string{"localrank": {"hits"}, "sample": {"hits"}, "distmatrix": {"postings", "hits"}}[sp.Name]
				for _, key := range want {
					i := slices.IndexFunc(sp.Attrs, func(a obs.Attr) bool { return a.Key == key })
					if i < 0 {
						t.Fatalf("workers=%d: %s span has no %q attribute: %v", workers, sp.Name, key, sp.Attrs)
					}
					out = append(out, sp.Name+"."+key+"="+sp.Attrs[i].Value)
				}
				seen[sp.Name]++
				walk(sp.Children)
			}
		}
		walk(tr.Document().Spans)
		if seen["localrank"] != p || seen["sample"] != p || seen["distmatrix"] < p {
			t.Fatalf("workers=%d: spans seen: %v", workers, seen)
		}
		slices.Sort(out)
		return out
	}
	if one, four := counts(1), counts(4); !slices.Equal(one, four) {
		t.Fatalf("work counts depend on the worker count:\n%v\n%v", one, four)
	}
}

// TestPairwiseWorkCountsOnSpans: with clustal in the buckets, each
// bucket's pid distmatrix span counts its own pairwise DP work, so the
// spans under bucketalign sum to the pairs of the buckets, whatever
// the other ranks run at the same time or how many workers share a
// bucket; no span carries the old process-wide striped_calls delta.
func TestPairwiseWorkCountsOnSpans(t *testing.T) {
	seqs := testFamily(t, 60, 80, 400, 12)
	cfg := Config{NewLocalAligner: func(w int) msa.Aligner { return msa.ClustalLike(w) }}
	for _, run := range []struct{ p, workers int }{{1, 0}, {2, 0}, {4, 0}, {4, 4}} {
		p := run.p
		cfg.Workers = run.workers
		tr := obs.New("", nil)
		ctx := obs.WithTracer(context.Background(), tr)
		res, err := AlignInprocContext(ctx, seqs, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var want int64
		for _, st := range res.Stats {
			n := int64(st.BucketSize)
			want += n * (n - 1) / 2
		}
		var got, spans int64
		var walk func([]*obs.SpanDoc, bool)
		walk = func(docs []*obs.SpanDoc, inBucket bool) {
			for _, sp := range docs {
				inBucket := inBucket || sp.Name == "bucketalign"
				for _, a := range sp.Attrs {
					if a.Key == "striped_calls" {
						t.Fatalf("p=%d: %s span carries striped_calls", p, sp.Name)
					}
					if a.Key == "pairs" && sp.Name == "distmatrix" && inBucket {
						n, err := strconv.ParseInt(a.Value, 10, 64)
						if err != nil {
							t.Fatal(err)
						}
						got += n
						spans++
					}
				}
				walk(sp.Children, inBucket)
			}
		}
		walk(tr.Document().Spans, false)
		if spans != int64(p) || got != want {
			t.Fatalf("p=%d workers=%d: %d bucket distmatrix spans count %d pairs, want %d spans and %d pairs", p, run.workers, spans, got, p, want)
		}
	}
}

func TestQualityComparableToSequential(t *testing.T) {
	// The paper's Table 2 claim at small scale: distributed alignment
	// quality is in the same band as the sequential tool, not collapsed.
	f, err := rose.Evolve(rose.Config{N: 24, MeanLen: 100, Relatedness: 250, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := f.TrueAlignment([]int{0, 23})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := msa.MuscleLike(0).AlignContext(context.Background(), f.Seqs())
	if err != nil {
		t.Fatal(err)
	}
	dist, err := AlignInprocContext(context.Background(), f.Seqs(), 4, Config{})
	if err != nil {
		t.Fatal(err)
	}
	qSeq, err := msa.QScore(seq, ref)
	if err != nil {
		t.Fatal(err)
	}
	qDist, err := msa.QScore(dist.Alignment, ref)
	if err != nil {
		t.Fatal(err)
	}
	if qDist < qSeq-0.35 {
		t.Fatalf("distributed quality collapsed: Q=%g vs sequential %g", qDist, qSeq)
	}
}

func TestRejectsDuplicateIDs(t *testing.T) {
	seqs := []bio.Sequence{
		{ID: "x", Data: []byte("ACDEF")},
		{ID: "x", Data: []byte("ACDEW")},
	}
	if _, err := AlignInprocContext(context.Background(), seqs, 2, Config{}); err == nil {
		t.Fatal("duplicate ids accepted")
	}
}

func TestRejectsEmptySequence(t *testing.T) {
	seqs := []bio.Sequence{
		{ID: "a", Data: []byte("ACDEF")},
		{ID: "b", Data: nil},
	}
	if _, err := AlignInprocContext(context.Background(), seqs, 2, Config{}); err == nil {
		t.Fatal("empty sequence accepted")
	}
}

func TestInprocAlignerInterface(t *testing.T) {
	var al msa.Aligner = &InprocAligner{P: 2}
	seqs := testFamily(t, 10, 50, 300, 11)
	aln, err := al.AlignContext(context.Background(), seqs)
	if err != nil {
		t.Fatal(err)
	}
	checkCompleteAlignment(t, aln, seqs)
	if al.Name() == "" {
		t.Fatal("empty name")
	}
}

func TestSplitBlocks(t *testing.T) {
	seqs := testFamily(t, 10, 30, 200, 12)
	parts, origs := SplitBlocks(seqs, 3)
	total := 0
	next := int64(0)
	for r := range parts {
		if len(parts[r]) != len(origs[r]) {
			t.Fatalf("rank %d: %d seqs, %d origs", r, len(parts[r]), len(origs[r]))
		}
		for i := range origs[r] {
			if origs[r][i] != next {
				t.Fatalf("rank %d: orig %d, want %d", r, origs[r][i], next)
			}
			next++
		}
		total += len(parts[r])
	}
	if total != 10 {
		t.Fatalf("blocks hold %d sequences", total)
	}
}

func pivotKeys(ranks ...float64) []pivotKey {
	out := make([]pivotKey, len(ranks))
	for i, r := range ranks {
		out[i] = pivotKey{Rank: r, Orig: int64(i)}
	}
	return out
}

func TestSelectPivots(t *testing.T) {
	// exact paper schedule for p=4: 12 samples, pivots at indices 2, 6, 10
	all := pivotKeys(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)
	pivots := selectPivots(all, 4)
	if len(pivots) != 3 {
		t.Fatalf("%d pivots", len(pivots))
	}
	if pivots[0].Rank != 2 || pivots[1].Rank != 6 || pivots[2].Rank != 10 {
		t.Fatalf("pivots = %v", pivots)
	}
	// degenerate sample count falls back to quantiles but keeps p-1 pivots
	short := selectPivots(pivotKeys(1, 2, 3), 4)
	if len(short) != 3 {
		t.Fatalf("degenerate pivots = %v", short)
	}
}

func TestSelectPivotsTiedRanks(t *testing.T) {
	// All samples share one rank value: orig tie-breaking must still
	// yield distinct pivots that split the tied mass across buckets.
	all := pivotKeys(1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1)
	pivots := selectPivots(all, 4)
	if len(pivots) != 3 {
		t.Fatalf("%d pivots for tied ranks", len(pivots))
	}
	for i := 1; i < len(pivots); i++ {
		if !pivots[i-1].less(pivots[i]) {
			t.Fatalf("pivots not strictly increasing: %v", pivots)
		}
	}
	// A degenerate schedule that clamps onto one sample must collapse
	// the duplicates instead of emitting guaranteed-empty buckets.
	one := selectPivots([]pivotKey{{Rank: 1, Orig: 7}}, 4)
	if len(one) != 1 {
		t.Fatalf("duplicate pivots not collapsed: %v", one)
	}
}

func TestSlotCountsValidation(t *testing.T) {
	// path consuming wrong number of GA columns must fail
	bad := []byte{byte(0 /*match*/)}
	if _, err := slotCounts(bad, 2); err == nil {
		t.Fatal("underrun path accepted")
	}
	over := []byte{0, 0, 0}
	if _, err := slotCounts(over, 2); err == nil {
		t.Fatal("overrun path accepted")
	}
	if _, err := slotCounts([]byte{0, 1, 2, 7}, 2); err == nil {
		t.Fatal("invalid op accepted")
	}
}
