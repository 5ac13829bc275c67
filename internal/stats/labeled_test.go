package stats

import (
	"strings"
	"sync"
	"testing"
)

func TestLabeledHistogramsObserveAndRender(t *testing.T) {
	l := MustLabeledHistograms([]float64{0.5, 1})
	l.Observe("guidetree", 0.2)
	l.Observe("guidetree", 0.7)
	l.Observe("bucketalign", 5)

	if got := l.Labels(); len(got) != 2 || got[0] != "bucketalign" || got[1] != "guidetree" {
		t.Fatalf("Labels = %v, want sorted [bucketalign guidetree]", got)
	}
	snap, ok := l.Snapshot("guidetree")
	if !ok || snap.Total != 2 {
		t.Fatalf("guidetree snapshot = %+v ok=%v", snap, ok)
	}
	if _, ok := l.Snapshot("nosuch"); ok {
		t.Fatal("Snapshot of unknown label must report !ok")
	}

	var b strings.Builder
	l.WritePrometheus(&b, "samplealign_stage_seconds", "Per-stage seconds.", "stage")
	out := b.String()
	for _, want := range []string{
		"# HELP samplealign_stage_seconds Per-stage seconds.",
		"# TYPE samplealign_stage_seconds histogram",
		`samplealign_stage_seconds_bucket{stage="guidetree",le="0.5"} 1`,
		`samplealign_stage_seconds_bucket{stage="guidetree",le="+Inf"} 2`,
		`samplealign_stage_seconds_count{stage="guidetree"} 2`,
		`samplealign_stage_seconds_bucket{stage="bucketalign",le="+Inf"} 1`,
		`samplealign_stage_seconds_sum{stage="bucketalign"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("labeled exposition missing %q:\n%s", want, out)
		}
	}
	// HELP/TYPE written once, not per series.
	if strings.Count(out, "# TYPE samplealign_stage_seconds histogram") != 1 {
		t.Fatalf("TYPE header repeated:\n%s", out)
	}
	// bucketalign renders before guidetree (sorted label order).
	if strings.Index(out, `stage="bucketalign"`) > strings.Index(out, `stage="guidetree"`) {
		t.Fatalf("series not in sorted label order:\n%s", out)
	}
}

func TestLabeledHistogramsEmptyRendersNothing(t *testing.T) {
	l := MustLabeledHistograms(DefaultLatencyBounds())
	var b strings.Builder
	l.WritePrometheus(&b, "x_seconds", "X.", "stage")
	if b.Len() != 0 {
		t.Fatalf("empty family rendered output:\n%s", b.String())
	}
}

func TestLabeledHistogramsConcurrent(t *testing.T) {
	l := MustLabeledHistograms([]float64{1})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			label := []string{"a", "b"}[g%2]
			for i := 0; i < 200; i++ {
				l.Observe(label, 0.5)
			}
		}(g)
	}
	wg.Wait()
	sa, _ := l.Snapshot("a")
	sb, _ := l.Snapshot("b")
	if sa.Total+sb.Total != 1600 {
		t.Fatalf("lost observations: %d + %d != 1600", sa.Total, sb.Total)
	}
}

func TestLabeledHistogramsBadBounds(t *testing.T) {
	if _, err := newLabeledHistograms(nil); err == nil {
		t.Fatal("empty bounds must be rejected")
	}
	if _, err := newLabeledHistograms([]float64{2, 1}); err == nil {
		t.Fatal("unsorted bounds must be rejected")
	}
}
