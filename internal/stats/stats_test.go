package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.Mean != 5 {
		t.Errorf("mean = %g", s.Mean)
	}
	if s.Variance != 4 {
		t.Errorf("variance = %g", s.Variance)
	}
	if s.StdDev != 2 {
		t.Errorf("stddev = %g", s.StdDev)
	}
	if s.Min != 2 || s.Max != 9 || s.N != 8 {
		t.Errorf("min/max/n = %g/%g/%d", s.Min, s.Max, s.N)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Errorf("empty summary: %+v", s)
	}
}

func TestSummarizeProperty(t *testing.T) {
	f := func(xs []float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true // skip pathological inputs
			}
		}
		s := Summarize(xs)
		if s.N != len(xs) {
			return false
		}
		if len(xs) == 0 {
			return true
		}
		return s.Min <= s.Mean && s.Mean <= s.Max && s.Variance >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDiffStats(t *testing.T) {
	v, sd, err := DiffStats([]float64{1, 2, 3}, []float64{1, 2, 3})
	if err != nil || v != 0 || sd != 0 {
		t.Errorf("identical samples: v=%g sd=%g err=%v", v, sd, err)
	}
	v, sd, err = DiffStats([]float64{0, 2}, []float64{1, 1})
	if err != nil || v != 1 || sd != 1 {
		t.Errorf("diff stats: v=%g sd=%g err=%v", v, sd, err)
	}
	if _, _, err := DiffStats([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{0, 0.1, 0.2, 0.9, 1.0}
	h := NewHistogram(xs, 2)
	if h.Counts[0] != 3 || h.Counts[1] != 2 {
		t.Errorf("counts = %v", h.Counts)
	}
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	if total != len(xs) {
		t.Errorf("histogram loses points: %d != %d", total, len(xs))
	}
}

func TestHistogramConstantSample(t *testing.T) {
	h := NewHistogram([]float64{3, 3, 3}, 4)
	if h.Counts[0] != 3 {
		t.Errorf("constant sample counts = %v", h.Counts)
	}
}

func TestHistogramConservesMassProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r) / 100
		}
		h := NewHistogram(xs, 13)
		total := 0
		for _, c := range h.Counts {
			total += c
		}
		return total == len(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramRender(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 2, 3}, 3)
	out := h.Render(10)
	if out == "" {
		t.Fatal("empty render")
	}
}

func TestCorrelation(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	b := []float64{2, 4, 6, 8}
	r, err := Correlation(a, b)
	if err != nil || math.Abs(r-1) > 1e-12 {
		t.Errorf("perfect correlation: r=%g err=%v", r, err)
	}
	c := []float64{8, 6, 4, 2}
	r, _ = Correlation(a, c)
	if math.Abs(r+1) > 1e-12 {
		t.Errorf("perfect anticorrelation: r=%g", r)
	}
	if _, err := Correlation(a, []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Correlation([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("zero-variance sample accepted")
	}
}
