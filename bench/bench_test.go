package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fasta"
)

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 values = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 values = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 … 1, unsorted on purpose
	}
	for p, want := range map[float64]float64{50: 50, 95: 95, 99: 99, 100: 100, 0.5: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%v of 1…100 = %v, want %v", p, got, want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its argument in place")
	}
}

// A percentile is reported only with at least ten samples beyond it.
func TestTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{19, 50, false}, {20, 50, true},
		{199, 95, false}, {200, 95, true},
		{999, 99, false}, {1000, 99, true},
		{7, 95, false},
	} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, p%v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4),
// which is what the driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 2, 38, 23, 38, 23, 21}, 10, 38},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// inputBytes sets a workload up at toy size and returns what the
// program would be handed, as bytes.
func inputBytes(t *testing.T, w workload, seed int64) []byte {
	t.Helper()
	r, err := w.setup(runConfig{seed: seed, quick: true, dataDir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	switch r := r.(type) {
	case *alignRunner:
		return r.input
	case *serveRunner:
		var all bytes.Buffer
		for c := range r.plan {
			for _, st := range r.plan[c] {
				all.Write(st.body)
			}
		}
		return all.Bytes()
	}
	t.Fatalf("%s: unknown runner %T", w.name, r)
	return nil
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, again, other := inputBytes(t, w, 7), inputBytes(t, w, 7), inputBytes(t, w, 8)
		if !bytes.Equal(a, again) {
			t.Errorf("%s: the same seed gave different inputs", w.name)
		}
		if bytes.Equal(a, other) {
			t.Errorf("%s: different seeds gave the same inputs", w.name)
		}
		if seqs, err := fasta.Read(bytes.NewReader(a)); err != nil || len(seqs) == 0 {
			t.Errorf("%s: inputs do not parse as FASTA: %d sequences, %v", w.name, len(seqs), err)
		}
	}
}

func TestSubSeedsDiffer(t *testing.T) {
	seen := map[int64]string{}
	for _, w := range workloads {
		s := subSeed(2008, w.name)
		if s < 0 {
			t.Errorf("%s: negative sub-seed %d", w.name, s)
		}
		if other, dup := seen[s]; dup {
			t.Errorf("%s and %s share sub-seed %d", w.name, other, s)
		}
		seen[s] = w.name
	}
}

// The q_score pair sample must be non-empty, intra-family and the same
// on every draw, at the real sizes.
func TestPairSampleIsStable(t *testing.T) {
	gens := map[string]func(int64) (*dataset, error){}
	for _, a := range alignWorkloads {
		gens[a.name] = a.gen
	}
	for name, gen := range gens {
		d, err := gen(11)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(d.pairs) == 0 || len(d.pairs) > qPairs {
			t.Errorf("%s: %d pairs, want 1 to %d", name, len(d.pairs), qPairs)
		}
		for _, p := range d.pairs {
			if p[0] == p[1] || d.famOf[p[0]] != d.famOf[p[1]] {
				t.Fatalf("%s: pair %v is not two members of one family", name, p)
			}
		}
		again, err := gen(11)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(d.pairs, again.pairs) {
			t.Errorf("%s: the pair sample changed between two draws of one seed", name)
		}
	}
	sr, err := newServeRunner(11, 4)
	if err != nil {
		t.Fatal(err)
	}
	for c := range sr.plan {
		for s, st := range sr.plan[c] {
			if len(st.data.pairs) != 1 {
				t.Errorf("serve_mix: client %d step %d has %d pairs, want 1", c, s, len(st.data.pairs))
			}
		}
	}
}

func TestSpecNamesTheWorkloads(t *testing.T) {
	sp, err := loadSpec(filepath.Join("..", specLoc))
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("%s lists %d workloads, the bench has %d", specLoc, len(sp.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in %s and %q in the bench", i, sp.Workloads[i].Name, specLoc, w.name)
		}
	}
}

// Every workload runs end to end at toy size, and every metric
// BENCHMARK.json declares is printed exactly once with its unit.
func TestQuickSmoke(t *testing.T) {
	sp, err := loadSpec(filepath.Join("..", specLoc))
	if err != nil {
		t.Fatal(err)
	}
	outDir := t.TempDir()
	for _, w := range workloads {
		var out bytes.Buffer
		o := options{workload: w.name, seed: 5, reps: 2, trace: "both", quick: true, dataDir: t.TempDir(), outDir: outDir}
		ok, err := runOne(o, sp, &out)
		if err != nil || !ok {
			t.Fatalf("%s: ok=%v err=%v\n%s", w.name, ok, err, out.String())
		}
		printed := map[string][]string{} // metric → units it was printed with
		for _, line := range strings.Split(out.String(), "\n") {
			if f := strings.Fields(line); len(f) == 4 && f[0] == "metric" {
				printed[f[1]] = append(printed[f[1]], f[3])
			}
			if strings.HasPrefix(line, "{") {
				t.Errorf("%s: -quick printed a result line: %s", w.name, line)
			}
		}
		decls := append(append([]metricDecl(nil), sp.EndToEnd...), sp.PerLayer...)
		for _, d := range decls {
			if got := printed[d.Name]; len(got) != 1 || got[0] != d.Unit {
				t.Errorf("%s: metric %s printed with units %v, want once with %q", w.name, d.Name, got, d.Unit)
			}
		}
		if len(printed) != len(decls) {
			t.Errorf("%s: %d metrics printed, %d declared", w.name, len(printed), len(decls))
		}
		if !strings.Contains(out.String(), "QUICK") {
			t.Errorf("%s: no -quick banner", w.name)
		}
		if _, err := os.Stat(filepath.Join(outDir, "trace-"+w.name+".json")); err != nil {
			t.Errorf("%s: no span file: %v", w.name, err)
		}
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer("w")
	if _, err := tr.do("outer", "a", func() error {
		_, err := tr.do("inner", "b", func() error { return nil })
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if len(tr.spans) != 2 || tr.spans[1].Parent != tr.spans[0].ID || tr.spans[0].Parent != 0 {
		t.Fatalf("spans %+v: want b inside a", tr.spans)
	}
	outer := tr.spans[0].EndNs - tr.spans[0].StartNs
	inner := tr.spans[1].EndNs - tr.spans[1].StartNs
	self := tr.selfSeconds()
	if got, want := self["outer"], float64(outer-inner)/1e9; math.Abs(got-want) > 1e-9 {
		t.Errorf("self time of outer = %v, want its span minus its child = %v", got, want)
	}
}
