// Command bench is the repository's benchmark: five workloads, five
// end-to-end metrics each, and a traced pass that replays every layer
// from outside. BENCHMARK.json at the repository root declares the
// metrics, their units and their bounds; bench/README.md explains what
// each number means and which layer should move which metric.
//
// Run it through bench/run.sh from the repository root, which builds
// this package and passes its arguments on.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// commit is stamped by bench/run.sh (-ldflags -X) when the checkout is
// a git repository.
var commit = "unknown"

// spec is BENCHMARK.json: the one place metric names, units and bounds
// are declared. The bench reads it to label what it prints and to
// refuse a run that would print a different set.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// options are the command's flags.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	reps      int
	trace     string // "0": timed reps only, "1": traced pass only, "both"
	quick     bool
	selfcheck int
	dataDir   string // scratch space inside the checkout: the durable servers and stores of the traced pass live here
	outDir    string // where the span files go
}

const (
	setups  = 3 // set-ups per run; setup_s is their median
	specLoc = "BENCHMARK.json"
)

func main() {
	o := options{dataDir: ".bench_build/data", outDir: "bench/out"}
	flag.StringVar(&o.workload, "workload", "all", "workload `name`, or all (each workload in its own process, one after another)")
	flag.Int64Var(&o.seed, "seed", 2008, "inputs are generated from this seed; each workload derives its own sub-seed")
	flag.Float64Var(&o.seconds, "seconds", 8, "keep running timed ops until this many seconds have been measured")
	flag.IntVar(&o.reps, "reps", 5, "minimum number of timed ops")
	flag.StringVar(&o.trace, "trace", "both", "0: timed reps and end-to-end metrics; 1: traced pass and per-layer metrics; both")
	flag.BoolVar(&o.quick, "quick", false, "toy sizes, for tests only: prints no result line")
	flag.IntVar(&o.selfcheck, "selfcheck", 0, "run 2·K full invocations labelled A/B alternately and compare their medians against the bounds")
	flag.Parse()
	if flag.NArg() > 0 || (o.trace != "0" && o.trace != "1" && o.trace != "both") {
		flag.Usage()
		os.Exit(2)
	}
	sp, err := loadSpec(specLoc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: run from the repository root:", err)
		os.Exit(2)
	}
	var ok bool
	switch {
	case o.selfcheck > 0:
		ok, err = selfcheck(o, sp, os.Stdout)
	case o.workload == "all":
		ok, err = runAll(o, os.Stdout)
	default:
		ok, err = runOne(o, sp, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload in this process. It reports false when an
// op or an output check failed; an error means the run could not be
// made at all.
func runOne(o options, sp *spec, out io.Writer) (bool, error) {
	w, found := findWorkload(o.workload)
	if !found {
		return false, fmt.Errorf("unknown workload %q", o.workload)
	}
	if err := os.MkdirAll(o.dataDir, 0o755); err != nil {
		return false, err
	}
	cfg := runConfig{seed: o.seed, quick: o.quick, dataDir: o.dataDir}
	why := ""
	for _, d := range sp.Workloads {
		if d.Name == w.name {
			why = d.Why
		}
	}
	fmt.Fprintf(out, "== %s: %s\n", w.name, why)
	fmt.Fprintf(out, "   env: seed=%d nproc=%d GOMAXPROCS=%d %s commit=%s datadir=%s tmpfs=%v\n",
		o.seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, o.dataDir, onTmpfs(o.dataDir))
	if o.quick {
		fmt.Fprintln(out, "   QUICK: toy sizes, for tests only. These numbers mean nothing and no result line is printed.")
		o.seconds = 0 // -reps ops and no more
	}

	// Set up several times and report the median: set-up is seconds
	// long because it ends with a full warm-up op, and the first one
	// also pays for a cold process. setup_s is the CPU the process
	// spent, like op_cpu_s: on a shared host wall time does not repeat.
	// A traced pass alone reports no setup_s and sets up once.
	var r runner
	var setupCPU []float64
	for i := 0; i < setups && (i == 0 || o.trace != "1"); i++ {
		r = nil
		runtime.GC()
		watch := startWatch()
		var err error
		if r, err = w.setup(cfg); err != nil {
			return false, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		wall, cpu := watch.stop()
		setupCPU = append(setupCPU, cpu)
		fmt.Fprintf(out, "   set-up %d: wall %.3f s, cpu %.3f s\n", i+1, wall, cpu)
	}

	res := result{Correct: true, Metrics: map[string]metricValue{}}
	var decls []metricDecl
	if o.trace != "1" {
		m, attempted, failed := timedReps(r, o, out)
		m["setup_s"] = median(setupCPU)
		res.Attempted, res.Failed = attempted, failed
		if err := addMetrics(&res, sp.EndToEnd, m); err != nil {
			return false, err
		}
		decls = append(decls, sp.EndToEnd...)
	}
	if o.trace != "0" && res.Failed == 0 {
		m, attempted, failed, err := tracedPass(w, r, cfg, o.outDir, out)
		if err != nil {
			return false, fmt.Errorf("%s: traced pass: %w", w.name, err)
		}
		res.Attempted += attempted
		res.Failed += failed
		if err := addMetrics(&res, sp.PerLayer, m); err != nil {
			return false, err
		}
		decls = append(decls, sp.PerLayer...)
	}
	res.Correct = res.Failed == 0

	for _, d := range decls {
		fmt.Fprintf(out, "   metric %-36s %14.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	verdict := "PASS"
	if !res.Correct {
		verdict = "FAIL"
	}
	fmt.Fprintf(out, "   ops attempted %d, failed %d: %s\n", res.Attempted, res.Failed, verdict)
	if o.quick {
		return res.Correct, nil
	}
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "%s\n", line)
	return res.Correct, nil
}

// timedReps runs the timed ops, tracing off, and returns the
// end-to-end metrics except setup_s.
func timedReps(r runner, o options, out io.Writer) (m map[string]float64, attempted, failed int) {
	var walls, cpus []float64
	var first opResult
	start := time.Now()
	for attempted < o.reps || time.Since(start).Seconds() < o.seconds {
		// Every op starts from a collected heap, so one op's garbage
		// is not collected on the next op's clock.
		runtime.GC()
		res, err := r.op()
		attempted++
		switch {
		case err != nil:
			failed++
			fmt.Fprintf(out, "   op %d: FAIL: %v\n", attempted, err)
			continue
		case len(walls) == 0:
			first = res
		case res.hash != first.hash:
			failed++
			fmt.Fprintf(out, "   op %d: FAIL: output differs from the first op's (%x… vs %x…)\n", attempted, res.hash[:6], first.hash[:6])
			continue
		}
		walls, cpus = append(walls, res.wall), append(cpus, res.cpu)
		fmt.Fprintf(out, "   op %d: wall %.3f s, cpu %.3f s, output %x… ok\n", attempted, res.wall, res.cpu, res.hash[:6])
	}
	fmt.Fprintf(out, "   op wall: median %.3f s over %d ops (not gated: on a shared host it does not repeat)\n", median(walls), len(walls))
	m = map[string]float64{
		"op_cpu_s":    median(cpus),
		"peak_rss_mb": peakRSSMB(),
	}
	if len(walls) > 0 {
		q, err := r.qScore()
		if err != nil {
			failed++
			fmt.Fprintf(out, "   q_score: FAIL: %v\n", err)
		}
		m["q_score"] = q
	}
	return m, attempted, failed
}

// addMetrics labels the measured values with their declared units and
// refuses a set that differs from the declaration.
func addMetrics(res *result, decls []metricDecl, m map[string]float64) error {
	for _, d := range decls {
		v, ok := m[d.Name]
		if !ok {
			return fmt.Errorf("metric %s is declared in %s but was not measured", d.Name, specLoc)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		delete(m, d.Name)
	}
	if len(m) > 0 {
		var extra []string
		for name := range m {
			extra = append(extra, name)
		}
		sort.Strings(extra)
		return fmt.Errorf("metrics %v were measured but are not declared in %s", extra, specLoc)
	}
	return nil
}

// onTmpfs reports whether dir is on a memory file system, where the
// journal's fsyncs cost nothing.
func onTmpfs(dir string) bool {
	const tmpfsMagic = 0x01021994
	var st syscall.Statfs_t
	return syscall.Statfs(dir, &st) == nil && st.Type == tmpfsMagic
}
