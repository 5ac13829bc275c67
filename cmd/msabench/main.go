// Command msabench regenerates every table and figure of the paper's
// evaluation section by running the actual distributed pipeline at
// laptop scale, with the paper's own numbers printed beside each for
// reference.
//
// Usage:
//
//	msabench -exp all            # everything
//	msabench -exp fig4           # one experiment
//	msabench -exp table2 -quick  # smaller PREFAB benchmark
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	samplealign "repro"
	"repro/internal/bio"
	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/kmer"
	"repro/internal/msa"
	"repro/internal/prefab"
	"repro/internal/stats"
)

func main() {
	exp := flag.String("exp", "all", "experiment: fig1|table1|fig3|fig4|fig5|fig6|table2|comm|all")
	quick := flag.Bool("quick", false, "reduce real-run sizes for fast smoke runs")
	seed := flag.Int64("seed", 2008, "master RNG seed")
	workers := flag.Int("workers", 0,
		"shared-memory workers for real runs, covering guide-tree construction (distance matrix, UPGMA/NJ) and merging; 0 keeps the historical defaults (1 per distributed rank, all cores for sequential baselines)")
	flag.Parse()

	r := &runner{quick: *quick, seed: *seed, workers: *workers}
	experiments := map[string]func() error{
		"fig1":   r.fig1,
		"table1": r.table1,
		"fig3":   r.fig3,
		"fig4":   r.fig4,
		"fig5":   r.fig5,
		"fig6":   r.fig6,
		"table2": r.table2,
		"comm":   r.comm,
	}
	order := []string{"fig1", "table1", "fig3", "fig4", "fig5", "fig6", "table2", "comm"}

	var names []string
	if *exp == "all" {
		names = order
	} else {
		for _, name := range strings.Split(*exp, ",") {
			if _, ok := experiments[strings.TrimSpace(name)]; !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (have %v, all)\n", name, order)
				os.Exit(2)
			}
			names = append(names, strings.TrimSpace(name))
		}
	}
	for _, name := range names {
		if err := experiments[name](); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
	}
}

type runner struct {
	quick   bool
	seed    int64
	workers int // intra-rank workers for the real runs

	diverse []bio.Sequence // cached Fig. 1/3/Table 1 input
}

// measure runs one real distributed alignment and returns it with its
// wall-clock seconds.
func (r *runner) measure(seqs []bio.Sequence, p int) (*core.Result, float64, error) {
	start := time.Now()
	res, err := core.AlignInprocContext(context.Background(), seqs, p, r.realConfig())
	if err != nil {
		return nil, 0, err
	}
	return res, time.Since(start).Seconds(), nil
}

// realConfig is the core configuration of every distributed run: the
// paper defaults plus the -workers intra-rank parallelism. Flag value 0
// keeps core's historical default of one worker per rank (the paper's
// single-CPU cluster nodes).
func (r *runner) realConfig() core.Config {
	return core.Config{Workers: r.workers}
}

func (r *runner) header(title string) {
	fmt.Printf("\n== %s ==\n", title)
}

func (r *runner) diverseSet(n int) ([]bio.Sequence, error) {
	if r.quick && n > 400 {
		n = 400
	}
	if len(r.diverse) >= n {
		return r.diverse[:n], nil
	}
	seqs, err := samplealign.GenerateDiverseSet(n, 150, r.seed)
	if err != nil {
		return nil, err
	}
	r.diverse = seqs
	return seqs, nil
}

// centralGlobal computes centralised and globalised (k·p samples) ranks.
func centralGlobal(seqs []bio.Sequence, p int) (central, global []float64, err error) {
	ctx := context.Background()
	counter := kmer.MustCounter(bio.Dayhoff6, kmer.DefaultK)
	profiles := counter.Profiles(seqs, 0)
	central, err = kmer.RanksContext(ctx, profiles, profiles, kmer.DefaultRankScale, 0)
	if err != nil {
		return nil, nil, err
	}
	k := p - 1
	var pool []kmer.Profile
	n := len(seqs)
	for rk := 0; rk < p; rk++ {
		lo, hi := rk*n/p, (rk+1)*n/p
		for i := 0; i < k; i++ {
			idx := lo + (i+1)*(hi-lo)/(k+1)
			if idx >= hi {
				idx = hi - 1
			}
			pool = append(pool, profiles[idx])
		}
	}
	global, err = kmer.RanksContext(ctx, profiles, pool, kmer.DefaultRankScale, 0)
	return central, global, err
}

func (r *runner) fig1() error {
	r.header("Fig. 1 — k-mer rank distribution, centralised vs globalised (N=500)")
	seqs, err := r.diverseSet(500)
	if err != nil {
		return err
	}
	central, global, err := centralGlobal(seqs, 16)
	if err != nil {
		return err
	}
	fmt.Println("centralised ranks:")
	fmt.Print(stats.NewHistogram(central, 12).Render(40))
	fmt.Println("globalised ranks (k·p = 240 samples):")
	fmt.Print(stats.NewHistogram(global, 12).Render(40))
	corr, err := stats.Correlation(central, global)
	if err == nil {
		fmt.Printf("pearson(central, globalised) = %.4f (paper: distributions track closely)\n", corr)
	}
	return nil
}

func (r *runner) table1() error {
	r.header("Table 1 — statistics of globalised vs centralised rank (paper: N=5000)")
	n := 2000
	seqs, err := r.diverseSet(n)
	if err != nil {
		return err
	}
	central, global, err := centralGlobal(seqs, 16)
	if err != nil {
		return err
	}
	sc, sg := stats.Summarize(central), stats.Summarize(global)
	variance, stddev, err := stats.DiffStats(global, central)
	if err != nil {
		return err
	}
	fmt.Printf("N = %d sequences (scaled from the paper's 5000)\n", len(seqs))
	fmt.Printf("%-40s (%8.5f, %8.5f)\n", "(Maximum, Minimum) Central", sc.Max, sc.Min)
	fmt.Printf("%-40s %8.5f\n", "Average Centralized", sc.Mean)
	fmt.Printf("%-40s (%8.5f, %8.5f)\n", "(Maximum, Minimum) Globalized", sg.Max, sg.Min)
	fmt.Printf("%-40s %8.5f\n", "Average Globalized", sg.Mean)
	fmt.Printf("%-40s %8.5f\n", "Variance w.r.t. Centralized", variance)
	fmt.Printf("%-40s %8.5f\n", "Standard Dev. w.r.t Centralized", stddev)
	fmt.Println("paper reference: max 1.462/1.448, avg 1.113/0.723, var 0.332, σ 0.576")
	return nil
}

func (r *runner) fig3() error {
	r.header("Fig. 3 — rank distribution of the experiment input")
	seqs, err := r.diverseSet(2000)
	if err != nil {
		return err
	}
	counter := kmer.MustCounter(bio.Dayhoff6, kmer.DefaultK)
	profiles := counter.Profiles(seqs, 0)
	ranks, err := kmer.RanksContext(context.Background(), profiles, profiles, kmer.DefaultRankScale, 0)
	if err != nil {
		return err
	}
	fmt.Print(stats.NewHistogram(ranks, 14).Render(40))
	s := stats.Summarize(ranks)
	fmt.Printf("mean %.4f  spread %.4f  (paper: \"in general evenly distributed\")\n",
		s.Mean, s.Max-s.Min)
	return nil
}

func (r *runner) fig4() error {
	r.header("Fig. 4 — execution time vs processors")
	// Real laptop-scale runs. In-process ranks share this machine's
	// cores, so wall-clock gains are bounded by core count; the
	// algorithmic gain (total work falling with p) shows in the trend.
	n := 1024
	if r.quick {
		n = 128
	}
	seqs, err := samplealign.GenerateDiverseSet(n, 120, r.seed+1)
	if err != nil {
		return err
	}
	fmt.Printf("real runs (N=%d, in-process ranks sharing local cores):\n", n)
	fmt.Printf("%6s %12s\n", "p", "seconds")
	for _, p := range []int{1, 2, 4, 8} {
		_, secs, err := r.measure(seqs, p)
		if err != nil {
			return err
		}
		fmt.Printf("%6d %12.3f\n", p, secs)
	}
	fmt.Println("paper reference: curves decline sharply with p; 20000@16 ≈ tens of seconds")
	return nil
}

func (r *runner) fig5() error {
	r.header("Fig. 5 — speedup curves (superlinear)")
	n := 1024
	if r.quick {
		n = 128
	}
	seqs, err := samplealign.GenerateDiverseSet(n, 120, r.seed+1)
	if err != nil {
		return err
	}
	fmt.Printf("real runs (N=%d):\n%6s %12s %10s\n", n, "p", "seconds", "speedup")
	var t1 float64
	for _, p := range []int{1, 2, 4, 8} {
		_, secs, err := r.measure(seqs, p)
		if err != nil {
			return err
		}
		if p == 1 {
			t1 = secs
		}
		fmt.Printf("%6d %12.3f %10.2f\n", p, secs, t1/secs)
	}
	fmt.Println("paper reference: superlinear; N=5000/10000 dip at p=16, N=20000 keeps rising")
	return nil
}

func (r *runner) fig6() error {
	r.header("Fig. 6 — 2000 Methanosarcina acetivorans proteins")
	n := 256
	if r.quick {
		n = 96
	}
	seqs, err := samplealign.SampleGenomeProteins(
		samplealign.GenomeConfig{TargetBP: 600000, MeanProteinLen: 120, Seed: r.seed + 2}, n, r.seed+3)
	if err != nil {
		return err
	}
	fmt.Printf("real runs (synthetic genome sample, N=%d):\n%6s %12s\n", n, "p", "seconds")
	for _, p := range []int{1, 4, 8} {
		_, secs, err := r.measure(seqs, p)
		if err != nil {
			return err
		}
		fmt.Printf("%6d %12.3f\n", p, secs)
	}
	fmt.Println("paper reference (N=2000, L=316): sequential MUSCLE ≈ 23 h; 9.82 min on 16 nodes, a 142× speedup")
	return nil
}

func (r *runner) table2() error {
	r.header("Table 2 — PREFAB Q scores")
	numSets, perSet, meanLen := 12, 20, 160
	if r.quick {
		numSets, perSet, meanLen = 4, 10, 100
	}
	// Default divergence band (relatedness 1000–1800) puts the reference
	// pairs in the twilight zone, where the paper's Q band (0.54–0.65)
	// lives; see internal/prefab.
	sets, err := prefab.Generate(prefab.Config{
		NumSets: numSets, SeqsPerSet: perSet, MeanLen: meanLen,
		Seed: r.seed + 4,
	})
	if err != nil {
		return err
	}
	type method struct {
		label string
		al    msa.Aligner
	}
	methods := []method{{"Sample-Align-D (p=4)", &core.InprocAligner{P: 4, Cfg: r.realConfig()}}}
	for _, e := range [][2]string{
		{"MUSCLE", "muscle-refined"},
		{"MUSCLE-p (draft)", "muscle"},
		{"T-Coffee", "tcoffee"},
		{"NWNSI", "nwnsi"},
		{"FFTNSI", "fftnsi"},
		{"CLUSTALW", "clustal"},
	} {
		al, err := engines.New(e[1], r.workers)
		if err != nil {
			return err
		}
		methods = append(methods, method{e[0], al})
	}
	paperQ := map[string]float64{
		"Sample-Align-D (p=4)": 0.544, "MUSCLE": 0.645, "MUSCLE-p (draft)": 0.634,
		"T-Coffee": 0.615, "NWNSI": 0.615, "FFTNSI": 0.591, "CLUSTALW": 0.563,
	}
	fmt.Printf("%-24s %10s %10s %10s\n", "METHOD", "Q (ours)", "Q (paper)", "seconds")
	for _, m := range methods {
		start := time.Now()
		q, _, err := prefab.Evaluate(context.Background(), m.al, sets)
		if err != nil {
			return err
		}
		fmt.Printf("%-24s %10.3f %10.3f %10.1f\n", m.label, q, paperQ[m.label], time.Since(start).Seconds())
	}
	fmt.Println("shape to check: Sample-Align-D within the band of the sequential tools,")
	fmt.Println("below full MUSCLE (the paper's fine-grained-partitioning caveat)")
	return nil
}

func (r *runner) comm() error {
	r.header("§3 — communication cost and load balance")
	n := 512
	if r.quick {
		n = 128
	}
	seqs, err := samplealign.GenerateDiverseSet(n, 120, r.seed+5)
	if err != nil {
		return err
	}
	fmt.Printf("%6s %14s %12s %14s %12s\n", "p", "bytes sent", "messages", "max bucket", "bound 2N/p")
	for _, p := range []int{2, 4, 8} {
		res, _, err := r.measure(seqs, p)
		if err != nil {
			return err
		}
		var bytes, msgs int64
		for _, s := range res.Stats {
			bytes += s.Comm.BytesSent
			msgs += s.Comm.MsgsSent
		}
		maxBucket := 0
		for _, sz := range res.Stats[0].BucketSizes {
			if sz > maxBucket {
				maxBucket = sz
			}
		}
		fmt.Printf("%6d %14d %12d %14d %12d\n", p, bytes, msgs, maxBucket, 2*n/p)
	}
	return nil
}
