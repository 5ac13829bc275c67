package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/bio"
	"repro/internal/core"
	"repro/internal/dpkern"
	"repro/internal/fasta"
	"repro/internal/kmer"
	"repro/internal/mafft"
	"repro/internal/mpi"
	"repro/internal/msa"
	"repro/internal/pairwise"
	"repro/internal/par"
	"repro/internal/profile"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/submat"
	"repro/internal/tree"
)

// replayTarget is the input the traced pass replays the alignment
// layers on, with the workload's last output for it. For the alignment
// workloads it is the workload's own input; for serve_mix it is the
// first cold job, whose alignment is what one cold request costs.
type replayTarget struct {
	data   *dataset
	input  []byte // data.seqs as FASTA
	seqs   []bio.Sequence
	output *msa.Alignment
	// stats is the per-rank report of the op that produced output, when
	// the op ran core on at least two ranks; otherwise the pass runs
	// core itself, on two ranks, to have stage times to report.
	stats []*core.Stats
	cfg   core.Config
	// opIsAlignment says the workload's op is one alignment of seqs, so
	// replayed pieces are set against the op's own time. Otherwise they
	// are set against the pass's core run on seqs.
	opIsAlignment bool
	// engineWorkers is seqWorkers when the op is the muscle engine
	// itself, which replaySequential then takes apart on as many
	// workers; otherwise 1, the sequential baseline.
	engineWorkers int
}

func (r *alignRunner) target() replayTarget {
	t := replayTarget{data: r.data, input: r.input, seqs: r.seqs, output: r.aln, cfg: r.coreConfig(), opIsAlignment: true, engineWorkers: 1}
	if r.spec.p == 0 {
		t.engineWorkers = seqWorkers
	}
	if r.spec.p >= 2 {
		t.stats = r.stats
	}
	return t
}

func (r *serveRunner) target() replayTarget {
	st := r.plan[0][0]
	rows, err := fasta.Read(bytes.NewReader(r.replies[0][0]))
	if err != nil {
		rows = nil // the op's own checks already parsed these bytes; checkAlignment reports the rest
	}
	return replayTarget{data: st.data, input: st.body, seqs: st.data.seqs, output: &msa.Alignment{Seqs: rows}, engineWorkers: 1}
}

// Replay sizes. They are the same on every workload so that a layer's
// number means the same thing wherever it is read.
const (
	njLeaves        = 600   // tree.nj_s runs on the first min(N, njLeaves) inputs
	mafftSeqs       = 40    // mafft.align_s runs on the first inputs: at most mafftSeqs sequences
	mafftResidues   = 12000 // and at most mafftResidues residues (40 × 300), so long inputs do not take minutes
	pairwisePairs   = 64    // pairwise.global_s runs on the first min(N/2, pairwisePairs) input pairs
	schedLeaves     = 4096  // par.sched_us_per_task reduces a binary tree with this many leaves
	journalAppends  = 500
	journalReplayed = 1500
	storeOps        = 200
	streamBytes     = 3 << 20 // a sad2000p8-sized result
	admitJobs       = 50
	replaySteps     = 110 // serve steps per client on workloads other than serve_mix: 220 cold samples carry a p95
	durableSteps    = 40  // serve steps per client against the durable server
)

// pass is one traced pass: the workload's op once more with counters
// read at its boundaries, then every layer replayed from outside under
// bench-side spans.
type pass struct {
	tr        *tracer
	cfg       runConfig
	out       io.Writer
	m         map[string]float64
	attempted int
	failed    int
}

func tracedPass(w workload, r runner, cfg runConfig, outDir string, out io.Writer) (m map[string]float64, attempted, failed int, err error) {
	p := &pass{tr: newTracer(w.name), cfg: cfg, out: out, m: map[string]float64{}}
	scratch := filepath.Join(cfg.dataDir, fmt.Sprintf("trace-%s-%d", w.name, os.Getpid()))
	defer os.RemoveAll(scratch)
	if _, err := p.tr.do("bench", "traced_pass", func() error { return p.run(r, scratch) }); err != nil {
		return nil, 0, 0, err
	}
	path, err := p.tr.write(outDir)
	if err != nil {
		return nil, 0, 0, err
	}
	fmt.Fprintf(out, "   traced pass: %d spans in %s\n", len(p.tr.spans), path)
	return p.m, p.attempted, p.failed, nil
}

// step runs one replay step inside a span and returns its seconds.
func (p *pass) step(layer, name string, fn func() error) (float64, error) {
	p.attempted++
	s, err := p.tr.do(layer, name, fn)
	if err != nil {
		return 0, fmt.Errorf("%s/%s: %w", layer, name, err)
	}
	return s, nil
}

// count is n at full size and a tenth of it (at least 8) under -quick,
// where the disk-bound replays would otherwise take most of a test's
// time.
func (p *pass) count(n int) int {
	if p.cfg.quick {
		return max(n/10, 8)
	}
	return n
}

// expect records a failed step when an invariant the benchmark states
// does not hold.
func (p *pass) expect(ok bool, format string, args ...any) {
	if !ok {
		p.failed++
		fmt.Fprintf(p.out, "   traced pass: FAIL: %s\n", fmt.Sprintf(format, args...))
	}
}

func (p *pass) run(r runner, scratch string) error {
	ctx := context.Background()

	// The op itself, with the process-wide counters read around it.
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	tally0 := dpkern.TallySnapshot()
	var op opResult
	if _, err := p.step("bench", "op", func() (err error) { op, err = r.op(); return }); err != nil {
		return err
	}
	tally := dpkern.TallySnapshot().Sub(tally0)
	runtime.ReadMemStats(&ms1)
	p.m["bench.op_wall_s"], p.m["bench.op_cpu_s"] = op.wall, op.cpu
	p.m["dpkern.striped_calls"] = float64(tally.Striped)
	p.m["dpkern.escape_calls"] = float64(tally.Escaped)
	p.m["dpkern.striped_share"] = ratio(float64(tally.Striped), float64(tally.Striped+tally.Escaped))
	p.m["dp.allocs_per_op"] = float64(ms1.Mallocs - ms0.Mallocs)
	p.m["dp.alloc_mb_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	t := r.target()
	ref := reference{wall: op.wall, cpu: op.cpu}
	var err error
	if ref.q, err = r.qScore(); err != nil {
		return err
	}

	if err := p.replayFasta(t); err != nil {
		return err
	}
	coreRun, err := p.replayCore(ctx, &t)
	if err != nil {
		return err
	}
	if !t.opIsAlignment {
		ref = coreRun
	}
	if err := p.replaySequential(ctx, t, ref); err != nil {
		return err
	}
	if err := p.replayRanks(ctx, t); err != nil {
		return err
	}
	if err := p.replayKernels(ctx, t); err != nil {
		return err
	}
	if err := p.replaySched(ctx); err != nil {
		return err
	}
	if err := p.replayTransport(ctx, t); err != nil {
		return err
	}
	return p.replayService(r, op, scratch)
}

// reference is the alignment run the replayed pieces are set against.
type reference struct{ wall, cpu, q float64 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// replayFasta times parsing the input and writing the output.
func (p *pass) replayFasta(t replayTarget) (err error) {
	p.m["fasta.parse_s"], err = p.step("fasta", "parse", func() error {
		_, err := fasta.Read(bytes.NewReader(t.input))
		return err
	})
	if err != nil {
		return err
	}
	p.m["fasta.write_s"], err = p.step("fasta", "write", func() error {
		return fasta.Write(io.Discard, t.output.Seqs)
	})
	return err
}

// replayCore reports the stage times and traffic core already returns.
// When the workload's op did not run core on two or more ranks, core
// runs here on two, and that run is returned.
func (p *pass) replayCore(ctx context.Context, t *replayTarget) (run reference, err error) {
	if t.stats == nil {
		var res *core.Result
		w := startWatch()
		if _, err = p.step("core", "align_p2", func() (err error) {
			res, err = core.AlignInprocContext(ctx, t.seqs, 2, t.cfg)
			return
		}); err != nil {
			return run, err
		}
		run.wall, run.cpu = w.stop()
		if err = checkAlignment(res.Alignment, t.seqs); err != nil {
			return run, fmt.Errorf("core on 2 ranks: %w", err)
		}
		if run.q, err = t.data.qScore(res.Alignment); err != nil {
			return run, err
		}
		t.stats = res.Stats
	}
	ranks := len(t.stats)
	stage := func(pick func(core.Timings) time.Duration) (maxS, sumS float64) {
		for _, s := range t.stats {
			d := pick(s.Timings).Seconds()
			maxS, sumS = max(maxS, d), sumS+d
		}
		return
	}
	p.m["core.localrank_max_s"], _ = stage(func(t core.Timings) time.Duration { return t.LocalRank })
	p.m["core.sampling_max_s"], _ = stage(func(t core.Timings) time.Duration { return t.Sampling })
	p.m["core.pivoting_max_s"], _ = stage(func(t core.Timings) time.Duration { return t.Pivoting })
	p.m["core.redistrib_max_s"], _ = stage(func(t core.Timings) time.Duration { return t.Redistrib })
	p.m["core.localalign_max_s"], p.m["core.localalign_sum_s"] = stage(func(t core.Timings) time.Duration { return t.LocalAlign })
	p.m["core.finetune_max_s"], _ = stage(func(t core.Timings) time.Duration { return t.FineTune })
	// Rank 0 gathers: its ancestor and glue times include waiting for
	// the slowest rank.
	p.m["core.ancestor_s"] = t.stats[0].Timings.Ancestor.Seconds()
	p.m["core.glue_s"] = t.stats[0].Timings.Glue.Seconds()

	var sent, msgs int64
	for _, s := range t.stats {
		sent += s.Comm.BytesSent
		msgs += s.Comm.MsgsSent
	}
	p.m["mpi.bytes_sent"], p.m["mpi.msgs_sent"] = float64(sent), float64(msgs)

	// The domain-decomposition bound: regular sampling keeps every
	// bucket at or below 2N/p.
	largest := 0
	for _, b := range t.stats[0].BucketSizes {
		largest = max(largest, b)
	}
	over := float64(largest*ranks) / float64(len(t.seqs))
	p.m["core.bucket_max_over_mean"] = over
	p.expect(over <= 2, "largest bucket is %.2f × N/p, the bound is 2", over)
	return run, nil
}

// replaySequential runs the muscle engine piece by piece — k-mer
// profiles, distance matrix, UPGMA, progressive merging — which is
// both seq800w2's layer breakdown (on its two workers) and every other
// workload's sequential baseline (on one).
func (p *pass) replaySequential(ctx context.Context, t replayTarget, ref reference) error {
	n, workers := len(t.seqs), t.engineWorkers
	cpu0 := cpuSeconds()
	counter := kmer.MustCounter(bio.Dayhoff6, kmer.DefaultK)
	var profiles []kmer.Profile
	profS, err := p.step("kmer", "profiles", func() error {
		profiles = counter.Profiles(t.seqs, workers)
		return nil
	})
	if err != nil {
		return err
	}
	var dm *kmer.Matrix
	dmS, err := p.step("kmer", "distmatrix", func() (err error) {
		dm, err = kmer.DistanceMatrixContext(ctx, profiles, workers)
		return
	})
	if err != nil {
		return err
	}
	var gt *tree.Node
	upgmaS, err := p.step("tree", "upgma", func() error {
		gt = tree.UPGMAWorkers(dm, bio.IDs(t.seqs), workers)
		return nil
	})
	if err != nil {
		return err
	}
	var aln *msa.Alignment
	progS, err := p.step("msa", "progressive", func() (err error) {
		aln, err = msa.MuscleLike(workers).AlignWithTreeContext(ctx, t.seqs, gt, nil)
		return
	})
	if err != nil {
		return err
	}
	baseCPU := cpuSeconds() - cpu0
	if err := checkAlignment(aln, t.seqs); err != nil {
		return fmt.Errorf("sequential replay: %w", err)
	}
	baseQ, err := t.data.qScore(aln)
	if err != nil {
		return err
	}
	p.m["kmer.profiles_s"], p.m["kmer.distmatrix_s"] = profS, dmS
	p.m["kmer.distmatrix_pairs"] = float64(n * (n - 1) / 2)
	p.m["tree.upgma_s"] = upgmaS
	p.m["msa.progressive_s"], p.m["msa.merges"] = progS, float64(n-1)
	coverage := (profS + dmS + upgmaS + progS) / ref.wall
	p.m["msa.replay_coverage"] = coverage
	if t.engineWorkers == seqWorkers && !p.cfg.quick {
		// The op was this very engine, so the pieces add up to it: on a
		// quiet host within 0.85–1.15. The op and the pieces run seconds
		// apart, and a shared host's speed drifts by tens of percent in
		// that time, so only a gap no drift explains fails the pass.
		p.expect(coverage >= 0.6 && coverage <= 1.6, "replayed pieces cover %.2f of the op, want 0.85–1.15 and at the very least 0.6–1.6", coverage)
	}
	p.m["core.seq_baseline_cpu_s"] = baseCPU
	p.m["core.work_ratio"] = baseCPU / ref.cpu
	p.m["core.q_gap"] = baseQ - ref.q

	m := min(n, njLeaves)
	sub := kmer.NewMatrix(m)
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			sub.Set(i, j, dm.At(i, j))
		}
	}
	p.m["tree.nj_s"], err = p.step("tree", "nj", func() error {
		tree.NeighborJoiningWorkers(sub, bio.IDs(t.seqs[:m]), 1)
		return nil
	})
	if err != nil {
		return err
	}
	k, residues := 0, 0
	for k < min(n, mafftSeqs) && (k < 2 || residues+t.seqs[k].Len() <= mafftResidues) {
		residues += t.seqs[k].Len()
		k++
	}
	p.m["mafft.align_s"], err = p.step("mafft", "fftnsi", func() error {
		_, err := mafft.NewFFTNSI(1).AlignContext(ctx, t.seqs[:k])
		return err
	})
	return err
}

// replayRanks times the two k-mer rankings of the decomposition: each
// rank's block against itself, and every sequence against the sample
// pool.
func (p *pass) replayRanks(ctx context.Context, t replayTarget) error {
	ranks := len(t.stats)
	counter := kmer.MustCounter(bio.Dayhoff6, kmer.DefaultK)
	blocks, _ := core.SplitBlocks(t.seqs, ranks)
	var local float64
	for b, block := range blocks {
		profiles := counter.Profiles(block, 1)
		s, err := p.step("kmer", "localrank_block"+strconv.Itoa(b), func() error {
			_, err := kmer.RanksContext(ctx, profiles, profiles, kmer.DefaultRankScale, 1)
			return err
		})
		if err != nil {
			return err
		}
		local += s
	}
	p.m["kmer.localrank_sum_s"] = local

	all := counter.Profiles(t.seqs, 1)
	poolSize := min(len(all), ranks*max(ranks-1, 4)) // core's default SampleSize per rank
	pool := make([]kmer.Profile, poolSize)
	for i := range pool {
		pool[i] = all[i*len(all)/poolSize]
	}
	var err error
	p.m["kmer.samplerank_s"], err = p.step("kmer", "samplerank", func() error {
		_, err := kmer.RanksContext(ctx, all, pool, kmer.DefaultRankScale, 1)
		return err
	})
	return err
}

// replayKernels times the root merge of the output (split in two
// halves) through profile, and the pairwise kernel on input pairs.
func (p *pass) replayKernels(ctx context.Context, t replayTarget) error {
	alpha := submat.BLOSUM62.Alphabet()
	half := func(rows []bio.Sequence) [][]byte {
		a := &msa.Alignment{Seqs: bio.CloneAll(rows)}
		a.RemoveAllGapColumns()
		return a.Rows()
	}
	n := t.output.NumSeqs()
	rowsA, rowsB := half(t.output.Seqs[:n/2]), half(t.output.Seqs[n/2:])
	var pa, pb *profile.Profile
	var err error
	if p.m["profile.fromrows_s"], err = p.step("profile", "fromrows", func() (err error) {
		if pa, err = profile.FromRows(alpha, rowsA, nil); err != nil {
			return err
		}
		pb, err = profile.FromRows(alpha, rowsB, nil)
		return err
	}); err != nil {
		return err
	}
	al := profile.NewAligner(submat.BLOSUM62, submat.DefaultProteinGap)
	var path profile.Path
	if p.m["profile.align_s"], err = p.step("profile", "align", func() error {
		path, _ = al.Align(pa, pb)
		return path.Validate(pa.Len(), pb.Len())
	}); err != nil {
		return err
	}
	p.m["profile.align_cells"] = float64(pa.Len()) * float64(pb.Len())
	// A band as wide as the one the mafft engine falls back to: the
	// length difference plus a margin either side.
	diff := pb.Len() - pa.Len()
	if p.m["profile.align_banded_s"], err = p.step("profile", "align_banded", func() error {
		banded, _ := al.AlignBanded(pa, pb, min(diff, 0)-64, max(diff, 0)+64)
		return banded.Validate(pa.Len(), pb.Len())
	}); err != nil {
		return err
	}
	if p.m["profile.merge_s"], err = p.step("profile", "merge", func() error {
		_, err := profile.Merge(pa, pb, path)
		return err
	}); err != nil {
		return err
	}

	pairs := min(len(t.seqs)/2, pairwisePairs)
	pw := pairwise.NewProtein()
	var cells float64
	p.m["pairwise.global_s"], err = p.step("pairwise", "global", func() error {
		for i := 0; i < pairs; i++ {
			a, b := t.seqs[2*i].Data, t.seqs[2*i+1].Data
			pw.Global(a, b)
			cells += float64(len(a)) * float64(len(b))
		}
		return nil
	})
	p.m["pairwise.global_cells"] = cells
	return err
}

// replaySched measures par.Sched's cost per task on a binary reduction
// of empty tasks, the shape of a guide-tree merge.
func (p *pass) replaySched(ctx context.Context) error {
	for _, v := range []struct {
		metric  string
		workers int
	}{{"par.sched_us_per_task", 1}, {"par.sched_us_per_task_nproc", runtime.NumCPU()}} {
		s := par.NewSched()
		level := make([]par.TaskID, schedLeaves)
		for i := range level {
			level[i] = s.Add(func() error { return nil })
		}
		for len(level) > 1 {
			next := level[:0:0]
			for i := 0; i+1 < len(level); i += 2 {
				next = append(next, s.Add(func() error { return nil }, level[i], level[i+1]))
			}
			level = next
		}
		secs, err := p.step("par", fmt.Sprintf("sched_workers%d", v.workers), func() error { return s.Run(ctx, v.workers) })
		if err != nil {
			return err
		}
		p.m[v.metric] = secs * 1e6 / float64(s.Len())
	}
	return nil
}

// replayTransport moves the payload the decomposition exchanges
// (≈ N·L bytes in total) through the in-process world, through a
// loopback TCP mesh, and through the codec.
func (p *pass) replayTransport(ctx context.Context, t replayTarget) error {
	ranks := len(t.stats)
	part := make([]byte, max(1, bio.TotalLen(t.seqs)/(ranks*ranks)))
	parts := make([][]byte, ranks)
	for i := range parts {
		parts[i] = part
	}
	exchange := func(c mpi.Comm) error {
		got, err := mpi.AllToAllValues(c, 1, parts)
		if err == nil && len(got) != ranks {
			err = fmt.Errorf("all-to-all returned %d parts on %d ranks", len(got), ranks)
		}
		return err
	}
	var err error
	if p.m["mpi.inproc_alltoall_s"], err = p.step("mpi", "inproc_alltoall", func() error {
		return mpi.RunContext(ctx, ranks, exchange)
	}); err != nil {
		return err
	}

	addrs, err := freeAddrs(ranks)
	if err != nil {
		return err
	}
	comms := make([]mpi.Comm, ranks)
	defer func() {
		for _, c := range comms {
			if c != nil {
				c.Close()
			}
		}
	}()
	onEveryRank := func(fn func(rank int) error) error {
		errs := make([]error, ranks)
		var wg sync.WaitGroup
		for r := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[r] = fn(r)
			}()
		}
		wg.Wait()
		return errors.Join(errs...)
	}
	if p.m["mpi.tcp_dial_s"], err = p.step("mpi", "tcp_dial", func() error {
		return onEveryRank(func(r int) (err error) {
			comms[r], err = mpi.DialTCPContext(ctx, mpi.TCPConfig{Rank: r, Addrs: addrs})
			return
		})
	}); err != nil {
		return err
	}
	if p.m["mpi.tcp_alltoall_s"], err = p.step("mpi", "tcp_alltoall", func() error {
		return onEveryRank(func(r int) error { return exchange(comms[r]) })
	}); err != nil {
		return err
	}

	p.m["mpi.codec_s"], err = p.step("mpi", "codec", func() error {
		for range ranks {
			enc, err := mpi.Encode(parts)
			if err != nil {
				return err
			}
			var back [][]byte
			if err := mpi.Decode(enc, &back); err != nil {
				return err
			}
		}
		return nil
	})
	return err
}

// freeAddrs returns n loopback addresses that were free a moment ago.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		defer ln.Close()
	}
	return addrs, nil
}

// replayService measures the service layers on the serve_mix request
// mix: client-side latency by request class against the in-memory
// server, a block against a durable server for what the mix would pay
// on a real disk (fsyncs and journal bytes, as counts), admission and
// batching through a second internal/serve.Server, and the journal and
// the result store on their own. Workloads other than serve_mix run a
// shorter block of the same mix.
func (p *pass) replayService(r runner, op opResult, scratch string) error {
	sr, isServe := r.(*serveRunner)
	if !isServe {
		steps := replaySteps
		if p.cfg.quick {
			steps = 6
		}
		var err error
		if sr, err = newServeRunner(subSeed(p.cfg.seed, "serve_replay"), steps); err != nil {
			return err
		}
		if _, err = p.step("serve", "memory_block", func() (err error) { op, err = sr.op(); return }); err != nil {
			return err
		}
	}
	mem := sr.samples
	for _, c := range []struct {
		name    string
		samples []float64
	}{{"cold", mem.cold}, {"hit", mem.hit}} {
		p.m["serve."+c.name+"_p50_s"] = median(c.samples)
		p.m["serve."+c.name+"_p95_s"] = percentile(c.samples, 95)
		p.expect(p.cfg.quick || supported(len(c.samples), 95), "%d %s samples do not carry a p95", len(c.samples), c.name)
	}
	p.m["serve.result_get_p50_s"] = median(mem.fetch)
	p.m["serve.rejected"] = float64(mem.rejected)
	p.expect(mem.rejected == 0, "%d requests were refused with 429", mem.rejected)

	// The time the server's executor reports for the block's cold jobs,
	// against the two job slots it had for the whole block: the rest is
	// HTTP, admission, queue, cache and respond.
	exec := scrapeValue(sr.scrape[1], "samplealign_job_run_seconds_sum") - scrapeValue(sr.scrape[0], "samplealign_job_run_seconds_sum")
	share := exec / (2 * op.wall)
	p.m["serve.exec_share"] = share
	// The mix is sized for a share near 0.45; the limit leaves room for
	// a busy host, where contended jobs run longer.
	p.expect(p.cfg.quick || (share > 0 && share <= 0.7), "alignment is %.2f of the block: the mix is meant to keep it below 0.6", share)

	// A shorter block of the same mix against a durable server: on a
	// slow disk the full block would take a minute.
	durable, err := newServeRunner(subSeed(p.cfg.seed, "serve_durable"), min(durableSteps, len(sr.plan[0])))
	if err != nil {
		return err
	}
	if _, err := p.step("serve", "durable_block", func() error {
		_, err := durable.run(filepath.Join(scratch, "serve"))
		return err
	}); err != nil {
		return err
	}
	cold := float64(len(durable.samples.cold))
	delta := func(name string) float64 {
		return scrapeValue(durable.scrape[1], name) - scrapeValue(durable.scrape[0], name)
	}
	p.m["store.fsyncs_per_cold_job"] = delta("samplealign_journal_fsyncs_total") / cold
	p.m["store.journal_bytes_per_cold_job"] = delta("samplealign_journal_bytes") / cold

	if err := p.replayAdmission(sr, filepath.Join(scratch, "admit")); err != nil {
		return err
	}
	if err := p.replayJournal(sr.plan[0][0].body, filepath.Join(scratch, "journal")); err != nil {
		return err
	}
	return p.replayResults(sr.replies[0][0], filepath.Join(scratch, "results"))
}

// scrapeValue reads one un-labelled sample from a Prometheus text
// exposition; 0 when it is absent.
func scrapeValue(exposition, name string) float64 {
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, _ := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			return v
		}
	}
	return 0
}

// replayAdmission times Submit until it returns (admission and journal)
// and one batch of eight until all are done, on a durable
// internal/serve.Server of its own.
func (p *pass) replayAdmission(sr *serveRunner, dir string) error {
	srv, err := serve.New(serve.Config{Defaults: serve.Options{Procs: 2}, MaxConcurrent: 2, DataDir: dir})
	if err != nil {
		return err
	}
	defer srv.Close()
	jobs := sr.plan[0]
	singles := min(admitJobs, len(jobs)/2)
	admits := make([]float64, 0, singles)
	if _, err := p.step("serve", "admit", func() error {
		for _, st := range jobs[:singles] {
			t0 := time.Now()
			job, err := srv.Submit(st.data.seqs, serve.Options{})
			admits = append(admits, time.Since(t0).Seconds())
			if err != nil {
				return err
			}
			<-job.Done()
			if v := job.View(); v.State != serve.StateDone {
				return fmt.Errorf("job %s ended %s: %s", v.ID, v.State, v.Error)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	p.m["serve.admit_p50_s"] = median(admits)

	batch := jobs[singles:min(singles+8, len(jobs))]
	items := make([]serve.BatchItem, len(batch))
	for i, st := range batch {
		items[i] = serve.BatchItem{Seqs: st.data.seqs}
	}
	p.m["serve.batch8_s"], err = p.step("serve", "batch8", func() error {
		admitted, err := srv.SubmitBatch(items)
		if err != nil {
			return err
		}
		for _, job := range admitted {
			<-job.Done()
			if v := job.View(); v.State != serve.StateDone {
				return fmt.Errorf("job %s ended %s: %s", v.ID, v.State, v.Error)
			}
		}
		return nil
	})
	return err
}

// replayJournal appends submit-sized records from one writer and from
// two, then reopens the journal and replays it.
func (p *pass) replayJournal(body []byte, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "journal.log")
	j, _, err := store.OpenJournalOptions(path, store.JournalOptions{})
	if err != nil {
		return err
	}
	defer func() { _ = j.Close() }() // closing twice is harmless; the success path checks Close below
	data, err := json.Marshal(map[string]string{"fasta": string(body)})
	if err != nil {
		return err
	}
	rec := store.Record{Type: store.RecSubmit, Job: "j000000", Key: hexKey(0), Time: time.Now(), Data: data}
	appendN := func(n int) ([]float64, error) {
		lat := make([]float64, n)
		for i := range lat {
			t0 := time.Now()
			if err := j.Append(rec); err != nil {
				return nil, err
			}
			lat[i] = time.Since(t0).Seconds()
		}
		return lat, nil
	}

	var single []float64
	if _, err := p.step("store", "journal_append", func() (err error) {
		single, err = appendN(p.count(journalAppends))
		return
	}); err != nil {
		return err
	}
	p.m["store.journal_append_p50_s"] = median(single)

	flushes, flushed := j.Flushes(), j.FlushedRecords()
	var conc [2][]float64
	if _, err := p.step("store", "journal_append_conc2", func() error {
		var errs [2]error
		var wg sync.WaitGroup
		for w := range conc {
			wg.Add(1)
			go func() {
				defer wg.Done()
				conc[w], errs[w] = appendN(p.count(journalAppends) / 2)
			}()
		}
		wg.Wait()
		return errors.Join(errs[:]...)
	}); err != nil {
		return err
	}
	p.m["store.journal_append_conc2_p50_s"] = median(append(conc[0], conc[1]...))
	p.m["store.fsyncs_per_record_conc2"] = ratio(float64(j.Flushes()-flushes), float64(j.FlushedRecords()-flushed))

	replayed := p.count(journalReplayed)
	fill := make([]store.Record, replayed-int(j.Records()))
	for i := range fill {
		fill[i] = rec
	}
	if err := j.AppendBatch(fill); err != nil {
		return err
	}
	if err := j.Close(); err != nil {
		return err
	}
	p.m["store.journal_replay_s"], err = p.step("store", "journal_replay", func() error {
		again, recs, err := store.OpenJournalOptions(path, store.JournalOptions{})
		if err != nil {
			return err
		}
		if len(recs) != replayed {
			return errors.Join(fmt.Errorf("replayed %d records, wrote %d", len(recs), replayed), again.Close())
		}
		return again.Close()
	})
	return err
}

// replayResults puts and gets job-sized results, then streams one the
// size of a sad2000p8 alignment: writes beside reads.
func (p *pass) replayResults(payload []byte, dir string) error {
	rs, err := store.OpenResults(dir, 0, 0)
	if err != nil {
		return err
	}
	meta := []byte(`{"num_seqs":8}`)
	puts, gets := make([]float64, p.count(storeOps)), make([]float64, p.count(storeOps))
	if _, err := p.step("store", "results_put", func() error {
		for i := range puts {
			t0 := time.Now()
			if err := rs.Put(hexKey(i), meta, payload); err != nil {
				return err
			}
			puts[i] = time.Since(t0).Seconds()
		}
		return nil
	}); err != nil {
		return err
	}
	if _, err := p.step("store", "results_get", func() error {
		for i := range gets {
			t0 := time.Now()
			_, got, ok := rs.Get(hexKey(i))
			gets[i] = time.Since(t0).Seconds()
			if !ok || !bytes.Equal(got, payload) {
				return fmt.Errorf("result %d did not read back", i)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	p.m["store.results_put_p50_s"], p.m["store.results_get_p50_s"] = median(puts), median(gets)

	big := bytes.Repeat(payload, streamBytes/len(payload)+1)[:streamBytes]
	if err := rs.Put(hexKey(len(puts)), meta, big); err != nil {
		return err
	}
	p.m["store.results_stream_s"], err = p.step("store", "results_stream", func() error {
		_, rc, size, ok := rs.Open(hexKey(len(puts)))
		if !ok {
			return errors.New("streamed result is missing")
		}
		defer rc.Close()
		n, err := io.Copy(io.Discard, rc)
		if err == nil && (n != size || n != streamBytes) {
			err = fmt.Errorf("streamed %d of %d bytes", n, size)
		}
		return err
	})
	return err
}

// hexKey is a content address for the store replays.
func hexKey(i int) string {
	sum := sha256.Sum256([]byte(strconv.Itoa(i)))
	return hex.EncodeToString(sum[:])
}
