package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"hash/fnv"

	"repro/internal/bio"
	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/fasta"
	"repro/internal/msa"
)

// workload is one benchmarked input → op pair. setup makes the inputs
// from the seed, runs one untimed warm-up op and returns the runner
// ready for its first timed op; everything it does is setup_s.
type workload struct {
	name  string // BENCHMARK.json says why each is here
	setup func(cfg runConfig) (runner, error)
}

// runConfig is what a run hands every workload.
type runConfig struct {
	seed    int64
	quick   bool   // toy sizes, for tests only
	dataDir string // scratch space inside the checkout, for the traced pass's durable servers and stores
}

// runner executes the ops of one set-up workload.
type runner interface {
	// op runs one operation and checks its output. It times only the
	// operation itself; preparation and checks stay outside the clock.
	op() (opResult, error)
	// qScore is q_score of the last op's output.
	qScore() (float64, error)
	// target is what the traced pass replays the alignment layers on.
	target() replayTarget
}

type opResult struct {
	wall, cpu float64 // seconds
	hash      [sha256.Size]byte
}

// The five workloads. Sizes put one op at 1.5–3 s on a 2-core host:
// nothing shorter is gated (bench/README.md says why).
var alignWorkloads = []alignWorkload{
	{
		name: "seq800w2",
		gen:  func(seed int64) (*dataset, error) { return diverseSet(800, 10, 300, seed) },
		toy:  func(seed int64) (*dataset, error) { return diverseSet(48, 6, 60, seed) },
	},
	{
		name: "sad1200p8",
		gen:  func(seed int64) (*dataset, error) { return diverseSet(1200, 10, 300, seed) },
		toy:  func(seed int64) (*dataset, error) { return diverseSet(96, 6, 60, seed) },
		p:    8,
	},
	{
		name: "long40p2",
		gen:  func(seed int64) (*dataset, error) { return oneFamily(40, 2100, 400, seed) },
		toy:  func(seed int64) (*dataset, error) { return oneFamily(8, 200, 400, seed) },
		p:    2,
	},
	{
		name:    "fftnsi150p4",
		gen:     func(seed int64) (*dataset, error) { return diverseSet(150, 10, 300, seed) },
		toy:     func(seed int64) (*dataset, error) { return diverseSet(32, 4, 60, seed) },
		p:       4,
		aligner: "fftnsi",
	},
}

var workloads = func() []workload {
	var all []workload
	for _, a := range alignWorkloads {
		all = append(all, a.workload())
	}
	return append(all, serveMix)
}()

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// subSeed derives a workload's own seed from the run's seed, so no two
// workloads draw the same families.
func subSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, name)
	return int64(h.Sum64() >> 1)
}

// alignWorkload describes a workload whose op is one alignment of a
// generated set.
type alignWorkload struct {
	name     string
	gen, toy func(seed int64) (*dataset, error) // full size / -quick size
	p        int                                // in-process ranks; 0 = the sequential muscle engine, no core
	aligner  string                             // bucket aligner; "" = core's default (muscle)
}

// seqWorkers is the worker count of the workload that runs the muscle
// engine without core. Two, not one: on this 2-vCPU host the CPU time
// of a lone busy thread swung by 18–40 % between runs, with both vCPUs
// busy by 5–9 %.
const seqWorkers = 2

func (a alignWorkload) workload() workload {
	return workload{name: a.name, setup: func(cfg runConfig) (runner, error) {
		gen := a.gen
		if cfg.quick {
			gen = a.toy
		}
		data, err := gen(subSeed(cfg.seed, a.name))
		if err != nil {
			return nil, err
		}
		r, err := newAlignRunner(a, data)
		if err != nil {
			return nil, err
		}
		if _, err := r.op(); err != nil {
			return nil, fmt.Errorf("warm-up op: %w", err)
		}
		return r, nil
	}}
}

// alignRunner runs an alignWorkload's ops.
type alignRunner struct {
	spec  alignWorkload
	data  *dataset
	input []byte         // the input as FASTA, as a user would hand it over
	seqs  []bio.Sequence // parsed back from input: what the program sees
	aln   *msa.Alignment // last op's output
	stats []*core.Stats  // last op's per-rank report (nil without core)
}

func newAlignRunner(spec alignWorkload, data *dataset) (*alignRunner, error) {
	var buf bytes.Buffer
	if err := fasta.Write(&buf, data.seqs); err != nil {
		return nil, err
	}
	seqs, err := fasta.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, err
	}
	if len(seqs) != len(data.seqs) {
		return nil, fmt.Errorf("fasta round trip: %d sequences in, %d out", len(data.seqs), len(seqs))
	}
	for i := range seqs {
		if !bio.Equal(seqs[i], data.seqs[i]) {
			return nil, fmt.Errorf("fasta round trip changed sequence %d (%s)", i, data.seqs[i].ID)
		}
	}
	return &alignRunner{spec: spec, data: data, input: buf.Bytes(), seqs: seqs}, nil
}

// align is the operation under test.
func (r *alignRunner) align(ctx context.Context) (*msa.Alignment, []*core.Stats, error) {
	if r.spec.p == 0 {
		al, err := engines.New("muscle", seqWorkers)
		if err != nil {
			return nil, nil, err
		}
		aln, err := msa.AlignWithContext(ctx, al, r.seqs)
		return aln, nil, err
	}
	res, err := core.AlignInprocContext(ctx, r.seqs, r.spec.p, r.coreConfig())
	if err != nil {
		return nil, nil, err
	}
	return res.Alignment, res.Stats, nil
}

func (r *alignRunner) coreConfig() core.Config {
	var cfg core.Config
	if name := r.spec.aligner; name != "" {
		cfg.NewLocalAligner = func(workers int) msa.Aligner {
			al, err := engines.New(name, workers)
			if err != nil {
				panic(err) // a workload naming an engine the registry lacks is a bench bug
			}
			return al
		}
	}
	return cfg
}

func (r *alignRunner) op() (opResult, error) {
	w := startWatch()
	aln, stats, err := r.align(context.Background())
	wall, cpu := w.stop()
	if err != nil {
		return opResult{}, err
	}
	if err := checkAlignment(aln, r.seqs); err != nil {
		return opResult{}, err
	}
	r.aln, r.stats = aln, stats
	h := sha256.New()
	if err := fasta.Write(h, aln.Seqs); err != nil {
		return opResult{}, err
	}
	res := opResult{wall: wall, cpu: cpu}
	h.Sum(res.hash[:0])
	return res, nil
}

func (r *alignRunner) qScore() (float64, error) { return r.data.qScore(r.aln) }

// checkAlignment verifies an op's output against its input: a valid
// alignment whose rows are the inputs, in input order, with nothing
// but gaps added.
func checkAlignment(aln *msa.Alignment, input []bio.Sequence) error {
	if aln == nil {
		return fmt.Errorf("no alignment returned")
	}
	if err := aln.Validate(); err != nil {
		return err
	}
	if aln.NumSeqs() != len(input) {
		return fmt.Errorf("%d rows for %d inputs", aln.NumSeqs(), len(input))
	}
	for i, row := range aln.Seqs {
		if row.ID != input[i].ID {
			return fmt.Errorf("row %d is %q, input %d is %q", i, row.ID, i, input[i].ID)
		}
		if !bytes.Equal(bio.Ungap(row.Data), input[i].Data) {
			return fmt.Errorf("row %q ungapped differs from its input", row.ID)
		}
	}
	return nil
}
