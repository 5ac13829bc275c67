package samplealign

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/msa"
)

// Option customises an Align run.
type Option func(*core.Config) error

func buildConfig(opts []Option) (core.Config, error) {
	var cfg core.Config
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return core.Config{}, err
		}
	}
	return cfg, nil
}

// WithWorkers bounds the shared-memory workers used inside each rank
// (default 1, modelling single-CPU cluster nodes). n == 0 means "all
// cores". Alignments are byte-identical for every worker count; workers
// only change wall-clock time.
func WithWorkers(n int) Option {
	return func(cfg *core.Config) error {
		if n < 0 {
			return fmt.Errorf("samplealign: workers = %d", n)
		}
		if n == 0 {
			// core treats 0 as "apply the single-CPU default of 1", so
			// "all cores" travels as a negative sentinel, which every
			// engine resolves to par.DefaultWorkers().
			n = -1
		}
		cfg.Workers = n
		return nil
	}
}

// WithK sets the k-mer length used for ranking (default 6). A k whose
// code space over the compressed alphabet overflows is rejected here,
// not deep inside the run on every rank at once.
func WithK(k int) Option {
	return func(cfg *core.Config) error {
		if err := core.CheckK(k); err != nil {
			return fmt.Errorf("samplealign: %w", err)
		}
		cfg.K = k
		return nil
	}
}

// WithSampleSize sets k, the number of sample sequences each rank
// contributes to the globalised rank (default max(p−1, 4)).
func WithSampleSize(k int) Option {
	return func(cfg *core.Config) error {
		if k < 1 {
			return fmt.Errorf("samplealign: sample size = %d", k)
		}
		cfg.SampleSize = k
		return nil
	}
}

// NewAligner builds one of the built-in sequential MSA pipelines by name
// (see SequentialAligners). Useful both standalone and via
// WithLocalAligner. The registry itself lives in internal/engines so the
// job server can resolve request aligner names through the same table.
func NewAligner(name string, workers int) (msa.Aligner, error) {
	al, err := engines.New(name, workers)
	if err != nil {
		return nil, fmt.Errorf("samplealign: unknown aligner %q (have %v)",
			name, SequentialAligners())
	}
	return al, nil
}

// WithLocalAligner selects the sequential MSA pipeline run inside each
// bucket by name (default "muscle").
func WithLocalAligner(name string) Option {
	return func(cfg *core.Config) error {
		if _, err := NewAligner(name, 1); err != nil {
			return err
		}
		cfg.NewLocalAligner = func(workers int) msa.Aligner {
			al, _ := engines.New(name, workers)
			return al
		}
		return nil
	}
}
