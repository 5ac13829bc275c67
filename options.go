package samplealign

import (
	"fmt"

	"repro/internal/bio"
	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/kmer"
	"repro/internal/msa"
)

// Option customises an Align run.
type Option func(*settings) error

type settings struct {
	cfg  core.Config
	kSet bool // WithK was given explicitly
}

func buildConfig(opts []Option) (core.Config, error) {
	var s settings
	for _, opt := range opts {
		if err := opt(&s); err != nil {
			return core.Config{}, err
		}
	}
	// Validate the k-mer length against the (possibly compressed)
	// alphabet regardless of option order: k codes must fit the uint32
	// k-mer space. Without this, WithFullAlphabet combined with a large
	// WithK would only fail deep inside the run, on every rank at once.
	comp := s.cfg.Compress
	if comp == nil {
		comp = bio.Dayhoff6
	}
	k := s.cfg.K
	if k == 0 {
		k = kmer.DefaultK
	}
	if _, err := kmer.NewCounter(comp, k); err != nil {
		return core.Config{}, fmt.Errorf("samplealign: k = %d is too large for the %d-letter alphabet: %w",
			k, comp.Len(), err)
	}
	return s.cfg, nil
}

// WithWorkers bounds the shared-memory workers used inside each rank
// (default 1, modelling single-CPU cluster nodes). n == 0 means "all
// cores". Alignments are byte-identical for every worker count; workers
// only change wall-clock time.
func WithWorkers(n int) Option {
	return func(s *settings) error {
		if n < 0 {
			return fmt.Errorf("samplealign: workers = %d", n)
		}
		if n == 0 {
			// core treats 0 as "apply the single-CPU default of 1", so
			// "all cores" travels as a negative sentinel, which every
			// engine resolves to par.DefaultWorkers().
			n = -1
		}
		s.cfg.Workers = n
		return nil
	}
}

// WithK sets the k-mer length used for ranking (default 6, or 4 with
// WithFullAlphabet). buildConfig rejects combinations whose code space
// alphabet^k overflows, whatever order the options are given in.
func WithK(k int) Option {
	return func(s *settings) error {
		if k < 1 {
			return fmt.Errorf("samplealign: k = %d", k)
		}
		s.cfg.K = k
		s.kSet = true
		return nil
	}
}

// WithSampleSize sets k, the number of sample sequences each rank
// contributes to the globalised rank (default max(p−1, 4)).
func WithSampleSize(k int) Option {
	return func(s *settings) error {
		if k < 1 {
			return fmt.Errorf("samplealign: sample size = %d", k)
		}
		s.cfg.SampleSize = k
		return nil
	}
}

// WithoutFineTune disables the global-ancestor fine-tuning step
// (buckets are concatenated block-diagonally); exposed for ablation.
func WithoutFineTune() Option {
	return func(s *settings) error {
		s.cfg.NoFineTune = true
		return nil
	}
}

// WithRandomSampling switches pivot selection from the paper's regular
// sampling to uniform random sampling; exposed for ablation.
func WithRandomSampling() Option {
	return func(s *settings) error {
		s.cfg.Sampling = core.RandomSampling
		return nil
	}
}

// WithFullAlphabet computes k-mers over the full 20-letter amino-acid
// alphabet instead of the compressed Dayhoff classes; exposed for
// ablation. Unless WithK was given explicitly (in either order), k
// defaults to 4 to keep the 20^k code space small; explicit k values
// are validated against the alphabet in buildConfig.
func WithFullAlphabet() Option {
	return func(s *settings) error {
		s.cfg.Compress = bio.Identity(bio.AminoAcids)
		if !s.kSet {
			s.cfg.K = 4
		}
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
	return func(s *settings) error {
		if _, err := NewAligner(name, 1); err != nil {
			return err
		}
		s.cfg.NewLocalAligner = func(workers int) msa.Aligner {
			al, _ := engines.New(name, workers)
			return al
		}
		return nil
	}
}
