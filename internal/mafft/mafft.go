// Package mafft implements a MAFFT-like progressive aligner (Katoh et
// al. 2002) for the paper's Table 2 baselines:
//
//   - FFTNSI: group-to-group alignments are restricted to a diagonal band
//     chosen by FFT cross-correlation of residue volume/polarity signals
//     (homologous segments show up as correlation peaks).
//   - NWNSI: the same pipeline with plain (unbanded) profile DP.
//
// Both run k-mer distances + UPGMA for the guide tree and finish with
// iterative refinement rounds — the "NS-i" part of the MAFFT names.
package mafft

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/bio"
	"repro/internal/fft"
	"repro/internal/kmer"
	"repro/internal/msa"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/submat"
	"repro/internal/tree"
)

// Options configures the MAFFT-like aligner.
type Options struct {
	UseFFT    bool // banded alignment along FFT-detected offsets
	Refine    int  // iterative refinement rounds (the "i" suffix)
	BandPad   int  // extra half-width around detected offsets (default 32)
	PeakCount int  // number of correlation peaks considered (default 8)
	Workers   int
	Sub       *submat.Matrix
	Gap       submat.Gap
	K         int
	Compress  *bio.Compressed
}

// Aligner is the MAFFT-like progressive aligner.
type Aligner struct {
	opts Options
	name string
}

// NewFFTNSI returns the FFT-banded iterative variant (MAFFT FFT-NS-i).
func NewFFTNSI(workers int) *Aligner {
	return newAligner(Options{UseFFT: true, Refine: 2, Workers: workers}, "fftnsi")
}

// NewNWNSI returns the unbanded iterative variant (MAFFT NW-NS-i).
func NewNWNSI(workers int) *Aligner {
	return newAligner(Options{UseFFT: false, Refine: 2, Workers: workers}, "nwnsi")
}

// newAligner builds an aligner with explicit options.
func newAligner(opts Options, name string) *Aligner {
	if opts.Sub == nil {
		opts.Sub = submat.BLOSUM62
	}
	if opts.Gap == (submat.Gap{}) {
		opts.Gap = submat.DefaultProteinGap
	}
	if opts.K == 0 {
		opts.K = kmer.DefaultK
	}
	if opts.Compress == nil {
		opts.Compress = bio.Dayhoff6
	}
	if opts.BandPad <= 0 {
		opts.BandPad = 32
	}
	if opts.PeakCount <= 0 {
		opts.PeakCount = 8
	}
	if name == "" {
		name = "mafft-like"
	}
	return &Aligner{opts: opts, name: name}
}

// Name identifies the variant.
func (a *Aligner) Name() string { return a.name }

// AlignContext runs the pipeline under a context: cancellation is
// observed between phases, per guide-tree merge and per refinement
// split.
func (a *Aligner) AlignContext(ctx context.Context, seqs []bio.Sequence) (*msa.Alignment, error) {
	switch len(seqs) {
	case 0:
		return &msa.Alignment{}, nil
	case 1:
		return &msa.Alignment{Seqs: bio.CloneAll(seqs)}, nil
	}
	for i := range seqs {
		if len(bio.Ungap(seqs[i].Data)) == 0 {
			return nil, fmt.Errorf("mafft: sequence %q is empty", seqs[i].ID)
		}
	}
	counter, err := kmer.NewCounter(a.opts.Compress, a.opts.K)
	if err != nil {
		return nil, err
	}
	profiles := counter.Profiles(seqs, a.opts.Workers)
	dist, err := kmer.DistanceMatrixContext(ctx, profiles, a.opts.Workers)
	if err != nil {
		return nil, err
	}
	_, gsp := obs.Start(ctx, "guidetree")
	gsp.SetStr("method", "upgma")
	gsp.SetInt("n", int64(len(seqs)))
	gsp.SetInt("workers", int64(a.opts.Workers))
	gt := tree.UPGMAWorkers(dist, bio.IDs(seqs), a.opts.Workers)
	gsp.End()

	// The msa engine drives the guide-tree merges and the
	// tree-bipartition refinement; only the pair path is mafft's own.
	prog := msa.NewProgressive(msa.Options{
		Sub: a.opts.Sub, Gap: a.opts.Gap, Workers: a.opts.Workers,
	})
	palign := profile.NewAligner(a.opts.Sub, a.opts.Gap)
	aln, err := prog.AlignWithTreePairs(ctx, seqs, gt, nil, func(pl, pr *profile.Profile) (profile.Path, error) {
		if !a.opts.UseFFT {
			path, _ := palign.Align(pl, pr)
			return path, nil
		}
		lo, hi, err := a.fftBand(pl, pr)
		if err != nil {
			return nil, err
		}
		path, _ := palign.AlignBanded(pl, pr, lo, hi)
		return path, nil
	})
	if err != nil {
		return nil, err
	}
	if a.opts.Refine > 0 {
		aln, err = prog.RefineAlignmentContext(ctx, aln, gt, a.opts.Refine)
		if err != nil {
			return nil, err
		}
	}
	return aln, nil
}

// fftBand cross-correlates the two groups' property signals and returns
// the diagonal range covering the strongest correlation peaks, padded by
// BandPad.
func (a *Aligner) fftBand(pa, pb *profile.Profile) (lo, hi int, err error) {
	sigA := propertySignals(pa)
	sigB := propertySignals(pb)
	n, m := pa.Len(), pb.Len()
	scores := make([]float64, n+m-1)
	for s := 0; s < 2; s++ {
		corr, cerr := fft.CrossCorrelate(sigA[s], sigB[s])
		if cerr != nil {
			return 0, 0, cerr
		}
		for i, v := range corr {
			scores[i] += v
		}
	}
	// pick the top PeakCount shifts
	type peak struct {
		shift int
		score float64
	}
	peaks := make([]peak, 0, len(scores))
	for i, v := range scores {
		peaks = append(peaks, peak{shift: i - (n - 1), score: v})
	}
	sort.Slice(peaks, func(i, j int) bool { return peaks[i].score > peaks[j].score })
	k := a.opts.PeakCount
	if k > len(peaks) {
		k = len(peaks)
	}
	lo, hi = peaks[0].shift, peaks[0].shift
	for _, p := range peaks[:k] {
		if p.shift < lo {
			lo = p.shift
		}
		if p.shift > hi {
			hi = p.shift
		}
	}
	return lo - a.opts.BandPad, hi + a.opts.BandPad, nil
}

// propertySignals converts a profile to its weighted volume and polarity
// signals (one value per column; gaps contribute zero).
func propertySignals(p *profile.Profile) [2][]float64 {
	var out [2][]float64
	out[0] = make([]float64, p.Len())
	out[1] = make([]float64, p.Len())
	for c := range p.Cols {
		col := &p.Cols[c]
		res := col.Residues()
		if res == 0 {
			continue
		}
		var vol, pol float64
		for k, cnt := range col.Counts {
			if cnt == 0 {
				continue
			}
			letter := p.Alpha.Letter(k)
			vol += cnt * bio.Volume(letter)
			pol += cnt * bio.Polarity(letter)
		}
		out[0][c] = vol / res
		out[1][c] = pol / res
	}
	return out
}
