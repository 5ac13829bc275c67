// Package mafft holds the FFT band of a MAFFT-like aligner (Katoh et
// al. 2002), the paper's FFTNSI baseline: each group-to-group alignment
// is restricted to a diagonal band chosen by FFT cross-correlation of
// the two groups' residue volume and polarity signals, where homologous
// segments show up as correlation peaks. The rest of FFT-NS-i — k-mer
// distances, a UPGMA guide tree and iterative refinement with full DP —
// is msa.Progressive's; without the band it is MAFFT's NW-NS-i, which
// is the msa engine's refined MUSCLE pipeline.
package mafft

import (
	"sort"

	"repro/internal/bio"
	"repro/internal/fft"
	"repro/internal/msa"
	"repro/internal/profile"
)

const (
	bandPad   = 32 // extra half-width around the detected diagonals
	peakCount = 8  // correlation peaks the band covers
)

// NewFFTNSI returns the FFT-banded iterative pipeline (MAFFT FFT-NS-i).
func NewFFTNSI(workers int) *msa.Progressive {
	return msa.NewProgressive(msa.Options{Refine: 2, Workers: workers, NameTag: "fftnsi", Band: fftBand})
}

// fftBand cross-correlates the two groups' property signals and returns
// the diagonal range covering the strongest correlation peaks, padded by
// bandPad.
func fftBand(pa, pb *profile.Profile) (lo, hi int, err error) {
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
	// pick the top peakCount shifts
	type peak struct {
		shift int
		score float64
	}
	peaks := make([]peak, 0, len(scores))
	for i, v := range scores {
		peaks = append(peaks, peak{shift: i - (n - 1), score: v})
	}
	sort.Slice(peaks, func(i, j int) bool { return peaks[i].score > peaks[j].score })
	k := min(peakCount, len(peaks))
	lo, hi = peaks[0].shift, peaks[0].shift
	for _, p := range peaks[:k] {
		if p.shift < lo {
			lo = p.shift
		}
		if p.shift > hi {
			hi = p.shift
		}
	}
	return lo - bandPad, hi + bandPad, nil
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
