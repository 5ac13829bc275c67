package samplealign

import (
	"strconv"
	"strings"

	"repro/internal/bio"
)

// aminoAlphabet exposes the standard alphabet to the public helpers
// without leaking the internal package into signatures.
func aminoAlphabet() *bio.Alphabet { return bio.AminoAcids }

// parseSampleAlignName recognises "sample-align-d:<p>" aligner names.
func parseSampleAlignName(name string) (int, bool) {
	rest, ok := strings.CutPrefix(name, "sample-align-d:")
	if !ok {
		return 0, false
	}
	p, err := strconv.Atoi(rest)
	if err != nil || p < 1 {
		return 0, false
	}
	return p, true
}
