// Package engines is the registry of built-in sequential MSA pipelines,
// addressable by name. It backs both the public samplealign options
// (WithLocalAligner / NewAligner) and the HTTP job service, which must
// resolve aligners from request strings without importing the public
// package.
package engines

import (
	"fmt"

	"repro/internal/cons"
	"repro/internal/mafft"
	"repro/internal/msa"
)

// Names lists the built-in sequential MSA pipelines in a stable order.
func Names() []string {
	return []string{"muscle", "muscle-refined", "clustal", "tcoffee", "fftnsi", "nwnsi"}
}

// New builds the named pipeline with the given intra-pipeline worker
// budget. Unknown names return an error listing the registry.
func New(name string, workers int) (msa.Aligner, error) {
	switch name {
	case "muscle":
		return msa.MuscleLike(workers), nil
	case "muscle-refined":
		return msa.MuscleLikeRefined(workers), nil
	case "clustal":
		return msa.ClustalLike(workers), nil
	case "tcoffee":
		return cons.New(workers), nil
	case "fftnsi":
		return mafft.NewFFTNSI(workers), nil
	case "nwnsi":
		// MAFFT's NW-NS-i (k-mer distances, UPGMA, full profile DP, two
		// refinement rounds) is muscle-refined under the paper's name.
		return msa.NewProgressive(msa.Options{Refine: 2, Workers: workers, NameTag: "nwnsi"}), nil
	default:
		return nil, fmt.Errorf("engines: unknown aligner %q (have %v)", name, Names())
	}
}

// Valid reports whether name is a registered pipeline.
func Valid(name string) bool {
	_, err := New(name, 1)
	return err == nil
}
