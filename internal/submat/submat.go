// Package submat provides residue substitution matrices (BLOSUM62, a DNA
// match/mismatch matrix), affine gap-penalty models, and mutation
// probabilities derived from the log-odds scores for use by the synthetic
// sequence evolvers.
package submat

import (
	"fmt"
	"math"

	"repro/internal/bio"
)

// Matrix is a symmetric residue substitution score matrix over an
// alphabet, with a fixed penalty for scoring against any byte outside the
// alphabet (ambiguity codes and the like).
type Matrix struct {
	name    string
	alpha   *bio.Alphabet
	scores  [][]float64
	unknown float64
}

// New builds a Matrix from a dense score table in alphabet letter order.
// It panics if the table shape does not match the alphabet; matrices are
// package-level constants.
func New(name string, alpha *bio.Alphabet, table [][]float64, unknown float64) *Matrix {
	n := alpha.Len()
	if len(table) != n {
		panic(fmt.Sprintf("submat: %s: %d rows for %d-letter alphabet", name, len(table), n))
	}
	m := &Matrix{name: name, alpha: alpha, scores: table, unknown: unknown}
	for i, row := range table {
		if len(row) != n {
			panic(fmt.Sprintf("submat: %s: row %d has %d cols", name, i, len(row)))
		}
		for j, v := range row {
			if math.Abs(v-table[j][i]) > 1e-9 {
				panic(fmt.Sprintf("submat: %s: asymmetric at (%d,%d)", name, i, j))
			}
		}
	}
	return m
}

// Name returns the matrix name.
func (m *Matrix) Name() string { return m.name }

// Alphabet returns the matrix's residue alphabet.
func (m *Matrix) Alphabet() *bio.Alphabet { return m.alpha }

// Score returns the substitution score for residue bytes a and b.
// Any byte outside the alphabet scores m.Unknown().
func (m *Matrix) Score(a, b byte) float64 {
	i, j := m.alpha.Index(a), m.alpha.Index(b)
	if i < 0 || j < 0 {
		return m.unknown
	}
	return m.scores[i][j]
}

// ScoreIdx returns the substitution score by alphabet indices. Both
// indices must be valid.
func (m *Matrix) ScoreIdx(i, j int) float64 { return m.scores[i][j] }

// Unknown returns the score used for bytes outside the alphabet.
func (m *Matrix) Unknown() float64 { return m.unknown }

// Gap holds affine gap penalties expressed as non-negative costs: opening
// a gap costs Open, each residue in it costs Extend more.
type Gap struct {
	Open   float64
	Extend float64
}

// DefaultProteinGap matches common profile-alignment practice with
// BLOSUM62-scaled scores.
var DefaultProteinGap = Gap{Open: 11, Extend: 1}

// DefaultDNAGap is a standard nucleotide gap model.
var DefaultDNAGap = Gap{Open: 10, Extend: 0.5}

// blosum62 in ARNDCQEGHILKMFPSTWYV order (half-bit scores).
var blosum62 = [][]float64{
	{4, -1, -2, -2, 0, -1, -1, 0, -2, -1, -1, -1, -1, -2, -1, 1, 0, -3, -2, 0},
	{-1, 5, 0, -2, -3, 1, 0, -2, 0, -3, -2, 2, -1, -3, -2, -1, -1, -3, -2, -3},
	{-2, 0, 6, 1, -3, 0, 0, 0, 1, -3, -3, 0, -2, -3, -2, 1, 0, -4, -2, -3},
	{-2, -2, 1, 6, -3, 0, 2, -1, -1, -3, -4, -1, -3, -3, -1, 0, -1, -4, -3, -3},
	{0, -3, -3, -3, 9, -3, -4, -3, -3, -1, -1, -3, -1, -2, -3, -1, -1, -2, -2, -1},
	{-1, 1, 0, 0, -3, 5, 2, -2, 0, -3, -2, 1, 0, -3, -1, 0, -1, -2, -1, -2},
	{-1, 0, 0, 2, -4, 2, 5, -2, 0, -3, -3, 1, -2, -3, -1, 0, -1, -3, -2, -2},
	{0, -2, 0, -1, -3, -2, -2, 6, -2, -4, -4, -2, -3, -3, -2, 0, -2, -2, -3, -3},
	{-2, 0, 1, -1, -3, 0, 0, -2, 8, -3, -3, -1, -2, -1, -2, -1, -2, -2, 2, -3},
	{-1, -3, -3, -3, -1, -3, -3, -4, -3, 4, 2, -3, 1, 0, -3, -2, -1, -3, -1, 3},
	{-1, -2, -3, -4, -1, -2, -3, -4, -3, 2, 4, -2, 2, 0, -3, -2, -1, -2, -1, 1},
	{-1, 2, 0, -1, -3, 1, 1, -2, -1, -3, -2, 5, -1, -3, -1, 0, -1, -3, -2, -2},
	{-1, -1, -2, -3, -1, 0, -2, -3, -2, 1, 2, -1, 5, 0, -2, -1, -1, -1, -1, 1},
	{-2, -3, -3, -3, -2, -3, -3, -3, -1, 0, 0, -3, 0, 6, -4, -2, -2, 1, 3, -1},
	{-1, -2, -2, -1, -3, -1, -1, -2, -2, -3, -3, -1, -2, -4, 7, -1, -1, -4, -3, -2},
	{1, -1, 1, 0, -1, 0, 0, 0, -1, -2, -2, 0, -1, -2, -1, 4, 1, -3, -2, -2},
	{0, -1, 0, -1, -1, -1, -1, -2, -2, -1, -1, -1, -1, -2, -1, 1, 5, -2, -2, 0},
	{-3, -3, -4, -4, -2, -2, -3, -2, -2, -3, -2, -3, -1, 1, -4, -3, -2, 11, 2, -3},
	{-2, -2, -2, -3, -2, -1, -2, -3, 2, -1, -1, -2, -1, 3, -3, -2, -2, 2, 7, -1},
	{0, -3, -3, -3, -1, -2, -2, -3, -3, 3, 1, -2, 1, -1, -2, -2, 0, -3, -1, 4},
}

// BLOSUM62 is the standard protein substitution matrix in half-bit units.
var BLOSUM62 = New("BLOSUM62", bio.AminoAcids, blosum62, -4)

// DNASimple scores +5 for a match and -4 for a mismatch (BLAST defaults).
var DNASimple = New("DNA+5/-4", bio.DNA, dnaTable(5, -4), -4)

func dnaTable(match, mismatch float64) [][]float64 {
	t := make([][]float64, 4)
	for i := range t {
		t[i] = make([]float64, 4)
		for j := range t[i] {
			if i == j {
				t[i][j] = match
			} else {
				t[i][j] = mismatch
			}
		}
	}
	return t
}

// robinsonFreqs are the Robinson & Robinson background amino-acid
// frequencies in AminoAcids letter order; used to invert the log-odds.
var robinsonFreqs = [20]float64{
	0.07805, 0.05129, 0.04487, 0.05364, 0.01925, 0.04264, 0.06295, 0.07377,
	0.02199, 0.05142, 0.09019, 0.05744, 0.02243, 0.03856, 0.05203, 0.07120,
	0.05841, 0.01330, 0.03216, 0.06441,
}

// BackgroundFreq returns the background frequency of the amino acid at
// alphabet index i.
func BackgroundFreq(i int) float64 { return robinsonFreqs[i] }

// MutationProbs derives a row-stochastic substitution probability table
// from the matrix's half-bit log-odds scores:
//
//	P(a→b) ∝ p_b · 2^(S(a,b)/2)
//
// which inverts the BLOSUM construction S = 2·log2(P_ab/(p_a·p_b)).
// The temperature t scales divergence: larger t flattens the rows toward
// the background distribution (more divergent evolution), t=1 recovers
// the matrix's native target frequencies.
func (m *Matrix) MutationProbs(t float64) [][]float64 {
	n := m.alpha.Len()
	probs := make([][]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, n)
		var sum float64
		for j := 0; j < n; j++ {
			w := robinsonFreqs[j%20] * math.Exp2(m.scores[i][j]/(2*t))
			row[j] = w
			sum += w
		}
		for j := range row {
			row[j] /= sum
		}
		probs[i] = row
	}
	return probs
}
