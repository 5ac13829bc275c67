// Package msa implements multiple sequence alignment: the Alignment
// type, sum-of-pairs and Q quality scores, a progressive alignment engine
// with pluggable distances and guide trees, CLUSTALW-style sequence
// weighting and MUSCLE-style iterative refinement.
//
// Two ready-made pipelines reproduce the paper's sequential substrates:
// MuscleLike (k-mer distance + UPGMA + PSP profile alignment) and
// ClustalLike (%-identity distance + neighbour joining + weighting).
package msa

import (
	"fmt"

	"repro/internal/bio"
	"repro/internal/profile"
)

// Alignment is a set of equal-length gapped rows.
type Alignment struct {
	Seqs []bio.Sequence
}

// NumSeqs returns the number of rows.
func (a *Alignment) NumSeqs() int { return len(a.Seqs) }

// Width returns the column count (0 for an empty alignment).
func (a *Alignment) Width() int {
	if len(a.Seqs) == 0 {
		return 0
	}
	return len(a.Seqs[0].Data)
}

// Rows returns the raw row data (shared storage, not a copy).
func (a *Alignment) Rows() [][]byte {
	rows := make([][]byte, len(a.Seqs))
	for i := range a.Seqs {
		rows[i] = a.Seqs[i].Data
	}
	return rows
}

// Validate checks the structural invariants: equal row lengths and no
// column consisting entirely of gaps.
func (a *Alignment) Validate() error {
	if len(a.Seqs) == 0 {
		return nil
	}
	w := a.Width()
	for i, s := range a.Seqs {
		if len(s.Data) != w {
			return fmt.Errorf("msa: row %d (%s) has width %d, want %d", i, s.ID, len(s.Data), w)
		}
	}
	for c := 0; c < w; c++ {
		allGap := true
		for _, s := range a.Seqs {
			if s.Data[c] != bio.Gap {
				allGap = false
				break
			}
		}
		if allGap {
			return fmt.Errorf("msa: column %d is all gaps", c)
		}
	}
	return nil
}

// Ungapped returns the original (gap-free) sequences of the alignment.
func (a *Alignment) Ungapped() []bio.Sequence {
	out := make([]bio.Sequence, len(a.Seqs))
	for i, s := range a.Seqs {
		out[i] = s.Ungapped()
	}
	return out
}

// Profile builds the unweighted profile of the alignment.
func (a *Alignment) Profile(alpha *bio.Alphabet) (*profile.Profile, error) {
	return profile.FromRows(alpha, a.Rows(), nil)
}

// Consensus extracts the alignment's consensus (ancestor) sequence with
// the given minimum column occupancy.
func (a *Alignment) Consensus(alpha *bio.Alphabet, minOcc float64) ([]byte, error) {
	p, err := a.Profile(alpha)
	if err != nil {
		return nil, err
	}
	return p.Consensus(minOcc), nil
}

// Clone deep-copies the alignment.
func (a *Alignment) Clone() *Alignment {
	return &Alignment{Seqs: bio.CloneAll(a.Seqs)}
}

// RemoveAllGapColumns drops every column that holds only gaps, in place,
// and returns the number of columns removed. Merging independently
// aligned groups can create such columns.
func (a *Alignment) RemoveAllGapColumns() int {
	if len(a.Seqs) == 0 {
		return 0
	}
	w := a.Width()
	keep := make([]bool, w)
	kept := 0
	for c := 0; c < w; c++ {
		for _, s := range a.Seqs {
			if s.Data[c] != bio.Gap {
				keep[c] = true
				kept++
				break
			}
		}
	}
	if kept == w {
		return 0
	}
	for i := range a.Seqs {
		dst := a.Seqs[i].Data[:0]
		for c, k := range keep {
			if k {
				dst = append(dst, a.Seqs[i].Data[c])
			}
		}
		a.Seqs[i].Data = dst
	}
	return w - kept
}

// Column returns the bytes of column c.
func (a *Alignment) Column(c int) []byte {
	col := make([]byte, len(a.Seqs))
	for i, s := range a.Seqs {
		col[i] = s.Data[c]
	}
	return col
}
