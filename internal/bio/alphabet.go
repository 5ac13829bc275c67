// Package bio provides the basic biological data types shared by every other
// package in this repository: residue alphabets, compressed alphabets,
// sequences and per-residue physicochemical properties.
//
// All alignment, k-mer and distance code is written against these types so
// that protein and nucleotide data flow through the same pipelines.
package bio

import "fmt"

// Alphabet is an ordered set of residue letters with O(1) byte-to-index
// lookup. Lookup is case-insensitive: 'a' and 'A' map to the same index.
type Alphabet struct {
	name    string
	letters []byte
	index   [256]int16
}

// newAlphabet builds an alphabet from the given (upper-case) letters.
// It panics if letters contains duplicates; alphabets are meant to be
// package-level constants, so a malformed one is a programming error.
func newAlphabet(name, letters string) *Alphabet {
	a := &Alphabet{name: name, letters: []byte(letters)}
	for i := range a.index {
		a.index[i] = -1
	}
	for i := 0; i < len(letters); i++ {
		u := upper(letters[i])
		if a.index[u] != -1 {
			panic(fmt.Sprintf("bio: duplicate letter %q in alphabet %s", letters[i], name))
		}
		a.index[u] = int16(i)
		a.index[lower(u)] = int16(i)
	}
	return a
}

// Name returns the alphabet's name (for example "amino").
func (a *Alphabet) Name() string { return a.name }

// Len returns the number of letters in the alphabet.
func (a *Alphabet) Len() int { return len(a.letters) }

// Letters returns the alphabet's letters in index order. The caller must
// not modify the returned slice.
func (a *Alphabet) Letters() []byte { return a.letters }

// Index returns the index of b in the alphabet, or -1 if b is not a
// member (gaps, ambiguity codes and stray bytes all return -1).
func (a *Alphabet) Index(b byte) int { return int(a.index[b]) }

// Letter returns the letter at index i.
func (a *Alphabet) Letter(i int) byte { return a.letters[i] }

// Contains reports whether b is a letter of the alphabet.
func (a *Alphabet) Contains(b byte) bool { return a.index[b] >= 0 }

func upper(b byte) byte {
	if b >= 'a' && b <= 'z' {
		return b - 'a' + 'A'
	}
	return b
}

func lower(b byte) byte {
	if b >= 'A' && b <= 'Z' {
		return b - 'A' + 'a'
	}
	return b
}

// AminoAcids is the standard 20-letter amino-acid alphabet in the
// conventional BLOSUM row order (ARNDCQEGHILKMFPSTWYV).
var AminoAcids = newAlphabet("amino", "ARNDCQEGHILKMFPSTWYV")

// DNA is the 4-letter nucleotide alphabet.
var DNA = newAlphabet("dna", "ACGT")
