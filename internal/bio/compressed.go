package bio

import "fmt"

// Compressed is a many-to-one mapping from alphabet letters onto a smaller
// set of residue classes. MUSCLE-style k-mer counting runs over compressed
// alphabets (Edgar, NAR 2004) because grouping chemically similar residues
// makes short k-mers far more sensitive to distant homology.
type Compressed struct {
	name  string
	size  int
	class [256]int8
}

// newCompressed builds a compressed alphabet from residue groups, one
// string per class. Letters absent from every group map to class -1.
// It panics on a letter assigned to two classes (programming error:
// compressed alphabets are package constants).
func newCompressed(name string, groups []string) *Compressed {
	c := &Compressed{name: name, size: len(groups)}
	for i := range c.class {
		c.class[i] = -1
	}
	for ci, g := range groups {
		for i := 0; i < len(g); i++ {
			u := upper(g[i])
			if c.class[u] != -1 {
				panic(fmt.Sprintf("bio: letter %q in two classes of %s", g[i], name))
			}
			c.class[u] = int8(ci)
			c.class[lower(u)] = int8(ci)
		}
	}
	return c
}

// Name returns the compressed alphabet's name.
func (c *Compressed) Name() string { return c.name }

// Len returns the number of residue classes.
func (c *Compressed) Len() int { return c.size }

// Class returns the class index of byte b, or -1 when b has no class
// (gap bytes, ambiguity codes).
func (c *Compressed) Class(b byte) int { return int(c.class[b]) }

// Identity returns a trivial "compression" in which every letter of a is
// its own class, letting the k-mer code run on the full alphabet.
func Identity(a *Alphabet) *Compressed {
	groups := make([]string, a.Len())
	for i := 0; i < a.Len(); i++ {
		groups[i] = string(a.Letter(i))
	}
	return newCompressed(a.Name()+"-id", groups)
}

// Dayhoff6 is the classic six-class Dayhoff grouping
// (AGPST | C | DENQ | FWY | HKR | ILMV) used by MUSCLE's k-mer distance.
var Dayhoff6 = newCompressed("dayhoff6", []string{
	"AGPST", "C", "DENQ", "FWY", "HKR", "ILMV",
})

// SEB14 is Edgar's SE-B(14) compressed alphabet
// (A | C | D | EQ | FY | G | H | IV | KR | LM | N | P | ST | W).
var SEB14 = newCompressed("se-b14", []string{
	"A", "C", "D", "EQ", "FY", "G", "H", "IV", "KR", "LM", "N", "P", "ST", "W",
})
