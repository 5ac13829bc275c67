package genome

import (
	"math/rand"
)

// The standard genetic code, codon → amino acid ('*' = stop).
var geneticCode = map[string]byte{
	"TTT": 'F', "TTC": 'F', "TTA": 'L', "TTG": 'L',
	"CTT": 'L', "CTC": 'L', "CTA": 'L', "CTG": 'L',
	"ATT": 'I', "ATC": 'I', "ATA": 'I', "ATG": 'M',
	"GTT": 'V', "GTC": 'V', "GTA": 'V', "GTG": 'V',
	"TCT": 'S', "TCC": 'S', "TCA": 'S', "TCG": 'S',
	"CCT": 'P', "CCC": 'P', "CCA": 'P', "CCG": 'P',
	"ACT": 'T', "ACC": 'T', "ACA": 'T', "ACG": 'T',
	"GCT": 'A', "GCC": 'A', "GCA": 'A', "GCG": 'A',
	"TAT": 'Y', "TAC": 'Y', "TAA": '*', "TAG": '*',
	"CAT": 'H', "CAC": 'H', "CAA": 'Q', "CAG": 'Q',
	"AAT": 'N', "AAC": 'N', "AAA": 'K', "AAG": 'K',
	"GAT": 'D', "GAC": 'D', "GAA": 'E', "GAG": 'E',
	"TGT": 'C', "TGC": 'C', "TGA": '*', "TGG": 'W',
	"CGT": 'R', "CGC": 'R', "CGA": 'R', "CGG": 'R',
	"AGT": 'S', "AGC": 'S', "AGA": 'R', "AGG": 'R',
	"GGT": 'G', "GGC": 'G', "GGA": 'G', "GGG": 'G',
}

var stopCodons = []string{"TAA", "TAG", "TGA"}

// codonsFor is the reverse code: amino acid → synonymous codons.
var codonsFor = func() map[byte][]string {
	m := map[byte][]string{}
	for codon, aa := range geneticCode {
		if aa == '*' {
			continue
		}
		m[aa] = append(m[aa], codon)
	}
	return m
}()

// translate converts DNA to protein, stopping at the first stop codon or
// the end of complete codons. Unknown codons (ambiguity bytes) become 'X'
// which downstream code treats as an unknown residue.
func translate(dna []byte) []byte {
	out := make([]byte, 0, len(dna)/3)
	for i := 0; i+3 <= len(dna); i += 3 {
		aa, ok := geneticCode[string(upperDNA(dna[i:i+3]))]
		if !ok {
			out = append(out, 'X')
			continue
		}
		if aa == '*' {
			break
		}
		out = append(out, aa)
	}
	return out
}

// backTranslate converts a protein to DNA choosing uniformly among
// synonymous codons. Residues without codons (X etc.) become random sense
// codons.
func backTranslate(protein []byte, rng *rand.Rand) []byte {
	out := make([]byte, 0, len(protein)*3)
	for _, aa := range protein {
		codons, ok := codonsFor[aa]
		if !ok {
			// any non-stop codon
			codons = codonsFor['A']
		}
		out = append(out, codons[rng.Intn(len(codons))]...)
	}
	return out
}

// reverseComplement returns the reverse complement strand.
func reverseComplement(dna []byte) []byte {
	out := make([]byte, len(dna))
	for i, b := range dna {
		var c byte
		switch upper1(b) {
		case 'A':
			c = 'T'
		case 'T':
			c = 'A'
		case 'G':
			c = 'C'
		case 'C':
			c = 'G'
		default:
			c = 'N'
		}
		out[len(dna)-1-i] = c
	}
	return out
}

func upper1(b byte) byte {
	if b >= 'a' && b <= 'z' {
		return b - 'a' + 'A'
	}
	return b
}

func upperDNA(codon []byte) []byte {
	var out [3]byte
	for i, b := range codon {
		out[i] = upper1(b)
	}
	return out[:]
}

// ORF is an open reading frame located on the chromosome.
type ORF struct {
	Start, End int  // [Start, End) in forward-strand coordinates
	Reverse    bool // true when the ORF lies on the reverse strand
	Protein    []byte
}

// findORFs scans both strands in all three frames for ATG…stop open
// reading frames of at least minCodons codons (start and stop included).
// Overlapping ORFs are all reported; callers can filter.
func findORFs(dna []byte, minCodons int) []ORF {
	var out []ORF
	scan := func(seq []byte, reverse bool) {
		n := len(seq)
		for frame := 0; frame < 3; frame++ {
			i := frame
			for i+3 <= n {
				if upper1(seq[i]) == 'A' && upper1(seq[i+1]) == 'T' && upper1(seq[i+2]) == 'G' {
					// extend to stop
					j := i + 3
					for ; j+3 <= n; j += 3 {
						aa := geneticCode[string(upperDNA(seq[j:j+3]))]
						if aa == '*' {
							break
						}
					}
					if j+3 <= n { // found a stop
						codons := (j + 3 - i) / 3
						if codons >= minCodons {
							orf := ORF{Reverse: reverse, Protein: translate(seq[i:j])}
							if reverse {
								orf.Start = n - (j + 3)
								orf.End = n - i
							} else {
								orf.Start = i
								orf.End = j + 3
							}
							out = append(out, orf)
						}
						i = j + 3 // continue after the stop in this frame
						continue
					}
				}
				i += 3
			}
		}
	}
	scan(dna, false)
	scan(reverseComplement(dna), true)
	return out
}
