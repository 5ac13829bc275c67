package profile

import (
	"testing"

	"repro/internal/bio"
)

// FuzzKernelEquivalence holds the rolling-row kernel to the three-plane
// reference of ref_test.go, full and banded, on two profile pairs made
// from the fuzz bytes: the bytes folded onto the amino-acid alphabet as
// a unit-leaf pair (where PSP degenerates to the pairwise DP), and the
// same bytes as a weighted two-row pair with gap mass. The length cap
// keeps a single case inside the fuzz engine's per-exec budget.
func FuzzKernelEquivalence(f *testing.F) {
	f.Add([]byte("HEAGAWGHEE"), []byte("PAWHEAE"))
	f.Add([]byte("AAAAAAAA"), []byte("AAAA"))
	f.Add([]byte("AGAGAGAGAGAGAG"), []byte("GAGAGAGA")) // tie-heavy
	f.Add([]byte{}, []byte("ACDE"))
	f.Add([]byte{0xff, 0x00, 0x41}, []byte{0x80, 0x7f})
	f.Add([]byte("W"), []byte("WH"))           // an odd last row, one column
	f.Add([]byte("HE"), []byte("E"))           // one row pair
	f.Add([]byte("HEA"), []byte("PA"))         // a pair and an odd row
	f.Add([]byte("HEAGA"), []byte("PAWH"))     // blocks of 4 and 1 rows, or 2, 2, 1
	f.Add([]byte("HEAGAW"), []byte("PAW"))     // 4 and 2, or three pairs
	f.Add([]byte("HEAGAWG"), []byte("PAWHEA")) // 4 and 3, or 2, 2, 2, 1

	letters := bio.AminoAcids.Letters()
	fold := func(raw []byte) *Profile {
		if len(raw) > 256 {
			raw = raw[:256]
		}
		s := make([]byte, len(raw))
		for i, c := range raw {
			s[i] = letters[int(c)%len(letters)]
		}
		return FromSequence(bio.AminoAcids, s)
	}

	// multi folds the bytes into two weighted rows, the second gapped
	// wherever the byte's top bit is set.
	multi := func(raw []byte) *Profile {
		if len(raw) > 256 {
			raw = raw[:256]
		}
		r0, r1 := make([]byte, len(raw)), make([]byte, len(raw))
		for i, c := range raw {
			r0[i] = letters[int(c)%len(letters)]
			r1[i] = letters[int(c>>2)%len(letters)]
			if c&0x80 != 0 {
				r1[i] = bio.Gap
			}
		}
		p, err := FromRows(bio.AminoAcids, [][]byte{r0, r1}, []float64{1, 0.5})
		if err != nil {
			f.Fatal(err) // equal-length rows cannot mismatch
		}
		return p
	}

	f.Fuzz(func(t *testing.T, rawA, rawB []byte) {
		bands := [][2]int{{0, 0}, {-1, 1}, {-8, 8}}
		checkAgainstOracle(t, fold(rawA), fold(rawB), bands)
		checkAgainstOracle(t, multi(rawA), multi(rawB), bands)
	})
}
