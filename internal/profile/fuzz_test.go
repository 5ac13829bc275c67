package profile

import (
	"testing"

	"repro/internal/bio"
	"repro/internal/dpkern"
	"repro/internal/submat"
)

// FuzzKernelEquivalence drives random byte strings through the scalar
// and striped kernels and requires identical paths and bit-identical
// scores. The raw fuzz bytes are folded onto the amino-acid alphabet,
// so every input is a valid unit-leaf pair and the striped kernel's
// fast path (not just its escape) is exercised; the length cap keeps a
// single case inside the fuzz engine's per-exec budget. The same bytes
// also make a weighted two-row pair with gap mass, and both pairs are
// held to the three-plane reference of ref_test.go, full and banded.
func FuzzKernelEquivalence(f *testing.F) {
	f.Add([]byte("HEAGAWGHEE"), []byte("PAWHEAE"))
	f.Add([]byte("AAAAAAAA"), []byte("AAAA"))
	f.Add([]byte("AGAGAGAGAGAGAG"), []byte("GAGAGAGA")) // tie-heavy
	f.Add([]byte{}, []byte("ACDE"))
	f.Add([]byte{0xff, 0x00, 0x41}, []byte{0x80, 0x7f})

	scalar := NewAligner(submat.BLOSUM62, submat.DefaultProteinGap)
	scalar.Kernel = dpkern.Scalar
	striped := NewAligner(submat.BLOSUM62, submat.DefaultProteinGap)
	striped.Kernel = dpkern.Striped

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
	// wherever the byte's top bit is set: a profile no striped kernel
	// takes, so the scalar rolling-row kernel runs for every setting.
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
		a, b := fold(rawA), fold(rawB)
		sp, ss := scalar.Align(a, b)
		tp, ts := striped.Align(a, b)
		if ss != ts {
			t.Fatalf("score %v (scalar) != %v (striped)", ss, ts)
		}
		if !pathsEqual(sp, tp) {
			t.Fatalf("paths differ:\nscalar  %v\nstriped %v", sp, tp)
		}
		bands := [][2]int{{0, 0}, {-8, 8}}
		checkAgainstOracle(t, a, b, bands)
		checkAgainstOracle(t, multi(rawA), multi(rawB), bands)
	})
}
