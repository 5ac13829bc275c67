package profile_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/bio"
	"repro/internal/profile"
	"repro/internal/rose"
	"repro/internal/submat"
)

// goldenKernelHash is the SHA-256 that TestKernelGoldenHash reads off
// the kernel's outputs, recorded before the column scores ran as SSE2
// sweeps. A change to the PSP kernel that is meant to keep every byte
// must leave it as it is.
const goldenKernelHash = "63eddccf8fd7a498b3722bce48a75dcd1b8e7e72da6cfeea2ab0abf1ca913c7e"

// TestKernelGoldenHash pins the PSP kernel's exact output in absolute
// terms, where ref_test.go's oracle pins it only relative to a second
// implementation: it hashes the path and math.Float64bits(score) of
// Align on a deep×deep and a leaf×deep pair of ROSE profiles, and of
// AlignBanded on the deep pair, against a fixed hash.
func TestKernelGoldenHash(t *testing.T) {
	fam, err := rose.Evolve(rose.Config{N: 24, MeanLen: 260, Seed: 2008})
	if err != nil {
		t.Fatal(err)
	}
	deep := func(lo, hi int, weights []float64) *profile.Profile {
		idx := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			idx = append(idx, i)
		}
		aln, err := fam.TrueAlignment(idx)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([][]byte, len(aln.Seqs))
		for i, s := range aln.Seqs {
			rows[i] = s.Data
		}
		p, err := profile.FromRows(bio.AminoAcids, rows, weights)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	weights := make([]float64, 9)
	for i := range weights {
		weights[i] = 0.3 + float64(i)/7
	}
	a, b := deep(0, 12, nil), deep(12, 21, weights)
	leaf := profile.FromSequence(bio.AminoAcids, fam.Seqs()[23].Data)

	h := sha256.New()
	add := func(path profile.Path, score float64) {
		for _, op := range path {
			h.Write([]byte{byte(op)})
		}
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(score)))
	}
	al := profile.NewAligner(submat.BLOSUM62, submat.DefaultProteinGap)
	add(al.Align(a, b))
	add(al.Align(leaf, b))
	add(al.AlignBanded(a, b, -15, 25))
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenKernelHash {
		t.Fatalf("kernel output hash %s, want %s", got, goldenKernelHash)
	}
}
