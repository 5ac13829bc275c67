package engines_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	samplealign "repro"
	"repro/internal/bio"
	"repro/internal/engines"
	"repro/internal/fasta"
)

// goldenEngineHash is, per registry name, the SHA-256 of the aligned
// FASTA of every goldenInputs set in order (amd64, GOAMD64 v1 and v3).
var goldenEngineHash = map[string]string{
	"muscle":         "d62189c26593a519d4f91f64f0415a1c40bacab8362161b43a5377aacb1af76a",
	"muscle-refined": "ccc7463eb3174c93f35a3bbb569b9b88d6573735185f1370c34daafa9f9df6ee",
	"clustal":        "8c91bf88d48fff20dc9034bafaef8a72c43d54cdab290b1f6f7146d9e9a11343",
	"tcoffee":        "bd6040250b9e30d9f953ee3c48c493fcd1fd2fba94fb3a6523521e05feadaaa5",
	"fftnsi":         "2e901a57185ec9b26fdefa43b8fba4abe9f970af68e642cec9dec2d9d487714d",
	"nwnsi":          "ccc7463eb3174c93f35a3bbb569b9b88d6573735185f1370c34daafa9f9df6ee",
}

// goldenInputs are the fixed sets the golden hashes cover. "banded" is
// long and diverse enough for the FFT band to change the alignment:
// at lengths up to ≈ 300 its band holds the full DP's path, and at
// eight sequences the O(N³·L) tcoffee engine stays quick.
func goldenInputs(t *testing.T) []struct {
	name string
	seqs []bio.Sequence
} {
	t.Helper()
	family, err := samplealign.GenerateFamily(samplealign.FamilyConfig{N: 16, MeanLen: 200, Relatedness: 500, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	mixture, err := samplealign.GenerateDiverseSet(24, 150, 3)
	if err != nil {
		t.Fatal(err)
	}
	banded, err := samplealign.GenerateDiverseSet(8, 600, 3)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		seqs []bio.Sequence
	}{{"family", family}, {"mixture", mixture}, {"banded", banded}}
}

// TestEngineGoldenHash holds every registered engine's output bytes:
// a change to an engine's pipeline that moves one byte of any aligned
// row fails here. It also pins the two equalities the registry is built
// on: nwnsi aligns exactly as muscle-refined, and fftnsi's band does
// bind on the long input (a band that silently widened to full DP would
// make it equal nwnsi there).
func TestEngineGoldenHash(t *testing.T) {
	inputs := goldenInputs(t)
	out := map[string][][]byte{} // name → FASTA per input
	for _, name := range engines.Names() {
		al, err := engines.New(name, 2)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, in := range inputs {
			aln, err := al.AlignContext(context.Background(), in.seqs)
			if err != nil {
				t.Fatalf("%s on %s: %v", name, in.name, err)
			}
			var buf bytes.Buffer
			if err := fasta.Write(&buf, aln.Seqs); err != nil {
				t.Fatal(err)
			}
			out[name] = append(out[name], buf.Bytes())
			h.Write(buf.Bytes())
		}
		got := hex.EncodeToString(h.Sum(nil))
		if want, ok := goldenEngineHash[name]; !ok || got != want {
			t.Errorf("%s: output hash %s, want %s", name, got, want)
		}
	}
	for i, in := range inputs {
		if !bytes.Equal(out["nwnsi"][i], out["muscle-refined"][i]) {
			t.Errorf("%s: nwnsi and muscle-refined differ", in.name)
		}
	}
	last := len(inputs) - 1
	if bytes.Equal(out["fftnsi"][last], out["nwnsi"][last]) {
		t.Errorf("%s: fftnsi equals nwnsi, so the FFT band did not bind", inputs[last].name)
	}
}

// TestSingleGappedSequence: one gapped sequence aligns to its residues,
// as the same row does next to a second sequence, with no all-gap
// column left over; its ID and description stay.
func TestSingleGappedSequence(t *testing.T) {
	in := []bio.Sequence{{ID: "a", Desc: "one row", Data: []byte("-AC--GT-")}}
	for _, name := range engines.Names() {
		al, err := engines.New(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		aln, err := al.AlignContext(context.Background(), in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(aln.Seqs) != 1 {
			t.Fatalf("%s: %d rows", name, len(aln.Seqs))
		}
		if got := aln.Seqs[0]; got.ID != "a" || got.Desc != "one row" || string(got.Data) != "ACGT" {
			t.Errorf("%s: got %q %q %q, want \"a\" \"one row\" \"ACGT\"", name, got.ID, got.Desc, got.Data)
		}
	}
}
