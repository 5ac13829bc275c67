package bio

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAminoAlphabetRoundTrip(t *testing.T) {
	if AminoAcids.Len() != 20 {
		t.Fatalf("amino alphabet has %d letters, want 20", AminoAcids.Len())
	}
	for i := 0; i < AminoAcids.Len(); i++ {
		b := AminoAcids.Letter(i)
		if got := AminoAcids.Index(b); got != i {
			t.Errorf("Index(Letter(%d)) = %d", i, got)
		}
	}
}

func TestAlphabetCaseInsensitive(t *testing.T) {
	if AminoAcids.Index('a') != AminoAcids.Index('A') {
		t.Error("lower-case lookup differs from upper-case")
	}
	if DNA.Index('g') != DNA.Index('G') {
		t.Error("dna lower-case lookup differs")
	}
}

func TestAlphabetRejectsNonMembers(t *testing.T) {
	for _, b := range []byte{'-', '*', ' ', 0, 'B', 'Z', 'J'} {
		if AminoAcids.Contains(b) {
			t.Errorf("amino alphabet unexpectedly contains %q", b)
		}
	}
	if DNA.Contains('N') {
		t.Error("plain DNA alphabet should not contain ambiguity code N")
	}
}

func TestNewAlphabetPanicsOnDuplicate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for duplicate letters")
		}
	}()
	newAlphabet("bad", "AA")
}

func TestSequenceUngap(t *testing.T) {
	s := NewSequence("x", "AC-DE--F")
	u := s.Ungapped()
	if u.String() != "ACDEF" {
		t.Fatalf("Ungapped = %q, want ACDEF", u.String())
	}
	if s.String() != "AC-DE--F" {
		t.Fatal("Ungapped mutated the original")
	}
}

func TestSequenceValidate(t *testing.T) {
	if err := NewSequence("ok", "ACDEF-GHIK").Validate(AminoAcids); err != nil {
		t.Fatalf("valid sequence rejected: %v", err)
	}
	if err := NewSequence("bad", "ACDEF1").Validate(AminoAcids); err == nil {
		t.Fatal("invalid byte accepted")
	}
}

func TestSequenceCloneIndependent(t *testing.T) {
	s := NewSequence("x", "ACDEF")
	c := s.Clone()
	c.Data[0] = 'W'
	if s.Data[0] != 'A' {
		t.Fatal("Clone shares backing storage")
	}
}

func TestCompressedDayhoff6(t *testing.T) {
	if Dayhoff6.Len() != 6 {
		t.Fatalf("Dayhoff6 has %d classes, want 6", Dayhoff6.Len())
	}
	// Same group members agree, different groups differ.
	if Dayhoff6.Class('A') != Dayhoff6.Class('G') {
		t.Error("A and G should share a Dayhoff class")
	}
	if Dayhoff6.Class('I') != Dayhoff6.Class('V') {
		t.Error("I and V should share a Dayhoff class")
	}
	if Dayhoff6.Class('C') == Dayhoff6.Class('W') {
		t.Error("C and W should be in different Dayhoff classes")
	}
	if Dayhoff6.Class('-') != -1 {
		t.Error("gap byte must have class -1")
	}
}

func TestCompressedCoversAminoAlphabet(t *testing.T) {
	for _, c := range []*Compressed{Dayhoff6, SEB14} {
		for i := 0; i < AminoAcids.Len(); i++ {
			b := AminoAcids.Letter(i)
			cl := c.Class(b)
			if cl < 0 || cl >= c.Len() {
				t.Errorf("%s: letter %q has class %d", c.Name(), b, cl)
			}
		}
	}
}

func TestIdentityCompression(t *testing.T) {
	id := Identity(AminoAcids)
	if id.Len() != AminoAcids.Len() {
		t.Fatalf("identity compression has %d classes", id.Len())
	}
	for i := 0; i < AminoAcids.Len(); i++ {
		if id.Class(AminoAcids.Letter(i)) != i {
			t.Errorf("identity class of %q != %d", AminoAcids.Letter(i), i)
		}
	}
}

func TestPropertiesNormalized(t *testing.T) {
	var mv, mp float64
	for i := 0; i < 20; i++ {
		b := AminoAcids.Letter(i)
		mv += Volume(b)
		mp += Polarity(b)
	}
	if math.Abs(mv/20) > 1e-9 || math.Abs(mp/20) > 1e-9 {
		t.Errorf("property means not ~0: vol %g pol %g", mv/20, mp/20)
	}
	if Volume('-') != 0 || Polarity('-') != 0 {
		t.Error("gap byte should carry zero property signal")
	}
	// Tryptophan is the largest residue, glycine the smallest.
	if Volume('W') <= Volume('G') {
		t.Error("expected Volume(W) > Volume(G)")
	}
}

func TestUngapProperty(t *testing.T) {
	// Property: Ungap output never contains a gap and preserves residue order.
	f := func(data []byte) bool {
		out := Ungap(data)
		j := 0
		for _, b := range data {
			if b == Gap {
				continue
			}
			if j >= len(out) || out[j] != b {
				return false
			}
			j++
		}
		return j == len(out)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanLen(t *testing.T) {
	seqs := []Sequence{NewSequence("a", "AAAA"), NewSequence("b", "AA")}
	if got := MeanLen(seqs); got != 3 {
		t.Fatalf("MeanLen = %g, want 3", got)
	}
	if MeanLen(nil) != 0 {
		t.Fatal("MeanLen(nil) != 0")
	}
}
