package genome

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bio"
)

func TestTranslateKnown(t *testing.T) {
	if got := translate([]byte("ATGGCTTGG")); string(got) != "MAW" {
		t.Fatalf("translate = %q, want MAW", got)
	}
	// stop codon terminates
	if got := translate([]byte("ATGTAAGCT")); string(got) != "M" {
		t.Fatalf("translate with stop = %q, want M", got)
	}
	// incomplete trailing codon ignored
	if got := translate([]byte("ATGGC")); string(got) != "M" {
		t.Fatalf("translate trailing = %q", got)
	}
	// unknown codon → X
	if got := translate([]byte("ATGNNN")); string(got) != "MX" {
		t.Fatalf("translate unknown = %q", got)
	}
}

func TestGeneticCodeComplete(t *testing.T) {
	if len(geneticCode) != 64 {
		t.Fatalf("genetic code has %d codons", len(geneticCode))
	}
	stops := 0
	for _, aa := range geneticCode {
		if aa == '*' {
			stops++
			continue
		}
		if !bio.AminoAcids.Contains(aa) {
			t.Fatalf("code maps to non-residue %q", aa)
		}
	}
	if stops != 3 {
		t.Fatalf("%d stop codons", stops)
	}
}

func TestBackTranslateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	protein := []byte("MKVLWACDEFGHIKLMNPQRSTVWY")
	dna := backTranslate(protein, rng)
	if len(dna) != len(protein)*3 {
		t.Fatalf("dna length %d", len(dna))
	}
	back := translate(dna)
	if !bytes.Equal(back, protein) {
		t.Fatalf("round trip %q != %q", back, protein)
	}
}

func TestReverseComplement(t *testing.T) {
	if got := reverseComplement([]byte("ATGC")); string(got) != "GCAT" {
		t.Fatalf("revcomp = %q", got)
	}
	if got := reverseComplement(reverseComplement([]byte("AATTGGCC"))); string(got) != "AATTGGCC" {
		t.Fatalf("double revcomp = %q", got)
	}
}

func TestFindORFsForward(t *testing.T) {
	// spacer ATG [MAW] TAA spacer — one clean forward ORF
	dna := append([]byte("CCCC"), []byte("ATGGCTTGGTAA")...)
	dna = append(dna, []byte("CCCC")...)
	orfs := findORFs(dna, 3)
	found := false
	for _, o := range orfs {
		if !o.Reverse && string(o.Protein) == "MAW" {
			found = true
			if o.Start != 4 || o.End != 16 {
				t.Fatalf("ORF coords [%d,%d)", o.Start, o.End)
			}
		}
	}
	if !found {
		t.Fatalf("forward MAW ORF not found: %+v", orfs)
	}
}

func TestFindORFsReverse(t *testing.T) {
	gene := []byte("ATGGCTTGGTAA") // codes MAW forward
	dna := append([]byte("CC"), reverseComplement(gene)...)
	dna = append(dna, []byte("CC")...)
	orfs := findORFs(dna, 3)
	found := false
	for _, o := range orfs {
		if o.Reverse && string(o.Protein) == "MAW" {
			found = true
		}
	}
	if !found {
		t.Fatalf("reverse ORF not found: %+v", orfs)
	}
}

func TestFindORFsMinLength(t *testing.T) {
	dna := []byte("ATGGCTTGGTAA") // 4 codons total
	if orfs := findORFs(dna, 10); len(orfs) != 0 {
		t.Fatalf("short ORF passed min filter: %+v", orfs)
	}
}

func TestSynthesizeSmallGenome(t *testing.T) {
	g, err := Synthesize(Config{TargetBP: 60000, MeanProteinLen: 120, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.DNA) < 40000 {
		t.Fatalf("genome only %d bp", len(g.DNA))
	}
	if len(g.Proteins()) < 20 {
		t.Fatalf("only %d proteins", len(g.Proteins()))
	}
	for _, p := range g.Proteins() {
		if err := p.Validate(bio.AminoAcids); err != nil {
			t.Fatal(err)
		}
	}
	// chromosome holds only ACGT
	for i, b := range g.DNA {
		switch b {
		case 'A', 'C', 'G', 'T':
		default:
			t.Fatalf("non-DNA byte %q at %d", b, i)
		}
	}
}

func TestSynthesizedGenesRecoverableByORFScan(t *testing.T) {
	g, err := Synthesize(Config{TargetBP: 30000, MeanProteinLen: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	orfs := findORFs(g.DNA, 50)
	// Every true protein should appear among scanned ORFs as "M"+protein.
	// When an upstream in-frame ATG has no intervening stop, the scanner
	// legitimately reports a longer ORF that ends with the gene, so accept
	// suffix matches too.
	orfSet := map[string]bool{}
	var orfProteins [][]byte
	for _, o := range orfs {
		orfSet[string(o.Protein)] = true
		orfProteins = append(orfProteins, o.Protein)
	}
	missing := 0
	for _, p := range g.Proteins() {
		want := append([]byte("M"), p.Data...)
		if orfSet[string(want)] {
			continue
		}
		suffix := false
		for _, op := range orfProteins {
			if bytes.HasSuffix(op, want) {
				suffix = true
				break
			}
		}
		if !suffix {
			missing++
		}
	}
	if missing > len(g.Proteins())/20 {
		t.Fatalf("%d/%d proteins not recovered by ORF scan", missing, len(g.Proteins()))
	}
}

func TestSampleProperties(t *testing.T) {
	g, err := Synthesize(Config{TargetBP: 100000, MeanProteinLen: 80, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	s1 := g.Sample(10, 1)
	s2 := g.Sample(10, 1)
	if len(s1) != 10 {
		t.Fatalf("sample size %d", len(s1))
	}
	for i := range s1 {
		if !bio.Equal(s1[i], s2[i]) {
			t.Fatal("same-seed samples differ")
		}
	}
	ids := map[string]bool{}
	for _, s := range s1 {
		if ids[s.ID] {
			t.Fatalf("duplicate id %s in sample", s.ID)
		}
		ids[s.ID] = true
	}
	all := g.Sample(1<<30, 1)
	if len(all) != len(g.Proteins()) {
		t.Fatalf("oversample returned %d", len(all))
	}
}

func TestSynthesizeMeanLength(t *testing.T) {
	g, err := Synthesize(Config{TargetBP: 200000, MeanProteinLen: 150, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	mean := bio.MeanLen(g.Proteins())
	if math.Abs(mean-150) > 60 {
		t.Fatalf("mean protein length %g, want ≈150", mean)
	}
}

func TestSynthesizeValidation(t *testing.T) {
	if _, err := Synthesize(Config{TargetBP: 10}); err == nil {
		t.Error("tiny genome accepted")
	}
}
