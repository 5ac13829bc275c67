package samplealign

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"strings"
	"testing"

	"repro/internal/bio"
)

func testSeqs(t *testing.T, n int) []Sequence {
	t.Helper()
	seqs, err := GenerateFamily(FamilyConfig{N: n, MeanLen: 70, Relatedness: 350, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return seqs
}

func TestAlignPublicAPI(t *testing.T) {
	seqs := testSeqs(t, 20)
	aln, report, err := Align(seqs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := aln.Validate(); err != nil {
		t.Fatal(err)
	}
	if aln.NumSeqs() != len(seqs) {
		t.Fatalf("%d rows", aln.NumSeqs())
	}
	if report.Procs != 4 || len(report.PerRank) != 4 {
		t.Fatalf("report: %+v", report)
	}
	if !strings.Contains(report.Summary(), "4 ranks") {
		t.Fatalf("summary: %s", report.Summary())
	}
}

func TestAlignOptions(t *testing.T) {
	seqs := testSeqs(t, 12)
	aln, _, err := Align(seqs, 2,
		WithWorkers(2), WithK(5), WithSampleSize(3), WithLocalAligner("muscle-refined"))
	if err != nil {
		t.Fatal(err)
	}
	if err := aln.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAlignOptionValidation(t *testing.T) {
	seqs := testSeqs(t, 4)
	if _, _, err := Align(seqs, 2, WithWorkers(-1)); err == nil {
		t.Error("negative workers accepted")
	}
	if _, _, err := Align(seqs, 2, WithWorkers(0)); err != nil {
		t.Errorf("workers=0 (all cores) rejected: %v", err)
	}
	if _, _, err := Align(seqs, 2, WithK(0)); err == nil {
		t.Error("k=0 accepted")
	}
	// 6^k codes over the compressed alphabet must fit the counter:
	// k=12 overflows and is refused before any rank starts, k=8 fits.
	if _, _, err := Align(seqs, 2, WithK(12)); err == nil {
		t.Error("k=12 accepted")
	}
	if _, _, err := Align(seqs, 2, WithK(8)); err != nil {
		t.Errorf("k=8 rejected: %v", err)
	}
	if _, _, err := Align(seqs, 2, WithSampleSize(0)); err == nil {
		t.Error("sample size 0 accepted")
	}
	if _, _, err := Align(seqs, 2, WithLocalAligner("nope")); err == nil {
		t.Error("unknown aligner accepted")
	}
}

func TestNewAlignerAllNames(t *testing.T) {
	seqs := testSeqs(t, 6)
	for _, name := range SequentialAligners() {
		al, err := NewAligner(name, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		aln, err := al.AlignContext(context.Background(), seqs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := aln.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestFASTARoundTripPublic(t *testing.T) {
	seqs := []Sequence{NewSequence("a", "ACDEF"), NewSequence("b", "ACDF")}
	var buf bytes.Buffer
	if err := WriteFASTA(&buf, seqs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFASTA(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0].String() != "ACDEF" {
		t.Fatalf("round trip: %+v", back)
	}
}

func TestQualityHelpers(t *testing.T) {
	seqs := testSeqs(t, 8)
	aln, _, err := Align(seqs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sp := SPScore(aln); sp == 0 {
		t.Error("SP score is zero for a family alignment")
	}
	q, err := QScore(aln, aln)
	if err != nil || q != 1 {
		t.Errorf("self Q = %g, err %v", q, err)
	}
}

func TestEvaluatePrefabPublic(t *testing.T) {
	sets, err := GeneratePrefab(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	qMuscle, err := EvaluatePrefab(context.Background(), "muscle", sets)
	if err != nil {
		t.Fatal(err)
	}
	if qMuscle <= 0 || qMuscle > 1 {
		t.Fatalf("muscle Q = %g", qMuscle)
	}
	qDist, err := EvaluatePrefab(context.Background(), "sample-align-d:2", sets)
	if err != nil {
		t.Fatal(err)
	}
	if qDist <= 0 || qDist > 1 {
		t.Fatalf("sample-align-d Q = %g", qDist)
	}
	if _, err := EvaluatePrefab(context.Background(), "bogus", sets); err == nil {
		t.Error("bogus aligner accepted")
	}
}

func TestSampleGenomeProteinsPublic(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  GenomeConfig
	}{
		{"50kbp_len100_seed1", GenomeConfig{TargetBP: 50000, MeanProteinLen: 100, Seed: 1}},
		{"small_genome", GenomeConfig{TargetBP: 60000, MeanProteinLen: 120, Seed: 3}},
		{"sample_properties", GenomeConfig{TargetBP: 100000, MeanProteinLen: 80, Seed: 7}},
		{"mean_length", GenomeConfig{TargetBP: 200000, MeanProteinLen: 150, Seed: 11}},
	} {
		t.Run(tc.name, func(t *testing.T) { checkGenomeProteins(t, tc.cfg) })
	}
}

// checkGenomeProteins checks the proteome and a sample drawn from it at cfg.
func checkGenomeProteins(t *testing.T, cfg GenomeConfig) {
	// Oversampling returns the whole proteome, whose size the
	// documented gene-count estimate sets.
	all, err := SampleGenomeProteins(cfg, 1<<30, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := int(float64(cfg.TargetBP)*0.85) / (3*cfg.MeanProteinLen + 6); len(all) != want {
		t.Fatalf("proteome of %d, want %d", len(all), want)
	}
	proteome := map[string]string{}
	for _, p := range all {
		if err := p.Validate(bio.AminoAcids); err != nil {
			t.Fatal(err)
		}
		proteome[p.ID] = string(p.Data)
	}
	if len(proteome) != len(all) {
		t.Fatal("duplicate protein IDs")
	}
	if mean := bio.MeanLen(all); math.Abs(mean-float64(cfg.MeanProteinLen)) > 0.4*float64(cfg.MeanProteinLen) {
		t.Fatalf("mean protein length %g", mean)
	}

	// A sample is n distinct proteome members, the same at one seed.
	s1, err := SampleGenomeProteins(cfg, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := SampleGenomeProteins(cfg, 10, 2)
	if len(s1) != 10 {
		t.Fatalf("%d proteins", len(s1))
	}
	seen := map[string]bool{}
	for i, s := range s1 {
		if !bio.Equal(s, s2[i]) {
			t.Fatal("same-seed samples differ")
		}
		if seen[s.ID] || proteome[s.ID] != string(s.Data) {
			t.Fatalf("sampled %s is a duplicate or not in the proteome", s.ID)
		}
		seen[s.ID] = true
	}
}

// TestGenomeFig6InputPinned pins the FASTA bytes of msabench's Fig. 6
// input at -seed 2008 (genome seed 2010, 256 proteins, sample seed 2011).
func TestGenomeFig6InputPinned(t *testing.T) {
	seqs, err := SampleGenomeProteins(GenomeConfig{TargetBP: 600000, MeanProteinLen: 120, Seed: 2010}, 256, 2011)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFASTA(&buf, seqs); err != nil {
		t.Fatal(err)
	}
	const want = "939cfbd0cfa1201341c1c3faceca19bd95bb26d9283d793428c226b032514c5f"
	if sum := sha256.Sum256(buf.Bytes()); hex.EncodeToString(sum[:]) != want {
		t.Fatalf("fig6 FASTA sha256 = %x, want %s", sum, want)
	}
}

// TestGeneratorsRejectBadCounts: a negative sequence count or a
// non-positive set count is an error, not a panic or a default.
func TestGeneratorsRejectBadCounts(t *testing.T) {
	cfg := GenomeConfig{TargetBP: 50000, MeanProteinLen: 100, Seed: 1}
	for name, gen := range map[string]func() error{
		"diverse n=-1": func() error { _, err := GenerateDiverseSet(-1, 300, 1); return err },
		"genome n=-1":  func() error { _, err := SampleGenomeProteins(cfg, -1, 2); return err },
		"genome TargetBP=10": func() error {
			_, err := SampleGenomeProteins(GenomeConfig{TargetBP: 10}, 10, 2)
			return err
		},
		"prefab sets=0":  func() error { _, err := GeneratePrefab(0, 1); return err },
		"prefab sets=-3": func() error { _, err := GeneratePrefab(-3, 1); return err },
	} {
		if gen() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if seqs, err := GenerateDiverseSet(0, 300, 1); err != nil || len(seqs) != 0 {
		t.Errorf("diverse n=0: %d sequences, err %v", len(seqs), err)
	}
}

func TestParseSampleAlignName(t *testing.T) {
	if p, ok := parseSampleAlignName("sample-align-d:8"); !ok || p != 8 {
		t.Fatalf("parse: %d %v", p, ok)
	}
	// the adapter's own name parses back to its rank count
	al, err := resolveAligner("sample-align-d:3")
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := parseSampleAlignName(al.Name()); !ok || p != 3 {
		t.Fatalf("%q parses to %d %v", al.Name(), p, ok)
	}
	for _, bad := range []string{"sample-align-d:", "sample-align-d:0", "sample-align-d:4x", "sample-align-d:-2", "muscle", "sample-align-d:x"} {
		if _, ok := parseSampleAlignName(bad); ok {
			t.Errorf("%q parsed", bad)
		}
	}
}
