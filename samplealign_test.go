package samplealign

import (
	"bytes"
	"strings"
	"testing"
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
		aln, err := al.Align(seqs)
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
	qMuscle, err := EvaluatePrefab("muscle", sets)
	if err != nil {
		t.Fatal(err)
	}
	if qMuscle <= 0 || qMuscle > 1 {
		t.Fatalf("muscle Q = %g", qMuscle)
	}
	qDist, err := EvaluatePrefab("sample-align-d:2", sets)
	if err != nil {
		t.Fatal(err)
	}
	if qDist <= 0 || qDist > 1 {
		t.Fatalf("sample-align-d Q = %g", qDist)
	}
	if _, err := EvaluatePrefab("bogus", sets); err == nil {
		t.Error("bogus aligner accepted")
	}
}

func TestSampleGenomeProteinsPublic(t *testing.T) {
	seqs, err := SampleGenomeProteins(GenomeConfig{TargetBP: 50000, MeanProteinLen: 100, Seed: 1}, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 10 {
		t.Fatalf("%d proteins", len(seqs))
	}
}

func TestParseSampleAlignName(t *testing.T) {
	if p, ok := parseSampleAlignName("sample-align-d:8"); !ok || p != 8 {
		t.Fatalf("parse: %d %v", p, ok)
	}
	for _, bad := range []string{"sample-align-d:", "sample-align-d:0", "muscle", "sample-align-d:x"} {
		if _, ok := parseSampleAlignName(bad); ok {
			t.Errorf("%q parsed", bad)
		}
	}
}
