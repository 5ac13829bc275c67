package profile

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bio"
	"repro/internal/submat"
)

var testAligner = NewAligner(submat.BLOSUM62, submat.DefaultProteinGap)

func TestFromRowsBasic(t *testing.T) {
	rows := [][]byte{
		[]byte("AC-E"),
		[]byte("AC-E"),
		[]byte("AW-E"),
	}
	p, err := FromRows(bio.AminoAcids, rows, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 4 || p.Weight != 3 {
		t.Fatalf("len=%d weight=%g", p.Len(), p.Weight)
	}
	aIdx := bio.AminoAcids.Index('A')
	if p.Cols[0].Counts[aIdx] != 3 {
		t.Errorf("col0 A count = %g", p.Cols[0].Counts[aIdx])
	}
	cIdx := bio.AminoAcids.Index('C')
	wIdx := bio.AminoAcids.Index('W')
	if p.Cols[1].Counts[cIdx] != 2 || p.Cols[1].Counts[wIdx] != 1 {
		t.Errorf("col1 counts C=%g W=%g", p.Cols[1].Counts[cIdx], p.Cols[1].Counts[wIdx])
	}
	if p.Cols[2].Gaps != 3 || p.Cols[2].Occupancy() != 0 {
		t.Errorf("gap column: gaps=%g occ=%g", p.Cols[2].Gaps, p.Cols[2].Occupancy())
	}
	if p.Cols[3].Occupancy() != 1 {
		t.Errorf("full column occupancy = %g", p.Cols[3].Occupancy())
	}
}

// TestFromRowsOneCountsSlab: a profile's columns share one backing
// slab (three allocations per FromRows — profile, columns, slab —
// whatever the width), and each column's Counts is capped so growing
// one cannot write into the next.
func TestFromRowsOneCountsSlab(t *testing.T) {
	rows := randomRows(rand.New(rand.NewSource(3)), 6, 200)
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := FromRows(bio.AminoAcids, rows, nil); err != nil {
			t.Fatal(err)
		}
	}); allocs > 3 {
		t.Errorf("FromRows: %v allocs per call, want <= 3", allocs)
	}
	p, err := FromRows(bio.AminoAcids, rows, nil)
	if err != nil {
		t.Fatal(err)
	}
	next := append([]float64(nil), p.Cols[1].Counts...)
	_ = append(p.Cols[0].Counts, 99)
	for k, v := range p.Cols[1].Counts {
		if v != next[k] {
			t.Fatalf("append to column 0 overwrote column 1 letter %d", k)
		}
	}
}

func TestFromRowsErrors(t *testing.T) {
	if _, err := FromRows(bio.AminoAcids, [][]byte{[]byte("AC"), []byte("A")}, nil); err == nil {
		t.Error("ragged rows accepted")
	}
	if _, err := FromRows(bio.AminoAcids, [][]byte{[]byte("AC")}, []float64{1, 2}); err == nil {
		t.Error("weight count mismatch accepted")
	}
}

func TestFromRowsWeights(t *testing.T) {
	rows := [][]byte{[]byte("A"), []byte("W")}
	p, err := FromRows(bio.AminoAcids, rows, []float64{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	aIdx := bio.AminoAcids.Index('A')
	wIdx := bio.AminoAcids.Index('W')
	if p.Cols[0].Counts[aIdx] != 3 || p.Cols[0].Counts[wIdx] != 1 {
		t.Fatalf("weighted counts: %v", p.Cols[0].Counts)
	}
}

func TestConsensus(t *testing.T) {
	rows := [][]byte{
		[]byte("ACD-F"),
		[]byte("ACD-F"),
		[]byte("AWD--"),
		[]byte("A-D--"),
	}
	p, _ := FromRows(bio.AminoAcids, rows, nil)
	cons := p.Consensus(0.5)
	// col3 is all gaps; col4 has occupancy 0.5 (2/4) so it is kept.
	if string(cons) != "ACDF" {
		t.Fatalf("consensus = %q, want ACDF", cons)
	}
	strict := p.Consensus(0.9)
	if string(strict) != "AD" {
		t.Fatalf("strict consensus = %q, want AD", strict)
	}
}

func TestFromSequenceRoundTrip(t *testing.T) {
	seq := []byte("MKVLW")
	p := FromSequence(bio.AminoAcids, seq)
	if p.Len() != 5 || p.Weight != 1 {
		t.Fatalf("len=%d weight=%g", p.Len(), p.Weight)
	}
	if got := p.Consensus(0.5); !bytes.Equal(got, seq) {
		t.Fatalf("consensus %q != seq %q", got, seq)
	}
}

func TestPathValidate(t *testing.T) {
	path := Path{OpMatch, OpA, OpB, OpMatch}
	if err := path.Validate(3, 3); err != nil {
		t.Errorf("valid path rejected: %v", err)
	}
	if err := path.Validate(2, 3); err == nil {
		t.Error("wrong consumption accepted")
	}
}

func TestAlignIdenticalSequences(t *testing.T) {
	seq := []byte("MKVLWACDEFGH")
	a := FromSequence(bio.AminoAcids, seq)
	b := FromSequence(bio.AminoAcids, seq)
	path, score := testAligner.Align(a, b)
	if err := path.Validate(a.Len(), b.Len()); err != nil {
		t.Fatal(err)
	}
	for _, op := range path {
		if op != OpMatch {
			t.Fatalf("identical profiles should align gap-free: %v", path)
		}
	}
	if score <= 0 {
		t.Fatalf("score = %g", score)
	}
}

func TestAlignEmptyProfile(t *testing.T) {
	a := FromSequence(bio.AminoAcids, []byte("ACD"))
	empty := &Profile{Alpha: bio.AminoAcids}
	path, _ := testAligner.Align(a, empty)
	if err := path.Validate(3, 0); err != nil {
		t.Fatal(err)
	}
	path, _ = testAligner.Align(empty, a)
	if err := path.Validate(0, 3); err != nil {
		t.Fatal(err)
	}
}

// mergeRows applies a path to the two row sets that produced the aligned
// profiles, yielding the merged alignment rows (A's rows first): the
// rows Merge's profile summarises.
func mergeRows(rowsA, rowsB [][]byte, path Path) [][]byte {
	width := len(path)
	out := make([][]byte, 0, len(rowsA)+len(rowsB))
	build := func(rows [][]byte, takeA bool) {
		for _, row := range rows {
			merged := make([]byte, 0, width)
			i := 0
			for _, op := range path {
				consume := op == OpMatch || (takeA && op == OpA) || (!takeA && op == OpB)
				if consume {
					merged = append(merged, row[i])
					i++
				} else {
					merged = append(merged, bio.Gap)
				}
			}
			out = append(out, merged)
		}
	}
	build(rowsA, true)
	build(rowsB, false)
	return out
}

func TestMergeRows(t *testing.T) {
	rowsA := [][]byte{[]byte("AC"), []byte("A-")}
	rowsB := [][]byte{[]byte("CW")}
	path := Path{OpA, OpMatch, OpB}
	merged := mergeRows(rowsA, rowsB, path)
	want := [][]byte{
		[]byte("AC-"),
		[]byte("A--"),
		[]byte("-CW"),
	}
	if len(merged) != 3 {
		t.Fatalf("got %d rows", len(merged))
	}
	for i := range want {
		if !bytes.Equal(merged[i], want[i]) {
			t.Errorf("row %d: %q want %q", i, merged[i], want[i])
		}
	}
}

func TestMergeProfileMatchesMergeRows(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	letters := bio.AminoAcids.Letters()
	randRows := func(n, w int) [][]byte {
		rows := make([][]byte, n)
		for i := range rows {
			rows[i] = make([]byte, w)
			for j := range rows[i] {
				if rng.Intn(5) == 0 {
					rows[i][j] = bio.Gap
				} else {
					rows[i][j] = letters[rng.Intn(len(letters))]
				}
			}
		}
		return rows
	}
	for trial := 0; trial < 20; trial++ {
		rowsA := randRows(2+rng.Intn(3), 5+rng.Intn(20))
		rowsB := randRows(1+rng.Intn(3), 5+rng.Intn(20))
		pa, _ := FromRows(bio.AminoAcids, rowsA, nil)
		pb, _ := FromRows(bio.AminoAcids, rowsB, nil)
		path, _ := testAligner.Align(pa, pb)
		merged, err := Merge(pa, pb, path)
		if err != nil {
			t.Fatal(err)
		}
		fromRows, _ := FromRows(bio.AminoAcids, mergeRows(rowsA, rowsB, path), nil)
		if merged.Len() != fromRows.Len() {
			t.Fatalf("trial %d: merged len %d != %d", trial, merged.Len(), fromRows.Len())
		}
		for c := range merged.Cols {
			if math.Abs(merged.Cols[c].Gaps-fromRows.Cols[c].Gaps) > 1e-9 {
				t.Fatalf("trial %d col %d: gaps %g != %g",
					trial, c, merged.Cols[c].Gaps, fromRows.Cols[c].Gaps)
			}
			for k := range merged.Cols[c].Counts {
				if math.Abs(merged.Cols[c].Counts[k]-fromRows.Cols[c].Counts[k]) > 1e-9 {
					t.Fatalf("trial %d col %d letter %d: %g != %g",
						trial, c, k, merged.Cols[c].Counts[k], fromRows.Cols[c].Counts[k])
				}
			}
		}
	}
}

func TestAlignRelatedProfilesKeepsColumns(t *testing.T) {
	// Aligning a profile against a single homologous sequence with a
	// deletion should produce exactly one OpA (the deleted column).
	rowsA := [][]byte{
		[]byte("MKVLWACDEFGH"),
		[]byte("MKVLWACDEFGH"),
	}
	seqB := []byte("MKVLWCDEFGH") // 'A' deleted
	pa, _ := FromRows(bio.AminoAcids, rowsA, nil)
	pb := FromSequence(bio.AminoAcids, seqB)
	path, _ := testAligner.Align(pa, pb)
	nA, nMatch := 0, 0
	for _, op := range path {
		switch op {
		case OpA:
			nA++
		case OpMatch:
			nMatch++
		}
	}
	if nA != 1 || nMatch != 11 {
		t.Fatalf("path ops: %d OpA, %d OpMatch (path %v)", nA, nMatch, path)
	}
}

func TestAlignPathValidProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	letters := bio.AminoAcids.Letters()
	for trial := 0; trial < 30; trial++ {
		la, lb := 1+rng.Intn(40), 1+rng.Intn(40)
		sa := make([]byte, la)
		sb := make([]byte, lb)
		for i := range sa {
			sa[i] = letters[rng.Intn(20)]
		}
		for i := range sb {
			sb[i] = letters[rng.Intn(20)]
		}
		pa := FromSequence(bio.AminoAcids, sa)
		pb := FromSequence(bio.AminoAcids, sb)
		path, _ := testAligner.Align(pa, pb)
		if err := path.Validate(la, lb); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestProfileAlignMatchesPairwiseOnSequences(t *testing.T) {
	// For single-sequence profiles the PSP score with occupancy 1 reduces
	// to plain substitution scores, so the profile DP and the pairwise DP
	// must find alignments of equal score.
	rng := rand.New(rand.NewSource(77))
	letters := bio.AminoAcids.Letters()
	for trial := 0; trial < 15; trial++ {
		sa := make([]byte, 10+rng.Intn(30))
		sb := make([]byte, 10+rng.Intn(30))
		for i := range sa {
			sa[i] = letters[rng.Intn(20)]
		}
		for i := range sb {
			sb[i] = letters[rng.Intn(20)]
		}
		pa := FromSequence(bio.AminoAcids, sa)
		pb := FromSequence(bio.AminoAcids, sb)
		_, profScore := testAligner.Align(pa, pb)
		// pairwise equivalent
		pw := struct{ open, ext float64 }{testAligner.Gap.Open, testAligner.Gap.Extend}
		_ = pw
		pwAl := pairwiseEquivalentScore(sa, sb)
		if math.Abs(profScore-pwAl) > 1e-9 {
			t.Fatalf("trial %d: profile score %g != pairwise score %g", trial, profScore, pwAl)
		}
	}
}

// pairwiseEquivalentScore recomputes the optimal global affine score with
// the same parameters using an independent implementation (pairwise pkg
// would create an import cycle in tests, so inline a reference DP).
func pairwiseEquivalentScore(a, b []byte) float64 {
	sub := submat.BLOSUM62
	open, ext := submat.DefaultProteinGap.Open, submat.DefaultProteinGap.Extend
	n, m := len(a), len(b)
	negInf := math.Inf(-1)
	M := make([][]float64, n+1)
	X := make([][]float64, n+1)
	Y := make([][]float64, n+1)
	for i := range M {
		M[i] = make([]float64, m+1)
		X[i] = make([]float64, m+1)
		Y[i] = make([]float64, m+1)
	}
	M[0][0] = 0
	X[0][0], Y[0][0] = negInf, negInf
	for i := 1; i <= n; i++ {
		M[i][0], Y[i][0] = negInf, negInf
		X[i][0] = -(open + float64(i)*ext)
	}
	for j := 1; j <= m; j++ {
		M[0][j], X[0][j] = negInf, negInf
		Y[0][j] = -(open + float64(j)*ext)
	}
	max3 := func(x, y, z float64) float64 { return math.Max(x, math.Max(y, z)) }
	for i := 1; i <= n; i++ {
		for j := 1; j <= m; j++ {
			M[i][j] = sub.Score(a[i-1], b[j-1]) + max3(M[i-1][j-1], X[i-1][j-1], Y[i-1][j-1])
			X[i][j] = math.Max(M[i-1][j]-open-ext, X[i-1][j]-ext)
			Y[i][j] = math.Max(M[i][j-1]-open-ext, Y[i][j-1]-ext)
		}
	}
	return max3(M[n][m], X[n][m], Y[n][m])
}
