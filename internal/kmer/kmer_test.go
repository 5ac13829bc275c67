package kmer

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/bio"
)

var testCounter = MustCounter(bio.Dayhoff6, 3)

func TestProfileWindowCount(t *testing.T) {
	p := testCounter.Profile([]byte("ACDEFGHIKL")) // length 10, k=3 → 8 windows
	if p.Windows != 8 {
		t.Fatalf("Windows = %d, want 8", p.Windows)
	}
	if p.SeqLen != 10 {
		t.Fatalf("SeqLen = %d, want 10", p.SeqLen)
	}
	var total int32
	for _, e := range p.Entries {
		total += e.Count
	}
	if int(total) != p.Windows {
		t.Fatalf("entry counts sum to %d, want %d", total, p.Windows)
	}
}

func TestProfileShortSequence(t *testing.T) {
	p := testCounter.Profile([]byte("AC")) // shorter than k
	if p.Windows != 0 || len(p.Entries) != 0 {
		t.Fatalf("short sequence produced %d windows", p.Windows)
	}
}

func TestProfileSkipsGaps(t *testing.T) {
	a := testCounter.Profile([]byte("ACDEF"))
	b := testCounter.Profile([]byte("A-C--DE-F"))
	if similarity(a, b) != 1 {
		t.Fatalf("gapped and ungapped copies differ: sim = %g", similarity(a, b))
	}
}

func TestProfileSortedEntries(t *testing.T) {
	p := testCounter.Profile([]byte("MKVLAAGGTWYHHKDEDEDEMKVLAAGG"))
	for i := 1; i < len(p.Entries); i++ {
		if p.Entries[i-1].Code >= p.Entries[i].Code {
			t.Fatalf("entries not strictly sorted at %d", i)
		}
	}
}

func TestSimilaritySelfIsOne(t *testing.T) {
	p := testCounter.Profile([]byte("MKVLAAGGTWYHHKDE"))
	if s := similarity(p, p); s != 1 {
		t.Fatalf("self similarity = %g", s)
	}
	if d := Distance(p, p); d != 0 {
		t.Fatalf("self distance = %g", d)
	}
}

func TestSimilarityDisjoint(t *testing.T) {
	// W and C are alone in their Dayhoff classes, so these share no k-mers.
	a := testCounter.Profile([]byte("WWWWWWWW"))
	b := testCounter.Profile([]byte("CCCCCCCC"))
	if s := similarity(a, b); s != 0 {
		t.Fatalf("disjoint similarity = %g", s)
	}
}

func TestSimilarityCompressedClasses(t *testing.T) {
	// I, L, M, V share a Dayhoff class, so ILMV-equivalent strings match.
	a := testCounter.Profile([]byte("IIIIIIII"))
	b := testCounter.Profile([]byte("LMVLMVLM"))
	if s := similarity(a, b); s != 1 {
		t.Fatalf("same-class similarity = %g, want 1", s)
	}
}

func randomSeq(rng *rand.Rand, n int) []byte {
	letters := bio.AminoAcids.Letters()
	out := make([]byte, n)
	for i := range out {
		out[i] = letters[rng.Intn(len(letters))]
	}
	return out
}

func TestSimilarityPropertyBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seedA, seedB uint16) bool {
		a := testCounter.Profile(randomSeq(rng, 5+int(seedA)%200))
		b := testCounter.Profile(randomSeq(rng, 5+int(seedB)%200))
		s, s2 := similarity(a, b), similarity(b, a)
		return s >= 0 && s <= 1 && math.Abs(s-s2) < 1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCommonAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	count := func(data []byte) map[uint32]int {
		m := map[uint32]int{}
		for i := 0; i+3 <= len(data); i++ {
			code := uint32(0)
			for j := i; j < i+3; j++ {
				code = code*uint32(bio.Dayhoff6.Len()) + uint32(bio.Dayhoff6.Class(data[j]))
			}
			m[code]++
		}
		return m
	}
	for trial := 0; trial < 50; trial++ {
		sa := randomSeq(rng, 10+rng.Intn(100))
		sb := randomSeq(rng, 10+rng.Intn(100))
		want := 0
		ca, cb := count(sa), count(sb)
		for code, na := range ca {
			if nb := cb[code]; nb < na {
				want += nb
			} else {
				want += na
			}
		}
		got := common(testCounter.Profile(sa), testCounter.Profile(sb))
		if got != want {
			t.Fatalf("trial %d: common = %d, brute force = %d", trial, got, want)
		}
	}
}

func TestMatrixIndexing(t *testing.T) {
	m := NewMatrix(5)
	v := 1.0
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			m.Set(i, j, v)
			v++
		}
	}
	v = 1.0
	for i := 0; i < 5; i++ {
		if m.At(i, i) != 0 {
			t.Fatalf("diagonal not zero at %d", i)
		}
		for j := i + 1; j < 5; j++ {
			if m.At(i, j) != v || m.At(j, i) != v {
				t.Fatalf("At(%d,%d) = %g want %g", i, j, m.At(i, j), v)
			}
			v++
		}
	}
}

func TestRankMonotone(t *testing.T) {
	prev := math.Inf(-1)
	for d := 0.0; d <= 1.0; d += 0.01 {
		r := rank(d, DefaultRankScale)
		if r <= prev {
			t.Fatalf("rank not strictly increasing at d=%g", d)
		}
		prev = r
	}
}

func TestRankPaperRange(t *testing.T) {
	// With the default scale, ranks of distances in [0.22, 1] land inside
	// the paper's reported [0, 1.47] band (Table 1).
	if r := rank(1, DefaultRankScale); r < 1.3 || r > 1.5 {
		t.Errorf("rank(1) = %g, outside the paper's max band", r)
	}
	if r := rank(0.225, DefaultRankScale); math.Abs(r) > 0.01 {
		t.Errorf("rank(0.225) = %g, want ≈ 0", r)
	}
}

func TestNewCounterValidation(t *testing.T) {
	if _, err := NewCounter(bio.Dayhoff6, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewCounter(bio.Identity(bio.AminoAcids), 9); err == nil {
		t.Error("20^9 code space accepted")
	}
	if _, err := NewCounter(bio.Dayhoff6, 6); err != nil {
		t.Errorf("6^6 rejected: %v", err)
	}
}

func TestProfileInvalidBytesBreakWindows(t *testing.T) {
	// 'X' has no Dayhoff class: windows must not span it.
	withX := testCounter.Profile([]byte("ACDXEFG"))
	// Only ACD and EFG contribute one window each.
	if withX.Windows != 2 {
		t.Fatalf("Windows = %d, want 2", withX.Windows)
	}
}

// TestProfileCodesMatchModuloFormula holds Profile's window codes, whose
// rolling update drops the outgoing class with a multiply-based modulo,
// to the plain formula code = (code % size^(k−1))·size + class, on
// random sequences broken by gaps and bytes outside the compressed
// alphabet, at every k NewCounter accepts over Dayhoff-6 and at a few
// over the full 20-letter alphabet.
func TestProfileCodesMatchModuloFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	var counters []*Counter
	for k := 1; ; k++ {
		c, err := NewCounter(bio.Dayhoff6, k)
		if err != nil {
			break
		}
		counters = append(counters, c)
	}
	if len(counters) != 11 {
		t.Fatalf("Dayhoff-6 accepts k = 1 … %d, want 1 … 11", len(counters))
	}
	for _, k := range []int{1, 2, 5, 7} {
		counters = append(counters, MustCounter(bio.Identity(bio.AminoAcids), k))
	}
	for _, c := range counters {
		size := uint32(c.comp.Len())
		hi := uint32(1)
		for i := 1; i < c.k; i++ {
			hi *= size
		}
		for trial := 0; trial < 20; trial++ {
			seq := randomSeq(rng, rng.Intn(300))
			for i := range seq {
				switch r := rng.Intn(40); {
				case r == 0:
					seq[i] = bio.Gap
				case r == 1:
					seq[i] = 'X'
				}
			}
			var codes []uint32
			var code uint32
			run := 0
			for _, b := range seq {
				if b == bio.Gap {
					continue
				}
				cl := c.comp.Class(b)
				if cl < 0 {
					run, code = 0, 0
					continue
				}
				code = (code%hi)*size + uint32(cl)
				if run++; run >= c.k {
					codes = append(codes, code)
				}
			}
			slices.Sort(codes)
			var want []Entry
			for i, code := range codes {
				if i > 0 && code == codes[i-1] {
					want[len(want)-1].Count++
					continue
				}
				want = append(want, Entry{Code: code, Count: 1})
			}
			if p := c.Profile(seq); p.Windows != len(codes) || !slices.Equal(p.Entries, want) {
				t.Fatalf("%d^%d codes, trial %d: profile differs from the %% formula's", size, c.k, trial)
			}
		}
	}
}
