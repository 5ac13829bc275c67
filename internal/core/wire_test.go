package core

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/mpi"
)

var (
	_ mpi.Wire = (*wireSeqList)(nil)
	_ mpi.Wire = (*pivotKeyList)(nil)
	_ mpi.Wire = (*glueMsg)(nil)
)

// Equality for the round trips: nil and empty are one message, floats
// are compared by their bits (a NaN rank must come back the same NaN).

func sameSeqs(a, b wireSeqList) bool {
	return slices.EqualFunc(a, b, func(x, y wireSeq) bool {
		return x.ID == y.ID && x.Desc == y.Desc && bytes.Equal(x.Data, y.Data) &&
			x.Orig == y.Orig && math.Float64bits(x.Rank) == math.Float64bits(y.Rank)
	})
}

func sameKeys(a, b pivotKeyList) bool {
	return slices.EqualFunc(a, b, func(x, y pivotKey) bool {
		return x.Orig == y.Orig && math.Float64bits(x.Rank) == math.Float64bits(y.Rank)
	})
}

func sameGlue(a, b glueMsg) bool {
	return slices.Equal(a.IDs, b.IDs) && slices.Equal(a.Descs, b.Descs) && slices.Equal(a.Origs, b.Origs) &&
		slices.EqualFunc(a.Rows, b.Rows, bytes.Equal) && bytes.Equal(a.Path, b.Path)
}

func wireRoundTrip[T any](t *testing.T, in T) T {
	t.Helper()
	data, err := mpi.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	var out T
	if err := mpi.Decode(data, &out); err != nil {
		t.Fatalf("decode %T from % x: %v", in, data, err)
	}
	return out
}

// oddRanks and oddOrigs are the values a codec gets wrong first.
var (
	oddRanks = []float64{0, math.Copysign(0, -1), 1, -1.5, math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0xfff8_0000_0000_0001)}
	oddOrigs = []int64{0, 1, -1, 63, 64, -64, -65, 7<<40 | 5, math.MaxInt64, math.MinInt64}
)

func TestWireSeqListRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cases := []wireSeqList{nil, {}, {{}}, {{ID: "only"}, {Data: []byte{}}, {Desc: "d", Data: []byte("ACGT")}}}
	for i := 0; i < 100; i++ {
		l := make(wireSeqList, rng.Intn(5))
		for j := range l {
			data := make([]byte, rng.Intn(400))
			rng.Read(data)
			l[j] = wireSeq{ID: string(data[:len(data)/7]), Desc: string(data[:len(data)/5]), Data: data,
				Orig: oddOrigs[rng.Intn(len(oddOrigs))], Rank: oddRanks[rng.Intn(len(oddRanks))]}
		}
		cases = append(cases, l)
	}
	for _, in := range cases {
		if out := wireRoundTrip(t, in); !sameSeqs(in, out) {
			t.Errorf("%+v came back as %+v", in, out)
		}
	}
}

func TestPivotKeyListRoundTrip(t *testing.T) {
	cases := []pivotKeyList{nil, {}, {{}}}
	var all pivotKeyList
	for _, r := range oddRanks {
		for _, o := range oddOrigs {
			all = append(all, pivotKey{Rank: r, Orig: o})
			cases = append(cases, pivotKeyList{{Rank: r, Orig: o}})
		}
	}
	for _, in := range append(cases, all) {
		if out := wireRoundTrip(t, in); !sameKeys(in, out) {
			t.Errorf("%+v came back as %+v", in, out)
		}
	}
}

func TestGlueMsgRoundTrip(t *testing.T) {
	cases := []glueMsg{
		{},
		{IDs: []string{}, Descs: []string{}, Origs: []int64{}, Rows: [][]byte{}, Path: []byte{}},
		{Path: []byte{1, 1, 1}}, // an empty bucket still skips every GA column
		{IDs: []string{""}, Descs: []string{""}, Origs: []int64{-1}, Rows: [][]byte{nil}},
		{IDs: []string{"a", "b"}, Descs: []string{"", "second"}, Origs: []int64{math.MinInt64, 3 << 40},
			Rows: [][]byte{[]byte("AC-T"), []byte("A--T")}, Path: []byte{0, 0, 2, 1, 0}},
	}
	for _, in := range cases {
		if out := wireRoundTrip(t, in); !sameGlue(in, out) {
			t.Errorf("%+v came back as %+v", in, out)
		}
	}
}

// The root indexes every row of a glue message by the first row's
// columns, so a message whose rows disagree in width must not parse.
func TestGlueMsgRejectsRaggedRows(t *testing.T) {
	ragged := glueMsg{IDs: []string{"a", "b"}, Descs: []string{"", ""}, Origs: []int64{0, 1},
		Rows: [][]byte{[]byte("AC"), []byte("ACGT")}, Path: []byte{0, 0}}
	data, err := mpi.Encode(ragged)
	if err != nil {
		t.Fatal(err)
	}
	var out glueMsg
	if err := mpi.Decode(data, &out); err == nil {
		t.Fatal("ragged rows accepted")
	}
}

// FuzzWireDecode feeds arbitrary bytes to the parser of every message
// core sends: no panic, nothing allocated beyond a multiple of the
// input, whatever parses survives a second trip, and a glue message
// that parses can be merged (or refused) without a panic.
func FuzzWireDecode(f *testing.F) {
	for _, v := range []any{
		wireSeqList{{ID: "s1", Desc: "first", Data: []byte("MKV"), Orig: 7<<40 | 1, Rank: 0.25}, {ID: "s2", Data: []byte("M"), Orig: -1, Rank: math.Inf(1)}},
		pivotKeyList{{Rank: 0.5, Orig: 3}, {Rank: math.NaN(), Orig: -9}},
		glueMsg{IDs: []string{"a", "b"}, Descs: []string{"", "d"}, Origs: []int64{1, 0}, Rows: [][]byte{[]byte("A-C"), []byte("AG-")}, Path: []byte{0, 2, 0, 1, 0}},
	} {
		data, err := mpi.Encode(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var seqs wireSeqList
		var keys pivotKeyList
		var msg glueMsg
		seqErr, keyErr, msgErr := mpi.Decode(data, &seqs), mpi.Decode(data, &keys), mpi.Decode(data, &msg)
		runtime.ReadMemStats(&after)
		// a wireSeq is 72 bytes in memory for at least 12 on the wire
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(64*len(data))+1<<16 {
			t.Fatalf("%d bytes allocated decoding %d bytes", grew, len(data))
		}
		if seqErr == nil && !sameSeqs(seqs, wireRoundTrip(t, seqs)) {
			t.Fatalf("seqs %+v changed on a second trip", seqs)
		}
		if keyErr == nil && !sameKeys(keys, wireRoundTrip(t, keys)) {
			t.Fatalf("keys %+v changed on a second trip", keys)
		}
		if msgErr == nil {
			if !sameGlue(msg, wireRoundTrip(t, msg)) {
				t.Fatalf("glue %+v changed on a second trip", msg)
			}
			// a hostile rank's message reaches these as it parsed
			for gaLen := 0; gaLen <= 3; gaLen++ {
				_, _ = mergeOnTemplate([]glueMsg{msg, msg}, gaLen)
			}
		}
	})
}

// BenchmarkWire encodes and decodes the three messages at the sizes of a
// 1200-sequence run on 8 ranks.
func BenchmarkWire(b *testing.B) {
	seqs := make(wireSeqList, 19)
	for i := range seqs {
		seqs[i] = wireSeq{ID: "seq0001", Desc: "synthetic", Data: bytes.Repeat([]byte("ACDEFGHIKL"), 30), Orig: int64(i), Rank: 0.37}
	}
	glue := glueMsg{Path: make([]byte, 450)}
	for i := 0; i < 150; i++ {
		glue.IDs, glue.Descs, glue.Origs = append(glue.IDs, "seq0001"), append(glue.Descs, "synthetic"), append(glue.Origs, int64(i))
		glue.Rows = append(glue.Rows, bytes.Repeat([]byte("ACDEFG-IKL"), 42))
	}
	run := func(name string, v any, out any) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				data, err := mpi.Encode(v)
				if err != nil {
					b.Fatal(err)
				}
				if err := mpi.Decode(data, out); err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(data)))
			}
		})
	}
	run("pivot", make(pivotKeyList, 7), new(pivotKeyList))
	run("exchange", seqs, new(wireSeqList))
	run("glue", glue, new(glueMsg))
}
