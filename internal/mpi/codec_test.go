package mpi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// item and payload are the tests' Wire types: a flat struct and one with
// slices, written the way core writes its messages.
type item struct {
	Rank  int
	Label string
}

func (it item) AppendWire(buf []byte) []byte {
	return AppendString(AppendInt(buf, int64(it.Rank)), it.Label)
}

func (it *item) ParseWire(r *Reader) error {
	*it = item{Rank: int(r.Int()), Label: r.String()}
	return r.Err()
}

type payload struct {
	Name  string
	Vals  []float64
	Bytes []byte
}

func (p payload) AppendWire(buf []byte) []byte {
	buf = AppendUint(AppendString(buf, p.Name), uint64(len(p.Vals)))
	for _, v := range p.Vals {
		buf = AppendFloat64(buf, v)
	}
	return AppendBytes(buf, p.Bytes)
}

func (p *payload) ParseWire(r *Reader) error {
	*p = payload{Name: r.String(), Vals: ReadSlice(r, 8, (*Reader).Float64), Bytes: r.Bytes()}
	return r.Err()
}

var (
	_ Wire = (*item)(nil)
	_ Wire = (*payload)(nil)
)

// builtinTargets returns a fresh pointer to every shape Decode knows.
func builtinTargets() []any {
	return []any{new([]byte), new([][]byte), new(string), new([]string), new(int), new(int64), new([]int64), new(item), new(payload)}
}

// sameValue compares two decoded values with nil and empty slices equal
// (they are one message).
func sameValue(a, b any) bool {
	norm := func(v any) string { return fmt.Sprintf("%#v", v) }
	return strings.ReplaceAll(norm(a), "(nil)", "{}") == strings.ReplaceAll(norm(b), "(nil)", "{}")
}

// roundTrip encodes v, decodes it into a fresh value of the same type
// and returns that value.
func roundTrip(t *testing.T, v any) any {
	t.Helper()
	data, err := Encode(v)
	if err != nil {
		t.Fatalf("encode %T: %v", v, err)
	}
	out := reflect.New(reflect.TypeOf(v))
	if err := Decode(data, out.Interface()); err != nil {
		t.Fatalf("decode %T from % x: %v", v, data, err)
	}
	return out.Elem().Interface()
}

func TestBuiltinShapesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randBytes := func() []byte {
		b := make([]byte, rng.Intn(300))
		rng.Read(b)
		return b
	}
	fixed := []any{
		[]byte(nil), []byte{}, []byte{0}, bytes.Repeat([]byte{0xff}, 200),
		[][]byte(nil), [][]byte{}, [][]byte{nil}, [][]byte{{}, nil, []byte("a"), {}},
		"", "x", strings.Repeat("é", 100),
		[]string(nil), []string{}, []string{""}, []string{"", "a", ""},
		0, -1, math.MaxInt, math.MinInt,
		int64(0), int64(math.MaxInt64), int64(math.MinInt64),
		[]int64(nil), []int64{}, []int64{0, -1, math.MaxInt64, math.MinInt64},
		item{}, item{Rank: -3, Label: "l"},
		payload{}, payload{Vals: []float64{}, Bytes: []byte{}},
		payload{Name: "n", Vals: []float64{math.Inf(1), math.Inf(-1), math.Copysign(0, -1), math.SmallestNonzeroFloat64}, Bytes: []byte("b")},
	}
	for i := 0; i < 200; i++ {
		parts := make([][]byte, rng.Intn(6))
		strs := make([]string, rng.Intn(6))
		ints := make([]int64, rng.Intn(6))
		for j := range parts {
			parts[j] = randBytes()
		}
		for j := range strs {
			strs[j] = string(randBytes())
		}
		for j := range ints {
			ints[j] = int64(rng.Uint64())
		}
		fixed = append(fixed, randBytes(), parts, string(randBytes()), strs, int(rng.Uint64()), int64(rng.Uint64()), ints)
	}
	for _, v := range fixed {
		if got := roundTrip(t, v); !sameValue(got, v) {
			t.Errorf("%T: %#v came back as %#v", v, v, got)
		}
	}

	// NaN is not equal to itself; its bits are.
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	got := roundTrip(t, payload{Vals: []float64{nan}}).(payload)
	if math.Float64bits(got.Vals[0]) != math.Float64bits(nan) {
		t.Errorf("NaN bits %x came back as %x", math.Float64bits(nan), math.Float64bits(got.Vals[0]))
	}
}

// Decoded byte slices alias the message, each capped at its own length:
// appending to one must not write into the next.
func TestDecodedBytesAreCappedAliases(t *testing.T) {
	data, err := Encode([][]byte{[]byte("abc"), []byte("def")})
	if err != nil {
		t.Fatal(err)
	}
	var parts [][]byte
	if err := Decode(data, &parts); err != nil {
		t.Fatal(err)
	}
	if &parts[0][0] != &data[2] {
		t.Error("decoded part does not alias the message")
	}
	if cap(parts[0]) != 3 {
		t.Fatalf("cap %d, want 3", cap(parts[0]))
	}
	_ = append(parts[0], 'X')
	if string(parts[1]) != "def" {
		t.Errorf("append reached the neighbour: %q", parts[1])
	}
}

func TestUnsupportedTypeIsAnError(t *testing.T) {
	type stranger struct{ A int }
	for _, v := range []any{map[string]int{"a": 1}, stranger{}, &stranger{}, []float64{1}, nil} {
		_, err := Encode(v)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%T", v)) {
			t.Errorf("Encode(%T): %v", v, err)
		}
	}
	for _, out := range []any{new(map[string]int), new(stranger), new([]float64), []byte{}, item{}} {
		err := Decode([]byte{0}, out)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%T", out)) {
			t.Errorf("Decode into %T: %v", out, err)
		}
	}
	// and through a collective, before anything is sent
	err := Run(2, func(c Comm) error {
		_, err := AllGatherValues(c, 1, stranger{})
		if err == nil || !strings.Contains(err.Error(), "mpi.stranger") {
			return fmt.Errorf("AllGatherValues(stranger): %v", err)
		}
		if sent := c.Stats().Snapshot().MsgsSent; sent != 0 {
			return fmt.Errorf("%d messages sent", sent)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A count or length is never believed beyond the bytes behind it: a few
// bytes claiming 2³²−1 or 2⁶³ elements are an error, not an allocation.
func TestHostileCountsAreErrors(t *testing.T) {
	frames := map[string][]byte{
		"2^32-1 parts":       binary.AppendUvarint(nil, math.MaxUint32),
		"2^63 parts":         binary.AppendUvarint(nil, 1<<63),
		"max uvarint":        binary.AppendUvarint(nil, math.MaxUint64),
		"old 4-byte count":   {0xff, 0xff, 0xff, 0xff},
		"overlong uvarint":   bytes.Repeat([]byte{0x80}, 11),
		"count then nothing": {5},
		"length past end":    {1, 200, 1, 2, 3},
	}
	for name, frame := range frames {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := unpackSlices(frame); err == nil {
			t.Errorf("%s: unpackSlices accepted % x", name, frame)
		}
		for _, out := range builtinTargets() {
			switch out.(type) {
			case *int, *int64: // any varint is an integer
				continue
			}
			if err := Decode(frame, out); err == nil {
				t.Errorf("%s: Decode into %T accepted % x", name, out, frame)
			}
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
			t.Errorf("%s: %d bytes allocated for a %d-byte frame", name, grew, len(frame))
		}
	}
}

// allocBound is what the decoders may allocate for an n-byte input: a
// slice header or string per input byte at worst, plus the error.
func allocBound(n int) uint64 { return uint64(64*n) + 1<<16 }

func FuzzWireDecode(f *testing.F) {
	for _, v := range []any{
		[]byte("acgt"), [][]byte{[]byte("ab"), nil, []byte("c")}, "verdict", []string{"id1", "", "id3"},
		-42, int64(1) << 40, []int64{1, -1, 1 << 50},
		item{Rank: 3, Label: "x"}, payload{Name: "n", Vals: []float64{1.5, math.NaN()}, Bytes: []byte("zz")},
	} {
		data, err := Encode(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add(binary.AppendUvarint(nil, 1<<63))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		parts, perr := unpackSlices(data)
		targets := builtinTargets()
		errs := make([]error, len(targets))
		for i, out := range targets {
			errs[i] = Decode(data, out)
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > allocBound(len(data)) {
			t.Fatalf("%d bytes allocated decoding %d bytes", grew, len(data))
		}

		if perr == nil {
			total := 0
			for _, p := range parts {
				total += len(p)
			}
			if len(parts)+total > len(data) {
				t.Fatalf("%d parts holding %d bytes out of %d bytes of input", len(parts), total, len(data))
			}
		}
		// What parses survives a second trip (the bytes may differ: a
		// uvarint has padded spellings).
		for i, out := range targets {
			if errs[i] != nil {
				continue
			}
			v := reflect.ValueOf(out).Elem().Interface()
			if got := roundTrip(t, v); !sameValue(got, v) {
				t.Fatalf("%T: %#v came back as %#v", v, v, got)
			}
		}
	})
}

// BenchmarkCodec encodes and decodes built-in shapes the size of the
// three messages the pipeline sends at 1200 sequences on 8 ranks: a
// rank's pivot samples, one destination's share of the exchange, and a
// bucket's rows for the glue (core's BenchmarkWire has the messages
// themselves).
func BenchmarkCodec(b *testing.B) {
	rows := func(n, width int) [][]byte {
		out := make([][]byte, n)
		for i := range out {
			out[i] = bytes.Repeat([]byte{'A' + byte(i%20)}, width)
		}
		return out
	}
	pivots := make([]int64, 14)
	for i := range pivots {
		pivots[i] = int64(i) << 33
	}
	bench := func(name string, v any, out any) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				data, err := Encode(v)
				if err != nil {
					b.Fatal(err)
				}
				if err := Decode(data, out); err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(data)))
			}
		})
	}
	bench("pivot", pivots, new([]int64))
	bench("exchange", rows(19, 300), new([][]byte))
	bench("glue", rows(150, 420), new([][]byte))
}
