package fasta

import (
	"bytes"
	"compress/gzip"
	"os"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bio"
)

// parseString reads FASTA from an in-memory string.
func parseString(s string) ([]bio.Sequence, error) {
	return Read(strings.NewReader(s))
}

func TestReadBasic(t *testing.T) {
	in := ">s1 first sequence\nACDEF\nGHIKL\n>s2\nMNPQR\n"
	seqs, err := parseString(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 {
		t.Fatalf("got %d records, want 2", len(seqs))
	}
	if seqs[0].ID != "s1" || seqs[0].Desc != "first sequence" {
		t.Errorf("header parse: id=%q desc=%q", seqs[0].ID, seqs[0].Desc)
	}
	if seqs[0].String() != "ACDEFGHIKL" {
		t.Errorf("multi-line body: %q", seqs[0].String())
	}
	if seqs[1].ID != "s2" || seqs[1].String() != "MNPQR" {
		t.Errorf("second record: %+v", seqs[1])
	}
}

func TestReadMessyInput(t *testing.T) {
	in := "\r\n>a  spaced   desc \r\nAC DE\t\nF\r\n\r\n>b\r\nGG\r\n"
	seqs, err := parseString(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 {
		t.Fatalf("got %d records, want 2", len(seqs))
	}
	if seqs[0].String() != "ACDEF" {
		t.Errorf("whitespace not stripped: %q", seqs[0].String())
	}
	if seqs[0].Desc != "spaced   desc" {
		t.Errorf("desc: %q", seqs[0].Desc)
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := parseString("ACDEF\n"); err == nil {
		t.Error("data before header accepted")
	}
}

func TestReadEmptyRecord(t *testing.T) {
	seqs, err := parseString(">empty\n>full\nAC\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 || seqs[0].Len() != 0 || seqs[1].String() != "AC" {
		t.Fatalf("empty record handling: %+v", seqs)
	}
}

func TestRoundTrip(t *testing.T) {
	orig := []bio.Sequence{
		{ID: "a", Desc: "with desc", Data: []byte(strings.Repeat("ACDEFGHIKL", 13))},
		{ID: "b", Data: []byte("MW")},
		{ID: "c", Data: nil},
	}
	out := FormatString(orig)
	back, err := parseString(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(orig) {
		t.Fatalf("round trip count %d != %d", len(back), len(orig))
	}
	for i := range orig {
		if !bio.Equal(orig[i], back[i]) {
			t.Errorf("record %d: got %q/%q want %q/%q",
				i, back[i].ID, back[i].String(), orig[i].ID, orig[i].String())
		}
		if back[i].Desc != orig[i].Desc {
			t.Errorf("record %d desc: %q != %q", i, back[i].Desc, orig[i].Desc)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	// Property: writing then reading arbitrary residue strings over the
	// amino alphabet is the identity.
	letters := bio.AminoAcids.Letters()
	f := func(raw []byte, n uint8) bool {
		data := make([]byte, len(raw))
		for i, b := range raw {
			data[i] = letters[int(b)%len(letters)]
		}
		seqs := []bio.Sequence{{ID: "q", Data: data}}
		back, err := parseString(FormatString(seqs))
		if err != nil || len(back) != 1 {
			return false
		}
		return back[0].String() == string(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWriteFileReadFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/x.fa"
	seqs := []bio.Sequence{{ID: "z", Data: []byte("ACDEF")}}
	if err := WriteFile(path, seqs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].String() != "ACDEF" {
		t.Fatalf("file round trip: %+v", back)
	}
}

func TestReadCRLFAndCROnly(t *testing.T) {
	want := map[string]string{"a": "ACDEF", "b": "GGHH"}
	for name, in := range map[string]string{
		"crlf":   ">a one\r\nACD\r\nEF\r\n>b\r\nGGHH\r\n",
		"cr":     ">a one\rACD\rEF\r>b\rGGHH\r",
		"mixed":  ">a one\nACD\r\nEF\r>b\nGGHH",
		"no-eol": ">a one\r\nACDEF\r\n>b\r\nGGHH",
	} {
		seqs, err := parseString(in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(seqs) != 2 {
			t.Fatalf("%s: got %d records, want 2: %+v", name, len(seqs), seqs)
		}
		for _, s := range seqs {
			if s.String() != want[s.ID] {
				t.Errorf("%s: %s = %q, want %q", name, s.ID, s.String(), want[s.ID])
			}
		}
		if seqs[0].Desc != "one" {
			t.Errorf("%s: desc = %q, want \"one\"", name, seqs[0].Desc)
		}
	}
}

func TestReadGzip(t *testing.T) {
	plain := ">g1 zipped\nACDEFGHIKL\n>g2\nMNPQ\n"
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write([]byte(plain)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	seqs, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 || seqs[0].String() != "ACDEFGHIKL" || seqs[1].String() != "MNPQ" {
		t.Fatalf("gzip parse: %+v", seqs)
	}
	if seqs[0].Desc != "zipped" {
		t.Fatalf("gzip desc: %q", seqs[0].Desc)
	}

	// A gzip file is also sniffed through ReadFile.
	path := t.TempDir() + "/x.fa.gz"
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[1].String() != "MNPQ" {
		t.Fatalf("gzip file round trip: %+v", back)
	}
}

func TestReadGzipCorrupt(t *testing.T) {
	// Valid magic, garbage beyond: must error, not parse as FASTA.
	if _, err := Read(bytes.NewReader([]byte{0x1f, 0x8b, 0xff, 0x00, 0x01})); err == nil {
		t.Fatal("corrupt gzip accepted")
	}
}

func TestReadShortInput(t *testing.T) {
	// Inputs shorter than the gzip magic must not error in the sniffer.
	if seqs, err := parseString(""); err != nil || len(seqs) != 0 {
		t.Fatalf("empty input: %v %v", seqs, err)
	}
	if _, err := parseString("A"); err == nil {
		t.Fatal("1-byte residue line without header accepted")
	}
}

// TestReadSmallInputAllocatesLittle holds Read's fixed cost down: a
// request body of about a kilobyte must not pay for buffers sized for
// files (it used to zero a 64 KiB scanner buffer and a 4 KiB reader).
func TestReadSmallInputAllocatesLittle(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 8; i++ {
		sb.WriteString(">seq")
		sb.WriteByte(byte('0' + i))
		sb.WriteByte('\n')
		sb.WriteString(strings.Repeat("ACDEFGHIKLMNPQRSTVWY", 6))
		sb.WriteByte('\n')
	}
	in := sb.String() // ≈ 1 KB
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	seqs, err := Read(strings.NewReader(in))
	runtime.ReadMemStats(&after)
	if err != nil || len(seqs) != 8 {
		t.Fatalf("%d seqs, err %v", len(seqs), err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 16<<10 {
		t.Errorf("Read of %d bytes allocated %d bytes, want < 16 KiB", len(in), got)
	}
}

// TestReadLongLine: the scanner's buffer starts small and must still
// grow to hold a whole sequence on one line.
func TestReadLongLine(t *testing.T) {
	line := strings.Repeat("ACDEFGHIKLMNPQRSTVWY", (1<<20)/20+1)
	seqs, err := parseString(">long\n" + line + "\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 1 || string(seqs[0].Data) != line {
		t.Fatalf("1 MiB line did not survive: %d seqs", len(seqs))
	}
}
