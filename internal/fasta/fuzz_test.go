package fasta

import (
	"bytes"
	"compress/gzip"
	"strings"
	"testing"
)

// gz compresses b so the corpus exercises the gzip-sniffing path.
func gz(b []byte) []byte {
	var buf bytes.Buffer
	w := gzip.NewWriter(&buf)
	w.Write(b)
	w.Close()
	return buf.Bytes()
}

// fuzzReadSeeds is FuzzRead's seed corpus, which TestReadMatchesOracle
// also runs Read and its oracle on.
func fuzzReadSeeds() [][]byte {
	return [][]byte{
		[]byte(">a desc here\nACDEFG\nHIKLMN\n>b\nMKV\n"),
		[]byte(">a\r\nACDE\r\n>b\r\nFGHI\r\n"),
		// classic Mac endings: lone CR both after headers and data
		[]byte(">a\rACDE\r>b\rFGHI\r"),
		// lone CR at buffer edge / EOF
		[]byte(">a\nACGT\r"),
		// malformed headers: empty id, whitespace-only, '>' mid-line
		[]byte(">\nACGT\n"),
		[]byte(">   \nACGT\n"),
		[]byte(">a b c d\nAC>GT\n"), // glued header: '>' mid-data is rejected
		// fuzz-found: '>' as the 61st residue lands at line start when
		// rewrapped at lineWidth, turning one record into two — the
		// reader now rejects '>' inside data instead
		[]byte(">0\n000000000000000000 000000000000000000000000000000000000000000>"),
		[]byte("ACGT\n>late header\nAC\n"), // data before first header
		[]byte(""),
		[]byte(">only header no data\n"),
		[]byte(">tab\theader desc\nA C G T\n"), // internal whitespace in data
		[]byte("\n\n>a\n\nAC\n\n\n>b\nGT\n"),
		gz([]byte(">a zipped\nACDEFG\n>b\nHIKL\n")),
		gz([]byte("")),
		{0x1f, 0x8b},       // gzip magic, truncated stream
		{0x1f, 0x8b, 0xff}, // gzip magic, corrupt header
		[]byte(">\xff\xfe binary\n\x00\x01\x02\n"),
	}
}

// FuzzRead throws arbitrary bytes at the FASTA reader. The reader
// accepts messy-but-real input (CRLF, lone CR, gzip, blank lines,
// ragged widths) and rejects garbage with an error — it must never
// panic, and anything it does parse must survive a Write/Read round
// trip unchanged (IDs, descriptions and residue data). Whatever it
// does, it must do as readOracle does: the same records or the same
// error.
func FuzzRead(f *testing.F) {
	for _, s := range fuzzReadSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkMatchesOracle(t, data)
		seqs, err := Read(bytes.NewReader(data))
		if err != nil {
			return // rejected input is fine; panics are the bug
		}
		for _, s := range seqs {
			if strings.ContainsAny(s.ID, "\n\r") || strings.ContainsAny(s.Desc, "\n\r") {
				t.Fatalf("parsed header contains line break: id=%q desc=%q", s.ID, s.Desc)
			}
			if bytes.ContainsAny(s.Data, " \t\n\r") {
				t.Fatalf("parsed data contains whitespace: %q", s.Data)
			}
		}
		// Round trip: what we format must parse back to the same records.
		// (Only when every record is re-readable: a record whose ID came
		// out empty formats as a bare ">" header with the description in
		// the desc slot, which re-parses with id=desc glued — skip those,
		// the writer is not a validator.)
		for _, s := range seqs {
			if s.ID == "" || len(s.Data) == 0 {
				return
			}
		}
		out := FormatString(seqs)
		back, err := parseString(out)
		if err != nil {
			t.Fatalf("round trip rejected own output: %v\noutput:\n%s", err, out)
		}
		if len(back) != len(seqs) {
			t.Fatalf("round trip: %d records became %d", len(seqs), len(back))
		}
		for i := range seqs {
			if back[i].ID != seqs[i].ID || back[i].Desc != seqs[i].Desc || !bytes.Equal(back[i].Data, seqs[i].Data) {
				t.Fatalf("round trip changed record %d:\n got %q %q %q\nwant %q %q %q",
					i, back[i].ID, back[i].Desc, back[i].Data, seqs[i].ID, seqs[i].Desc, seqs[i].Data)
			}
		}
	})
}
