package fasta

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bio"
)

// readOracle is Read as it was before it worked on the scanner's bytes:
// a string per line and a byte at a time into the record. It is the
// oracle Read and Parse are held to, error messages and line numbers
// included.
func readOracle(r io.Reader) ([]bio.Sequence, error) {
	plain, err := sniffReader(r)
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(plain)
	sc.Buffer(nil, 64*1024*1024)
	sc.Split(scanLines)
	var (
		seqs []bio.Sequence
		cur  *bio.Sequence
		buf  bytes.Buffer
		line int
	)
	flush := func() {
		if cur != nil {
			cur.Data = append([]byte(nil), buf.Bytes()...)
			seqs = append(seqs, *cur)
			cur = nil
			buf.Reset()
		}
	}
	for sc.Scan() {
		line++
		text := strings.TrimRight(sc.Text(), " \t\r")
		if text == "" {
			continue
		}
		if text[0] == '>' {
			flush()
			id, desc := splitHeader(text[1:])
			cur = &bio.Sequence{ID: id, Desc: desc}
			continue
		}
		if cur == nil {
			return nil, fmt.Errorf("fasta: line %d: sequence data before first header", line)
		}
		for i := 0; i < len(text); i++ {
			b := text[i]
			if b == ' ' || b == '\t' {
				continue
			}
			if b == '>' {
				return nil, fmt.Errorf("fasta: line %d: '>' inside sequence data", line)
			}
			buf.WriteByte(b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("fasta: %w", err)
	}
	flush()
	return seqs, nil
}

// checkMatchesOracle fails t unless Read and readOracle return the same
// records (nil data where the oracle's is nil) and the same error text
// for data, and Parse does too where data is not gzip. Parse must also
// leave no record aliasing data: data is overwritten after the parse.
func checkMatchesOracle(t *testing.T, data []byte) {
	t.Helper()
	want, werr := readOracle(bytes.NewReader(data))
	got, gerr := Read(bytes.NewReader(data))
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("input %q: error %v, oracle %v", data, gerr, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("input %q:\n got %q\nwant %q", data, got, want)
	}
	if bytes.HasPrefix(data, gzipMagic) {
		return
	}
	held := bytes.Clone(data)
	got, gerr = Parse(held)
	for i := range held {
		held[i] = '#'
	}
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("input %q: Parse error %v, oracle %v", data, gerr, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("input %q: Parse\n got %q\nwant %q", data, got, want)
	}
}

// TestReadMatchesOracle holds Read to readOracle on FuzzRead's seeds and
// on inputs that stress the line and run boundaries: residue runs
// split by every whitespace mix, '>' at a run's start, middle and end,
// headers with and without descriptions, and a line longer than the
// scanner's first buffer.
func TestReadMatchesOracle(t *testing.T) {
	inputs := fuzzReadSeeds()
	for _, s := range []string{
		">a\n A C\tD  E\t \tF \n",
		">a\n\t\tACD\n>b desc\n \n",
		">a\nAC >\n",
		">a\n>AC\n", // a header, not data
		">a\nAC\t>D\n",
		">a\nACD>\n",
		">a\nACD\n \t>b\n",
		"  >a\nAC\n",
		">a\r\n\r\nA C\r\r\nD\n",
		">a x\ty \n" + strings.Repeat("ACDEF GHIK\t", 1000) + "\n>b\n",
		"\n\n\n \t\nAC\n",
	} {
		inputs = append(inputs, []byte(s))
	}
	// gzip streams cut short, after a good record and after a bad one:
	// the lines inflated before the stream breaks are parsed first
	long := strings.Repeat("ACDEFGHIKLMNPQRSTVWY\n", 400)
	for _, text := range []string{">a\n" + long + ">b\n" + long, ">a\n" + long + "AC>GT\n" + long} {
		z := gz([]byte(text))
		inputs = append(inputs, z[:len(z)-8], z[:len(z)/2])
	}
	for _, in := range inputs {
		checkMatchesOracle(t, in)
	}
}
