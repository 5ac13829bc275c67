// Package fasta reads and writes sequence sets in FASTA format.
//
// The reader is tolerant of the variation found in real files: blank
// lines, Windows (CRLF) and classic Mac (CR) line endings, arbitrary
// line widths, trailing whitespace, and gzip-compressed input (sniffed
// by magic bytes, so uploads need no content-type negotiation). Read
// takes a stream, Parse the bytes a caller already holds. The writer
// emits fixed-width records suitable for other tools.
package fasta

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/bio"
)

// gzip magic bytes (RFC 1952).
var gzipMagic = []byte{0x1f, 0x8b}

// scanLines is a bufio.SplitFunc that terminates lines at \n, \r\n or a
// lone \r (classic Mac endings make the whole file one bufio.ScanLines
// line, which would mis-parse as a single giant header).
func scanLines(data []byte, atEOF bool) (advance int, token []byte, err error) {
	if atEOF && len(data) == 0 {
		return 0, nil, nil
	}
	if i := bytes.IndexAny(data, "\r\n"); i >= 0 {
		advance = i + 1
		if data[i] == '\r' {
			if i+1 < len(data) {
				if data[i+1] == '\n' {
					advance++
				}
			} else if !atEOF {
				// \r at the buffer edge: wait to see whether \n follows.
				return 0, nil, nil
			}
		}
		return advance, data[:i], nil
	}
	if atEOF {
		return len(data), data, nil
	}
	return 0, nil, nil
}

// sniffReader transparently decompresses gzip input, detected by its
// magic bytes; everything else passes through unchanged. The two bytes
// it looks at are put back in front of r, not peeked through a
// bufio.Reader: the scanner has a buffer of its own, and a request
// body of a kilobyte should not cost a second, 4 KiB one.
func sniffReader(r io.Reader) (io.Reader, error) {
	head := make([]byte, len(gzipMagic))
	n, err := io.ReadFull(r, head)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, fmt.Errorf("fasta: %w", err)
	}
	whole := io.MultiReader(bytes.NewReader(head[:n]), r)
	if err != nil || !bytes.Equal(head, gzipMagic) {
		// Not gzip (or too short to be): the FASTA parser's to handle.
		return whole, nil
	}
	zr, err := gzip.NewReader(whole)
	if err != nil {
		return nil, fmt.Errorf("fasta: gzip input: %w", err)
	}
	return zr, nil
}

// Read parses every FASTA record from r. Gzip-compressed input is
// detected by magic bytes and decompressed transparently. The input
// streams through a scanner, never held whole, and a line over 64 MiB
// is refused.
func Read(r io.Reader) ([]bio.Sequence, error) {
	plain, err := sniffReader(r)
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(plain)
	// No initial buffer: the scanner starts at 4 KiB and doubles as
	// lines demand, up to the same 64 MiB cap on one line.
	sc.Buffer(nil, 64*1024*1024)
	sc.Split(scanLines)
	var rs records
	for sc.Scan() {
		if err := rs.line(sc.Bytes()); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("fasta: %w", err)
	}
	return rs.done(), nil
}

// Parse parses every FASTA record in data, plain text (no gzip), for a
// caller that already holds the bytes, such as a request body: no
// scanner buffer is needed, and no line cap, as data is already held.
// Lines end where Read's do. The records own their bytes: none aliases
// data, which the caller may reuse.
func Parse(data []byte) ([]bio.Sequence, error) {
	var rs records
	if n := bytes.Count(data, []byte{'>'}); n > 0 { // at least the headers
		rs.seqs = make([]bio.Sequence, 0, n)
	}
	for len(data) > 0 {
		text := data
		data = nil
		if i := bytes.IndexAny(text, "\r\n"); i >= 0 {
			rest := text[i+1:]
			if text[i] == '\r' && len(rest) > 0 && rest[0] == '\n' {
				rest = rest[1:]
			}
			text, data = text[:i], rest
		}
		if err := rs.line(text); err != nil {
			return nil, err
		}
	}
	return rs.done(), nil
}

// records is the parse Read and Parse share, fed one line at a time
// without its terminator.
type records struct {
	seqs []bio.Sequence // the last one is the record being read
	buf  []byte         // its residues
	n    int            // lines seen
}

// line handles one line, once: a header becomes one string that ID and
// description are cut from, and a data line's residues, the runs
// between its spaces and tabs (bytes.IndexAny), are appended to the
// record whole. text is not kept.
func (rs *records) line(text []byte) error {
	rs.n++
	text = bytes.TrimRight(text, " \t\r")
	if len(text) == 0 {
		return nil
	}
	if text[0] == '>' {
		rs.flush()
		id, desc := splitHeader(string(text[1:]))
		rs.seqs = append(rs.seqs, bio.Sequence{ID: id, Desc: desc})
		return nil
	}
	if len(rs.seqs) == 0 {
		return fmt.Errorf("fasta: line %d: sequence data before first header", rs.n)
	}
	for len(text) > 0 {
		i := bytes.IndexAny(text, " \t>")
		if i < 0 {
			rs.buf = append(rs.buf, text...)
			break
		}
		if text[i] == '>' {
			// '>' mid-line is never residue data; it is the
			// signature of a glued header (a lost newline before a
			// record). Accepting it would also make the record
			// ambiguous to re-serialise: rewrapped at lineWidth the
			// '>' can land at line start and parse as a header.
			return fmt.Errorf("fasta: line %d: '>' inside sequence data", rs.n)
		}
		rs.buf = append(rs.buf, text[:i]...)
		text = text[i+1:]
	}
	return nil
}

// flush gives the record being read its residues.
func (rs *records) flush() {
	if len(rs.seqs) > 0 {
		rs.seqs[len(rs.seqs)-1].Data = append([]byte(nil), rs.buf...)
		rs.buf = rs.buf[:0]
	}
}

// done ends the last record and returns them all.
func (rs *records) done() []bio.Sequence {
	rs.flush()
	return rs.seqs
}

func splitHeader(h string) (id, desc string) {
	h = strings.TrimSpace(h)
	if i := strings.IndexAny(h, " \t"); i >= 0 {
		return h[:i], strings.TrimSpace(h[i+1:])
	}
	return h, ""
}

// ReadFile parses every FASTA record from the file at path.
func ReadFile(path string) ([]bio.Sequence, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// lineWidth is the residue line width used by Write.
const lineWidth = 60

// Write emits the sequences to w in FASTA format with lineWidth-column
// residue lines.
func Write(w io.Writer, seqs []bio.Sequence) error {
	bw := bufio.NewWriter(w)
	for _, s := range seqs {
		if s.Desc != "" {
			fmt.Fprintf(bw, ">%s %s\n", s.ID, s.Desc)
		} else {
			fmt.Fprintf(bw, ">%s\n", s.ID)
		}
		for off := 0; off < len(s.Data); off += lineWidth {
			end := off + lineWidth
			if end > len(s.Data) {
				end = len(s.Data)
			}
			bw.Write(s.Data[off:end])
			bw.WriteByte('\n')
		}
		if len(s.Data) == 0 {
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// WriteFile writes the sequences to the file at path, creating or
// truncating it.
func WriteFile(path string, seqs []bio.Sequence) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, seqs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// FormatString renders sequences as a FASTA string.
func FormatString(seqs []bio.Sequence) string {
	var b strings.Builder
	Write(&b, seqs) // strings.Builder writes cannot fail
	return b.String()
}
