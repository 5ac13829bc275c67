// Package fasta reads and writes sequence sets in FASTA format.
//
// The reader is tolerant of the variation found in real files: blank
// lines, Windows (CRLF) and classic Mac (CR) line endings, arbitrary
// line widths, trailing whitespace, and gzip-compressed input (sniffed
// by magic bytes, so uploads need no content-type negotiation). The
// writer emits fixed-width records suitable for other tools.
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
// detected by magic bytes and decompressed transparently.
//
// Each line is handled as the scanner's bytes, once: a header becomes
// one string that ID and description are cut from, and a data line's
// residues, the runs between its spaces and tabs (bytes.IndexAny), are
// appended to the record whole.
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
	var (
		seqs []bio.Sequence
		cur  *bio.Sequence
		buf  []byte // the current record's residues
		line int
	)
	flush := func() {
		if cur != nil {
			cur.Data = append([]byte(nil), buf...)
			seqs = append(seqs, *cur)
			cur = nil
			buf = buf[:0]
		}
	}
	for sc.Scan() {
		line++
		text := bytes.TrimRight(sc.Bytes(), " \t\r")
		if len(text) == 0 {
			continue
		}
		if text[0] == '>' {
			flush()
			id, desc := splitHeader(string(text[1:]))
			cur = &bio.Sequence{ID: id, Desc: desc}
			continue
		}
		if cur == nil {
			return nil, fmt.Errorf("fasta: line %d: sequence data before first header", line)
		}
		for len(text) > 0 {
			i := bytes.IndexAny(text, " \t>")
			if i < 0 {
				buf = append(buf, text...)
				break
			}
			if text[i] == '>' {
				// '>' mid-line is never residue data; it is the
				// signature of a glued header (a lost newline before a
				// record). Accepting it would also make the record
				// ambiguous to re-serialise: rewrapped at lineWidth the
				// '>' can land at line start and parse as a header.
				return nil, fmt.Errorf("fasta: line %d: '>' inside sequence data", line)
			}
			buf = append(buf, text[:i]...)
			text = text[i+1:]
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("fasta: %w", err)
	}
	flush()
	return seqs, nil
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
