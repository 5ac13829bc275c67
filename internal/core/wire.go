package core

import (
	"fmt"
	"slices"

	"repro/internal/mpi"
)

// The pipeline's three message types in mpi's wire format (see
// mpi.Wire): fields in declaration order, nothing else. Parsed byte
// slices — sequence data, alignment rows, the glue path — alias the
// received message.

// wireSeqList is one rank's share of a bucket in the all-to-all exchange.
type wireSeqList []wireSeq

// wireSeqMin is the least a wireSeq occupies: three lengths, one varint
// and a float64.
const wireSeqMin = 3 + 1 + 8

func (l wireSeqList) AppendWire(buf []byte) []byte {
	size := 10 // a hint: Grow reserves, append still grows if it falls short
	for i := range l {
		size += 24 + len(l[i].ID) + len(l[i].Desc) + len(l[i].Data)
	}
	buf = mpi.AppendUint(slices.Grow(buf, size), uint64(len(l)))
	for i := range l {
		s := &l[i]
		buf = mpi.AppendString(buf, s.ID)
		buf = mpi.AppendString(buf, s.Desc)
		buf = mpi.AppendBytes(buf, s.Data)
		buf = mpi.AppendInt(buf, s.Orig)
		buf = mpi.AppendFloat64(buf, s.Rank)
	}
	return buf
}

func (l *wireSeqList) ParseWire(r *mpi.Reader) error {
	*l = mpi.ReadSlice(r, wireSeqMin, func(r *mpi.Reader) wireSeq {
		return wireSeq{ID: r.String(), Desc: r.String(), Data: r.Bytes(), Orig: r.Int(), Rank: r.Float64()}
	})
	return r.Err()
}

// pivotKeyList carries regular samples to the root and pivots back.
type pivotKeyList []pivotKey

// pivotKeyMin is the least a pivotKey occupies: a float64 and a varint.
const pivotKeyMin = 8 + 1

func (l pivotKeyList) AppendWire(buf []byte) []byte {
	buf = mpi.AppendUint(slices.Grow(buf, 10+18*len(l)), uint64(len(l)))
	for _, k := range l {
		buf = mpi.AppendFloat64(buf, k.Rank)
		buf = mpi.AppendInt(buf, k.Orig)
	}
	return buf
}

func (l *pivotKeyList) ParseWire(r *mpi.Reader) error {
	*l = mpi.ReadSlice(r, pivotKeyMin, func(r *mpi.Reader) pivotKey {
		return pivotKey{Rank: r.Float64(), Orig: r.Int()}
	})
	return r.Err()
}

// glueRowMin is the least one glueRow occupies: two string lengths, a
// varint and a row length.
const glueRowMin = 4

// AppendWire writes the row count, then each row's ID, Desc, Orig and
// bytes, then the path.
func (m glueMsg) AppendWire(buf []byte) []byte {
	size := 20 + len(m.Path)
	for _, row := range m.Rows {
		size += 16 + len(row.ID) + len(row.Desc) + len(row.Row)
	}
	buf = mpi.AppendUint(slices.Grow(buf, size), uint64(len(m.Rows)))
	for _, row := range m.Rows {
		buf = mpi.AppendString(buf, row.ID)
		buf = mpi.AppendString(buf, row.Desc)
		buf = mpi.AppendInt(buf, row.Orig)
		buf = mpi.AppendBytes(buf, row.Row)
	}
	return mpi.AppendBytes(buf, m.Path)
}

func (m *glueMsg) ParseWire(r *mpi.Reader) error {
	m.Rows = mpi.ReadSlice(r, glueRowMin, func(r *mpi.Reader) glueRow {
		return glueRow{ID: r.String(), Desc: r.String(), Orig: r.Int(), Row: r.Bytes()}
	})
	m.Path = r.Bytes()
	if err := r.Err(); err != nil {
		return err
	}
	// An alignment's rows have one width; the merge indexes every row by
	// the first one's columns.
	for i, row := range m.Rows {
		if len(row.Row) != len(m.Rows[0].Row) {
			return fmt.Errorf("row %d is %d columns wide, row 0 is %d", i, len(row.Row), len(m.Rows[0].Row))
		}
	}
	return nil
}
