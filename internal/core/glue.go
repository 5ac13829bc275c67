package core

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"

	"repro/internal/bio"
	"repro/internal/mpi"
	"repro/internal/msa"
	"repro/internal/profile"
	"repro/internal/submat"
)

// templatePath profile-aligns a rank's local alignment, given as its
// profile lp, against the global ancestor template (the paper's
// fine-tuning step) and returns the merge path: which local columns
// match which GA columns and where insertions fall. An empty local
// alignment maps to "all GA columns unmatched"; an empty GA maps to
// "all local columns are insertions".
func templatePath(lp *profile.Profile, ga []byte) profile.Path {
	localCols := lp.Len()
	if len(ga) == 0 || localCols == 0 {
		path := make(profile.Path, 0, localCols+len(ga))
		for i := 0; i < localCols; i++ {
			path = append(path, profile.OpA)
		}
		for g := 0; g < len(ga); g++ {
			path = append(path, profile.OpB)
		}
		return path
	}
	gp := profile.FromSequence(submat.BLOSUM62.Alphabet(), ga)
	aligner := profile.NewAligner(submat.BLOSUM62, submat.DefaultProteinGap)
	path, _ := aligner.Align(lp, gp)
	return path
}

// glueRow is one aligned row on its way to the root, with the global
// ordering key that puts it back in place.
type glueRow struct {
	ID, Desc string
	Orig     int64
	Row      []byte
}

// glueMsg is what each rank ships to the root for the final merge.
type glueMsg struct {
	Rows []glueRow
	Path []byte // profile.Path ops, one byte per op
}

// glue gathers every rank's fine-tuned local alignment at the root and
// merges them in GA coordinates: GA column g of every rank lands in the
// same global column; insertion runs between GA columns get a shared slot
// sized by the widest rank. Rows come back in Orig order. Only rank 0
// returns a non-nil alignment, and only rank 0's stats get BucketSizes:
// a bucket's size is the number of rows its rank sends here.
func glue(c mpi.Comm, localAln *msa.Alignment, bucket []wireSeq, path profile.Path, gaLen int, stats *Stats) (*msa.Alignment, error) {
	// IDs are unique within the input (the drivers guarantee this).
	origs := make(map[string]int64, len(bucket))
	for _, ws := range bucket {
		origs[ws.ID] = ws.Orig
	}
	msgOut := glueMsg{Rows: make([]glueRow, len(localAln.Seqs)), Path: make([]byte, len(path))}
	for i, s := range localAln.Seqs {
		msgOut.Rows[i] = glueRow{ID: s.ID, Desc: s.Desc, Orig: origs[s.ID], Row: s.Data}
	}
	for i, op := range path {
		msgOut.Path[i] = byte(op)
	}
	msgs, err := mpi.GatherValues(c, tagGlue, msgOut)
	if err != nil || c.Rank() != 0 {
		return nil, err
	}
	stats.BucketSizes = make([]int, len(msgs))
	for r := range msgs {
		stats.BucketSizes[r] = len(msgs[r].Rows)
	}
	return mergeOnTemplate(msgs, gaLen)
}

// slotCounts checks that a rank's path consumes exactly gaLen GA columns
// and counts its insertions per slot: ins[s] local columns fall right
// before GA column s (slot gaLen is after the last).
func slotCounts(path []byte, gaLen int) ([]int, error) {
	ins := make([]int, gaLen+1)
	g := 0
	for _, op := range path {
		switch profile.Op(op) {
		case profile.OpMatch:
			if g >= gaLen {
				return nil, fmt.Errorf("core: glue path overruns GA (match)")
			}
			g++
		case profile.OpA: // local insertion relative to GA
			ins[g]++
		case profile.OpB: // GA column with no local counterpart
			if g >= gaLen {
				return nil, fmt.Errorf("core: glue path overruns GA (skip)")
			}
			g++
		default:
			return nil, fmt.Errorf("core: invalid glue op %d", op)
		}
	}
	if g != gaLen {
		return nil, fmt.Errorf("core: glue path consumed %d GA columns of %d", g, gaLen)
	}
	return ins, nil
}

// mergeOnTemplate lays every rank's rows into global GA coordinates.
func mergeOnTemplate(msgs []glueMsg, gaLen int) (*msa.Alignment, error) {
	widest := make([]int, gaLen+1) // the most any rank inserts at each slot
	for r, m := range msgs {
		ins, err := slotCounts(m.Path, gaLen)
		if err != nil {
			return nil, fmt.Errorf("rank %d: %w", r, err)
		}
		for s, n := range ins {
			widest[s] = max(widest[s], n)
		}
	}
	// slot[s] = first global column of insertion slot s; GA column g
	// follows slot g.
	slot := make([]int, gaLen+1)
	width := 0
	for s := range slot {
		slot[s] = width
		width += widest[s] + 1
	}
	width-- // no GA column follows the last slot

	var rows []glueRow
	for r, m := range msgs {
		// global column of every local column for this rank
		colOf := make([]int, 0, len(m.Path))
		g, k := 0, 0 // GA column, insertions so far in its slot
		for _, op := range m.Path {
			switch profile.Op(op) {
			case profile.OpMatch:
				colOf = append(colOf, slot[g]+widest[g])
				g, k = g+1, 0
			case profile.OpA:
				colOf = append(colOf, slot[g]+k)
				k++
			default: // OpB: slotCounts refused every other op
				g, k = g+1, 0
			}
		}
		if len(m.Rows) > 0 && len(colOf) != len(m.Rows[0].Row) {
			return nil, fmt.Errorf("core: rank %d path consumes %d local columns, rows have %d",
				r, len(colOf), len(m.Rows[0].Row))
		}
		for _, row := range m.Rows {
			out := bytes.Repeat([]byte{bio.Gap}, width)
			for localCol, b := range row.Row {
				out[colOf[localCol]] = b
			}
			row.Row = out
			rows = append(rows, row)
		}
	}
	slices.SortStableFunc(rows, func(a, b glueRow) int { return cmp.Compare(a.Orig, b.Orig) })
	aln := &msa.Alignment{Seqs: make([]bio.Sequence, len(rows))}
	for i, r := range rows {
		aln.Seqs[i] = bio.Sequence{ID: r.ID, Desc: r.Desc, Data: r.Row}
	}
	aln.RemoveAllGapColumns()
	return aln, nil
}
