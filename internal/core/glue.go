package core

import (
	"fmt"
	"sort"

	"repro/internal/bio"
	"repro/internal/mpi"
	"repro/internal/msa"
	"repro/internal/profile"
	"repro/internal/submat"
)

// templatePath profile-aligns a rank's local alignment against the global
// ancestor template (the paper's fine-tuning step) and returns the merge
// path: which local columns match which GA columns and where insertions
// fall. An empty local alignment maps to "all GA columns unmatched"; an
// empty GA maps to "all local columns are insertions".
func templatePath(localAln *msa.Alignment, ga []byte) (profile.Path, error) {
	localCols := localAln.Width()
	if len(ga) == 0 || localCols == 0 {
		path := make(profile.Path, 0, localCols+len(ga))
		for i := 0; i < localCols; i++ {
			path = append(path, profile.OpA)
		}
		for g := 0; g < len(ga); g++ {
			path = append(path, profile.OpB)
		}
		return path, nil
	}
	alpha := submat.BLOSUM62.Alphabet()
	lp, err := localAln.Profile(alpha)
	if err != nil {
		return nil, err
	}
	gp := profile.FromSequence(alpha, ga)
	aligner := profile.NewAligner(submat.BLOSUM62, submat.DefaultProteinGap)
	path, _ := aligner.Align(lp, gp)
	return path, nil
}

// glueMsg is what each rank ships to the root for the final merge.
type glueMsg struct {
	IDs   []string
	Descs []string
	Origs []int64
	Rows  [][]byte
	Path  []byte // profile.Path ops, one byte per op
}

// glue gathers every rank's fine-tuned local alignment at the root and
// merges them in GA coordinates: GA column g of every rank lands in the
// same global column; insertion runs between GA columns get a shared slot
// sized by the widest rank. Rows come back in Orig order. Only rank 0
// returns a non-nil alignment, and only rank 0's stats get BucketSizes:
// a bucket's size is the number of rows its rank sends here.
func glue(c mpi.Comm, localAln *msa.Alignment, bucket []wireSeq, path profile.Path, gaLen int, stats *Stats) (*msa.Alignment, error) {
	origs := origMap(bucket)
	msgOut := glueMsg{
		IDs:   make([]string, localAln.NumSeqs()),
		Descs: make([]string, localAln.NumSeqs()),
		Origs: make([]int64, localAln.NumSeqs()),
		Rows:  localAln.Rows(),
		Path:  make([]byte, len(path)),
	}
	for i, s := range localAln.Seqs {
		msgOut.IDs[i] = s.ID
		msgOut.Descs[i] = s.Desc
		msgOut.Origs[i] = origs[s.ID]
	}
	for i, op := range path {
		msgOut.Path[i] = byte(op)
	}
	msgs, err := mpi.GatherValues(c, 0, tagGlue, msgOut)
	if err != nil || c.Rank() != 0 {
		return nil, err
	}
	stats.BucketSizes = make([]int, len(msgs))
	for r := range msgs {
		stats.BucketSizes[r] = len(msgs[r].Rows)
	}
	return mergeOnTemplate(msgs, gaLen)
}

// origMap indexes the bucket's global ordering keys by sequence ID.
// IDs must be unique within the input (the drivers guarantee this).
func origMap(bucket []wireSeq) map[string]int64 {
	m := make(map[string]int64, len(bucket))
	for i := range bucket {
		m[bucket[i].ID] = bucket[i].Orig
	}
	return m
}

// rankLayout is one rank's parsed template mapping.
type rankLayout struct {
	ins      [][]int // ins[slot] = local column indices inserted at slot (0..gaLen)
	matched  []int   // matched[g] = local column matched to GA column g, or -1
	numLocal int
}

func parseLayout(path []byte, gaLen int) (*rankLayout, error) {
	l := &rankLayout{
		ins:     make([][]int, gaLen+1),
		matched: make([]int, gaLen),
	}
	for g := range l.matched {
		l.matched[g] = -1
	}
	local, g := 0, 0
	for _, op := range path {
		switch profile.Op(op) {
		case profile.OpMatch:
			if g >= gaLen {
				return nil, fmt.Errorf("core: glue path overruns GA (match)")
			}
			l.matched[g] = local
			local++
			g++
		case profile.OpA: // local insertion relative to GA
			l.ins[g] = append(l.ins[g], local)
			local++
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
	l.numLocal = local
	return l, nil
}

// mergeOnTemplate lays every rank's rows into global GA coordinates.
func mergeOnTemplate(msgs []glueMsg, gaLen int) (*msa.Alignment, error) {
	layouts := make([]*rankLayout, len(msgs))
	maxIns := make([]int, gaLen+1)
	for r, m := range msgs {
		l, err := parseLayout(m.Path, gaLen)
		if err != nil {
			return nil, fmt.Errorf("rank %d: %w", r, err)
		}
		if len(m.Rows) > 0 && l.numLocal != len(m.Rows[0]) {
			return nil, fmt.Errorf("core: rank %d path consumes %d local columns, rows have %d",
				r, l.numLocal, len(m.Rows[0]))
		}
		layouts[r] = l
		for s := 0; s <= gaLen; s++ {
			if n := len(l.ins[s]); n > maxIns[s] {
				maxIns[s] = n
			}
		}
	}
	width := gaLen
	for _, n := range maxIns {
		width += n
	}
	// slotStart[s] = first global column of insertion slot s;
	// gaCol[g] = global column of GA column g.
	slotStart := make([]int, gaLen+1)
	gaCol := make([]int, gaLen)
	col := 0
	for s := 0; s <= gaLen; s++ {
		slotStart[s] = col
		col += maxIns[s]
		if s < gaLen {
			gaCol[s] = col
			col++
		}
	}
	if col != width {
		return nil, fmt.Errorf("core: layout width mismatch %d != %d", col, width)
	}

	type rowOut struct {
		seq  bio.Sequence
		orig int64
	}
	var rows []rowOut
	for r, m := range msgs {
		l := layouts[r]
		// global column of every local column for this rank
		colOf := make([]int, l.numLocal)
		for s := 0; s <= gaLen; s++ {
			for k, localCol := range l.ins[s] {
				colOf[localCol] = slotStart[s] + k
			}
		}
		for g, localCol := range l.matched {
			if localCol >= 0 {
				colOf[localCol] = gaCol[g]
			}
		}
		for i, rowData := range m.Rows {
			out := make([]byte, width)
			for j := range out {
				out[j] = bio.Gap
			}
			for localCol, b := range rowData {
				out[colOf[localCol]] = b
			}
			rows = append(rows, rowOut{
				seq:  bio.Sequence{ID: m.IDs[i], Desc: m.Descs[i], Data: out},
				orig: m.Origs[i],
			})
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].orig < rows[j].orig })
	aln := &msa.Alignment{Seqs: make([]bio.Sequence, len(rows))}
	for i, r := range rows {
		aln.Seqs[i] = r.seq
	}
	aln.RemoveAllGapColumns()
	return aln, nil
}
