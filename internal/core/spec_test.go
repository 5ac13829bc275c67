package core_test

// specAlign is the paper's algorithm (arXiv:0901.2742 §3; the
// decomposition is analysed in arXiv:0905.1744) written as one
// sequential function over plain slices. It is the executable
// specification spec_compare_test.go holds package core to, byte for
// byte: core runs the same steps as an SPMD program over a
// communicator, and any difference in output is a bug in one of the two.
//
// It shares only the leaf primitives — k-mer profiles and ranks, the
// sequential engine, profile alignment and the scoring matrix — and
// nothing of core's orchestration: no communicator, no wire types, no
// spans, no goroutines. It states core's defaults itself.

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/bio"
	"repro/internal/kmer"
	"repro/internal/msa"
	"repro/internal/profile"
	"repro/internal/submat"
)

const (
	specK   = 6   // k-mer length over the Dayhoff-6 alphabet
	specOcc = 0.5 // least column occupancy that makes an ancestor column
)

// specSampleSize is k, the samples each block contributes: max(p−1, 4).
func specSampleSize(p int) int { return max(p-1, 4) }

// specSeq is one input sequence on its way through the steps.
type specSeq struct {
	seq  bio.Sequence // ungapped
	orig int          // index in the input
	prof kmer.Profile
	rank float64
}

// specKey is the total order of the partition: k-mer rank, then input
// index, so tied ranks still split evenly.
type specKey struct {
	rank float64
	orig int
}

func (a specKey) less(b specKey) bool {
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	return a.orig < b.orig
}

func (s specSeq) key() specKey { return specKey{s.rank, s.orig} }

// specRankAndSort sets every sequence's k-mer rank against ref and sorts
// the list by (rank, input index).
func specRankAndSort(ctx context.Context, list []specSeq, ref []kmer.Profile) error {
	targets := make([]kmer.Profile, len(list))
	for i := range list {
		targets[i] = list[i].prof
	}
	ranks, err := kmer.RanksContext(ctx, targets, ref, kmer.DefaultRankScale, 1)
	if err != nil {
		return err
	}
	for i := range list {
		list[i].rank = ranks[i]
	}
	sort.SliceStable(list, func(i, j int) bool { return list[i].key().less(list[j].key()) })
	return nil
}

// specEngine aligns a list of sequences with the sequential engine.
func specEngine(ctx context.Context, list []specSeq) (*msa.Alignment, error) {
	seqs := make([]bio.Sequence, len(list))
	for i := range list {
		seqs[i] = list[i].seq
	}
	return msa.MuscleLike(1).AlignContext(ctx, seqs)
}

// specAlign aligns seqs as p processors running Sample-Align-D would,
// and returns the alignment in input order.
func specAlign(ctx context.Context, seqs []bio.Sequence, p int) (*msa.Alignment, error) {
	counter, err := kmer.NewCounter(bio.Dayhoff6, specK)
	if err != nil {
		return nil, err
	}

	// Step 1. Deal the input into p contiguous blocks, block r holding
	// seqs[r·N/p : (r+1)·N/p] (the paper's pre-placed files). Gapped
	// input is ungapped on the way in.
	n := len(seqs)
	blocks := make([][]specSeq, p)
	for r := range blocks {
		for i := r * n / p; i < (r+1)*n/p; i++ {
			s := seqs[i]
			data := bio.Ungap(s.Data)
			blocks[r] = append(blocks[r], specSeq{
				seq:  bio.Sequence{ID: s.ID, Desc: s.Desc, Data: data},
				orig: i,
				prof: counter.Profile(data),
			})
		}
	}
	if p == 1 {
		// One block: there is nothing to decompose, and the engine
		// aligns the input as it came.
		return specEngine(ctx, blocks[0])
	}

	// Step 2. Every block ranks its sequences against themselves and
	// sorts them by (rank, input index).
	for _, b := range blocks {
		own := make([]kmer.Profile, len(b))
		for i := range b {
			own[i] = b[i].prof
		}
		if err := specRankAndSort(ctx, b, own); err != nil {
			return nil, err
		}
	}

	// Step 3. Every block contributes k evenly spaced samples of its
	// sorted list, the one at (i+1)·n/(k+1) for i < k, with k clamped to
	// the block's size. The pool holds them in block order.
	var pool []kmer.Profile
	for _, b := range blocks {
		k := min(specSampleSize(p), len(b))
		for i := 0; i < k; i++ {
			pool = append(pool, b[(i+1)*len(b)/(k+1)].prof)
		}
	}

	// Step 4. The globalised rank: every sequence is re-ranked against
	// the pooled samples, and every block re-sorted.
	for _, b := range blocks {
		if err := specRankAndSort(ctx, b, pool); err != nil {
			return nil, err
		}
	}

	// Step 5. Regular sampling: every non-empty block gives the p−1 keys
	// at (i+1)·n/p. Of the sorted keys Y, the pivots are the paper's
	// Y_{jp+p/2} for j < p−1 when all p(p−1) keys arrived, and the
	// quantiles Y_{j·|Y|/p} for 0 < j < p otherwise. A pivot equal to
	// the one before it is dropped.
	var keys []specKey
	for _, b := range blocks {
		if len(b) == 0 {
			continue
		}
		for i := 0; i < p-1; i++ {
			keys = append(keys, b[(i+1)*len(b)/p].key())
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
	var at []int
	switch {
	case len(keys) == p*(p-1):
		for j := 0; j < p-1; j++ {
			at = append(at, j*p+p/2)
		}
	case len(keys) > 0:
		for j := 1; j < p; j++ {
			at = append(at, j*len(keys)/p)
		}
	}
	var pivots []specKey
	for _, i := range at {
		if len(pivots) == 0 || pivots[len(pivots)-1].less(keys[i]) {
			pivots = append(pivots, keys[i])
		}
	}

	// Step 6. Buckets: a sequence goes to the first bucket whose pivot
	// is not below its key (the last bucket takes the rest), and every
	// bucket is sorted by (rank, input index).
	buckets := make([][]specSeq, p)
	for _, b := range blocks {
		for _, s := range b {
			j := sort.Search(len(pivots), func(i int) bool { return !pivots[i].less(s.key()) })
			buckets[j] = append(buckets[j], s)
		}
	}
	for _, b := range buckets {
		sort.Slice(b, func(i, j int) bool { return b[i].key().less(b[j].key()) })
	}

	// Step 7. The engine aligns every non-empty bucket on its own.
	alns := make([]*msa.Alignment, p)
	for j, b := range buckets {
		if len(b) == 0 {
			continue
		}
		if alns[j], err = specEngine(ctx, b); err != nil {
			return nil, err
		}
	}

	// Step 8. Every bucket's ancestor is the consensus of its alignment.
	// The engine aligns the non-empty ancestors, named anc<bucket>, and
	// their consensus is the global ancestor GA (a lone ancestor is GA
	// as it stands). Fine-tuning profile-aligns every bucket's alignment
	// against GA: the path says which bucket columns match which GA
	// column, and which fall between GA columns.
	alpha := submat.BLOSUM62.Alphabet()
	var ancs []specSeq
	for j, aln := range alns {
		if aln == nil {
			continue
		}
		anc, err := aln.Consensus(alpha, specOcc)
		if err != nil {
			return nil, err
		}
		if len(anc) > 0 {
			ancs = append(ancs, specSeq{seq: bio.Sequence{ID: fmt.Sprintf("anc%d", j), Data: anc}})
		}
	}
	var ga []byte
	switch len(ancs) {
	case 0:
	case 1:
		ga = ancs[0].seq.Data
	default:
		gaAln, err := specEngine(ctx, ancs)
		if err != nil {
			return nil, err
		}
		if ga, err = gaAln.Consensus(alpha, specOcc); err != nil {
			return nil, err
		}
	}
	paths := make([]profile.Path, p)
	for j, aln := range alns {
		switch {
		case aln == nil:
		case len(ga) == 0:
			paths[j] = make(profile.Path, aln.Width()) // all OpA: every column inserted
			for i := range paths[j] {
				paths[j][i] = profile.OpA
			}
		default:
			lp, err := aln.Profile(alpha)
			if err != nil {
				return nil, err
			}
			paths[j], _ = profile.NewAligner(submat.BLOSUM62, submat.DefaultProteinGap).Align(lp, profile.FromSequence(alpha, ga))
		}
	}

	// Step 9. Template glue. Slot s (s ≤ |GA|) holds the columns a
	// bucket inserts before GA column s, and is as wide as the most any
	// bucket inserts there. GA column g comes right after slot g. Every
	// bucket's rows are laid into these global columns, the rows are put
	// back in input order, and all-gap columns are dropped.
	widest := make([]int, len(ga)+1)
	for _, path := range paths {
		g, ins := 0, 0
		for _, op := range path {
			if op == profile.OpA {
				ins++
				widest[g] = max(widest[g], ins)
				continue
			}
			g, ins = g+1, 0
		}
	}
	slot := make([]int, len(ga)+1) // first global column of each slot
	width := 0
	for s := range slot {
		slot[s] = width
		width += widest[s] + 1
	}
	width-- // no GA column after the last slot
	type placed struct {
		row  bio.Sequence
		orig int
	}
	var rows []placed
	for j, path := range paths {
		colOf := make([]int, 0, len(path))
		g, ins := 0, 0
		for _, op := range path {
			switch op {
			case profile.OpMatch:
				colOf = append(colOf, slot[g]+widest[g])
				g, ins = g+1, 0
			case profile.OpA:
				colOf = append(colOf, slot[g]+ins)
				ins++
			case profile.OpB:
				g, ins = g+1, 0
			}
		}
		origOf := make(map[string]int, len(buckets[j]))
		for _, s := range buckets[j] {
			origOf[s.seq.ID] = s.orig
		}
		for _, s := range alnSeqs(alns[j]) {
			out := make([]byte, width)
			for c := range out {
				out[c] = bio.Gap
			}
			for c, b := range s.Data {
				out[colOf[c]] = b
			}
			rows = append(rows, placed{bio.Sequence{ID: s.ID, Desc: s.Desc, Data: out}, origOf[s.ID]})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].orig < rows[j].orig })
	final := &msa.Alignment{Seqs: make([]bio.Sequence, len(rows))}
	for i := range rows {
		final.Seqs[i] = rows[i].row
	}
	final.RemoveAllGapColumns()
	return final, nil
}

// alnSeqs is the rows of a bucket's alignment; an empty bucket has none.
func alnSeqs(aln *msa.Alignment) []bio.Sequence {
	if aln == nil {
		return nil
	}
	return aln.Seqs
}
