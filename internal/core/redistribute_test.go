package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bio"
	"repro/internal/mpi"
)

// TestIdenticalSequencesBucketSkew is the regression for rank-tied pivot
// collapse: when every sequence shares one k-mer rank (identical
// sequences are the extreme case), rank-only pivots funnel the whole
// input into a single bucket. The (Rank, Orig) tie-broken pivots must
// keep every bucket within the paper's 2N/p bound.
func TestIdenticalSequencesBucketSkew(t *testing.T) {
	const n, p = 64, 4
	data := []byte("MKVLWAALLVTFLAGCQAKVEQAVETEPEPELRQQTEWQSGQRWELALGRFWDYLRWVQT")
	seqs := make([]bio.Sequence, n)
	for i := range seqs {
		seqs[i] = bio.Sequence{ID: fmt.Sprintf("s%03d", i), Data: data}
	}
	res, err := AlignInprocContext(context.Background(), seqs, p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	checkCompleteAlignment(t, res.Alignment, seqs)
	sizes := res.Stats[0].BucketSizes
	if len(sizes) != p {
		t.Fatalf("bucket sizes: %v", sizes)
	}
	bound := 2 * n / p
	nonEmpty := 0
	for r, sz := range sizes {
		if sz > bound {
			t.Fatalf("bucket %d holds %d sequences, 2N/p bound is %d (sizes %v)", r, sz, bound, sizes)
		}
		if sz > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		t.Fatalf("tied ranks collapsed into %d bucket(s): %v", nonEmpty, sizes)
	}
}

// TestClusterWideDuplicateIDs exercises the SPMD path (core.AlignContext
// without the inproc driver's local check, as AlignTCPContext reaches it): a
// duplicate ID split across two ranks must fail the whole world with an
// error naming the colliding ID instead of silently dropping a row in
// the glue phase.
func TestClusterWideDuplicateIDs(t *testing.T) {
	const p = 3
	shards := make([][]bio.Sequence, p)
	for r := 0; r < p; r++ {
		shards[r] = []bio.Sequence{
			{ID: fmt.Sprintf("r%d-a", r), Data: []byte("MKVLWAALLVTFLAG")},
			{ID: fmt.Sprintf("r%d-b", r), Data: []byte("MKVLWAALLVQFLAG")},
		}
	}
	shards[2][1].ID = "r0-a" // collides with rank 0's first sequence
	var rankErrs [p]error
	_ = mpi.RunContext(context.Background(), p, func(c mpi.Comm) error {
		_, _, err := AlignContext(context.Background(), c, shards[c.Rank()], Config{})
		rankErrs[c.Rank()] = err
		return err
	})
	for r, err := range rankErrs {
		if err == nil {
			t.Fatalf("rank %d accepted a cluster-wide duplicate id", r)
		}
		if !strings.Contains(err.Error(), `"r0-a"`) {
			t.Fatalf("rank %d error does not name the duplicate id: %v", r, err)
		}
	}
}

// TestClusterUniqueIDsPass makes sure the collective check does not
// reject clean inputs and stays transparent on a single-rank world.
func TestClusterUniqueIDsPass(t *testing.T) {
	seqs := testFamily(t, 9, 50, 300, 17)
	for _, p := range []int{1, 3} {
		res, err := AlignInprocContext(context.Background(), seqs, p, Config{})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		checkCompleteAlignment(t, res.Alignment, seqs)
	}
}

// TestDuplicateEmptyIDsRejected guards the "" sentinel trap: bare FASTA
// '>' headers parse to empty IDs, which must still count as duplicates.
func TestDuplicateEmptyIDsRejected(t *testing.T) {
	seqs := []bio.Sequence{
		{ID: "", Data: []byte("MKVLWAALLVTFLAG")},
		{ID: "", Data: []byte("MKVLWAGLLVTFLAG")},
	}
	if _, err := AlignInprocContext(context.Background(), seqs, 2, Config{}); err == nil || !strings.Contains(err.Error(), `""`) {
		t.Fatalf("duplicate empty ids accepted: %v", err)
	}
}
