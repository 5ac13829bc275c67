package samplealign

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sync"
	"testing"

	"repro/internal/core"
)

// reserveAddrs grabs n loopback ports for a TCP world.
func reserveAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// TestTCPClusterEndToEnd runs the full distributed pipeline over real
// TCP sockets and checks the glued alignment against the in-process run:
// the transport must not change the result.
func TestTCPClusterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp cluster test in -short mode")
	}
	const procs = 4
	seqs, err := GenerateDiverseSet(48, 80, 77)
	if err != nil {
		t.Fatal(err)
	}
	inproc, _, err := Align(seqs, procs)
	if err != nil {
		t.Fatal(err)
	}

	shards, _ := core.SplitBlocks(seqs, procs)
	addrs := reserveAddrs(t, procs)
	results := make([]*Alignment, procs)
	errs := make(chan error, procs)
	var wg sync.WaitGroup
	for rank := 0; rank < procs; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			aln, err := AlignTCPContext(context.Background(), TCPRankConfig{Rank: rank, Addrs: addrs}, shards[rank])
			if err != nil {
				errs <- fmt.Errorf("rank %d: %w", rank, err)
				return
			}
			results[rank] = aln
		}(rank)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	final := results[0]
	if final == nil {
		t.Fatal("rank 0 returned nil alignment")
	}
	for r := 1; r < procs; r++ {
		if results[r] != nil {
			t.Fatalf("rank %d returned a non-nil alignment", r)
		}
	}
	if err := final.Validate(); err != nil {
		t.Fatal(err)
	}
	if final.NumSeqs() != len(seqs) {
		t.Fatalf("tcp alignment has %d rows", final.NumSeqs())
	}
	// Note: the TCP world orders rows by rank-derived keys, the inproc
	// driver by original index. Block-wise sharding makes those agree.
	if final.Width() != inproc.Width() {
		t.Fatalf("tcp width %d != inproc width %d", final.Width(), inproc.Width())
	}
	for i := range seqs {
		if final.Seqs[i].ID != inproc.Seqs[i].ID {
			t.Fatalf("row %d: tcp id %q != inproc id %q", i, final.Seqs[i].ID, inproc.Seqs[i].ID)
		}
		if !bytes.Equal(final.Seqs[i].Data, inproc.Seqs[i].Data) {
			t.Fatalf("row %d (%s): tcp and inproc alignments differ", i, final.Seqs[i].ID)
		}
	}
}

// TestFullPipelineOnDiverseMixture is the end-to-end smoke of the whole
// public surface: generate → align → score → serialise → parse.
func TestFullPipelineOnDiverseMixture(t *testing.T) {
	seqs, err := GenerateDiverseSet(40, 70, 5)
	if err != nil {
		t.Fatal(err)
	}
	aln, report, err := Align(seqs, 4, WithSampleSize(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := aln.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(report.BucketSizes) != 4 {
		t.Fatalf("bucket sizes: %v", report.BucketSizes)
	}
	total := 0
	for _, s := range report.BucketSizes {
		total += s
	}
	if total != len(seqs) {
		t.Fatalf("buckets cover %d of %d", total, len(seqs))
	}
	var buf bytes.Buffer
	if err := WriteFASTA(&buf, aln.Seqs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFASTA(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(seqs) {
		t.Fatalf("serialisation lost rows: %d", len(back))
	}
	for i := range back {
		if !bytes.Equal(back[i].Data, aln.Seqs[i].Data) {
			t.Fatalf("row %d changed across FASTA round trip", i)
		}
	}
}

// TestAlignManyProcessCounts sweeps p to catch world-size-specific bugs
// (odd sizes, p > families, p near N).
func TestAlignManyProcessCounts(t *testing.T) {
	seqs, err := GenerateDiverseSet(30, 60, 9)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := Align(seqs, 1)
	if err != nil {
		t.Fatal(err)
	}
	_ = ref
	for _, p := range []int{2, 3, 5, 7, 11, 16} {
		aln, _, err := Align(seqs, p)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if err := aln.Validate(); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if aln.NumSeqs() != len(seqs) {
			t.Fatalf("p=%d: %d rows", p, aln.NumSeqs())
		}
		for i := range seqs {
			got := string(bytes.ReplaceAll(aln.Seqs[i].Data, []byte{'-'}, nil))
			if got != seqs[i].String() {
				t.Fatalf("p=%d row %d: residues corrupted", p, i)
			}
		}
	}
}
