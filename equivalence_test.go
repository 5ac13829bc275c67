package samplealign

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
)

// renderRows flattens an alignment to one comparable byte string.
func renderRows(a *Alignment) []byte {
	var buf bytes.Buffer
	for _, s := range a.Seqs {
		buf.WriteString(s.ID)
		buf.WriteByte('\t')
		buf.Write(s.Data)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// runTCPCluster aligns seqs over a real TCP world of p ranks and returns
// rank 0's alignment.
func runTCPCluster(t *testing.T, seqs []Sequence, p int, opts ...Option) *Alignment {
	t.Helper()
	shards := splitForTCP(seqs, p)
	addrs := reserveAddrs(t, p)
	results := make([]*Alignment, p)
	errs := make(chan error, p)
	var wg sync.WaitGroup
	for rank := 0; rank < p; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			aln, err := AlignTCPContext(context.Background(), TCPRankConfig{Rank: rank, Addrs: addrs}, shards[rank], opts...)
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
	if results[0] == nil {
		t.Fatal("rank 0 returned nil alignment")
	}
	return results[0]
}

func splitForTCP(seqs []Sequence, p int) [][]Sequence {
	out := make([][]Sequence, p)
	n := len(seqs)
	for r := 0; r < p; r++ {
		out[r] = seqs[r*n/p : (r+1)*n/p]
	}
	return out
}

// TestCrossBackendEquivalence asserts that, at each world size, the
// in-process driver and the TCP cluster compute byte-identical
// alignments on a fixed dataset, and that the result does not depend on
// the intra-rank worker count. (Different p values legitimately produce
// different alignments — the bucket decomposition and the GA template
// are part of the algorithm — so equivalence is per-p, across backends
// and worker counts.)
func TestCrossBackendEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp cluster test in -short mode")
	}
	seqs, err := GenerateDiverseSet(48, 80, 2026)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 4} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			inproc, _, err := Align(seqs, p)
			if err != nil {
				t.Fatal(err)
			}
			ref := renderRows(inproc)

			// Intra-rank parallelism must not change the result.
			for _, w := range []int{4, 8} {
				aln, _, err := Align(seqs, p, WithWorkers(w))
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if !bytes.Equal(renderRows(aln), ref) {
					t.Fatalf("inproc p=%d workers=%d differs from workers=1", p, w)
				}
			}

			// The transport must not change the result either.
			tcp := runTCPCluster(t, seqs, p, WithWorkers(4))
			if !bytes.Equal(renderRows(tcp), ref) {
				t.Fatalf("tcp p=%d differs from inproc", p)
			}
		})
	}
}
