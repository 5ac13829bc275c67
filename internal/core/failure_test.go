package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/bio"
	"repro/internal/mpi"
	"repro/internal/msa"
	"repro/internal/obs"
	"repro/internal/profile"
)

// faultyComm wraps a Comm and fails the n-th Send, injecting the kind of
// mid-collective network fault a real cluster produces.
type faultyComm struct {
	mpi.Comm
	mu       sync.Mutex
	failAt   int
	sends    int
	injected error
}

func (f *faultyComm) Send(to, tag int, data []byte) error {
	f.mu.Lock()
	f.sends++
	fail := f.sends == f.failAt
	f.mu.Unlock()
	if fail {
		f.injected = errors.New("injected network fault")
		return f.injected
	}
	return f.Comm.Send(to, tag, data)
}

func TestAlignSurvivesInjectedSendFault(t *testing.T) {
	// Whatever send fails, Align must return an error (never hang, never
	// return a partial alignment as success). The world is closed on
	// first error, unblocking the peers. Every span a failed rank opened
	// must still end, so the stage it died in reaches the span-close hook.
	seqs := testFamily(t, 16, 40, 300, 21)
	for _, failAt := range []int{1, 2, 5, 9} {
		parts, origs := SplitBlocks(seqs, 3)
		var anyErr error
		var mu sync.Mutex
		var ended atomic.Int64
		tr := obs.New("", func(obs.SpanClose) { ended.Add(1) })
		ctx := obs.WithTracer(context.Background(), tr)
		faulty := &faultyComm{failAt: failAt}
		_ = mpi.RunContext(context.Background(), 3, func(c mpi.Comm) error {
			comm := mpi.Comm(c)
			if c.Rank() == 1 {
				faulty.Comm = c
				comm = faulty
			}
			aln, _, err := alignTagged(ctx, comm, parts[c.Rank()], origs[c.Rank()], Config{}, true)
			if err != nil {
				mu.Lock()
				anyErr = err
				mu.Unlock()
				return err
			}
			if c.Rank() == 0 && aln == nil {
				return fmt.Errorf("rank 0 got nil alignment without error")
			}
			return nil
		})
		if faulty.injected != nil && anyErr == nil {
			t.Fatalf("failAt=%d: injected fault vanished", failAt)
		}
		if faulty.injected == nil && anyErr != nil {
			t.Fatalf("failAt=%d: error without injection: %v", failAt, anyErr)
		}
		if n, opened := ended.Load(), tr.Document().SpanCount; n != int64(opened) {
			t.Fatalf("failAt=%d: %d of %d spans ended", failAt, n, opened)
		}
	}
}

// failingAligner always errors, standing in for a bucket aligner that
// dies mid-run on one node.
type failingAligner struct{}

func (failingAligner) Name() string { return "failing" }
func (failingAligner) AlignContext(context.Context, []bio.Sequence) (*msa.Alignment, error) {
	return nil, errors.New("bucket aligner crashed")
}

func TestAlignPropagatesLocalAlignerFailure(t *testing.T) {
	seqs := testFamily(t, 12, 40, 300, 22)
	cfg := Config{NewLocalAligner: func(int) msa.Aligner { return failingAligner{} }}
	if _, err := AlignInprocContext(context.Background(), seqs, 2, cfg); err == nil {
		t.Fatal("local aligner failure not propagated")
	}
	if _, err := AlignInprocContext(context.Background(), seqs, 1, cfg); err == nil {
		t.Fatal("p=1 local aligner failure not propagated")
	}
}

func TestGluePathPropertyRandomised(t *testing.T) {
	// Property: for random (gaLen, path built from random ops that
	// consume exactly gaLen GA columns), slotCounts accepts the path and
	// counts exactly the insertions made at each slot, so its
	// insertions plus the path's matches equal the local column count.
	f := func(seed int64) bool {
		rng := newRandSrc(seed)
		gaLen := 1 + int(rng()%8)
		var path []byte
		wantIns := make([]int, gaLen+1)
		local, matches, g := 0, 0, 0
		for g < gaLen {
			switch rng() % 3 {
			case 0:
				path = append(path, byte(profile.OpMatch))
				local++
				matches++
				g++
			case 1:
				path = append(path, byte(profile.OpA))
				wantIns[g]++
				local++
			default:
				path = append(path, byte(profile.OpB))
				g++
			}
		}
		for rng()%2 == 0 { // insertions after the last GA column
			path = append(path, byte(profile.OpA))
			wantIns[gaLen]++
			local++
		}
		ins, err := slotCounts(path, gaLen)
		if err != nil || !slices.Equal(ins, wantIns) {
			return false
		}
		count := matches
		for _, n := range ins {
			count += n
		}
		return count == local
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// newRandSrc is a tiny deterministic generator for the property test.
func newRandSrc(seed int64) func() uint64 {
	x := uint64(seed)*2862933555777941757 + 3037000493
	return func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
}
