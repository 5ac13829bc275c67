package prefab

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/bio"
	"repro/internal/msa"
)

func TestGenerateShape(t *testing.T) {
	sets, err := Generate(Config{NumSets: 5, SeqsPerSet: 8, MeanLen: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 5 {
		t.Fatalf("%d sets", len(sets))
	}
	for _, s := range sets {
		if len(s.Seqs) != 8 {
			t.Fatalf("set %s: %d seqs", s.ID, len(s.Seqs))
		}
		if s.Ref.NumSeqs() != 2 {
			t.Fatalf("set %s: reference has %d rows", s.ID, s.Ref.NumSeqs())
		}
		if err := s.Ref.Validate(); err != nil {
			t.Fatalf("set %s reference: %v", s.ID, err)
		}
		// reference rows are the first and last sequences of the set
		wantIdx := []int{0, len(s.Seqs) - 1}
		for i, idx := range wantIdx {
			if s.Ref.Seqs[i].ID != s.Seqs[idx].ID {
				t.Fatalf("set %s: ref id %q != seq id %q", s.ID, s.Ref.Seqs[i].ID, s.Seqs[idx].ID)
			}
			if string(bio.Ungap(s.Ref.Seqs[i].Data)) != s.Seqs[idx].String() {
				t.Fatalf("set %s: reference row %d does not ungap to its sequence", s.ID, i)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(Config{NumSets: 3, SeqsPerSet: 5, MeanLen: 40, Seed: 9})
	b, _ := Generate(Config{NumSets: 3, SeqsPerSet: 5, MeanLen: 40, Seed: 9})
	for i := range a {
		for j := range a[i].Seqs {
			if !bio.Equal(a[i].Seqs[j], b[i].Seqs[j]) {
				t.Fatal("same seed produced different benchmarks")
			}
		}
	}
}

func TestEvaluateMuscleLike(t *testing.T) {
	sets, err := Generate(Config{NumSets: 4, SeqsPerSet: 6, MeanLen: 80,
		MinRelated: 100, MaxRelated: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	mean, results, err := Evaluate(context.Background(), msa.MuscleLike(0), sets)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("%d results", len(results))
	}
	if mean <= 0 || mean > 1 {
		t.Fatalf("mean Q = %g", mean)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("set %s errored: %v", r.SetID, r.Err)
		}
		if r.Q < 0 || r.Q > 1 {
			t.Fatalf("set %s Q = %g", r.SetID, r.Q)
		}
	}
}

// failingAligner errors on every other set to test discard handling.
type failingAligner struct{ n int }

func (f *failingAligner) Name() string { return "flaky" }
func (f *failingAligner) AlignContext(ctx context.Context, seqs []bio.Sequence) (*msa.Alignment, error) {
	f.n++
	if f.n%2 == 0 {
		return nil, fmt.Errorf("boom")
	}
	return msa.MuscleLike(0).AlignContext(ctx, seqs)
}

func TestEvaluateDiscardsFailedSets(t *testing.T) {
	sets, err := Generate(Config{NumSets: 4, SeqsPerSet: 5, MeanLen: 50, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	mean, results, err := Evaluate(context.Background(), &failingAligner{}, sets)
	if err != nil {
		t.Fatal(err)
	}
	failures := 0
	for _, r := range results {
		if r.Err != nil {
			failures++
		}
	}
	if failures != 2 {
		t.Fatalf("%d failures recorded", failures)
	}
	if mean <= 0 {
		t.Fatalf("mean over surviving sets = %g", mean)
	}
}

type alwaysFail struct{}

func (alwaysFail) Name() string { return "dead" }
func (alwaysFail) AlignContext(context.Context, []bio.Sequence) (*msa.Alignment, error) {
	return nil, fmt.Errorf("always fails")
}

func TestEvaluateAllFailed(t *testing.T) {
	sets, _ := Generate(Config{NumSets: 2, SeqsPerSet: 4, MeanLen: 40, Seed: 6})
	if _, _, err := Evaluate(context.Background(), alwaysFail{}, sets); err == nil {
		t.Fatal("all-failed evaluation did not error")
	}
	if _, _, err := Evaluate(context.Background(), alwaysFail{}, nil); err == nil {
		t.Fatal("empty benchmark accepted")
	}
}

func TestCloserFamiliesScoreHigher(t *testing.T) {
	// Q on gently diverged sets should beat Q on strongly diverged sets —
	// the divergence knob must be meaningful.
	close, err := Generate(Config{NumSets: 4, SeqsPerSet: 6, MeanLen: 80,
		MinRelated: 80, MaxRelated: 120, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	far, err := Generate(Config{NumSets: 4, SeqsPerSet: 6, MeanLen: 80,
		MinRelated: 800, MaxRelated: 900, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	qClose, _, err := Evaluate(context.Background(), msa.MuscleLike(0), close)
	if err != nil {
		t.Fatal(err)
	}
	qFar, _, err := Evaluate(context.Background(), msa.MuscleLike(0), far)
	if err != nil {
		t.Fatal(err)
	}
	if qClose <= qFar {
		t.Fatalf("Q(close)=%g <= Q(far)=%g", qClose, qFar)
	}
}

func TestEvaluateCancelledIsNoScore(t *testing.T) {
	// A cancelled evaluation reports the cancel, not a mean over the
	// sets that happened to finish.
	sets, _ := Generate(Config{NumSets: 2, SeqsPerSet: 4, MeanLen: 40, Seed: 6})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := Evaluate(ctx, msa.MuscleLike(0), sets); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
