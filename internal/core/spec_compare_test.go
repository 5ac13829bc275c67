package core_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/bio"
	"repro/internal/core"
	"repro/internal/fasta"
	"repro/internal/mpi"
	"repro/internal/msa"
	"repro/internal/rose"
)

// specInput is one case the spec and the pipeline must agree on; heavy
// marks the cases -short skips.
type specInput struct {
	name  string
	seqs  []bio.Sequence
	heavy bool
}

// specInputs are uneven blocks, a mixture of unrelated families,
// all-identical input, repeated sequences whose k-mer ranks tie, and
// gapped rows that the pipeline must ungap.
func specInputs(t *testing.T) []specInput {
	family := func(n, meanLen int, relatedness float64, seed int64) *rose.Family {
		f, err := rose.Evolve(rose.Config{N: n, MeanLen: meanLen, Relatedness: relatedness, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	var mixture []bio.Sequence
	for fam := 0; fam < 6; fam++ {
		for _, s := range family(12, 50, 300, int64(20+fam)).Seqs() {
			mixture = append(mixture, bio.Sequence{ID: fmt.Sprintf("f%d-%s", fam, s.ID), Data: s.Data})
		}
	}
	identical := make([]bio.Sequence, 13)
	for i := range identical {
		identical[i] = bio.Sequence{ID: fmt.Sprintf("same%02d", i), Desc: "identical", Data: []byte("MKVLWAALLVTFLAGCQAKVEQ")}
	}
	var repeated []bio.Sequence
	distinct := family(10, 40, 400, 31).Seqs()
	for k := 0; k < 4; k++ {
		for _, s := range distinct {
			repeated = append(repeated, bio.Sequence{ID: fmt.Sprintf("%s-copy%d", s.ID, k), Data: s.Data})
		}
	}
	gapped, err := family(30, 50, 500, 41).TrueAlignment(nil)
	if err != nil {
		t.Fatal(err)
	}
	return []specInput{
		{"uneven97", family(97, 50, 400, 11).Seqs(), true},
		{"mixture6", mixture, true},
		{"identical13", identical, false},
		{"repeated", repeated, false},
		{"gapped", gapped.Seqs, false},
	}
}

func fastaBytes(t *testing.T, aln *msa.Alignment) []byte {
	t.Helper()
	if aln == nil {
		t.Fatal("no alignment")
	}
	var buf bytes.Buffer
	if err := fasta.Write(&buf, aln.Seqs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// alignOverTCP runs core.AlignContext on p ranks joined by a loopback TCP
// mesh, each rank holding its block of the input, and returns rank 0's
// alignment. Every rank gets a listener bound before any rank dials.
func alignOverTCP(t *testing.T, seqs []bio.Sequence, p int) *msa.Alignment {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	lns := make([]net.Listener, p)
	addrs := make([]string, p)
	for r := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[r], addrs[r] = ln, ln.Addr().String()
	}
	parts, _ := core.SplitBlocks(seqs, p)
	var (
		wg   sync.WaitGroup
		out  *msa.Alignment
		errs = make([]error, p)
	)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c, err := mpi.DialTCPContext(ctx, mpi.TCPConfig{Rank: r, Addrs: addrs, Listener: lns[r]})
			if err != nil {
				errs[r] = err
				cancel()
				return
			}
			defer c.Close()
			aln, _, err := core.AlignContext(ctx, c, parts[r], core.Config{})
			if err != nil {
				errs[r] = err
				cancel()
				return
			}
			if r == 0 {
				out = aln
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("tcp rank %d: %v", r, err)
		}
	}
	return out
}

// TestSpecMatchesPipeline holds core to the sequential specification in
// spec_test.go: at every p, the in-process driver and a TCP mesh must
// write the same FASTA bytes as specAlign. The TCP ranks key rows by
// rank<<40|i, which orders them as the input indices the spec uses.
func TestSpecMatchesPipeline(t *testing.T) {
	ctx := context.Background()
	for _, in := range specInputs(t) {
		if in.heavy && testing.Short() {
			continue
		}
		for _, p := range []int{1, 2, 3, 4, 8} {
			t.Run(fmt.Sprintf("%s/p=%d", in.name, p), func(t *testing.T) {
				spec, err := specAlign(ctx, in.seqs, p)
				if err != nil {
					t.Fatal(err)
				}
				want := fastaBytes(t, spec)
				res, err := core.AlignInprocContext(ctx, in.seqs, p, core.Config{})
				if err != nil {
					t.Fatal(err)
				}
				if got := fastaBytes(t, res.Alignment); !bytes.Equal(got, want) {
					t.Errorf("AlignInprocContext differs from the spec:\n%s\nspec:\n%s", got, want)
				}
				if got := fastaBytes(t, alignOverTCP(t, in.seqs, p)); !bytes.Equal(got, want) {
					t.Errorf("AlignContext over TCP differs from the spec:\n%s\nspec:\n%s", got, want)
				}
			})
		}
	}
}

// fuzzShapes names the input shapes FuzzSpecMatchesPipeline draws.
var fuzzShapes = []string{"unrelated", "mutated", "near-identical", "gapped"}

// fuzzSeqs draws n sequences of one shape from seed: unrelated random
// proteins, copies of one ancestor mutated at 20 % or at 2 % of sites,
// or mutated copies with gaps inserted, which the pipeline must ungap.
func fuzzSeqs(seed int64, n int, shape string) []bio.Sequence {
	rng := rand.New(rand.NewSource(seed))
	letters := bio.AminoAcids.Letters()
	random := func(length int) []byte {
		b := make([]byte, length)
		for i := range b {
			b[i] = letters[rng.Intn(len(letters))]
		}
		return b
	}
	mutate := func(anc []byte, rate float64) []byte {
		out := make([]byte, 0, len(anc)+4)
		for _, c := range anc {
			switch r := rng.Float64(); {
			case r < rate*0.6:
				out = append(out, letters[rng.Intn(len(letters))])
			case r < rate*0.8: // deletion
			case r < rate:
				out = append(out, c, letters[rng.Intn(len(letters))])
			default:
				out = append(out, c)
			}
		}
		if len(out) == 0 {
			out = append(out, anc[0])
		}
		return out
	}
	anc := random(10 + rng.Intn(50))
	seqs := make([]bio.Sequence, n)
	for i := range seqs {
		var data []byte
		switch shape {
		case "unrelated":
			data = random(5 + rng.Intn(55))
		case "mutated":
			data = mutate(anc, 0.2)
		case "near-identical":
			data = mutate(anc, 0.02)
		case "gapped":
			for _, c := range mutate(anc, 0.2) {
				if rng.Intn(8) == 0 {
					data = append(data, bio.Gap)
				}
				data = append(data, c)
			}
		}
		seqs[i] = bio.Sequence{ID: fmt.Sprintf("s%02d", i), Data: data}
	}
	return seqs
}

// FuzzSpecMatchesPipeline draws small inputs (N <= 40, p <= 9) of every
// shape and holds AlignInprocContext to specAlign byte for byte, and
// every bucket to the regular-sampling bound: size·p <= 2N + p.
func FuzzSpecMatchesPipeline(f *testing.F) {
	for shape := range fuzzShapes {
		f.Add(int64(shape), uint8(17), uint8(4), uint8(shape))
		f.Add(int64(40+shape), uint8(40), uint8(9), uint8(shape))
	}
	f.Fuzz(func(t *testing.T, seed int64, n, p, shape uint8) {
		nn, pp := 1+int(n)%40, 1+int(p)%9
		seqs := fuzzSeqs(seed, nn, fuzzShapes[int(shape)%len(fuzzShapes)])
		ctx := context.Background()
		spec, err := specAlign(ctx, seqs, pp)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.AlignInprocContext(ctx, seqs, pp, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fastaBytes(t, res.Alignment), fastaBytes(t, spec); !bytes.Equal(got, want) {
			t.Fatalf("N=%d p=%d: AlignInprocContext differs from the spec:\n%s\nspec:\n%s", nn, pp, got, want)
		}
		for r, size := range res.Stats[0].BucketSizes {
			if size*pp > 2*nn+pp {
				t.Fatalf("N=%d p=%d: bucket %d holds %d (sizes %v)", nn, pp, r, size, res.Stats[0].BucketSizes)
			}
		}
	})
}
