package core

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/bio"
	"repro/internal/dpkern"
	"repro/internal/kmer"
	"repro/internal/mpi"
	"repro/internal/msa"
	"repro/internal/obs"
	"repro/internal/submat"
)

// AlignContext runs Sample-Align-D as an SPMD program: every rank calls
// it with its local slice of the input. The full alignment is returned
// on rank 0 (nil elsewhere); Stats are returned on every rank. c must
// close when ctx ends (mpi.RunContext and mpi.DialTCPContext make such
// communicators): then cancelling ctx unwinds the whole rank — blocking
// collectives unblock, the bucket MSA stops at its next merge — and the
// rank returns ctx.Err() (context.Canceled after a cancel,
// context.DeadlineExceeded after a missed deadline).
func AlignContext(ctx context.Context, c mpi.Comm, local []bio.Sequence, cfg Config) (*msa.Alignment, *Stats, error) {
	origs := make([]int64, len(local))
	for i := range origs {
		origs[i] = int64(c.Rank())<<40 | int64(i)
	}
	return alignTagged(ctx, c, local, origs, cfg, false)
}

// alignTagged is AlignContext with explicit per-sequence global ordering
// keys (the inproc driver passes original input indices so the final
// alignment comes back in input order). idsVerified marks worlds whose
// driver already proved sequence-ID uniqueness across all ranks, so the
// cluster-wide check (and its communication) can be skipped.
func alignTagged(ctx context.Context, c mpi.Comm, local []bio.Sequence, origs []int64, cfg Config, idsVerified bool) (_ *msa.Alignment, _ *Stats, err error) {
	// Once ctx is done its error wins, so a rank unblocked by a closed
	// world still reports the cancellation that caused it.
	defer func() {
		if cerr := ctx.Err(); err != nil && cerr != nil {
			err = cerr
		}
	}()
	if len(origs) != len(local) {
		return nil, nil, fmt.Errorf("core: %d origin keys for %d sequences", len(origs), len(local))
	}
	cfg = cfg.withDefaults(c.Size())
	stats := &Stats{Rank: c.Rank()}
	tStart := startClock()

	// Per-rank span: the root of this rank's slice of the trace. The
	// deferred close stamps the communicator's traffic counters on it,
	// so each rank's send/recv bytes are readable straight off the tree.
	ctx, rankSpan := obs.Start(ctx, "rank")
	if rankSpan != nil {
		rankSpan.SetInt("rank", int64(c.Rank()))
		rankSpan.SetInt("procs", int64(c.Size()))
		defer func() {
			sn := c.Stats().Snapshot()
			rankSpan.SetInt("bytes_sent", sn.BytesSent)
			rankSpan.SetInt("bytes_recv", sn.BytesRecv)
			rankSpan.SetInt("msgs_sent", sn.MsgsSent)
			rankSpan.SetInt("msgs_recv", sn.MsgsRecv)
			rankSpan.End()
		}()
	}

	counter, err := kmer.NewCounter(bio.Dayhoff6, cfg.K)
	if err != nil {
		return nil, nil, err
	}

	seqs := make([]wireSeq, len(local))
	for i, s := range local {
		seqs[i] = wireSeq{ID: s.ID, Desc: s.Desc, Data: bio.Ungap(s.Data), Orig: origs[i]}
		if len(seqs[i].Data) == 0 {
			return nil, nil, fmt.Errorf("core: sequence %q is empty", s.ID)
		}
	}

	// Sequence IDs must be unique across the whole cluster: the glue
	// phase keys rows by ID, so a collision would silently drop or
	// misorder a row in the final alignment. Every rank takes
	// part in the check and fails with the same error. Skipped when the
	// driver already verified the whole input (inproc), and done without
	// communication on single-rank worlds, so the collective's bytes
	// never distort the communication stats of the paper's benchmarks.
	if !idsVerified {
		if err := checkClusterIDs(c, seqs); err != nil {
			return nil, nil, err
		}
	}

	p := c.Size()
	var bucket []wireSeq
	if p == 1 {
		bucket = seqs
	} else {
		dctx, dsp := obs.Start(ctx, "decompose")
		defer dsp.End()
		bucket, err = redistribute(dctx, c, counter, seqs, cfg, stats)
		if err != nil {
			return nil, nil, err
		}
		dsp.SetInt("bucket", int64(len(bucket)))
		dsp.End()
	}
	stats.BucketSize = len(bucket)

	// ------- local alignment of the bucket (paper step: "align sequences
	// in each processor using any sequential multiple alignment system")
	tPhase := startClock()
	bctx, bsp := obs.Start(ctx, "bucketalign")
	defer bsp.End()
	tally0 := dpkern.TallySnapshot()
	localAligner := cfg.NewLocalAligner(cfg.Workers)
	bucketSeqs := make([]bio.Sequence, len(bucket))
	for i, ws := range bucket {
		bucketSeqs[i] = bio.Sequence{ID: ws.ID, Desc: ws.Desc, Data: ws.Data}
	}
	localAln, err := localAligner.AlignContext(bctx, bucketSeqs)
	if err != nil {
		return nil, nil, fmt.Errorf("core: rank %d local alignment: %w", c.Rank(), err)
	}
	if bsp != nil {
		// The integer-DP call delta comes from a process-wide counter,
		// so concurrent jobs in one server overlap in it; within a single
		// run it attributes pairwise DP calls to this bucket alignment.
		bsp.SetInt("seqs", int64(len(bucketSeqs)))
		bsp.SetInt("workers", int64(cfg.Workers))
		bsp.SetStr("aligner", localAligner.Name())
		bsp.SetInt("striped_calls", dpkern.TallySnapshot().Sub(tally0).Striped)
	}
	bsp.End()
	stats.Timings.LocalAlign = tPhase.elapsed()

	if p == 1 {
		stats.Timings.Total = tStart.elapsed()
		stats.Comm = c.Stats().Snapshot()
		stats.BucketSizes = []int{len(bucket)}
		return localAln, stats, nil
	}

	// ------- merge stage: ancestor, fine-tune, glue
	mctx, msp := obs.Start(ctx, "merge")
	defer msp.End()

	// ------- ancestor phases
	tPhase = startClock()
	actx, asp := obs.Start(mctx, "ancestor")
	defer asp.End()
	// One profile of the bucket alignment serves the ancestor and the
	// fine-tune.
	localProf, err := localAln.Profile(submat.BLOSUM62.Alphabet())
	if err != nil {
		return nil, nil, err
	}
	var localAnc []byte
	if localAln.NumSeqs() > 0 {
		localAnc = localProf.Consensus(ancestorOcc)
	}
	ancestors, err := mpi.GatherValues(c, tagAncGather, localAnc)
	if err != nil {
		return nil, nil, err
	}
	var ga []byte
	if c.Rank() == 0 {
		ga, err = globalAncestor(actx, ancestors, localAligner)
		if err != nil {
			return nil, nil, err
		}
	}
	if ga, err = mpi.BcastValue(c, tagGA, ga); err != nil {
		return nil, nil, err
	}
	stats.GALen = len(ga)
	asp.SetInt("ga_len", int64(len(ga)))
	asp.End()
	stats.Timings.Ancestor = tPhase.elapsed()

	// ------- fine-tune against the GA template and glue at the root
	tPhase = startClock()
	_, fsp := obs.Start(mctx, "finetune")
	defer fsp.End()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	path := templatePath(localProf, ga)
	fsp.End()
	stats.Timings.FineTune = tPhase.elapsed()

	tPhase = startClock()
	_, gsp := obs.Start(mctx, "glue")
	defer gsp.End()
	final, err := glue(c, localAln, bucket, path, len(ga), stats)
	if err != nil {
		return nil, nil, err
	}
	gsp.End()
	msp.End()
	stats.Timings.Glue = tPhase.elapsed()
	stats.Timings.Total = tStart.elapsed()
	stats.Comm = c.Stats().Snapshot()
	return final, stats, nil
}

// checkClusterIDs verifies sequence-ID uniqueness across every rank of
// the world: the root gathers all ID lists, finds the first collision,
// and broadcasts the verdict so every rank unwinds with the same error
// naming the duplicated ID. The SPMD/TCP path has no central entry
// point — this collective is its only cluster-wide guard. Single-rank
// worlds check locally without touching the communicator.
func checkClusterIDs(c mpi.Comm, seqs []wireSeq) error {
	ids := make([]string, len(seqs))
	for i := range seqs {
		ids[i] = seqs[i].ID
	}
	if c.Size() == 1 {
		return duplicateIDError(ids)
	}
	gathered, err := mpi.GatherValues(c, tagIDCheck, ids)
	if err != nil {
		return err
	}
	var verdict string
	if c.Rank() == 0 {
		seen := make(map[string]int)
	scan:
		for r, part := range gathered {
			for _, id := range part {
				if prev, ok := seen[id]; ok {
					verdict = fmt.Sprintf("duplicate sequence id %q (on rank %d and rank %d); ids must be unique cluster-wide", id, prev, r)
					break scan
				}
				seen[id] = r
			}
		}
	}
	if verdict, err = mpi.BcastValue(c, tagIDCheck, verdict); err != nil {
		return err
	}
	if verdict != "" {
		return fmt.Errorf("core: %s", verdict)
	}
	return nil
}

// redistribute performs the sampling, pivoting and all-to-all exchange
// phases, returning this rank's bucket. The communicator closes when
// ctx ends; ctx is checked between compute phases.
func redistribute(ctx context.Context, c mpi.Comm, counter *kmer.Counter, seqs []wireSeq, cfg Config, stats *Stats) ([]wireSeq, error) {
	p, rank := c.Size(), c.Rank()

	// --- phase 1: local rank + local sort
	tPhase := startClock()
	ctx1, sp1 := obs.Start(ctx, "localrank")
	defer sp1.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	profiles := make([]kmer.Profile, len(seqs))
	for i := range seqs {
		profiles[i] = counter.Profile(seqs[i].Data)
	}
	localRanks, err := kmer.RanksContext(ctx1, profiles, profiles, kmer.DefaultRankScale, cfg.Workers)
	if err != nil {
		return nil, err
	}
	for i := range seqs {
		seqs[i].Rank = localRanks[i]
	}
	order := rankOrder(seqs)
	permute(seqs, order)
	permute(profiles, order)
	sp1.End()
	stats.Timings.LocalRank = tPhase.elapsed()

	// --- phase 2: sample exchange + globalised rank
	tPhase = startClock()
	ctx2, sp2 := obs.Start(ctx, "sample")
	defer sp2.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var sampleData [][]byte // k samples, k clamped to the local set size
	for _, i := range evenlySpaced(len(seqs), min(cfg.SampleSize, len(seqs))) {
		sampleData = append(sampleData, seqs[i].Data)
	}
	allSamples, err := mpi.AllGatherValues(c, tagSamples, sampleData)
	if err != nil {
		return nil, err
	}
	var samplePool []kmer.Profile
	for _, part := range allSamples {
		for _, data := range part {
			samplePool = append(samplePool, counter.Profile(data))
		}
	}
	globalRanks, err := kmer.RanksContext(ctx2, profiles, samplePool, kmer.DefaultRankScale, cfg.Workers)
	if err != nil {
		return nil, err
	}
	for i := range seqs {
		seqs[i].Rank = globalRanks[i]
	}
	sortByRank(seqs)
	sp2.SetInt("pool", int64(len(samplePool)))
	sp2.End()
	stats.Timings.Sampling = tPhase.elapsed()

	// --- phase 3: regular sampling of p-1 rank keys, pivot selection
	tPhase = startClock()
	_, sp3 := obs.Start(ctx, "pivot")
	defer sp3.End()
	var sampleKeys pivotKeyList // the paper's p−1 regular samples
	for _, i := range evenlySpaced(len(seqs), p-1) {
		sampleKeys = append(sampleKeys, pivotKey{Rank: seqs[i].Rank, Orig: seqs[i].Orig})
	}
	gathered, err := mpi.GatherValues(c, tagPivotGather, sampleKeys)
	if err != nil {
		return nil, err
	}
	var pivots pivotKeyList
	if rank == 0 {
		var all []pivotKey
		for _, part := range gathered {
			all = append(all, part...)
		}
		pivots = selectPivots(all, p)
	}
	if pivots, err = mpi.BcastValue(c, tagPivots, pivots); err != nil {
		return nil, err
	}
	sp3.End()
	stats.Timings.Pivoting = tPhase.elapsed()

	// --- phase 4: bucket partition + all-to-all exchange
	tPhase = startClock()
	_, sp4 := obs.Start(ctx, "exchange")
	defer sp4.End()
	parts := make([]wireSeqList, p)
	for _, ws := range seqs {
		key := pivotKey{Rank: ws.Rank, Orig: ws.Orig}
		b := sort.Search(len(pivots), func(i int) bool { return !pivots[i].less(key) })
		parts[b] = append(parts[b], ws)
	}
	got, err := mpi.AllToAllValues(c, tagRedist, parts)
	if err != nil {
		return nil, err
	}
	var bucket []wireSeq
	for _, part := range got {
		bucket = append(bucket, part...)
	}
	sortByRank(bucket)
	sp4.End()
	stats.Timings.Redistrib = tPhase.elapsed()
	return bucket, nil
}

func sortByRank(seqs []wireSeq) { permute(seqs, rankOrder(seqs)) }

// rankOrder returns the permutation that sorts seqs by (Rank, Orig):
// position i of the sorted order holds seqs[order[i]].
func rankOrder(seqs []wireSeq) []int {
	order := make([]int, len(seqs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := &seqs[order[i]], &seqs[order[j]]
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		return a.Orig < b.Orig
	})
	return order
}

// permute reorders s in place so that s[i] becomes the old s[order[i]];
// it keeps slices parallel to a sorted one (the k-mer profiles of the
// ranked sequences) in step without recomputing them.
func permute[T any](s []T, order []int) {
	old := slices.Clone(s)
	for i, o := range order {
		s[i] = old[o]
	}
}

// evenlySpaced returns the k indices (i+1)·n/(k+1), i < k, that cut n
// sorted items into k+1 near-equal runs: where a rank takes its samples
// and its regular rank keys, and where the root takes pivots when the
// paper's exact schedule does not apply. It is empty when n or k is not
// positive.
func evenlySpaced(n, k int) []int {
	if n <= 0 || k <= 0 {
		return nil
	}
	at := make([]int, k)
	for i := range at {
		at[i] = (i + 1) * n / (k + 1)
	}
	return at
}

// pivotKey is the total order sequences are partitioned by during
// redistribution: primarily the globalised k-mer rank, tie-broken by the
// global ordering key. Rank alone is not a usable partition key — on
// datasets with repeated or near-identical sequences many share one rank
// value, and rank-only pivots then funnel every tied sequence into a
// single bucket, breaking the paper's 2N/p load bound. Orig values are
// unique cluster-wide, so pivotKeys never collide and ties split evenly.
type pivotKey struct {
	Rank float64
	Orig int64
}

func (k pivotKey) less(o pivotKey) bool {
	if k.Rank != o.Rank {
		return k.Rank < o.Rank
	}
	return k.Orig < o.Orig
}

// selectPivots sorts the gathered regular samples and picks the paper's
// p−1 pivots Y_{p/2}, Y_{p+p/2}, …, Y_{(p−2)p+p/2} when all p(p−1)
// arrived, and evenly spaced quantiles of however many did otherwise
// (degenerate worlds with tiny local sets). Duplicate pivots (possible
// only when a short block repeats one sample) are dropped — they could
// only ever delimit guaranteed-empty buckets.
func selectPivots(all []pivotKey, p int) []pivotKey {
	sort.Slice(all, func(i, j int) bool { return all[i].less(all[j]) })
	at := evenlySpaced(len(all), p-1)
	if len(all) == p*(p-1) {
		for j := range at {
			at[j] = j*p + p/2
		}
	}
	pivots := make([]pivotKey, 0, p-1)
	for _, i := range at {
		if n := len(pivots); n == 0 || pivots[n-1].less(all[i]) {
			pivots = append(pivots, all[i])
		}
	}
	return pivots
}

// globalAncestor aligns the non-empty local ancestors and extracts the
// consensus of their alignment.
func globalAncestor(ctx context.Context, ancestors [][]byte, aligner msa.Aligner) ([]byte, error) {
	var ancSeqs []bio.Sequence
	for r, a := range ancestors {
		if len(a) == 0 {
			continue
		}
		ancSeqs = append(ancSeqs, bio.Sequence{ID: fmt.Sprintf("anc%d", r), Data: a})
	}
	switch len(ancSeqs) {
	case 0:
		return nil, nil
	case 1:
		return ancSeqs[0].Data, nil
	}
	aln, err := aligner.AlignContext(ctx, ancSeqs)
	if err != nil {
		return nil, fmt.Errorf("core: ancestor alignment: %w", err)
	}
	return aln.Consensus(submat.BLOSUM62.Alphabet(), ancestorOcc)
}
