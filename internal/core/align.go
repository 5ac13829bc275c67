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

// Align runs Sample-Align-D as an SPMD program: every rank calls it with
// its local slice of the input. The full alignment is returned on rank 0
// (nil elsewhere); Stats are returned on every rank.
func Align(c mpi.Comm, local []bio.Sequence, cfg Config) (*msa.Alignment, *Stats, error) {
	//lint:allow ctxflow context-free compat wrapper: delegates to the Context-bound variant
	return AlignContext(context.Background(), c, local, cfg)
}

// AlignContext is Align bound to a context. Cancelling ctx unwinds the
// whole rank: blocking collectives unblock with the context's error, the
// bucket MSA stops at its next merge, and the rank returns ctx.Err()
// (context.Canceled after a cancel, context.DeadlineExceeded after a
// missed deadline).
func AlignContext(ctx context.Context, c mpi.Comm, local []bio.Sequence, cfg Config) (*msa.Alignment, *Stats, error) {
	origs := make([]int64, len(local))
	for i := range origs {
		origs[i] = int64(c.Rank())<<40 | int64(i)
	}
	return alignTagged(ctx, c, local, origs, cfg, false)
}

// ctxErr prefers the context's error over err once the context is done,
// so a rank unblocked by a closed world still reports the cancellation
// that caused it.
func ctxErr(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}

// alignTagged is Align with explicit per-sequence global ordering keys
// (the inproc driver passes original input indices so the final
// alignment comes back in input order). idsVerified marks worlds whose
// driver already proved sequence-ID uniqueness across all ranks, so the
// cluster-wide check (and its communication) can be skipped.
func alignTagged(ctx context.Context, c mpi.Comm, local []bio.Sequence, origs []int64, cfg Config, idsVerified bool) (*msa.Alignment, *Stats, error) {
	if len(origs) != len(local) {
		return nil, nil, fmt.Errorf("core: %d origin keys for %d sequences", len(origs), len(local))
	}
	// Bind the communicator to the context: every blocking Recv below —
	// direct or inside a collective — now unblocks on cancellation.
	c = mpi.WithContext(ctx, c)
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
	// phase keys rows by ID (origMap), so a collision would silently
	// drop or misorder a row in the final alignment. Every rank takes
	// part in the check and fails with the same error. Skipped when the
	// driver already verified the whole input (inproc), and done without
	// communication on single-rank worlds, so the collective's bytes
	// never distort the communication stats of the paper's benchmarks.
	if !idsVerified {
		if err := checkClusterIDs(c, seqs); err != nil {
			return nil, nil, ctxErr(ctx, err)
		}
	}

	p := c.Size()
	var bucket []wireSeq
	if p == 1 {
		bucket = seqs
	} else {
		dctx, dsp := obs.Start(ctx, "decompose")
		bucket, err = redistribute(dctx, c, counter, seqs, cfg, stats)
		if err != nil {
			dsp.End()
			return nil, nil, ctxErr(ctx, err)
		}
		dsp.SetInt("bucket", int64(len(bucket)))
		dsp.End()
	}
	stats.BucketSize = len(bucket)

	// ------- local alignment of the bucket (paper step: "align sequences
	// in each processor using any sequential multiple alignment system")
	tPhase := startClock()
	bctx, bsp := obs.Start(ctx, "bucketalign")
	tally0 := dpkern.TallySnapshot()
	localAligner := cfg.NewLocalAligner(cfg.Workers)
	bucketSeqs := make([]bio.Sequence, len(bucket))
	for i, ws := range bucket {
		bucketSeqs[i] = bio.Sequence{ID: ws.ID, Desc: ws.Desc, Data: ws.Data}
	}
	localAln, err := msa.AlignWithContext(bctx, localAligner, bucketSeqs)
	if err != nil {
		bsp.End()
		if cerr := ctx.Err(); cerr != nil {
			return nil, nil, cerr
		}
		return nil, nil, fmt.Errorf("core: rank %d local alignment: %w", c.Rank(), err)
	}
	if bsp != nil {
		// Striped-vs-escape deltas come from process-wide counters, so
		// concurrent jobs in one server overlap in them; within a single
		// run they attribute kernel dispatch to this bucket alignment.
		d := dpkern.TallySnapshot().Sub(tally0)
		bsp.SetInt("seqs", int64(len(bucketSeqs)))
		bsp.SetInt("workers", int64(cfg.Workers))
		bsp.SetStr("aligner", localAligner.Name())
		bsp.SetInt("striped_calls", d.Striped)
		bsp.SetInt("escape_calls", d.Escaped)
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

	// ------- ancestor phases
	tPhase = startClock()
	actx, asp := obs.Start(mctx, "ancestor")
	var localAnc []byte
	if localAln.NumSeqs() > 0 {
		localAnc, err = localAln.Consensus(submat.BLOSUM62.Alphabet(), ancestorOcc)
		if err != nil {
			return nil, nil, err
		}
	}
	ancestors, err := mpi.GatherValues(c, 0, tagAncGather, localAnc)
	if err != nil {
		return nil, nil, ctxErr(ctx, err)
	}
	var ga []byte
	if c.Rank() == 0 {
		ga, err = globalAncestor(actx, ancestors, localAligner)
		if err != nil {
			return nil, nil, ctxErr(ctx, err)
		}
	}
	if err := mpi.BcastValue(c, 0, tagGA, ga, &ga); err != nil {
		return nil, nil, ctxErr(ctx, err)
	}
	stats.GALen = len(ga)
	asp.SetInt("ga_len", int64(len(ga)))
	asp.End()
	stats.Timings.Ancestor = tPhase.elapsed()

	// ------- fine-tune against the GA template and glue at the root
	tPhase = startClock()
	_, fsp := obs.Start(mctx, "finetune")
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	path, err := templatePath(localAln, ga)
	if err != nil {
		return nil, nil, err
	}
	fsp.End()
	stats.Timings.FineTune = tPhase.elapsed()

	tPhase = startClock()
	_, gsp := obs.Start(mctx, "glue")
	final, err := glue(c, localAln, bucket, path, len(ga), stats)
	if err != nil {
		gsp.End()
		msp.End()
		return nil, nil, ctxErr(ctx, err)
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
	gathered, err := mpi.GatherValues(c, 0, tagIDCheck, ids)
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
	if err := mpi.BcastValue(c, 0, tagIDCheck, verdict, &verdict); err != nil {
		return err
	}
	if verdict != "" {
		return fmt.Errorf("core: %s", verdict)
	}
	return nil
}

// redistribute performs the sampling, pivoting and all-to-all exchange
// phases, returning this rank's bucket. The communicator is already
// context-bound by the caller; ctx is checked between compute phases.
func redistribute(ctx context.Context, c mpi.Comm, counter *kmer.Counter, seqs []wireSeq, cfg Config, stats *Stats) ([]wireSeq, error) {
	p, rank := c.Size(), c.Rank()

	// --- phase 1: local rank + local sort
	tPhase := startClock()
	ctx1, sp1 := obs.Start(ctx, "localrank")
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
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	samples := pickSamples(seqs, cfg.SampleSize) // clamped to the local set size
	sampleData := make([][]byte, len(samples))
	for i, s := range samples {
		sampleData[i] = s.Data
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
	sampleKeys := regularRankSample(seqs, p-1)
	gathered, err := mpi.GatherValues(c, 0, tagPivotGather, sampleKeys)
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
	if err := mpi.BcastValue(c, 0, tagPivots, pivots, &pivots); err != nil {
		return nil, err
	}
	sp3.End()
	stats.Timings.Pivoting = tPhase.elapsed()

	// --- phase 4: bucket partition + all-to-all exchange
	tPhase = startClock()
	_, sp4 := obs.Start(ctx, "exchange")
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

// pickSamples returns k evenly spaced samples of the locally sorted
// sequence list: the element at (i+1)·n/(k+1) for i in [0, k).
func pickSamples(seqs []wireSeq, k int) []wireSeq {
	if k <= 0 || len(seqs) == 0 {
		return nil
	}
	if k > len(seqs) {
		k = len(seqs)
	}
	out := make([]wireSeq, 0, k)
	for i := 0; i < k; i++ {
		idx := (i + 1) * len(seqs) / (k + 1)
		if idx >= len(seqs) {
			idx = len(seqs) - 1
		}
		out = append(out, seqs[idx])
	}
	return out
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

// regularRankSample picks k evenly spaced rank keys from the locally
// sorted list (the paper's p−1 regular samples).
func regularRankSample(seqs []wireSeq, k int) pivotKeyList {
	if len(seqs) == 0 || k <= 0 {
		return nil
	}
	out := make(pivotKeyList, 0, k)
	for i := 0; i < k; i++ {
		idx := (i + 1) * len(seqs) / (k + 1)
		if idx >= len(seqs) {
			idx = len(seqs) - 1
		}
		out = append(out, pivotKey{Rank: seqs[idx].Rank, Orig: seqs[idx].Orig})
	}
	return out
}

// selectPivots sorts the gathered regular samples and picks the paper's
// p−1 pivots Y_{p/2}, Y_{p+p/2}, …, Y_{(p−2)p+p/2}, scaled to however
// many samples actually arrived. Duplicate pivots (possible only when a
// clamped degenerate schedule picks one sample twice) are dropped —
// they could only ever delimit guaranteed-empty buckets.
func selectPivots(all []pivotKey, p int) []pivotKey {
	sort.Slice(all, func(i, j int) bool { return all[i].less(all[j]) })
	pivots := make([]pivotKey, 0, p-1)
	appendPivot := func(k pivotKey) {
		if n := len(pivots); n > 0 && !pivots[n-1].less(k) {
			return // duplicate of the previous pivot
		}
		pivots = append(pivots, k)
	}
	if len(all) == 0 {
		return pivots
	}
	if len(all) == p*(p-1) {
		// the exact index schedule from the paper
		for j := 0; j < p-1; j++ {
			idx := j*p + p/2
			if idx >= len(all) {
				idx = len(all) - 1
			}
			appendPivot(all[idx])
		}
		return pivots
	}
	// degenerate worlds (tiny local sets): evenly spaced quantiles
	for j := 1; j < p; j++ {
		idx := j * len(all) / p
		if idx >= len(all) {
			idx = len(all) - 1
		}
		appendPivot(all[idx])
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
	aln, err := msa.AlignWithContext(ctx, aligner, ancSeqs)
	if err != nil {
		return nil, fmt.Errorf("core: ancestor alignment: %w", err)
	}
	return aln.Consensus(submat.BLOSUM62.Alphabet(), ancestorOcc)
}
