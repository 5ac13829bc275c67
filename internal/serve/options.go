package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/bio"
	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/kmer"
	"repro/internal/msa"
)

// Options are the per-request alignment options of the HTTP job API.
// Zero fields inherit the server defaults; the JSON names are the wire
// format of the "options" object in submit requests.
type Options struct {
	Procs      int    `json:"procs,omitempty"`       // in-process ranks (ignored by cluster executors)
	Workers    int    `json:"workers,omitempty"`     // shared-memory workers per rank
	Aligner    string `json:"aligner,omitempty"`     // bucket aligner name (engines registry)
	K          int    `json:"k,omitempty"`           // k-mer length
	SampleSize int    `json:"sample_size,omitempty"` // samples per rank
	TimeoutMs  int64  `json:"timeout_ms,omitempty"`  // caller deadline from submission time
}

// retiredOptions are the ablation switches that left with cache key v2.
// They changed the alignment, so — unlike a leftover "kernel", which is
// ignored — a request that sets one is refused by name rather than run
// as the one pipeline that remains.
var retiredOptions = [...]string{"no_finetune", "random_sampling", "full_alphabet"}

// refuseRetired is the one check behind the query string, the JSON body
// and journal replay. value returns an option's text — a query value or
// a JSON literal, "" when absent — and anything but an explicit false
// is refused.
func refuseRetired(value func(name string) string) error {
	for _, name := range retiredOptions {
		v := value(name)
		if v == "" || v == "null" {
			continue
		}
		if set, err := strconv.ParseBool(v); err != nil || set {
			return fmt.Errorf("option %s=%s was retired with the ablation pipelines (only the paper's pipeline runs): drop it or set it false", name, v)
		}
	}
	return nil
}

// UnmarshalJSON decodes an "options" object and refuses the retired
// names, so every JSON entry point — /v1/jobs, /v1/align and both
// levels of /v1/batch — shares the check.
func (o *Options) UnmarshalJSON(data []byte) error {
	type options Options // the same fields without this method
	if err := json.Unmarshal(data, (*options)(o)); err != nil {
		return err
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(data, &fields); err != nil {
		return err
	}
	return refuseRetired(func(name string) string {
		for key, v := range fields { // any case, as the decoder above matches its fields
			if strings.EqualFold(key, name) {
				return string(v)
			}
		}
		return ""
	})
}

// Resolved is a fully defaulted, validated option set: every field is
// concrete, so it both keys the result cache (deadline excluded — it
// cannot change the alignment) and reconstructs an identical
// core.Config on any process, including remote cluster workers.
type Resolved struct {
	Procs      int    `json:"procs"`
	Workers    int    `json:"workers"`
	Aligner    string `json:"aligner"`
	K          int    `json:"k"`
	SampleSize int    `json:"sample_size"` // 0 keeps core's p-derived default

	Timeout time.Duration `json:"timeout_ns"` // 0 = none; NOT part of the cache key
}

// Limits bound what a single request may claim from the pool.
type Limits struct {
	MaxProcs     int // reject requests asking for more ranks (0 = no cap)
	WorkerBudget int // clamp procs×workers to this many goroutines (0 = no cap)
}

// resolve merges request options over the defaults and validates the
// result. fixedProcs > 0 (a fixed-size cluster executor) overrides the
// rank count before any limit is applied, so limits act on the procs a
// job will actually use. Limit violations on Procs reject (the rank
// count changes the alignment, so silently clamping would return a
// different answer than asked for); Workers are silently clamped to
// the budget (they never change the result, only the schedule).
func resolve(o, defaults Options, lim Limits, fixedProcs int) (Resolved, error) {
	pick := func(v, d, fallback int) int {
		if v != 0 {
			return v
		}
		if d != 0 {
			return d
		}
		return fallback
	}
	r := Resolved{
		Procs:      pick(o.Procs, defaults.Procs, 4),
		Workers:    pick(o.Workers, defaults.Workers, 1),
		K:          pick(o.K, defaults.K, kmer.DefaultK),
		SampleSize: pick(o.SampleSize, defaults.SampleSize, 0),
	}
	r.Aligner = o.Aligner
	if r.Aligner == "" {
		r.Aligner = defaults.Aligner
	}
	if r.Aligner == "" {
		r.Aligner = "muscle"
	}
	if o.TimeoutMs < 0 {
		return Resolved{}, fmt.Errorf("timeout_ms = %d", o.TimeoutMs)
	}
	r.Timeout = time.Duration(o.TimeoutMs) * time.Millisecond
	if r.Timeout == 0 && defaults.TimeoutMs > 0 {
		r.Timeout = time.Duration(defaults.TimeoutMs) * time.Millisecond
	}

	if r.Procs < 1 {
		return Resolved{}, fmt.Errorf("procs = %d", r.Procs)
	}
	if fixedProcs > 0 {
		// The executor (a fixed-size cluster) decides the rank count;
		// the requested procs is advisory. MaxProcs is not applied to
		// the operator's own cluster size — that would brick every
		// request on a misconfigured server — but the worker budget
		// below still clamps against the procs actually used.
		r.Procs = fixedProcs
	} else if lim.MaxProcs > 0 && r.Procs > lim.MaxProcs {
		return Resolved{}, fmt.Errorf("procs = %d exceeds the server limit of %d", r.Procs, lim.MaxProcs)
	}
	if r.Workers < 1 {
		return Resolved{}, fmt.Errorf("workers = %d", r.Workers)
	}
	if lim.WorkerBudget > 0 && r.Procs*r.Workers > lim.WorkerBudget {
		r.Workers = lim.WorkerBudget / r.Procs
		if r.Workers < 1 {
			r.Workers = 1
		}
	}
	if !engines.Valid(r.Aligner) {
		return Resolved{}, fmt.Errorf("unknown aligner %q (have %v)", r.Aligner, engines.Names())
	}
	if r.SampleSize < 0 {
		return Resolved{}, fmt.Errorf("sample_size = %d", r.SampleSize)
	}
	if err := core.CheckK(r.K); err != nil {
		return Resolved{}, err
	}
	return r, nil
}

// CoreConfig reconstructs the core.Config this option set denotes. Not
// every Resolved was made by resolve — a cluster worker decodes one from
// its control port — so an aligner this binary lacks is an error here,
// not a nil aligner for the pipeline to call.
func (r Resolved) CoreConfig() (core.Config, error) {
	aligner := r.Aligner
	if _, err := engines.New(aligner, 1); err != nil {
		return core.Config{}, err
	}
	return core.Config{
		K:          r.K,
		Workers:    r.Workers,
		SampleSize: r.SampleSize,
		NewLocalAligner: func(workers int) msa.Aligner {
			al, _ := engines.New(aligner, workers) // the name was checked above
			return al
		},
	}, nil
}

// cacheKeyVersion invalidates every cached result when the key schema
// or anything result-affecting about the pipeline encoding changes.
const cacheKeyVersion = "samplealign-job-v2"

// cacheKey returns the content address of (input, options): the hex
// SHA-256 of the canonicalized sequences and every result-affecting
// resolved option. Identical resubmissions — same sequences in the same
// order, same effective options — collide on purpose; deadlines and
// worker counts never enter the key because they cannot change the
// alignment bytes.
func cacheKey(seqs []bio.Sequence, r Resolved) string {
	h := sha256.New()
	var num [binary.MaxVarintLen64]byte
	writeInt := func(v int64) {
		n := binary.PutVarint(num[:], v)
		h.Write(num[:n])
	}
	writeStr := func(s string) {
		writeInt(int64(len(s)))
		h.Write([]byte(s))
	}
	writeStr(cacheKeyVersion)
	// Result-affecting options only. Workers deliberately excluded:
	// alignments are byte-identical for every worker count.
	writeInt(int64(r.Procs))
	writeStr(r.Aligner)
	writeInt(int64(r.K))
	writeInt(int64(r.SampleSize))
	writeInt(int64(len(seqs)))
	for _, s := range seqs {
		writeStr(s.ID)
		writeStr(s.Desc)
		writeInt(int64(len(s.Data)))
		h.Write(s.Data)
	}
	return hex.EncodeToString(h.Sum(nil))
}
