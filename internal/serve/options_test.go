package serve

import (
	"strings"
	"testing"
	"time"

	"repro/internal/kmer"
)

// defaultOpts is the defaults table of a zero Config: what resolve sees
// on a server built without option defaults.
var defaultOpts = Config{}.WithDefaults().Defaults

func TestResolveDefaultsAndOverrides(t *testing.T) {
	defaults := Config{Defaults: Options{Procs: 8, Workers: 2, Aligner: "clustal"}}.WithDefaults().Defaults
	r, err := resolve(Options{}, defaults, Limits{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Procs != 8 || r.Workers != 2 || r.Aligner != "clustal" || r.K != 6 {
		t.Fatalf("defaults not applied: %+v", r)
	}
	r, err = resolve(Options{Procs: 2, Aligner: "muscle", TimeoutMs: 1500}, defaults, Limits{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Procs != 2 || r.Aligner != "muscle" || r.Timeout != 1500*time.Millisecond {
		t.Fatalf("request overrides lost: %+v", r)
	}
	// A zero Config's defaults are the library defaults.
	r, err = resolve(Options{}, defaultOpts, Limits{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Procs != 4 || r.Workers != 1 || r.Aligner != "muscle" || r.K != kmer.DefaultK {
		t.Fatalf("fallback defaults: %+v", r)
	}
}

func TestResolveLimits(t *testing.T) {
	// Procs over the cap reject: clamping would change the result.
	if _, err := resolve(Options{Procs: 100}, defaultOpts, Limits{MaxProcs: 16}, 0); err == nil ||
		!strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("procs over cap: %v", err)
	}
	// Workers over the budget clamp silently: they never change bytes.
	r, err := resolve(Options{Procs: 4, Workers: 16}, defaultOpts, Limits{WorkerBudget: 8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Workers != 2 {
		t.Fatalf("workers = %d, want clamped 2 (budget 8 / procs 4)", r.Workers)
	}
	// Budget smaller than procs still leaves one worker per rank.
	r, err = resolve(Options{Procs: 4, Workers: 2}, defaultOpts, Limits{WorkerBudget: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Workers != 1 {
		t.Fatalf("workers = %d, want floor 1", r.Workers)
	}
}

func TestResolveFixedProcs(t *testing.T) {
	// A fixed-size executor overrides procs before limits: the request
	// value is advisory, MaxProcs does not apply to the operator's own
	// cluster size, and the worker budget clamps against actual procs.
	r, err := resolve(Options{Procs: 100, Workers: 8}, defaultOpts, Limits{MaxProcs: 4, WorkerBudget: 22}, 11)
	if err != nil {
		t.Fatalf("fixed-procs request rejected: %v", err)
	}
	if r.Procs != 11 {
		t.Fatalf("procs = %d, want fixed 11", r.Procs)
	}
	if r.Workers != 2 {
		t.Fatalf("workers = %d, want 2 (budget 22 / fixed procs 11)", r.Workers)
	}
}

func TestResolveRejects(t *testing.T) {
	for _, o := range []Options{
		{Procs: -2},
		{Workers: -1},
		{K: -1},
		{K: 12}, // 6^12 k-mer codes overflow the counter
		{SampleSize: -1},
		{TimeoutMs: -5},
		{Aligner: "bogus"},
	} {
		if _, err := resolve(o, defaultOpts, Limits{}, 0); err == nil {
			t.Fatalf("options %+v accepted", o)
		}
	}
}

func TestCoreConfigRoundTrip(t *testing.T) {
	r, err := resolve(Options{Procs: 2, Workers: 3, Aligner: "tcoffee", K: 5,
		SampleSize: 7}, defaultOpts, Limits{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := r.CoreConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.K != 5 || cfg.Workers != 3 || cfg.SampleSize != 7 {
		t.Fatalf("core config: %+v", cfg)
	}
	al := cfg.NewLocalAligner(1)
	if al == nil {
		t.Fatal("aligner constructor nil")
	}
	// A Resolved that did not come from resolve (a worker decodes one
	// off the wire) must not yield a constructor that returns nil.
	r.Aligner = "nosuch"
	if _, err := r.CoreConfig(); err == nil {
		t.Fatal("CoreConfig accepted an aligner this binary lacks")
	}
}
