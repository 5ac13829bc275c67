// Command benchgate is the bench regression gate for the perf
// trajectory: it diffs two consecutive BENCH_<PR>.json files (the
// scripts/bench.sh output) and exits non-zero when a named
// micro-benchmark's ns/op regressed by more than -max-regress percent,
// when the new file's profile-PSP kernel speedup (striped vs scalar,
// single-thread) fell below -min-psp-speedup (1.0: the striped kernel
// must never be slower than the scalar one it is routed in place of —
// a floor that making the scalar reference faster cannot trip, unlike
// a fixed multiple; each side's own speed is held by the ns/op diff),
// or when the journal
// group-commit benchmark's fsyncs-per-record at concurrency >= 8 is
// not below -max-journal-fsyncs (concurrent appenders must share
// commit groups; 1.0 would mean group commit is not batching at all).
//
// Usage:
//
//	benchgate [flags] NEW.json          # kernel-speedup floor only
//	benchgate [flags] OLD.json NEW.json # + ns/op regression diff
//
// ns/op is only comparable between runs on the same hardware, so the
// regression diff is skipped (with a warning) when the two files
// record different host core counts — e.g. the first CI run after a
// locally generated baseline. Oversubscribed variants (a /workers=N
// suffix with N above the host core count) are also skipped: their
// timing is scheduler contention, not kernel speed, and swings far
// past any useful threshold between runs. Likewise a benchmark whose
// own ns_samples within the NEW run spread wider than -max-regress is
// skipped with a warning: when one binary's samples differ by more
// than the threshold, a threshold-sized cross-run diff is noise by
// the benchmark's own measurement, and gating on it just flaps CI. The kernel-speedup floor is
// a ratio of two single-thread runs from the same file, so it always
// applies.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
)

type benchFile struct {
	PR   int `json:"pr"`
	Host struct {
		Cores int    `json:"cores"`
		Go    string `json:"go"`
	} `json:"host"`
	Gobench []struct {
		Name      string    `json:"name"`
		NsPerOp   float64   `json:"ns_per_op"`
		NsSamples []float64 `json:"ns_samples"`
	} `json:"gobench"`
	KernelSpeedup map[string]float64 `json:"kernel_speedup"`
	JournalFsyncs map[string]float64 `json:"journal_fsyncs_per_record"`
}

func load(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

func main() {
	maxRegress := flag.Float64("max-regress", 10,
		"fail when a benchmark's ns/op grew by more than this percent (0 disables)")
	minPSP := flag.Float64("min-psp-speedup", 1.0,
		"fail when the new file's ProfilePSP kernel_speedup is below this (0 disables)")
	maxJournalFsyncs := flag.Float64("max-journal-fsyncs", 1.0,
		"fail when journal fsyncs-per-record at concurrency >= 8 is not below this (0 disables)")
	flag.Parse()
	if flag.NArg() < 1 || flag.NArg() > 2 {
		fmt.Fprintln(os.Stderr, "usage: benchgate [flags] [OLD.json] NEW.json")
		os.Exit(2)
	}

	newest, err := load(flag.Arg(flag.NArg() - 1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}

	failed := false

	if *minPSP > 0 {
		got, ok := newest.KernelSpeedup["ProfilePSP"]
		switch {
		case !ok:
			fmt.Printf("FAIL kernel_speedup: ProfilePSP missing from PR %d file (families: %v)\n",
				newest.PR, keys(newest.KernelSpeedup))
			failed = true
		case got < *minPSP:
			fmt.Printf("FAIL kernel_speedup: ProfilePSP %.2fx < %.2fx floor\n", got, *minPSP)
			failed = true
		default:
			fmt.Printf("ok   kernel_speedup: ProfilePSP %.2fx >= %.2fx floor\n", got, *minPSP)
		}
	}

	if *maxJournalFsyncs > 0 {
		// The floor is on concurrency >= 8: solo appends legitimately
		// fsync once per record (the Append contract), so conc=1 is
		// informational only. The section first appears in PR 10 files;
		// older baselines without it fail so a silently dropped
		// benchmark step cannot pass the gate.
		checked := 0
		for _, key := range keys(newest.JournalFsyncs) {
			got := newest.JournalFsyncs[key]
			if concOf(key) < 8 {
				continue
			}
			checked++
			if got >= *maxJournalFsyncs {
				fmt.Printf("FAIL journal_fsyncs_per_record: %s %.4f >= %.2f ceiling — group commit is not batching\n",
					key, got, *maxJournalFsyncs)
				failed = true
			} else {
				fmt.Printf("ok   journal_fsyncs_per_record: %s %.4f < %.2f ceiling\n",
					key, got, *maxJournalFsyncs)
			}
		}
		if checked == 0 {
			fmt.Printf("FAIL journal_fsyncs_per_record: no concurrency >= 8 entry in PR %d file (levels: %v)\n",
				newest.PR, keys(newest.JournalFsyncs))
			failed = true
		}
	}

	if flag.NArg() == 2 && *maxRegress > 0 {
		old, err := load(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(2)
		}
		if old.Host.Cores != newest.Host.Cores {
			fmt.Printf("warn ns/op diff skipped: PR %d ran on %d cores, PR %d on %d — not comparable\n",
				old.PR, old.Host.Cores, newest.PR, newest.Host.Cores)
		} else {
			oldNs := make(map[string]float64, len(old.Gobench))
			for _, b := range old.Gobench {
				oldNs[b.Name] = b.NsPerOp
			}
			compared, oversub, noisy := 0, 0, 0
			for _, b := range newest.Gobench {
				base, ok := oldNs[b.Name]
				if !ok || base <= 0 {
					continue
				}
				if w := workersOf(b.Name); w > newest.Host.Cores {
					oversub++
					continue
				}
				// A benchmark whose own same-binary samples spread wider
				// than the threshold cannot support a threshold-sized
				// verdict across two runs: any diff within its spread is
				// noise, not signal. Skip it like the other incomparable
				// cases instead of flapping CI.
				if spr := spread(b.NsSamples); spr > *maxRegress {
					noisy++
					fmt.Printf("warn %s skipped: own samples spread %.0f%% > %.0f%% threshold — too noisy to gate\n",
						b.Name, spr, *maxRegress)
					continue
				}
				compared++
				pct := (b.NsPerOp - base) / base * 100
				if pct > *maxRegress {
					fmt.Printf("FAIL %s: %.0f -> %.0f ns/op (+%.1f%% > %.0f%%)\n",
						b.Name, base, b.NsPerOp, pct, *maxRegress)
					failed = true
				}
			}
			fmt.Printf("ok   ns/op diff: %d shared benchmarks (%d oversubscribed, %d noisy skipped), PR %d vs PR %d, threshold +%.0f%%\n",
				compared, oversub, noisy, old.PR, newest.PR, *maxRegress)
		}
	}

	if failed {
		os.Exit(1)
	}
}

var (
	workersRe = regexp.MustCompile(`/workers=(\d+)\b`)
	concRe    = regexp.MustCompile(`^conc=(\d+)$`)
)

// spread reports a sample set's relative range, (max-min)/min as a
// percentage — the benchmark's own observed noise within one run (0
// for files predating the ns_samples field or with a single sample).
func spread(samples []float64) float64 {
	if len(samples) < 2 {
		return 0
	}
	lo, hi := samples[0], samples[0]
	for _, s := range samples[1:] {
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	if lo <= 0 {
		return 0
	}
	return (hi - lo) / lo * 100
}

// concOf extracts N from a "conc=N" journal-benchmark level key (0
// when the key has some other shape).
func concOf(key string) int {
	m := concRe.FindStringSubmatch(key)
	if m == nil {
		return 0
	}
	n, _ := strconv.Atoi(m[1])
	return n
}

// workersOf extracts the worker count from a /workers=N sub-benchmark
// name (0 when absent, i.e. single-thread benchmarks).
func workersOf(name string) int {
	m := workersRe.FindStringSubmatch(name)
	if m == nil {
		return 0
	}
	n, _ := strconv.Atoi(m[1])
	return n
}

func keys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
