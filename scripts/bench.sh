#!/usr/bin/env bash
# Perf trajectory for the PR series: runs the real msabench experiments
# (machine-readable -json) plus the guide-tree construction
# micro-benchmarks (BenchmarkDistanceMatrix, the indexed k-mer
# distance matrix at N=2000, and BenchmarkGuideTreeWorkers, UPGMA/NJ at
# worker counts 1..8) and the DP-kernel micro-benchmarks
# (BenchmarkProfilePSP and BenchmarkPairwiseGlobal, scalar vs striped)
# and merges everything into one BENCH_<PR>.json.
# CI uploads the file as an artifact; diff the files across PRs to see
# the trajectory.
#
#   bash scripts/bench.sh [out.json]       # default out: BENCH_15.json
#
# Environment knobs:
#   BENCHTIME        go test -benchtime for the guide-tree micro-benchmarks
#                    (default 3x; each iteration is a full N=2000 matrix)
#   KERNEL_BENCHTIME -benchtime for the DP-kernel micro-benchmarks
#                    (default 300ms; time-based, because the scalar/striped
#                    ratio at a handful of iterations is warmup noise)
#   JOURNAL_BENCHTIME -benchtime for the journal group-commit benchmark
#                    (default 500ms; each op is a real fsync)
#   COUNT            -count: samples per benchmark; the JSON records the
#                    minimum ns/op across samples, the standard
#                    noise-robust statistic for shared hosts (default 3)
#   MSABENCH_EXP     msabench experiment set for the real runs (default fig4)
#
# The "journal_fsyncs_per_record" section records the group-commit
# benchmark's fsyncs/rec custom metric per concurrency level (worst
# sample across -count runs): conc=1 must stay 1.0 (every solo Append
# still fsyncs before returning) and conc=8 must drop below 1.0 —
# concurrent appenders sharing commit groups is the whole point.
#
# The "speedup" section divides each family's workers=1 ns/op by every
# other worker count's — on a host with >= 4 cores the distance-matrix
# and guide-tree families should show >= 2x at workers=4; on fewer
# cores the ratio saturates at the core count (a 1-core container
# reports ~1.0x). The "kernel_speedup" section divides each family's
# kernel=scalar ns/op by kernel=striped — single-thread, so the ratio
# holds on a 1-core host; the gate's floor is 1.0 (striped never
# slower), since a faster scalar kernel lowers the ratio by itself.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=${1:-BENCH_15.json}
BENCHTIME=${BENCHTIME:-3x}
KERNEL_BENCHTIME=${KERNEL_BENCHTIME:-300ms}
JOURNAL_BENCHTIME=${JOURNAL_BENCHTIME:-500ms}
COUNT=${COUNT:-3}
MSABENCH_EXP=${MSABENCH_EXP:-fig4}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== real distributed runs (msabench -exp $MSABENCH_EXP -quick) =="
go run ./cmd/msabench -exp "$MSABENCH_EXP" -quick -json "$tmp/msabench.json"

echo "== guide-tree construction benchmarks (benchtime $BENCHTIME) =="
go test -run '^$' -bench 'BenchmarkDistanceMatrix|BenchmarkGuideTreeWorkers' \
  -benchtime "$BENCHTIME" -count "$COUNT" . | tee "$tmp/gobench.txt"

echo "== DP-kernel benchmarks (benchtime $KERNEL_BENCHTIME) =="
go test -run '^$' -bench 'BenchmarkProfilePSP|BenchmarkPairwiseGlobal' \
  -benchtime "$KERNEL_BENCHTIME" -count "$COUNT" . | tee -a "$tmp/gobench.txt"

echo "== journal group-commit benchmark (benchtime $JOURNAL_BENCHTIME) =="
go test -run '^$' -bench 'BenchmarkJournalAppendParallel' \
  -benchtime "$JOURNAL_BENCHTIME" -count "$COUNT" ./internal/store | tee -a "$tmp/gobench.txt"

CORES=$(nproc) GOVER=$(go version) \
python3 - "$tmp/msabench.json" "$tmp/gobench.txt" "$OUT" <<'PY'
import json, os, re, sys

msabench_path, gobench_path, out_path = sys.argv[1], sys.argv[2], sys.argv[3]

with open(msabench_path) as f:
    msabench = json.load(f)

# "BenchmarkFoo/sub-8   12   3456 ns/op   78 B/op   9 allocs/op"
# (the -8 GOMAXPROCS suffix is omitted when GOMAXPROCS is 1)
line_re = re.compile(
    r"^Benchmark(\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op"
    r"(?:\s+([\d.]+) B/op)?(?:\s+(\d+) allocs/op)?")
# -count > 1 repeats every benchmark; keep the fastest sample per name
# (min ns/op — robust against transient load on shared hosts) and the
# full sample list, so the regression gate can judge each benchmark's
# own noise floor before holding it to a percentage threshold.
best = {}
order = []
with open(gobench_path) as f:
    for line in f:
        m = line_re.match(line)
        if not m:
            continue
        name, iters, ns, bpo, allocs = m.groups()
        rec = {
            "name": name,
            "iterations": int(iters),
            "ns_per_op": float(ns),
            "b_per_op": float(bpo) if bpo else None,
            "allocs_per_op": int(allocs) if allocs else None,
            "samples": 1,
            "ns_samples": [float(ns)],
        }
        if name not in best:
            best[name] = rec
            order.append(name)
        else:
            prev = best[name]
            rec["samples"] = prev["samples"] + 1
            rec["ns_samples"] = prev["ns_samples"] + [rec["ns_per_op"]]
            if rec["ns_per_op"] > prev["ns_per_op"]:
                rec.update({k: prev[k] for k in
                            ("iterations", "ns_per_op", "b_per_op", "allocs_per_op")})
            best[name] = rec
gobench = [best[n] for n in order]

# Speedup of each workers=N variant against its family's workers=1.
families = {}
for b in gobench:
    m = re.match(r"(.*)/workers=(\d+)$", b["name"])
    if m:
        families.setdefault(m.group(1), {})[int(m.group(2))] = b["ns_per_op"]
speedup = {}
for fam, by_workers in sorted(families.items()):
    base = by_workers.get(1)
    if not base:
        continue
    speedup[fam] = {
        f"workers={w}": round(base / ns, 3)
        for w, ns in sorted(by_workers.items()) if w != 1 and ns > 0
    }

# Speedup of each kernel=striped variant against its family's
# kernel=scalar (single-thread; core count does not matter).
kern_families = {}
for b in gobench:
    m = re.match(r"(.*)/kernel=(scalar|striped)$", b["name"])
    if m:
        kern_families.setdefault(m.group(1), {})[m.group(2)] = b["ns_per_op"]
kernel_speedup = {}
for fam, by_kern in sorted(kern_families.items()):
    base, striped = by_kern.get("scalar"), by_kern.get("striped")
    if base and striped:
        kernel_speedup[fam] = round(base / striped, 3)

# Journal group-commit efficiency: the fsyncs/rec custom metric per
# concurrency level. Keep the WORST (max) sample per level — the gate
# enforces an upper bound, so the pessimistic sample is the honest one.
fsync_re = re.compile(
    r"^BenchmarkJournalAppendParallel/conc=(\d+)(?:-\d+)?\s.*?\s([\d.]+) fsyncs/rec")
journal_fsyncs = {}
with open(gobench_path) as f:
    for line in f:
        m = fsync_re.match(line)
        if not m:
            continue
        key, val = f"conc={m.group(1)}", float(m.group(2))
        journal_fsyncs[key] = max(val, journal_fsyncs.get(key, 0.0))

out = {
    "pr": 15,
    "generated_by": "scripts/bench.sh",
    "host": {"cores": int(os.environ.get("CORES", "0")),
             "go": os.environ.get("GOVER", "")},
    "msabench": msabench,
    "gobench": gobench,
    "speedup": speedup,
    "kernel_speedup": kernel_speedup,
    "journal_fsyncs_per_record": journal_fsyncs,
}
with open(out_path, "w") as f:
    json.dump(out, f, indent=2)
    f.write("\n")
print(f"wrote {out_path}: {len(msabench)} real runs, "
      f"{len(gobench)} micro-benchmarks, {len(speedup)} speedup families, "
      f"{len(kernel_speedup)} kernel-speedup families, "
      f"{len(journal_fsyncs)} journal fsync levels")
PY
