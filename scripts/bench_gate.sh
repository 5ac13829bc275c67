#!/usr/bin/env bash
# Bench regression gate: picks the two highest-numbered BENCH_<PR>.json
# perf-trajectory files in the repo root and runs cmd/benchgate on
# them, failing on >10% ns/op regressions in shared micro-benchmarks
# and on a striped profile-PSP kernel slower than the scalar one (the
# floor is a ratio of 1.0, not a multiple: PR 15 made the scalar
# reference 1.6x faster and must not fail for it). With a single file the
# ns/op diff is vacuous and only the kernel-speedup floor applies;
# files recorded on hosts with different core counts skip the ns/op
# diff with a warning (ratios within one file still hold).
#
#   bash scripts/bench_gate.sh
#
# Environment knobs (forwarded to benchgate):
#   MAX_REGRESS        percent ns/op growth tolerated (default 10)
#   MIN_PSP_SPEEDUP    ProfilePSP striped-vs-scalar floor (default 1.0)
#   MAX_JOURNAL_FSYNCS journal fsyncs-per-record ceiling at
#                      concurrency >= 8 (default 1.0: concurrent
#                      appends must share commit groups)
set -euo pipefail
cd "$(dirname "$0")/.."

mapfile -t files < <(
  for f in BENCH_*.json; do
    [ -e "$f" ] || continue
    n=${f#BENCH_}
    n=${n%.json}
    case $n in (*[!0-9]*) continue ;; esac
    printf '%d %s\n' "$n" "$f"
  done | sort -n | awk '{print $2}'
)

if [ "${#files[@]}" -eq 0 ]; then
  echo "bench_gate: no BENCH_<PR>.json files found — run scripts/bench.sh first" >&2
  exit 1
fi

args=("${files[@]: -2}") # the two newest (or one, if only one exists)
echo "bench_gate: gating on ${args[*]}"
go run ./cmd/benchgate \
  -max-regress "${MAX_REGRESS:-10}" \
  -min-psp-speedup "${MIN_PSP_SPEEDUP:-1.0}" \
  -max-journal-fsyncs "${MAX_JOURNAL_FSYNCS:-1.0}" \
  "${args[@]}"
