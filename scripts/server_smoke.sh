#!/usr/bin/env bash
# End-to-end smoke of the HTTP job service: start samplealignsrv,
# submit a small FASTA over HTTP, poll to completion, fetch the result
# and diff it byte-for-byte against the samplealign batch CLI on the
# same input and options. Also checks the content-addressed cache
# (identical resubmission answered instantly), that the default procs
# cap of 64 holds without -max-procs (procs=65 is a 400) and restart
# recovery:
# the server is stopped and restarted on the same data directory, and
# the pre-restart result must be served from disk — byte-identical,
# with zero alignments recomputed (asserted via /metrics); a cold job's
# and a cache hit's started_at and finished_at must read the same after
# that restart and after a second one. A batch pass
# POSTs two inputs (one already cached) to /v1/batch in a single
# request, checks the cached member is answered terminal immediately,
# diffs the fresh member against the batch CLI, and asserts the
# group-commit journal metrics (fsyncs, flushed records, group-size
# histogram) are live. Observability
# is smoked end-to-end too: the job's span tree at /v1/jobs/{id}/trace
# must cover all five pipeline stages with positive durations, the same
# stages must show up as samplealign_stage_seconds histograms on
# /metrics, the live SSE progress stream at /v1/jobs/{id}/events must
# deliver stage and terminal events, and the persisted trace must
# survive the restart. A final cluster-mode pass (3 samplealignd
# workers + coordinator, p=4) asserts the distributed trace covers
# every rank, the output stays byte-identical to the batch CLI, live
# events flow during the cluster run, two different inputs submitted at
# once each match the batch CLI (every cluster job binds a mesh of its
# own, so they run side by side), and a worker's -metrics-addr listener
# serves its rank-local histograms.
set -euo pipefail
cd "$(dirname "$0")/.."

WORK=${WORK:-$(mktemp -d)}
PORT=${PORT:-18080}
BASE="http://127.0.0.1:$PORT"

echo "== build =="
go build -o "$WORK/" ./cmd/samplealign ./cmd/samplealignsrv ./cmd/samplealignd ./cmd/seqgen

echo "== input + batch reference =="
"$WORK/seqgen" -kind family -n 80 -len 100 -out "$WORK/in.fa"
"$WORK/samplealign" -in "$WORK/in.fa" -p 3 -out "$WORK/batch.fa"

echo "== start server =="
"$WORK/samplealignsrv" -addr "127.0.0.1:$PORT" -p 3 -data-dir "$WORK/data" 2>"$WORK/srv.log" &
SRV=$!
trap 'kill $SRV 2>/dev/null || true; wait $SRV 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
  curl -fsS "$BASE/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
curl -fsS "$BASE/healthz" >/dev/null

json_field() { # json_field <field> — first string value of "field"
  sed -n "s/.*\"$1\": *\"\([^\"]*\)\".*/\1/p" | head -1
}

job_times() { # job_times <id> — "started_at finished_at" of a job
  local view
  view=$(curl -fsS "$BASE/v1/jobs/$1")
  echo "$(echo "$view" | json_field started_at) $(echo "$view" | json_field finished_at)"
}

restart_server() { # restart_server <log> — SIGTERM drain, restart on the same data dir
  kill -TERM $SRV
  wait $SRV 2>/dev/null || true
  "$WORK/samplealignsrv" -addr "127.0.0.1:$PORT" -p 3 -data-dir "$WORK/data" 2>"$1" &
  SRV=$!
  for _ in $(seq 1 100); do
    curl -fsS "$BASE/healthz" >/dev/null 2>&1 && break
    sleep 0.1
  done
  curl -fsS "$BASE/healthz" >/dev/null
}

check_times() { # check_times <when> — both jobs' times match the pre-restart ones
  [ "$(job_times "$ID")" = "$TIMES" ] || { echo "cold job times $(job_times "$ID") $1, want $TIMES"; exit 1; }
  [ "$(job_times "$HIT_ID")" = "$HIT_TIMES" ] || { echo "cache hit times $(job_times "$HIT_ID") $1, want $HIT_TIMES"; exit 1; }
}

echo "== submit =="
SUBMIT=$(curl -fsS --data-binary @"$WORK/in.fa" "$BASE/v1/jobs?procs=3")
ID=$(echo "$SUBMIT" | json_field id)
[ -n "$ID" ] || { echo "no job id in: $SUBMIT"; exit 1; }
echo "job $ID"

# Subscribe to the live event stream while the job runs; the stream
# replays history and ends itself on the job's terminal event.
curl -sN --max-time 30 "$BASE/v1/jobs/$ID/events" >"$WORK/events.txt" &
SSE=$!

echo "== poll =="
for _ in $(seq 1 600); do
  STATE=$(curl -fsS "$BASE/v1/jobs/$ID" | json_field state)
  case "$STATE" in
    done) break ;;
    failed|canceled) echo "job ended $STATE"; curl -fsS "$BASE/v1/jobs/$ID"; exit 1 ;;
    *) sleep 0.1 ;;
  esac
done
[ "$STATE" = done ] || { echo "job stuck in $STATE"; exit 1; }

echo "== fetch + diff against batch CLI =="
curl -fsS "$BASE/v1/jobs/$ID/result" -o "$WORK/http.fa"
diff "$WORK/batch.fa" "$WORK/http.fa"
echo "byte-identical to samplealign output"

echo "== live events: SSE stream carried the job to its terminal state =="
wait $SSE || true
grep -q '^event: stage' "$WORK/events.txt" || { echo "no stage event on the stream"; cat "$WORK/events.txt"; exit 1; }
grep -q '^event: rank' "$WORK/events.txt" || { echo "no rank event on the stream"; cat "$WORK/events.txt"; exit 1; }
grep -q '^event: done' "$WORK/events.txt" || { echo "no terminal event on the stream"; cat "$WORK/events.txt"; exit 1; }
grep -q "\"job\":\"$ID\"" "$WORK/events.txt" || { echo "stream events not tagged with job id"; exit 1; }
echo "SSE stream delivered stage, rank and terminal events"

echo "== trace: span tree covers every pipeline stage =="
curl -fsS "$BASE/v1/jobs/$ID/trace" -o "$WORK/trace.json"
stage_duration() { # stage_duration <stage> — first duration_ns of the named span
  grep -A2 "\"name\": \"$1\"" "$WORK/trace.json" | sed -n 's/.*"duration_ns": \([0-9]*\).*/\1/p' | head -1
}
for STAGE in distmatrix guidetree decompose bucketalign merge; do
  D=$(stage_duration "$STAGE")
  [ -n "$D" ] || { echo "stage $STAGE missing from trace"; cat "$WORK/trace.json"; exit 1; }
  [ "$D" -gt 0 ] || { echo "stage $STAGE has non-positive duration ${D}ns"; exit 1; }
done
grep -q '"trace_id": "t' "$WORK/trace.json" || { echo "trace document has no trace id"; exit 1; }
TRACE_ID=$(curl -fsS "$BASE/v1/jobs/$ID" | json_field trace_id)
[ -n "$TRACE_ID" ] || { echo "job status carries no trace_id"; exit 1; }
echo "trace $TRACE_ID: all five stages present with positive durations"

echo "== cache: identical resubmission is served instantly =="
RESUBMIT=$(curl -fsS --data-binary @"$WORK/in.fa" "$BASE/v1/jobs?procs=3")
echo "$RESUBMIT" | grep -q '"cached": true' || { echo "resubmission missed the cache: $RESUBMIT"; exit 1; }
echo "$RESUBMIT" | grep -q '"state": "done"' || { echo "cached job not done: $RESUBMIT"; exit 1; }
HIT_ID=$(echo "$RESUBMIT" | json_field id)

echo "== sync endpoint =="
curl -fsS --data-binary @"$WORK/in.fa" "$BASE/v1/align?procs=3" -o "$WORK/sync.fa"
diff "$WORK/batch.fa" "$WORK/sync.fa"

echo "== default procs cap: started without -max-procs, procs=65 is refused =="
CODE=$(curl -sS -o "$WORK/procs65.json" -w '%{http_code}' --data-binary @"$WORK/in.fa" "$BASE/v1/jobs?procs=65")
[ "$CODE" = 400 ] || { echo "procs=65 answered $CODE, want 400"; cat "$WORK/procs65.json"; exit 1; }
echo "procs=65 refused with 400 (the default cap of 64 the daemon shares with the library)"

echo "== batch endpoint: many inputs in one request =="
# Two inputs: in.fa is already cached (a batch member may be served
# terminal straight from the cache) and in2.fa is fresh work. Both ride
# one POST and their submit records ride one journal commit group.
"$WORK/seqgen" -kind family -n 40 -len 80 -seed 7 -out "$WORK/in2.fa"
"$WORK/samplealign" -in "$WORK/in2.fa" -p 3 -out "$WORK/batch2.fa"
python3 - "$WORK/in.fa" "$WORK/in2.fa" >"$WORK/batchreq.json" <<'PY'
import json, sys
inputs = [{"fasta": open(p).read()} for p in sys.argv[1:]]
json.dump({"inputs": inputs}, sys.stdout)
PY
BATCH=$(curl -fsS -H 'Content-Type: application/json' \
  --data-binary @"$WORK/batchreq.json" "$BASE/v1/batch?procs=3")
mapfile -t BIDS < <(echo "$BATCH" | grep -o '"id": *"[^"]*"' | sed 's/.*"\(j[^"]*\)"/\1/')
[ "${#BIDS[@]}" -eq 2 ] || { echo "batch returned ${#BIDS[@]} job ids, want 2: $BATCH"; exit 1; }
echo "$BATCH" | grep -q '"cached": true' || { echo "cached member not served from cache: $BATCH"; exit 1; }
for _ in $(seq 1 600); do
  BSTATE=$(curl -fsS "$BASE/v1/jobs/${BIDS[1]}" | json_field state)
  case "$BSTATE" in
    done) break ;;
    failed|canceled) echo "batch member ended $BSTATE"; curl -fsS "$BASE/v1/jobs/${BIDS[1]}"; exit 1 ;;
    *) sleep 0.1 ;;
  esac
done
[ "$BSTATE" = done ] || { echo "batch member stuck in $BSTATE"; exit 1; }
curl -fsS "$BASE/v1/jobs/${BIDS[1]}/result" -o "$WORK/batchout.fa"
diff "$WORK/batch2.fa" "$WORK/batchout.fa"
echo "batch member byte-identical to samplealign output"

echo "== metrics sanity =="
METRICS=$(curl -fsS "$BASE/metrics")
echo "$METRICS" | grep -q '^samplealign_cache_hits_total [1-9]' || { echo "no cache hits recorded"; exit 1; }
echo "$METRICS" | grep -q '^samplealign_jobs_completed_total' || { echo "no completion counter"; exit 1; }
echo "$METRICS" | grep -q '^samplealign_store_entries [1-9]' || { echo "result not persisted to the store"; exit 1; }
for STAGE in distmatrix guidetree decompose bucketalign merge; do
  echo "$METRICS" | grep -q "^samplealign_stage_seconds_count{stage=\"$STAGE\"} [1-9]" \
    || { echo "no samplealign_stage_seconds series for stage $STAGE"; exit 1; }
done
echo "$METRICS" | grep -q '^samplealign_comm_sent_bytes_total [0-9]' || { echo "no comm sent counter"; exit 1; }
echo "$METRICS" | grep -q '^samplealign_comm_recv_bytes_total [0-9]' || { echo "no comm recv counter"; exit 1; }
echo "$METRICS" | grep -q '^samplealign_batch_requests_total [1-9]' || { echo "no batch request counter"; exit 1; }
echo "$METRICS" | grep -q '^samplealign_batch_jobs_total [2-9]' || { echo "batch jobs not counted"; exit 1; }
echo "$METRICS" | grep -q '^samplealign_journal_fsyncs_total [1-9]' || { echo "no journal fsync counter"; exit 1; }
echo "$METRICS" | grep -q '^samplealign_journal_flushed_records_total [1-9]' || { echo "no journal flushed-records counter"; exit 1; }
echo "$METRICS" | grep -q '^samplealign_journal_group_records_bucket' || { echo "no journal group-size histogram"; exit 1; }

TIMES=$(job_times "$ID")
HIT_TIMES=$(job_times "$HIT_ID")
for T in "$TIMES" "$HIT_TIMES"; do
  case "$T" in " "*|*" ") echo "a job lacks started_at or finished_at: '$T'"; exit 1 ;; esac
done

echo "== restart recovery: stop (SIGTERM drain), restart on the same data dir =="
restart_server "$WORK/srv2.log"
grep -q 'journal recovery complete' "$WORK/srv2.log" || { echo "no recovery log line"; cat "$WORK/srv2.log"; exit 1; }
grep -q 'clean_shutdown=true' "$WORK/srv2.log" || { echo "shutdown was not journaled as clean"; cat "$WORK/srv2.log"; exit 1; }

echo "== pre-restart job is still visible; its result streams from disk =="
STATE2=$(curl -fsS "$BASE/v1/jobs/$ID" | json_field state)
[ "$STATE2" = done ] || { echo "recovered job state = $STATE2, want done"; exit 1; }
curl -fsS "$BASE/v1/jobs/$ID/result" -o "$WORK/recovered.fa"
diff "$WORK/batch.fa" "$WORK/recovered.fa"
echo "recovered result byte-identical to samplealign output"
check_times "after the restart"
echo "started_at and finished_at unchanged"

echo "== persisted trace survives the restart =="
curl -fsS "$BASE/v1/jobs/$ID/trace" -o "$WORK/trace2.json"
for STAGE in distmatrix guidetree decompose bucketalign merge; do
  grep -q "\"name\": \"$STAGE\"" "$WORK/trace2.json" \
    || { echo "stage $STAGE missing from recovered trace"; cat "$WORK/trace2.json"; exit 1; }
done
diff "$WORK/trace.json" "$WORK/trace2.json" >/dev/null \
  || { echo "recovered trace differs from the original"; exit 1; }
echo "recovered trace byte-identical to the original"
[ ! -e "$WORK/data/traces" ] || { echo "data dir has a traces/ store; traces belong in the result files"; exit 1; }

echo "== identical resubmission after restart hits the disk store =="
RESUBMIT2=$(curl -fsS --data-binary @"$WORK/in.fa" "$BASE/v1/jobs?procs=3")
echo "$RESUBMIT2" | grep -q '"cached": true' || { echo "post-restart resubmission missed: $RESUBMIT2"; exit 1; }

echo "== metrics: zero alignments recomputed since restart =="
METRICS2=$(curl -fsS "$BASE/metrics")
echo "$METRICS2" | grep -q '^samplealign_cache_misses_total 0$' || { echo "restart recomputed an alignment"; echo "$METRICS2" | grep ^samplealign_cache; exit 1; }
echo "$METRICS2" | grep -q '^samplealign_results_streamed_total [1-9]' || { echo "recovered result was not streamed from disk"; exit 1; }
echo "$METRICS2" | grep -q '^samplealign_store_hits_total [1-9]' || { echo "resubmission did not hit the disk store"; exit 1; }

echo "== second restart: job times replay from the compacted journal =="
restart_server "$WORK/srv3.log"
check_times "after the second restart"
echo "started_at and finished_at unchanged after two restarts"

echo "== cluster mode: 3 workers + coordinator (p=4) =="
"$WORK/samplealign" -in "$WORK/in.fa" -p 4 -out "$WORK/batch4.fa"
PORT2=$((PORT + 1))
BASE2="http://127.0.0.1:$PORT2"
WM_PORT=$((PORT + 9))
PIDS="$SRV"
trap 'kill $PIDS 2>/dev/null || true; wait 2>/dev/null || true' EXIT
CTRLS=""
for i in 1 2 3; do
  METRICS_FLAG=""
  [ "$i" = 1 ] && METRICS_FLAG="-metrics-addr 127.0.0.1:$WM_PORT"
  # shellcheck disable=SC2086  # METRICS_FLAG is two words on purpose
  "$WORK/samplealignd" -worker-ctrl "127.0.0.1:$((PORT + 10 + i))" \
    $METRICS_FLAG 2>"$WORK/worker$i.log" &
  PIDS="$PIDS $!"
  CTRLS="$CTRLS,127.0.0.1:$((PORT + 10 + i))"
done
"$WORK/samplealignsrv" -addr "127.0.0.1:$PORT2" -cluster "${CTRLS#,}" \
  2>"$WORK/srv-cluster.log" &
PIDS="$PIDS $!"
for _ in $(seq 1 100); do
  curl -fsS "$BASE2/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
curl -fsS "$BASE2/healthz" >/dev/null

CSUBMIT=$(curl -fsS --data-binary @"$WORK/in.fa" "$BASE2/v1/jobs")
CID=$(echo "$CSUBMIT" | json_field id)
[ -n "$CID" ] || { echo "no cluster job id in: $CSUBMIT"; exit 1; }
echo "cluster job $CID"
curl -sN --max-time 60 "$BASE2/v1/jobs/$CID/events" >"$WORK/cevents.txt" &
CSSE=$!
for _ in $(seq 1 600); do
  CSTATE=$(curl -fsS "$BASE2/v1/jobs/$CID" | json_field state)
  case "$CSTATE" in
    done) break ;;
    failed | canceled)
      echo "cluster job ended $CSTATE"
      curl -fsS "$BASE2/v1/jobs/$CID"
      cat "$WORK/srv-cluster.log"
      exit 1
      ;;
    *) sleep 0.1 ;;
  esac
done
[ "$CSTATE" = done ] || { echo "cluster job stuck in $CSTATE"; exit 1; }
curl -fsS "$BASE2/v1/jobs/$CID/result" -o "$WORK/cluster.fa"
diff "$WORK/batch4.fa" "$WORK/cluster.fa"
echo "cluster output byte-identical to p=4 batch CLI"

echo "== cluster live events =="
wait $CSSE || true
grep -q '^event: stage' "$WORK/cevents.txt" || { echo "no stage event on the cluster stream"; cat "$WORK/cevents.txt"; exit 1; }
grep -q '^event: done' "$WORK/cevents.txt" || { echo "no terminal event on the cluster stream"; cat "$WORK/cevents.txt"; exit 1; }
grep -q "\"job\":\"$CID\"" "$WORK/cevents.txt" || { echo "cluster stream events not tagged with job id"; exit 1; }
echo "live SSE events captured during the cluster run"

echo "== distributed trace covers every rank =="
curl -fsS "$BASE2/v1/jobs/$CID/trace" -o "$WORK/ctrace.json"
for R in 0 1 2 3; do
  grep -A1 '"key": "rank"' "$WORK/ctrace.json" | grep -q "\"value\": \"$R\"" \
    || { echo "rank $R missing from the cluster trace"; exit 1; }
done
NWORKERS=$(grep -c '"name": "worker"' "$WORK/ctrace.json")
[ "$NWORKERS" -eq 3 ] || { echo "cluster trace has $NWORKERS worker spans, want 3"; exit 1; }
for STAGE in decompose bucketalign merge; do
  N=$(grep -c "\"name\": \"$STAGE\"" "$WORK/ctrace.json")
  [ "$N" -eq 4 ] || { echo "stage $STAGE appears $N times in the cluster trace, want one per rank"; exit 1; }
done
echo "one span tree over all 4 ranks (3 grafted worker subtrees)"

echo "== cluster mode: two inputs at once =="
"$WORK/seqgen" -kind family -n 60 -len 90 -seed 8 -out "$WORK/in3.fa"
for F in in2 in3; do
  "$WORK/samplealign" -in "$WORK/$F.fa" -p 4 -out "$WORK/batch4-$F.fa"
done
curl -fsS --max-time 120 --data-binary @"$WORK/in2.fa" "$BASE2/v1/align" -o "$WORK/cluster-in2.fa" &
C2=$!
curl -fsS --max-time 120 --data-binary @"$WORK/in3.fa" "$BASE2/v1/align" -o "$WORK/cluster-in3.fa" &
C3=$!
wait $C2
wait $C3
for F in in2 in3; do
  diff "$WORK/batch4-$F.fa" "$WORK/cluster-$F.fa"
done
echo "both concurrent cluster jobs byte-identical to p=4 batch CLI"

echo "== worker -metrics-addr listener =="
WMETRICS=$(curl -fsS "http://127.0.0.1:$WM_PORT/metrics")
echo "$WMETRICS" | grep -q '^samplealign_worker_jobs_total [1-9]' || { echo "worker served no jobs per its own metrics"; exit 1; }
echo "$WMETRICS" | grep -q '^samplealign_stage_seconds_count{stage="bucketalign"} [1-9]' \
  || { echo "no rank-local stage histogram on the worker"; exit 1; }
echo "$WMETRICS" | grep -q '^samplealign_kernel_striped_calls_total [0-9]' || { echo "no kernel tally on the worker"; exit 1; }
echo "worker exposes rank-local stage histograms and kernel tallies"

echo "server smoke OK"
