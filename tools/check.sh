#!/usr/bin/env bash
# Tier-1 gate for Gamma: configure, build, run the full test suite, then the
# smoke arms, then rebuild under the sanitizers and run the suites each one
# is best at catching.
#
# Smoke arms (each runs even if an earlier arm failed; any failure makes the
# final exit nonzero):
#   resume  SIGKILL a study once its journal holds a record (and before it
#           holds them all), --resume must reproduce the uninterrupted
#           output and GMST store byte-for-byte
#   store   build a .gmst, query it (bytes == JSON analysis path), corrupt a
#           copy (structured crc_mismatch, never a crash)
#   trace   record spans, aggregate with `gamma trace`, span stream and
#           --out files byte-identical across --jobs
#   serve   start the daemon on an ephemeral port, query it through `gamma
#           client` (bytes == `gamma store query`), submit a study whose
#           seed needs 16 digits (store == `gamma study --store-out`),
#           SIGTERM, assert a clean drain and exit 0
#   chaos   SIGKILL the daemon and restart it on the same port, first under
#           a dead-port window and then under concurrent retry-armed client
#           load; every `gamma client query --retry` must succeed with bytes
#           identical to `gamma store query`
#   shard   sharded study SIGKILLed on the same journal trigger, --resume
#           reuses the published shards, shards re-merged standalone in
#           reverse order, and every `gamma store query` report over the
#           merged store byte-diffed against the unsharded build
#   pulse   daemon at --slow-ms 0 with --slow-log armed: every request must
#           land in the JSONL sink with the full 16-field schema, a
#           submitted study's study_status RPC must reach "done", and
#           `gamma top --once --json` must emit a parseable sample
#   hostile an unknown --country, a non-numeric --jobs, a suffixed
#           --limit, a flag the command does not read (each input a command
#           once dropped silently), a study rule broken (`--resume` without
#           `--checkpoint`, a missing fault plan), `har --country ZZ`, an
#           --out path under a regular file and `study --shard-dir D --out O`
#           (O never made) must each fail with a structured error (exit
#           nonzero, below 128), never a signal; a port file holding "1abc"
#           and `client ping --retry-base-ms nan` must exit 2 without
#           dialing, as must `store query --report` beside a scan flag;
#           `gamma run --out` into a missing directory must create it, and
#           a new process must answer the policy report over a scale store
#
# Sanitizers:
#   tsan  -> shared-state suites (thread pool, parallel study runner,
#            metrics, tracer, serve daemon, synthetic country table)
#   asan  -> fault-plane + parser + store + serve suites (heap misuse in
#            degraded paths)
#   ubsan -> the same suites (UB in backoff arithmetic, hop parsing, mmap
#            reads, frame decoding)
#
# Usage: tools/check.sh [--skip-san]
#   --skip-san   run only the plain build + ctest + smoke arms
#   --skip-tsan  (historical alias for --skip-san)
#
# Build + ctest failures abort immediately; smoke-arm and sanitizer failures
# are collected so one broken arm cannot mask another, and the script exits
# nonzero if ANY arm failed — even when every later arm passed. (The old
# layout leaned on `set -e` alone, which is silently disabled inside any
# function or subshell called from an `if`/`&&`/`||` context, so a
# mid-arm failure could fall through and the run still exit 0.)
#
# Build trees:
#   build/        plain tier-1 build (reused if already configured)
#   build-tsan/   GAMMA_SANITIZE=thread    (concurrency suites)
#   build-asan/   GAMMA_SANITIZE=address   (resilience suites)
#   build-ubsan/  GAMMA_SANITIZE=undefined (resilience suites)
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"
SKIP_SAN=0
[[ "${1:-}" == "--skip-san" || "${1:-}" == "--skip-tsan" ]] && SKIP_SAN=1

GAMMA=build/tools/gamma
SMOKE="$(mktemp -d)"
trap 'rm -rf "$SMOKE"' EXIT
FAILURES=()

# Run one arm in a subshell with errexit live, without letting the parent's
# errexit kill the script before we record the result. The subshell must NOT
# be the condition of an `if` — that would suppress errexit inside it and
# reintroduce exactly the propagation bug this structure exists to fix.
run_arm() {
  local name="$1"; shift
  echo "== ${name} =="
  set +e
  ( set -euo pipefail; "$@" )
  local rc=$?
  set -e
  if [[ $rc -ne 0 ]]; then
    echo "   ARM FAILED: ${name} (exit ${rc})" >&2
    FAILURES+=("$name")
  fi
  return 0
}

# Run `gamma ARGS...` in the background and SIGKILL it as soon as JOURNAL
# holds its header and at least one record, so the kill lands mid-study on
# any host. Fails if the journal already held all RECORDS records by then:
# an arm that resumes nothing must not pass silently.
kill_on_journal_progress() {  # JOURNAL RECORDS ARGS...
  local journal="$1" records="$2"; shift 2
  "$GAMMA" "$@" >/dev/null &
  local pid=$! lines=0 polls=0
  until [[ $lines -ge 2 ]]; do
    polls=$((polls + 1))
    if [[ $polls -gt 12000 ]]; then
      kill -KILL "$pid" 2>/dev/null || true
      echo "   ERROR: $journal held no record after 60s" >&2
      return 1
    fi
    sleep 0.005
    [[ -f "$journal" ]] && lines="$(wc -l < "$journal")"
  done
  kill -KILL "$pid" 2>/dev/null || true
  wait "$pid" 2>/dev/null || true
  lines="$(wc -l < "$journal")"
  echo "   killed with $((lines - 1)) of $records records journaled"
  if [[ $((lines - 1)) -ge $records ]]; then
    echo "   ERROR: the study journaled every record before the kill" >&2
    return 1
  fi
}

arm_resume() {
  cat > "$SMOKE/plan.json" <<'EOF'
{
  "dns": {"timeout": 0.1},
  "traceroute": {"timeout": 0.2, "hop_loss": 0.1},
  "browser": {"slow": 0.1},
  "atlas": {"unavailable": 0.2}
}
EOF
  mkdir -p "$SMOKE/uninterrupted" "$SMOKE/resumed"
  "$GAMMA" study --seed 33 --jobs 1 --fault-plan "$SMOKE/plan.json" \
    --out "$SMOKE/uninterrupted" --store-out "$SMOKE/uninterrupted.gmst" >/dev/null
  # SIGKILL the same study partway through (no destructors, no flush beyond
  # the journal's own per-record flush) ...
  kill_on_journal_progress "$SMOKE/ckpt/study-33.jsonl" 23 study --seed 33 --jobs 1 \
    --fault-plan "$SMOKE/plan.json" --checkpoint "$SMOKE/ckpt"
  # ... then --resume must reproduce the uninterrupted output and store
  # byte-for-byte.
  "$GAMMA" study --seed 33 --jobs 1 --fault-plan "$SMOKE/plan.json" \
    --checkpoint "$SMOKE/ckpt" --resume --out "$SMOKE/resumed" \
    --store-out "$SMOKE/resumed.gmst" | sed 's/^/   /'
  diff -r "$SMOKE/uninterrupted" "$SMOKE/resumed"
  cmp "$SMOKE/uninterrupted.gmst" "$SMOKE/resumed.gmst"
  echo "   resumed output and store identical to uninterrupted run"
}

arm_store() {
  mkdir -p "$SMOKE/store"
  "$GAMMA" study --seed 41 --jobs 2 --country US --country GB --country IN \
    --out "$SMOKE/store" --store-out "$SMOKE/store/study.gmst" >/dev/null
  # The mapped store must answer the summary with the exact bytes the JSON
  # analysis path wrote.
  "$GAMMA" store query "$SMOKE/store/study.gmst" --report summary \
    --out "$SMOKE/store/store-summary.json" >/dev/null
  diff "$SMOKE/store/study-summary.json" "$SMOKE/store/store-summary.json"
  echo "   store summary byte-identical to the JSON analysis path"
  # A flipped data byte must be a structured diagnosis, never a crash.
  cp "$SMOKE/store/study.gmst" "$SMOKE/store/corrupt.gmst"
  printf '\xff' | dd of="$SMOKE/store/corrupt.gmst" bs=1 seek=100 conv=notrunc status=none
  if "$GAMMA" store query "$SMOKE/store/corrupt.gmst" --report summary \
      >"$SMOKE/store/corrupt.out" 2>"$SMOKE/store/corrupt.err"; then
    echo "   ERROR: corrupted store was accepted" >&2
    return 1
  fi
  grep -q "crc_mismatch" "$SMOKE/store/corrupt.err"
  echo "   corrupted store rejected with a structured crc_mismatch error"
}

arm_trace() {
  mkdir -p "$SMOKE/trace"
  "$GAMMA" study --seed 21 --jobs 1 --country US --country GB --country IN \
    --trace-out "$SMOKE/trace/t1.json" --trace-jsonl "$SMOKE/trace/s1.jsonl" \
    --log-json "$SMOKE/trace/log.jsonl" --out "$SMOKE/trace/out1" >/dev/null
  test -s "$SMOKE/trace/log.jsonl"
  # The Chrome export must be valid JSON that the reporter can aggregate.
  "$GAMMA" trace "$SMOKE/trace/t1.json" --out "$SMOKE/trace/report.json" >/dev/null
  grep -q '"categories"' "$SMOKE/trace/report.json"
  grep -q '"critical_paths"' "$SMOKE/trace/report.json"
  # The JSONL stream parses through the same reporter ...
  "$GAMMA" trace "$SMOKE/trace/s1.jsonl" >/dev/null
  # ... and a parallel rerun, which also writes its --out files in parallel,
  # must reproduce the stream and every file byte-for-byte.
  "$GAMMA" study --seed 21 --jobs 4 --country US --country GB --country IN \
    --trace-jsonl "$SMOKE/trace/s4.jsonl" --out "$SMOKE/trace/out4" >/dev/null
  diff "$SMOKE/trace/s1.jsonl" "$SMOKE/trace/s4.jsonl"
  diff -r "$SMOKE/trace/out1" "$SMOKE/trace/out4"
  echo "   span stream and --out files byte-identical for --jobs 1 and --jobs 4; report valid"
}

arm_serve() {
  mkdir -p "$SMOKE/serve"
  "$GAMMA" study --seed 47 --jobs 2 --country US --country GB \
    --store-out "$SMOKE/serve/study.gmst" >/dev/null
  # Ephemeral port (GAMMA_SERVE_PORT=0 convention): parallel check runs can
  # never collide on a listen address.
  # --chunk-bytes 256: force even mid-size reports onto the chunked-reply
  # wire path so the flows diff below covers reassembly.
  "$GAMMA" serve --port 0 --port-file "$SMOKE/serve/port" \
    --store "$SMOKE/serve/study.gmst" --checkpoint "$SMOKE/serve/ckpt" \
    --chunk-bytes 256 \
    > "$SMOKE/serve/daemon.log" 2>&1 &
  local daemon=$!
  trap 'kill -9 '"$daemon"' 2>/dev/null || true' EXIT
  # Wait for the daemon to publish its bound port.
  local tries=0
  until [[ -s "$SMOKE/serve/port" ]]; do
    if ! kill -0 "$daemon" 2>/dev/null; then
      echo "   ERROR: daemon died before binding:" >&2
      sed 's/^/   | /' "$SMOKE/serve/daemon.log" >&2
      return 1
    fi
    tries=$((tries + 1))
    [[ $tries -gt 100 ]] && { echo "   ERROR: no port file after 10s" >&2; return 1; }
    sleep 0.1
  done
  echo "   daemon up on port $(cat "$SMOKE/serve/port")"
  "$GAMMA" client ping --port-file "$SMOKE/serve/port" >/dev/null
  # A served query must be byte-identical to the direct store path.
  "$GAMMA" client query --port-file "$SMOKE/serve/port" --report summary \
    --out "$SMOKE/serve/served.json" >/dev/null
  "$GAMMA" store query "$SMOKE/serve/study.gmst" --report summary \
    --out "$SMOKE/serve/direct.json" >/dev/null
  diff "$SMOKE/serve/served.json" "$SMOKE/serve/direct.json"
  echo "   served summary byte-identical to \`gamma store query\`"
  # The daemon was started with a small --chunk-bytes, so the flows report
  # streams as chunked frames — this diff exercises the client's reassembly
  # path end to end, not just the single-frame envelope.
  "$GAMMA" client query --port-file "$SMOKE/serve/port" --report flows \
    --out "$SMOKE/serve/served_flows.json" >/dev/null
  "$GAMMA" store query "$SMOKE/serve/study.gmst" --report flows \
    --out "$SMOKE/serve/direct_flows.json" >/dev/null
  diff "$SMOKE/serve/served_flows.json" "$SMOKE/serve/direct_flows.json"
  echo "   served flows (chunked wire) byte-identical after reassembly"
  # A submitted study is the study `gamma study` runs, down to a seed past
  # ten digits: the wire carries every count below 2^53 exactly.
  "$GAMMA" study --country NZ --seed 1000000000000003 \
    --store-out "$SMOKE/serve/direct_seed.gmst" >/dev/null
  "$GAMMA" client submit --port-file "$SMOKE/serve/port" --country NZ \
    --seed 1000000000000003 --store-out "$SMOKE/serve/served_seed.gmst" >/dev/null
  cmp "$SMOKE/serve/direct_seed.gmst" "$SMOKE/serve/served_seed.gmst"
  echo "   submitted study (seed 1000000000000003) wrote the same store as \`gamma study\`"
  # Slow-reader probe: pour garbage at the daemon from a client that never
  # reads its replies, for up to 3 seconds. The reactor plane must shed it
  # (bad_json floods to a non-reader become a slow-reader disconnect) while
  # the daemon keeps answering everyone else.
  timeout 3 bash -c "cat /dev/zero > /dev/tcp/127.0.0.1/$(cat "$SMOKE/serve/port")" \
    2>/dev/null || true
  "$GAMMA" client ping --port-file "$SMOKE/serve/port" >/dev/null
  "$GAMMA" client query --port-file "$SMOKE/serve/port" --report summary \
    --out "$SMOKE/serve/served2.json" >/dev/null
  diff "$SMOKE/serve/served2.json" "$SMOKE/serve/direct.json"
  echo "   daemon healthy after a 3s slow-reader/garbage flood"
  # SIGTERM must drain gracefully: flush, close, exit 0.
  kill -TERM "$daemon"
  local rc=0
  wait "$daemon" || rc=$?
  trap - EXIT
  if [[ $rc -ne 0 ]]; then
    echo "   ERROR: daemon exited $rc on SIGTERM:" >&2
    sed 's/^/   | /' "$SMOKE/serve/daemon.log" >&2
    return 1
  fi
  grep -q "drained" "$SMOKE/serve/daemon.log"
  echo "   SIGTERM drained cleanly; daemon exited 0"
}

arm_chaos() {
  mkdir -p "$SMOKE/chaos"
  "$GAMMA" study --seed 53 --jobs 2 --country US --country GB \
    --store-out "$SMOKE/chaos/study.gmst" >/dev/null
  # The byte-identity bar every healed reply must clear.
  "$GAMMA" store query "$SMOKE/chaos/study.gmst" --report summary \
    --out "$SMOKE/chaos/direct.json" >/dev/null
  local retry=(--retry 12 --retry-base-ms 25 --retry-max-ms 400 --retry-deadline-ms 20000)

  start_daemon() {  # $1 = port (0 = ephemeral)
    "$GAMMA" serve --port "$1" --port-file "$SMOKE/chaos/port" \
      --store "$SMOKE/chaos/study.gmst" >> "$SMOKE/chaos/daemon.log" 2>&1 &
    DAEMON=$!
    trap 'kill -9 '"$DAEMON"' 2>/dev/null || true' EXIT
  }
  rm -f "$SMOKE/chaos/port"
  start_daemon 0
  local tries=0
  until [[ -s "$SMOKE/chaos/port" ]]; do
    if ! kill -0 "$DAEMON" 2>/dev/null; then
      echo "   ERROR: daemon died before binding:" >&2
      sed 's/^/   | /' "$SMOKE/chaos/daemon.log" >&2
      return 1
    fi
    tries=$((tries + 1))
    [[ $tries -gt 100 ]] && { echo "   ERROR: no port file after 10s" >&2; return 1; }
    sleep 0.1
  done
  local port; port="$(cat "$SMOKE/chaos/port")"
  echo "   daemon up on port $port"

  # Phase 1: kill the daemon FIRST, aim retry-armed clients at the dead
  # port, restart while they back off. Deterministic coverage of the
  # connect-retry path: every client must dial through the outage and return
  # the exact direct-query bytes.
  kill -9 "$DAEMON"
  wait "$DAEMON" 2>/dev/null || true
  local pids=() i
  for i in 1 2 3 4 5; do
    ( "$GAMMA" client query --port "$port" --report summary "${retry[@]}" \
        --out "$SMOKE/chaos/dead_$i.json" >/dev/null
      diff "$SMOKE/chaos/dead_$i.json" "$SMOKE/chaos/direct.json" ) &
    pids+=($!)
  done
  sleep 0.3
  start_daemon "$port"
  local rc=0 p
  for p in "${pids[@]}"; do wait "$p" || rc=1; done
  [[ $rc -eq 0 ]] || { echo "   ERROR: a client surfaced the dead-port window" >&2; return 1; }
  echo "   5 clients healed through a dead-port window (byte diff 0)"

  # Phase 2: SIGKILL + restart mid-load. Five concurrent query loops keep
  # running across the crash; with --retry armed none may fail and none may
  # drift a byte from the direct store path.
  pids=()
  for i in 1 2 3 4 5; do
    ( for q in $(seq 1 30); do
        "$GAMMA" client query --port "$port" --report summary "${retry[@]}" \
          --out "$SMOKE/chaos/live_${i}_${q}.json" >/dev/null
        diff "$SMOKE/chaos/live_${i}_${q}.json" "$SMOKE/chaos/direct.json"
      done ) &
    pids+=($!)
  done
  sleep 0.3
  kill -9 "$DAEMON"
  wait "$DAEMON" 2>/dev/null || true
  sleep 0.2
  start_daemon "$port"
  rc=0
  for p in "${pids[@]}"; do wait "$p" || rc=1; done
  [[ $rc -eq 0 ]] || { echo "   ERROR: the mid-load SIGKILL leaked through to a client" >&2; return 1; }
  echo "   150 queries survived a mid-load SIGKILL + restart (byte diff 0)"

  # SIGTERM only once the restarted daemon has answered: a signal sent
  # between bash's fork and the daemon's exec can be lost. Then a bounded wait.
  "$GAMMA" client ping --port "$port" "${retry[@]}" >/dev/null
  kill -TERM "$DAEMON"
  tries=0
  while kill -0 "$DAEMON" 2>/dev/null; do
    tries=$((tries + 1))
    if [[ $tries -gt 100 ]]; then
      echo "   ERROR: daemon still running 10s after SIGTERM:" >&2
      sed 's/^/   | /' "$SMOKE/chaos/daemon.log" >&2
      return 1
    fi
    sleep 0.1
  done
  wait "$DAEMON" || true
  trap - EXIT
  echo "   restarted daemon drained on SIGTERM"
}

arm_shard() {
  mkdir -p "$SMOKE/shard"
  # Unsharded reference: the bytes every later diff must reproduce.
  "$GAMMA" study --seed 61 --jobs 2 \
    --store-out "$SMOKE/shard/legacy.gmst" >/dev/null
  # Sharded run, SIGKILLed mid-study: the journal and any published shards
  # are the only thing the resume below may build on.
  kill_on_journal_progress "$SMOKE/shard/ckpt/study-61.jsonl" 23 study --seed 61 --jobs 1 \
    --shard-dir "$SMOKE/shard/shards" --checkpoint "$SMOKE/shard/ckpt"
  local published=0
  published="$(ls "$SMOKE/shard/shards" | wc -l)"
  echo "   $published shards published before the kill"
  # Resume: reuse intact shards (the CLI prints how many), re-measure the
  # rest, merge — byte-identical to the unsharded store.
  "$GAMMA" study --seed 61 --jobs 4 \
    --shard-dir "$SMOKE/shard/shards" --checkpoint "$SMOKE/shard/ckpt" --resume \
    --store-out "$SMOKE/shard/merged.gmst" | sed 's/^/   /'
  cmp "$SMOKE/shard/legacy.gmst" "$SMOKE/shard/merged.gmst"
  echo "   resumed + merged store byte-identical to the unsharded build"
  # Standalone re-merge in reverse argv order: same bytes (order-insensitive).
  # shellcheck disable=SC2046
  "$GAMMA" store merge "$SMOKE/shard/remerged.gmst" \
    $(ls -r "$SMOKE/shard/shards"/shard-*.gmst) | sed 's/^/   /'
  cmp "$SMOKE/shard/legacy.gmst" "$SMOKE/shard/remerged.gmst"
  echo "   reverse-order re-merge byte-identical"
  # Every paper report over the merged store must match the unsharded path.
  local report
  for report in summary prevalence policy per-site flows coverage funnel; do
    "$GAMMA" store query "$SMOKE/shard/legacy.gmst" --report "$report" \
      --out "$SMOKE/shard/legacy-$report.json" >/dev/null
    "$GAMMA" store query "$SMOKE/shard/merged.gmst" --report "$report" \
      --out "$SMOKE/shard/merged-$report.json" >/dev/null
    diff "$SMOKE/shard/legacy-$report.json" "$SMOKE/shard/merged-$report.json"
  done
  echo "   all 7 query reports byte-identical: sharded == unsharded"
}

arm_pulse() {
  mkdir -p "$SMOKE/pulse"
  "$GAMMA" study --seed 59 --jobs 2 --country US --country GB \
    --store-out "$SMOKE/pulse/study.gmst" >/dev/null
  # --slow-ms 0 makes every request a slow-log candidate, so the sink read
  # back below must account for the whole session, not a lucky outlier.
  "$GAMMA" serve --port 0 --port-file "$SMOKE/pulse/port" \
    --store "$SMOKE/pulse/study.gmst" --checkpoint "$SMOKE/pulse/ckpt" \
    --slow-ms 0 --slow-log "$SMOKE/pulse/slow.jsonl" \
    > "$SMOKE/pulse/daemon.log" 2>&1 &
  local daemon=$!
  trap 'kill -9 '"$daemon"' 2>/dev/null || true' EXIT
  local tries=0
  until [[ -s "$SMOKE/pulse/port" ]]; do
    if ! kill -0 "$daemon" 2>/dev/null; then
      echo "   ERROR: daemon died before binding:" >&2
      sed 's/^/   | /' "$SMOKE/pulse/daemon.log" >&2
      return 1
    fi
    tries=$((tries + 1))
    [[ $tries -gt 100 ]] && { echo "   ERROR: no port file after 10s" >&2; return 1; }
    sleep 0.1
  done
  echo "   daemon up on port $(cat "$SMOKE/pulse/port") (--slow-ms 0, slow-log armed)"
  "$GAMMA" client ping --port-file "$SMOKE/pulse/port" >/dev/null
  "$GAMMA" client query --port-file "$SMOKE/pulse/port" --report summary >/dev/null
  # Submit a study, then poll the progress RPC until the job lands.
  "$GAMMA" client submit --port-file "$SMOKE/pulse/port" --seed 59 \
    --country US > "$SMOKE/pulse/submit.json"
  tries=0
  local state=""
  while [[ "$state" != "done" ]]; do
    tries=$((tries + 1))
    [[ $tries -gt 300 ]] && { echo "   ERROR: study_status never reached done" >&2; return 1; }
    state="$("$GAMMA" client study_status --port-file "$SMOKE/pulse/port" \
      | python3 -c 'import json,sys; print(json.load(sys.stdin)["state"])')"
    sleep 0.1
  done
  echo "   study_status reached done after $tries polls"
  # One machine-readable dashboard sample must round-trip through a real
  # JSON parser with every section present.
  "$GAMMA" top --once --json --port-file "$SMOKE/pulse/port" > "$SMOKE/pulse/top.json"
  python3 - "$SMOKE/pulse/top.json" <<'EOF'
import json, sys
sample = json.load(open(sys.argv[1]))
for key in ("health", "rpc", "requests", "slowlog", "study"):
    assert key in sample, f"top sample missing {key!r}"
assert sample["health"]["state"] == "serving", sample["health"]
assert sample["study"]["state"] == "done", sample["study"]
EOF
  echo "   gamma top --once --json round-trips (serving, study done)"
  # SIGTERM joins every worker/reactor, so the slow log is complete after.
  kill -TERM "$daemon"
  local rc=0
  wait "$daemon" || rc=$?
  trap - EXIT
  [[ $rc -ne 0 ]] && { echo "   ERROR: daemon exited $rc on SIGTERM" >&2; return 1; }
  # The repo's own validator exits nonzero on any malformed line, and an
  # independent parser must agree on the 16-field schema.
  "$GAMMA" slowlog "$SMOKE/pulse/slow.jsonl" | sed 's/^/   /'
  python3 - "$SMOKE/pulse/slow.jsonl" <<'EOF'
import json, sys
fields = {"kind", "id", "session", "spec", "ok", "error", "inline",
          "queue_wait_ms", "handle_ms", "flush_ms", "total_ms",
          "reply_bytes", "chunks", "rate_limited", "backpressure", "delivered"}
n = 0
for line in open(sys.argv[1]):
    record = json.loads(line)
    missing = fields - record.keys()
    assert not missing, f"line {n + 1} missing {sorted(missing)}"
    n += 1
assert n >= 5, f"expected every request logged at --slow-ms 0, saw {n}"
print(f"   {n} slow-log records, all 16 schema fields present")
EOF
}

arm_hostile() {
  mkdir -p "$SMOKE/hostile"
  refused() {  # gamma arguments that must fail with a structured error
    local rc=0
    "$GAMMA" "$@" >/dev/null 2>"$SMOKE/hostile/err" || rc=$?
    if [[ $rc -eq 0 || $rc -ge 128 ]]; then
      echo "   ERROR: gamma $* exited $rc:" >&2
      sed 's/^/   | /' "$SMOKE/hostile/err" >&2
      return 1
    fi
    echo "   gamma $* -> exit $rc: $(head -1 "$SMOKE/hostile/err")"
  }
  refused study --country ZZ
  refused study --jobs garbage
  # Every process knows every synthetic "V.." country, so a process that did
  # not generate the scale world still answers its policy report.
  "$GAMMA" study --countries 3 --sites 30 --store-out "$SMOKE/hostile/scale.gmst" >/dev/null
  "$GAMMA" store query "$SMOKE/hostile/scale.gmst" --report policy \
    >"$SMOKE/hostile/policy.json"
  local code
  for code in V00 V01 V02; do grep -q "\"$code\"" "$SMOKE/hostile/policy.json"; done
  echo "   a new process reports policy over the scale store: V00, V01, V02"
  # Numeric flags parse strictly: a suffixed count or a NaN rate is a usage
  # error, not a silent 12 or NaN. No serve command runs here, so a parsing
  # bug cannot leave a daemon behind.
  refused store query "$SMOKE/hostile/scale.gmst" --report funnel --limit 12abc
  refused store query "$SMOKE/hostile/scale.gmst" --report funnel --rate nan
  # A flag the command does not read, or a study rule it cannot honour, is
  # refused before any work: none of these may exit 0 with the input dropped.
  refused run --country NZ --store-out "$SMOKE/hostile/run.gmst"
  refused store build --out "$SMOKE/hostile/b.gmst" --countries 3 --sites 30 \
    --fault-plan "$SMOKE/hostile/missing.json" --trace-out "$SMOKE/hostile/b.trace" --progress
  refused store build --out "$SMOKE/hostile/b.gmst" --resume
  refused study --table sites
  refused store query "$SMOKE/hostile/scale.gmst" --report funnel --seed 9 --jobs 3 \
    --fault-plan "$SMOKE/hostile/missing.json"
  refused audit --seed 5
  refused har --site google.com --country ZZ
  usage_error() {  # gamma arguments that must exit 2 before any dial
    local rc=0
    "$GAMMA" "$@" >/dev/null 2>"$SMOKE/hostile/err" || rc=$?
    if [[ $rc -ne 2 ]]; then
      echo "   ERROR: gamma $* exited $rc, want 2:" >&2
      sed 's/^/   | /' "$SMOKE/hostile/err" >&2
      return 1
    fi
    echo "   gamma $* -> exit 2: $(head -1 "$SMOKE/hostile/err")"
  }
  # A port file parses as strictly as --port, and a real-valued flag the
  # command reads as strictly as a count: "1abc" and NaN are usage errors
  # (exit 2), never a dial to port 1 (exit 1, which `refused` would accept).
  printf '1abc\n' > "$SMOKE/hostile/port"
  usage_error client ping --port-file "$SMOKE/hostile/port"
  usage_error client ping --port 1 --retry-base-ms nan
  # A report is one fixed paper table: a scan flag beside it is refused
  # before the store is opened, not dropped.
  usage_error store query "$SMOKE/hostile/scale.gmst" --report coverage --table countries \
    --where code=NZ --limit 1 --flows --group-by org
  # --out DIR is created before any work: a path under a regular file is
  # refused up front, and a missing directory is made.
  : > "$SMOKE/hostile/file"
  refused run --country NZ --out "$SMOKE/hostile/file/dir"
  "$GAMMA" run --country NZ --out "$SMOKE/new/dir" >/dev/null
  test -s "$SMOKE/new/dir/dataset-NZ.json"
  echo "   run --out into a missing directory wrote dataset-NZ.json"
  # A sharded study keeps no datasets, so --out with --shard-dir is refused
  # before any work rather than dropped: the directory is never made.
  refused study --countries 3 --sites 30 --shard-dir "$SMOKE/hostile/shards" \
    --out "$SMOKE/hostile/sharded-out"
  if [[ -e "$SMOKE/hostile/sharded-out" ]]; then
    echo "   ERROR: study --shard-dir --out created its --out directory" >&2
    return 1
  fi
}

echo "== tier-1: configure + build =="
cmake -B build -S . >/dev/null
cmake --build build -j"$JOBS"

echo "== tier-1: ctest =="
ctest --test-dir build --output-on-failure -j"$JOBS"

run_arm "resume smoke: kill mid-study, then --resume" arm_resume
run_arm "store smoke: build a .gmst, query it, corrupt a copy" arm_store
run_arm "trace smoke: record, report, byte-identical across --jobs" arm_trace
run_arm "serve smoke: daemon up, client query, SIGTERM drain" arm_serve
run_arm "chaos smoke: SIGKILL + restart under retry-armed client load" arm_chaos
run_arm "shard smoke: kill mid-run, resume, merge, byte-diff all reports" arm_shard
run_arm "pulse smoke: slow-log at --slow-ms 0, study_status to done, gamma top" arm_pulse
run_arm "hostile smoke: bad country, bad numeric flags, inapplicable flags, --report beside a scan flag, broken study rules, bad port file, --out with --shard-dir exit cleanly; --out dirs made up front; scale-store policy in a new process" arm_hostile

finish() {
  if [[ ${#FAILURES[@]} -gt 0 ]]; then
    echo "== check.sh: FAILED arms: ${FAILURES[*]} ==" >&2
    exit 1
  fi
  echo "== check.sh: all green =="
  exit 0
}

if [[ "$SKIP_SAN" == "1" ]]; then
  echo "== sanitizers: skipped (--skip-san) =="
  finish
fi

TSAN_SUITES=(test_thread_pool test_parallel_study test_metrics test_trace test_serve test_io test_shard test_world)
tsan_arm() {
  cmake -B build-tsan -S . -DGAMMA_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j"$JOBS" --target "${TSAN_SUITES[@]}"
  for t in "${TSAN_SUITES[@]}"; do
    "./build-tsan/tests/$t"
  done
}
run_arm "tsan: build + run concurrency suites" tsan_arm

RESILIENCE_SUITES=(test_fault test_formats test_resilience test_store test_serve test_io test_shard)
san_arm() {
  local san="$1" tree="$2"
  cmake -B "$tree" -S . -DGAMMA_SANITIZE="$san" >/dev/null
  cmake --build "$tree" -j"$JOBS" --target "${RESILIENCE_SUITES[@]}"
  for t in "${RESILIENCE_SUITES[@]}"; do
    # UBSan recovers by default; halt_on_error turns any report into a failure.
    UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" "./$tree/tests/$t"
  done
}
run_arm "asan: build + run resilience suites" san_arm address build-asan
run_arm "ubsan: build + run resilience suites" san_arm undefined build-ubsan

finish
