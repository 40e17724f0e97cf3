#!/usr/bin/env bash
# ppd lifecycle, exercised with real processes and real signals:
#
#   1. serving is byte-identical to a direct ppctl run, the second request
#      is answered entirely from the warm store, and `ppctl stat` exposes
#      the daemon counters plus the store stats_line verbatim;
#   2. SIGTERM drains gracefully — an in-flight request completes, the
#      daemon exits 0 with final stats on stderr, the socket is unlinked;
#   3. kill -9 leaves a stale socket and a cache that we then corrupt; a
#      restarted daemon replaces the socket, quarantines the corrupt entry
#      and still serves the correct bytes;
#   4. an injected connection-read fault (PP_FAULTS=serve.read:err@1) on
#      the daemon is survived by the client's retries;
#   5. paper artifacts are ordinary specs: bench_table1, `ppctl run` and
#      `ppctl run --connect` print the same bytes, warm repeats simulate
#      nothing, and an artifact over its budget or past its deadline is a
#      structured failure (exit 3) that leaves the daemon serving.
#
# usage: ppd_lifecycle_test.sh <ppd-binary> <ppctl-binary> <bench_table1-binary>
set -u

PPD=$1
PPCTL=$2
BENCH_TABLE1=$3
SPECS=$(cd "$(dirname "$0")/../../examples/specs" && pwd)

TMP=$(mktemp -d)
DPID=""
cleanup() {
  [ -n "$DPID" ] && kill -9 "$DPID" 2>/dev/null
  rm -rf "$TMP"
}
trap cleanup EXIT

export REPRO_SCALE=quick
export PROFILE_CACHE="$TMP/cache"
unset PROFILE_CACHE_RO PP_FAULTS PP_RUN_BUDGET SIM_FIDELITY 2>/dev/null || true
SOCK="$TMP/ppd.sock"

fail() {
  echo "FAIL: $*" >&2
  echo "--- daemon stderr ---" >&2
  cat "$TMP"/daemon*.err >&2 2>/dev/null
  exit 1
}

# Poll `ppctl stat` until the daemon answers (or report what it printed).
wait_ready() {
  for _ in $(seq 1 100); do
    "$PPCTL" stat --connect "$SOCK" >/dev/null 2>&1 && return 0
    sleep 0.05
  done
  return 1
}

# Poll `ppctl stat` until a request is actually executing (active=1), so a
# subsequent SIGTERM provably races against in-flight work.
wait_active() {
  for _ in $(seq 1 100); do
    "$PPCTL" stat --connect "$SOCK" 2>/dev/null | grep -q 'active=1' && return 0
    sleep 0.01
  done
  return 1
}

cat > "$TMP/spec.json" <<'EOF'
{"version":1,"kind":"corun","name":"lifecycle","flows":[{"type":"IP"},{"type":"MON"}]}
EOF
cat > "$TMP/slow.json" <<'EOF'
{"version":1,"kind":"corun","name":"lifecycle-slow","measure_ms":4,"flows":[{"type":"MON"},{"type":"VPN"}]}
EOF

# Baseline: the same spec executed directly, in its own cache.
"$PPCTL" run --cache "$TMP/direct-cache" "$TMP/spec.json" > "$TMP/direct.out" 2>/dev/null \
  || fail "direct ppctl run failed"
[ -s "$TMP/direct.out" ] || fail "direct run produced no output"

# ---- 1. serve, byte-identity, warm second request, stat ----
"$PPD" --socket "$SOCK" 2> "$TMP/daemon1.err" &
DPID=$!
wait_ready || fail "daemon never became ready"
grep -q '\[ppd\] listening on' "$TMP/daemon1.err" || fail "missing startup line"

"$PPCTL" run --connect "$SOCK" "$TMP/spec.json" > "$TMP/served.out" 2> "$TMP/served.err" \
  || fail "served run failed (rc=$?)"
diff -u "$TMP/direct.out" "$TMP/served.out" || fail "served output differs from direct run"

"$PPCTL" run --connect "$SOCK" "$TMP/spec.json" > "$TMP/served2.out" 2> "$TMP/served2.err" \
  || fail "second served run failed"
diff -u "$TMP/direct.out" "$TMP/served2.out" || fail "second served output differs"
grep -q 'profile store: simulated=0 ' "$TMP/served2.err" \
  || fail "second request was not answered from the warm store: $(cat "$TMP/served2.err")"

"$PPCTL" stat --connect "$SOCK" > "$TMP/stat.out" 2>&1 || fail "ppctl stat failed"
grep -q '\[ppd\] requests: served=' "$TMP/stat.out" || fail "stat missing request counters"
grep -q '\[ppd\] profile store: simulated=' "$TMP/stat.out" || fail "stat missing store line"
grep -q 'ro_quarantine_warnings=' "$TMP/stat.out" || fail "stat missing ro_quarantine_warnings"
grep -q '\[ppd\] latency_us: count=' "$TMP/stat.out" || fail "stat missing latency line"

# ---- 2. SIGTERM drain with an in-flight request ----
"$PPCTL" run --connect "$SOCK" "$TMP/slow.json" > "$TMP/inflight.out" 2>/dev/null &
CPID=$!
wait_active || fail "slow request never started executing"
kill -TERM "$DPID"
wait "$DPID"
rc=$?
DPID=""
[ "$rc" -eq 0 ] || fail "drained daemon exited $rc, want 0"
wait "$CPID" || fail "in-flight client failed during drain"
[ -s "$TMP/inflight.out" ] || fail "in-flight client got no response during drain"
grep -q '\[ppd\] requests: served=' "$TMP/daemon1.err" || fail "drain did not flush final stats"
[ ! -e "$SOCK" ] || fail "drained daemon left its socket behind"

# ---- 3. kill -9, corrupt the cache, restart: warm + quarantined + correct ----
"$PPD" --socket "$SOCK" 2> "$TMP/daemon2.err" &
DPID=$!
wait_ready || fail "daemon (restart victim) never became ready"
kill -9 "$DPID"
wait "$DPID" 2>/dev/null
DPID=""
[ -S "$SOCK" ] || fail "kill -9 should leave a stale socket file"

ls "$PROFILE_CACHE"/*.json >/dev/null 2>&1 || fail "no cache entries to corrupt"
first=$(ls "$PROFILE_CACHE"/*.json | head -1)
echo 'CORRUPT{' > "$first"

"$PPD" --socket "$SOCK" 2> "$TMP/daemon3.err" &
DPID=$!
wait_ready || fail "daemon did not recover over the stale socket"
"$PPCTL" run --connect "$SOCK" "$TMP/spec.json" > "$TMP/recovered.out" 2> "$TMP/recovered.err" \
  || fail "post-restart served run failed"
diff -u "$TMP/direct.out" "$TMP/recovered.out" \
  || fail "post-restart output differs (wrong answer after crash recovery)"
"$PPCTL" stat --connect "$SOCK" > "$TMP/stat2.out" 2>&1 || fail "post-restart stat failed"
grep -Eq 'quarantined=[1-9]' "$TMP/stat2.out" \
  || fail "corrupt cache entry was not quarantined: $(grep 'profile store' "$TMP/stat2.out")"
kill -TERM "$DPID"
wait "$DPID" || fail "post-restart daemon did not drain cleanly"
DPID=""

# ---- 4. TCP transport: --listen, port discovery, byte identity ----
"$PPD" --socket "$SOCK" --listen 127.0.0.1:0 2> "$TMP/daemon_tcp.err" &
DPID=$!
wait_ready || fail "TCP daemon never became ready on its UDS"
PORT=""
for _ in $(seq 1 100); do
  PORT=$(sed -n 's/.*listening on tcp 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$TMP/daemon_tcp.err" | head -1)
  [ -n "$PORT" ] && break
  sleep 0.05
done
[ -n "$PORT" ] || fail "daemon never printed its bound TCP port: $(cat "$TMP/daemon_tcp.err")"

"$PPCTL" run --connect "127.0.0.1:$PORT" "$TMP/spec.json" > "$TMP/tcp.out" 2> "$TMP/tcp.err" \
  || fail "TCP served run failed"
diff -u "$TMP/direct.out" "$TMP/tcp.out" || fail "TCP output differs from direct run"
grep -q 'profile store: simulated=0 ' "$TMP/tcp.err" \
  || fail "TCP request missed the warm store: $(cat "$TMP/tcp.err")"

# The same daemon serves identical bytes over both transports.
"$PPCTL" run --connect "$SOCK" "$TMP/spec.json" > "$TMP/uds.out" 2>/dev/null \
  || fail "UDS run against the dual-transport daemon failed"
diff -u "$TMP/tcp.out" "$TMP/uds.out" || fail "TCP and UDS outputs differ on one daemon"

"$PPCTL" stat --connect "127.0.0.1:$PORT" > "$TMP/stat_tcp.out" 2>&1 \
  || fail "ppctl stat over TCP failed"
grep -q '\[ppd\] requests: served=' "$TMP/stat_tcp.out" || fail "TCP stat missing counters"
kill -TERM "$DPID"
wait "$DPID" || fail "dual-transport daemon did not drain cleanly"
DPID=""

# TCP-only daemon (no --socket) also works.
"$PPD" --listen 127.0.0.1:0 2> "$TMP/daemon_tcponly.err" &
DPID=$!
PORT2=""
for _ in $(seq 1 100); do
  PORT2=$(sed -n 's/.*listening on tcp 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$TMP/daemon_tcponly.err" | head -1)
  [ -n "$PORT2" ] && break
  sleep 0.05
done
[ -n "$PORT2" ] || fail "TCP-only daemon never printed its port"
for _ in $(seq 1 100); do
  "$PPCTL" stat --connect "127.0.0.1:$PORT2" >/dev/null 2>&1 && break
  sleep 0.05
done
"$PPCTL" run --connect "127.0.0.1:$PORT2" "$TMP/spec.json" > "$TMP/tcponly.out" 2>/dev/null \
  || fail "TCP-only served run failed"
diff -u "$TMP/direct.out" "$TMP/tcponly.out" || fail "TCP-only output differs"
kill -TERM "$DPID"
wait "$DPID" || fail "TCP-only daemon did not drain cleanly"
DPID=""

# ---- 5. injected daemon-side read fault, survived by client retries ----
PP_FAULTS=serve.read:err@1 "$PPD" --socket "$SOCK" 2> "$TMP/daemon4.err" &
DPID=$!
for _ in $(seq 1 100); do [ -S "$SOCK" ] && break; sleep 0.05; done
[ -S "$SOCK" ] || fail "faulted daemon never bound its socket"
"$PPCTL" run --connect "$SOCK" --retries 3 --retry-base-ms 1 "$TMP/spec.json" \
  > "$TMP/faulted.out" 2>/dev/null || fail "client retries did not survive serve.read fault"
diff -u "$TMP/direct.out" "$TMP/faulted.out" || fail "faulted-path output differs"
grep -q 'injected connection-read failure' "$TMP/daemon4.err" \
  || fail "serve.read fault never fired on the daemon"
kill -TERM "$DPID"
wait "$DPID" || fail "faulted daemon did not drain cleanly"
DPID=""

# ---- 6. paper artifacts through the same path as every spec ----
ART_CACHE="$TMP/artifact-cache"
PROFILE_CACHE="$ART_CACHE" "$BENCH_TABLE1" > "$TMP/t1_bench.out" 2> "$TMP/t1_bench.err" \
  || fail "bench_table1 failed: $(cat "$TMP/t1_bench.err")"
PROFILE_CACHE="$ART_CACHE" "$PPCTL" run "$SPECS/table1.json" \
  > "$TMP/t1_direct.out" 2> "$TMP/t1_direct.err" || fail "ppctl run table1.json failed"
diff -u "$TMP/t1_bench.out" "$TMP/t1_direct.out" || fail "ppctl table1 differs from bench_table1"
grep -q 'profile store: simulated=0 ' "$TMP/t1_direct.err" \
  || fail "ppctl table1 missed the bench's cache: $(cat "$TMP/t1_direct.err")"

PP_RUN_BUDGET=1 "$PPCTL" run "$SPECS/fig4.json" > "$TMP/fig4_budget.out" 2> "$TMP/fig4_budget.err"
rc=$?
[ "$rc" -eq 3 ] || fail "over-budget fig4 exited $rc, want 3: $(cat "$TMP/fig4_budget.err")"
grep -q 'ERROR budget_exceeded' "$TMP/fig4_budget.out" || fail "over-budget fig4 printed no error"

PROFILE_CACHE="$ART_CACHE" "$PPD" --socket "$SOCK" 2> "$TMP/daemon5.err" &
DPID=$!
wait_ready || fail "artifact daemon never became ready"
for i in 1 2; do
  "$PPCTL" run --connect "$SOCK" "$SPECS/table1.json" > "$TMP/t1_served$i.out" \
    2> "$TMP/t1_served$i.err" || fail "served table1 run $i failed"
  diff -u "$TMP/t1_bench.out" "$TMP/t1_served$i.out" || fail "served table1 $i differs from bench"
  grep -q 'profile store: simulated=0 ' "$TMP/t1_served$i.err" \
    || fail "served table1 $i was not warm: $(cat "$TMP/t1_served$i.err")"
done
"$PPCTL" run --connect "$SOCK" --deadline-ms 1 "$SPECS/fig4.json" \
  > "$TMP/fig4_deadline.out" 2> "$TMP/fig4_deadline.err"
rc=$?
[ "$rc" -eq 3 ] || fail "deadlined fig4 exited $rc, want 3: $(cat "$TMP/fig4_deadline.err")"
grep -q 'budget_exceeded' "$TMP/fig4_deadline.out" || fail "deadlined fig4 printed no error"
"$PPCTL" stat --connect "$SOCK" > "$TMP/stat5.out" 2>&1 \
  || fail "daemon stopped answering after a deadlined artifact"
grep -q 'deadline_refused=1' "$TMP/stat5.out" || fail "deadline not counted: $(cat "$TMP/stat5.out")"
kill -TERM "$DPID"
wait "$DPID" || fail "artifact daemon did not drain cleanly"
DPID=""

echo "ppd lifecycle: OK"
