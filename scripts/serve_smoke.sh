#!/usr/bin/env bash
# Smoke test for the autotune-serve daemon: boot on a random port, drive a
# full tuning session and an adaptive drift-detecting session over HTTP,
# check /metrics and CSV export, then verify graceful SIGTERM shutdown and
# crash-free recovery (including the drift epoch) on restart.
#
# Usage: scripts/serve_smoke.sh [path-to-autotune-serve-binary]
set -euo pipefail

BIN="${1:-}"
if [[ -z "$BIN" ]]; then
    cargo build --release -p autotune-serve
    BIN="target/release/autotune-serve"
fi

WORK="$(mktemp -d)"
LOG="$WORK/daemon.log"
DATA="$WORK/data"
DAEMON_PID=""

cleanup() {
    if [[ -n "$DAEMON_PID" ]] && kill -0 "$DAEMON_PID" 2>/dev/null; then
        kill -9 "$DAEMON_PID" 2>/dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
    echo "FAIL: $1" >&2
    echo "--- daemon log ---" >&2
    cat "$LOG" >&2 || true
    exit 1
}

start_daemon() {
    # fsync durability engages the group-commit journal (group is the
    # default WAL mode but only batches when syncs are actually demanded),
    # so /metrics exposes non-null group_commit counters to assert on.
    "$BIN" --addr 127.0.0.1:0 --data-dir "$DATA" --workers 1 \
        --durability fsync >"$LOG" 2>&1 &
    DAEMON_PID=$!
    # main.rs prints "listening on http://HOST:PORT" once the socket is bound.
    for _ in $(seq 1 100); do
        if grep -q "listening on http://" "$LOG"; then
            break
        fi
        kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon exited before binding"
        sleep 0.1
    done
    ADDR="$(grep -o 'listening on http://[0-9.:]*' "$LOG" | head -1 | sed 's|listening on http://||')"
    [[ -n "$ADDR" ]] || fail "could not parse listen address from daemon log"
}

# A stale or misspelt flag stops the daemon before it binds, with a
# one-line message, instead of starting it on settings nobody asked for.
if "$BIN" --addr 127.0.0.1:0 --data-dir "$DATA" --shards 2 >"$LOG" 2>&1; then
    fail "daemon accepted the unknown flag --shards"
fi
grep -q "unknown argument '--shards'" "$LOG" || fail "no message for the unknown flag --shards"
[[ ! -e "$DATA" ]] || fail "refused daemon touched its data dir"

start_daemon
echo "daemon up at $ADDR (pid $DAEMON_PID)"

curl -fsS "http://$ADDR/healthz" >/dev/null || fail "healthz not ok"

SPEC='{"system":"dbms-oltp","tuner":"ituned","seed":42,"budget":6,"noise":"none","warm_start":false}'
CREATE="$(curl -fsS -X POST "http://$ADDR/sessions" -d "$SPEC")"
echo "create: $CREATE"
SID="$(echo "$CREATE" | grep -o 's-[0-9]*' | head -1)"
[[ -n "$SID" ]] || fail "create response carried no session id: $CREATE"

ADVANCE="$(curl -fsS -X POST "http://$ADDR/sessions/$SID/advance" -d '{"steps":6}')"
echo "advance: $ADVANCE"
echo "$ADVANCE" | grep -q '"finished"' || fail "session did not finish: $ADVANCE"

METRICS="$(curl -fsS "http://$ADDR/metrics")"
echo "metrics: $METRICS"
echo "$METRICS" | grep -q '"evaluations": *6' || fail "metrics missing 6 evaluations: $METRICS"
echo "$METRICS" | grep -q '"queue_depth"' || fail "metrics missing queue_depth: $METRICS"
echo "$METRICS" | grep -q '"wal_bytes_total"' || fail "metrics missing wal_bytes_total: $METRICS"
echo "$METRICS" | grep -q '"workers": *1' || fail "metrics missing workers=1: $METRICS"
echo "$METRICS" | grep -q '"durability": *"fsync"' || fail "metrics missing durability=fsync: $METRICS"
# Per-endpoint latency histograms: create + advance were both served.
echo "$METRICS" | grep -q '"endpoint": *"create"' || fail "metrics missing create endpoint histogram: $METRICS"
echo "$METRICS" | grep -q '"endpoint": *"advance"' || fail "metrics missing advance endpoint histogram: $METRICS"
# Group commit ran (fsync mode): at least one batch was synced.
echo "$METRICS" | grep -q '"group_commit": *{' || fail "metrics missing group_commit stats: $METRICS"
echo "$METRICS" | grep -q '"batches": *[1-9]' || fail "group_commit reported zero batches: $METRICS"

CSV="$(curl -fsS "http://$ADDR/sessions/$SID/csv")"
[[ "$(echo "$CSV" | head -1)" == run,* ]] || fail "CSV export missing header: $CSV"
# Header + baseline probe + 6 tuner evaluations.
LINES="$(echo "$CSV" | grep -c .)"
[[ "$LINES" -eq 8 ]] || fail "CSV expected 8 lines, got $LINES"

# Adaptive session with drift detection: a COLT tuner on a workload that
# flips at evaluation 12. Canary probes run every 10 evaluations with no
# noise, so the post-flip canary at 20 trips Page-Hinkley deterministically
# and the session opens epoch 1 before finishing within its budget.
ADAPTIVE_SPEC='{"system":"dbms-flip@12","tuner":"colt","seed":7,"budget":24,"noise":"none","warm_start":false,"drift":{"detector":"ph","threshold":0.05,"delta":0.01,"min_obs":1,"probe_every":10}}'
ACREATE="$(curl -fsS -X POST "http://$ADDR/sessions" -d "$ADAPTIVE_SPEC")"
echo "adaptive create: $ACREATE"
ASID="$(echo "$ACREATE" | grep -o 's-[0-9]*' | head -1)"
[[ -n "$ASID" ]] || fail "adaptive create carried no session id: $ACREATE"

AADVANCE="$(curl -fsS -X POST "http://$ADDR/sessions/$ASID/advance" -d '{"steps":24}')"
echo "adaptive advance: $AADVANCE"
echo "$AADVANCE" | grep -q '"finished"' || fail "adaptive session did not finish: $AADVANCE"

ADETAIL="$(curl -fsS "http://$ADDR/sessions/$ASID")"
echo "$ADETAIL" | grep -q '"epoch": *1' || fail "adaptive session never left epoch 0: $ADETAIL"
echo "$ADETAIL" | grep -q '"drift_events": *\[ *{' || fail "adaptive session recorded no drift events: $ADETAIL"

METRICS="$(curl -fsS "http://$ADDR/metrics")"
echo "$METRICS" | grep -q '"drifts_total": *[1-9]' || fail "metrics missing detected drift: $METRICS"

kill -TERM "$DAEMON_PID"
for _ in $(seq 1 100); do
    kill -0 "$DAEMON_PID" 2>/dev/null || break
    sleep 0.1
done
kill -0 "$DAEMON_PID" 2>/dev/null && fail "daemon did not exit within 10s of SIGTERM"
wait "$DAEMON_PID" 2>/dev/null || true
grep -q "shutdown complete" "$LOG" || fail "daemon did not shut down gracefully"
DAEMON_PID=""

# Restart on the same data dir: both finished sessions must recover from
# disk, and the adaptive one must replay its drift event into epoch 1.
start_daemon
LIST="$(curl -fsS "http://$ADDR/sessions")"
echo "recovered: $LIST"
echo "$LIST" | grep -q "$SID" || fail "restart lost session $SID: $LIST"
echo "$LIST" | grep -q '"finished"' || fail "recovered session not finished: $LIST"
echo "$LIST" | grep -q "$ASID" || fail "restart lost adaptive session $ASID: $LIST"
ADETAIL="$(curl -fsS "http://$ADDR/sessions/$ASID")"
echo "$ADETAIL" | grep -q '"epoch": *1' || fail "recovered adaptive session lost its drift epoch: $ADETAIL"
curl -fsS -X POST "http://$ADDR/shutdown" >/dev/null
for _ in $(seq 1 100); do
    kill -0 "$DAEMON_PID" 2>/dev/null || break
    sleep 0.1
done
kill -0 "$DAEMON_PID" 2>/dev/null && fail "daemon did not exit after POST /shutdown"
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""

echo "serve smoke test passed"
