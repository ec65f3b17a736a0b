#!/bin/sh
# serve_smoke.sh — end-to-end smoke test of the heteropard daemon.
#
# Builds the real binaries, starts the daemon on an ephemeral port,
# POSTs one benchmark under both scenarios and asserts each response is
# byte-identical to `heteropar -json` for the same inputs (the serving
# layer must be a transport, never a second source of truth), scrapes
# /metrics for the serve families and for the second request's reuse of
# the program's front end, then SIGTERMs the daemon and requires a
# clean drain.
#
# Usage: scripts/serve_smoke.sh [bench]   (default mult_10)
set -eu

BENCH="${1:-mult_10}"
TMP="$(mktemp -d)"
DAEMON_PID=""
cleanup() {
    [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

echo "serve_smoke: building binaries"
go build -o "$TMP/heteropar" ./cmd/heteropar
go build -o "$TMP/heteropard" ./cmd/heteropard

echo "serve_smoke: heteropar -bench $BENCH -json (both scenarios)"
"$TMP/heteropar" -bench "$BENCH" -json > "$TMP/cli.json"
"$TMP/heteropar" -bench "$BENCH" -scenario slow -json > "$TMP/cli_slow.json"

"$TMP/heteropard" -addr 127.0.0.1:0 > "$TMP/daemon.out" 2> "$TMP/daemon.err" &
DAEMON_PID=$!

# The daemon prints "heteropard: listening on http://ADDR ..." once the
# listener is bound; wait for it rather than racing the startup.
ADDR=""
for _ in $(seq 1 50); do
    ADDR="$(sed -n 's|^heteropard: listening on http://\([^ ]*\).*|\1|p' "$TMP/daemon.out")"
    [ -n "$ADDR" ] && break
    kill -0 "$DAEMON_PID" 2>/dev/null || { echo "serve_smoke: daemon died at startup:"; cat "$TMP/daemon.err"; exit 1; }
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "serve_smoke: daemon never reported its address"; exit 1; }
echo "serve_smoke: daemon on $ADDR (pid $DAEMON_PID)"

echo "serve_smoke: POST /v1/parallelize {\"bench\":\"$BENCH\"}"
curl -sf -X POST "http://$ADDR/v1/parallelize" \
    -H 'Content-Type: application/json' \
    -d "{\"bench\":\"$BENCH\"}" > "$TMP/daemon.json"

if ! cmp -s "$TMP/cli.json" "$TMP/daemon.json"; then
    echo "serve_smoke: FAIL: daemon response differs from heteropar -json"
    diff -u "$TMP/cli.json" "$TMP/daemon.json" || true
    exit 1
fi
echo "serve_smoke: daemon response byte-identical to the CLI"

echo "serve_smoke: POST /v1/parallelize {\"bench\":\"$BENCH\",\"scenario\":\"slow\"}"
curl -sf -X POST "http://$ADDR/v1/parallelize" \
    -H 'Content-Type: application/json' \
    -d "{\"bench\":\"$BENCH\",\"scenario\":\"slow\"}" > "$TMP/daemon_slow.json"
if ! cmp -s "$TMP/cli_slow.json" "$TMP/daemon_slow.json"; then
    echo "serve_smoke: FAIL: daemon response (scenario slow) differs from heteropar -scenario slow -json"
    diff -u "$TMP/cli_slow.json" "$TMP/daemon_slow.json" || true
    exit 1
fi
echo "serve_smoke: scenario slow response byte-identical to the CLI"

echo "serve_smoke: scraping /metrics"
curl -sf "http://$ADDR/metrics" > "$TMP/metrics.txt"
for family in heteropar_serve_requests heteropar_serve_solve_latency_seconds_count heteropar_serve_cache_hits; do
    grep -q "$family" "$TMP/metrics.txt" || {
        echo "serve_smoke: FAIL: /metrics missing $family"; exit 1; }
done
# The second request plans the same source, so it must have reused the
# first one's front end (compile, profile, HTG) from the store.
FE_HITS="$(sed -n 's/^heteropar_solstore_frontend_hits \([0-9]*\)$/\1/p' "$TMP/metrics.txt")"
[ "${FE_HITS:-0}" -ge 1 ] || {
    echo "serve_smoke: FAIL: front-end stage hits ${FE_HITS:-missing}, want >= 1"; exit 1; }
echo "serve_smoke: front-end stage hits $FE_HITS"

echo "serve_smoke: SIGTERM, expecting a clean drain"
kill -TERM "$DAEMON_PID"
i=0
while kill -0 "$DAEMON_PID" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && { echo "serve_smoke: FAIL: daemon did not exit within 10s of SIGTERM"; exit 1; }
    sleep 0.1
done
wait "$DAEMON_PID" 2>/dev/null || {
    echo "serve_smoke: FAIL: daemon exited non-zero on SIGTERM:"; cat "$TMP/daemon.err"; exit 1; }
grep -q "drained cleanly" "$TMP/daemon.err" || {
    echo "serve_smoke: FAIL: no clean-drain line in daemon stderr:"; cat "$TMP/daemon.err"; exit 1; }
DAEMON_PID=""

echo "serve_smoke: PASS"
