#!/bin/sh
# smoke_windowd.sh — end-to-end smoke of the live admission-control
# service: build windowd and windowload, start the daemon on an
# ephemeral loopback port, drive it with the load generator for a
# couple of seconds, and assert
#
#   1. /healthz answers 200 "ok" while serving,
#   2. the target transmitted a nonzero number of messages with its
#      conservation invariants intact (windowload exits nonzero
#      otherwise),
#   3. a TCP-ingest burst (windowload -transport tcp against the
#      -listen-tcp plane) settles with exact accounting scraped from
#      /debug/vars: ingested == transmitted + discarded + resident,
#      with /healthz still 200 afterwards; both transports booked
#      something, and /metrics renders the same ingest total as
#      /debug/vars,
#   4. SIGTERM drains cleanly: exit status 0 and the
#      "conservation invariants verified" marker on stdout.
#
# CI runs this in the docs job; it is also handy locally:
#
#   ./scripts/smoke_windowd.sh
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
cleanup() {
    [ -n "${pid:-}" ] && kill -9 "$pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/windowd" ./cmd/windowd
go build -o "$tmp/windowload" ./cmd/windowload

"$tmp/windowd" -listen 127.0.0.1:0 -listen-tcp 127.0.0.1:0 -m 10 -km 1 -load 0.9 \
    >"$tmp/windowd.out" 2>"$tmp/windowd.err" &
pid=$!

# The daemon announces its bound address on stderr:
#   windowd: listening on 127.0.0.1:PORT (...)
addr=
for _ in $(seq 1 50); do
    addr=$(awk '/listening on/ { print $4; exit }' "$tmp/windowd.err" 2>/dev/null || true)
    [ -n "$addr" ] && break
    kill -0 "$pid" 2>/dev/null || { echo "windowd died at startup:"; cat "$tmp/windowd.err"; exit 1; }
    sleep 0.1
done
[ -n "$addr" ] || { echo "windowd never announced its address"; cat "$tmp/windowd.err"; exit 1; }
echo "windowd is at $addr"

health=$(curl -fsS "http://$addr/healthz")
[ "$health" = "ok" ] || { echo "healthz said: $health"; exit 1; }

"$tmp/windowload" -target "http://$addr" -duration 2s -rate 5e5 -seed 7 | tee "$tmp/load.out"
grep -q 'conservation ok' "$tmp/load.out" || { echo "load run reported unbalanced books"; exit 1; }
tx=$(awk '/transmitted/ { print $2; exit }' "$tmp/load.out")
[ -n "$tx" ] && [ "$tx" -gt 0 ] || { echo "nothing transmitted (tx=$tx)"; exit 1; }

# TCP-ingest leg: burst over the binary plane (address autodiscovered
# from /config), then scrape /debug/vars until the owed backlog settles
# and assert the books balance exactly.
"$tmp/windowload" -target "http://$addr" -transport tcp -duration 2s -rate 2e6 -seed 8 | tee "$tmp/loadtcp.out"
grep -q 'conservation ok' "$tmp/loadtcp.out" || { echo "tcp load run reported unbalanced books"; exit 1; }

# jsonint KEY — first integer value of "KEY" in the last /debug/vars scrape.
jsonint() {
    sed -n 's/.*"'"$1"'": *\(-\{0,1\}[0-9][0-9]*\).*/\1/p' "$tmp/vars.json" | head -1
}
owed=-1
for _ in $(seq 1 100); do
    curl -fsS "http://$addr/debug/vars" >"$tmp/vars.json"
    owed=$(jsonint owed_arrivals)
    [ "$owed" = 0 ] && break
    sleep 0.1
done
[ "$owed" = 0 ] || { echo "owed backlog never settled (owed=$owed)"; exit 1; }
ing_http=$(jsonint http); ing_tcp=$(jsonint tcp)
arr=$(jsonint arrivals); tx2=$(jsonint transmissions)
shed=$(jsonint discards); resident=$(jsonint backlog)
[ "$ing_http" -gt 0 ] || { echo "http (NDJSON) leg ingested nothing"; exit 1; }
[ "$ing_tcp" -gt 0 ] || { echo "tcp plane ingested nothing"; exit 1; }
ingested=$((ing_http + ing_tcp))
vars_total=$(jsonint total)
metrics_total=$(curl -fsS "http://$addr/metrics" | awk '$1 == "windowd_ingested_total" { print $2; exit }')
[ "$metrics_total" = "$vars_total" ] \
    || { echo "/metrics windowd_ingested_total $metrics_total != /debug/vars windowd_ingest.total $vars_total"; exit 1; }
[ "$arr" = "$ingested" ] || { echo "booked $ingested but scheduled $arr"; exit 1; }
[ "$((tx2 + shed + resident))" = "$ingested" ] \
    || { echo "accounting broken: tx $tx2 + shed $shed + resident $resident != ingested $ingested"; exit 1; }
health=$(curl -fsS "http://$addr/healthz")
[ "$health" = "ok" ] || { echo "healthz after tcp burst said: $health"; exit 1; }
echo "tcp ingest accounting: $ingested ingested = $tx2 tx + $shed shed + $resident resident"

kill -TERM "$pid"
drained=1
wait "$pid" || drained=0
cat "$tmp/windowd.out"
[ "$drained" = 1 ] || { echo "windowd exited nonzero after SIGTERM"; exit 1; }
grep -q 'conservation invariants verified' "$tmp/windowd.out" \
    || { echo "missing drain verification marker"; exit 1; }
pid=
echo "windowd smoke: drained cleanly, $tx messages transmitted"
