#!/usr/bin/env bash
# End-to-end smoke of the tracing plane: build laxd and laxgw with the race
# detector, front two real laxd nodes, drive load through the gateway, and
# assert that laxtrace renders (a) at least one complete stitched trace whose
# waterfall carries spans from BOTH processes — the gateway's routing decision
# and the node's phase partition — and (b) a non-empty slack-attribution table.
set -euo pipefail

source "$(dirname "$0")/lib.sh"

go build -race -o "$workdir/laxd" ./cmd/laxd
go build -race -o "$workdir/laxgw" ./cmd/laxgw
go build -o "$workdir/laxload" ./cmd/laxload
go build -o "$workdir/laxtrace" ./cmd/laxtrace

# Two real laxd nodes with distinct names so span provenance is visible.
nodes=()
for name in node-a node-b; do
    "$workdir/laxd" -addr 127.0.0.1:0 -speed 20 -name "$name" \
        2> "$workdir/$name.log" &
    pids+=($!)
    nodes+=("http://$(wait_addr $! "$workdir/$name.log" laxd)")
done
echo "laxd nodes up: ${nodes[*]}"

"$workdir/laxgw" -addr 127.0.0.1:0 \
    -nodes "$(IFS=,; echo "${nodes[*]}")" \
    -probe-interval 50ms \
    2> "$workdir/laxgw.log" &
pids+=($!)
gw="$(wait_addr $! "$workdir/laxgw.log" laxgw)"
echo "laxgw up on $gw fronting 2 nodes"

# Background load so the trace under inspection shares the fleet with real
# contention, then one tracked job whose trace we render by ID.
"$workdir/laxload" -addr "http://$gw" -mode closed -c 4 -duration 3s \
    > "$workdir/load.txt" || { cat "$workdir/load.txt"; exit 1; }
cat "$workdir/load.txt"

job_id="$(curl -sf -X POST "http://$gw/v1/jobs?wait=1" \
    -d '{"benchmark":"LSTM"}' \
    | python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])')"
echo "tracked job id: $job_id"

"$workdir/laxtrace" -addr "http://$gw" -job "$job_id" > "$workdir/trace.txt"
cat "$workdir/trace.txt"

# The stitched waterfall must carry the gateway's routing span AND the node's
# phase partition, plus a non-empty attribution table.
grep -q 'route' "$workdir/trace.txt" || { echo "FAIL: no gateway route span"; exit 1; }
grep -q 'laxgw' "$workdir/trace.txt" || { echo "FAIL: no laxgw-side span"; exit 1; }
grep -Eq 'node-(a|b)' "$workdir/trace.txt" || { echo "FAIL: no node-side span"; exit 1; }
grep -q 'exec' "$workdir/trace.txt" || { echo "FAIL: no exec phase span"; exit 1; }
grep -q 'slack attribution:' "$workdir/trace.txt" || { echo "FAIL: no attribution table"; exit 1; }
grep -A1 'slack attribution:' "$workdir/trace.txt" | tail -1 | grep -q 'us' \
    || { echo "FAIL: attribution table is empty"; exit 1; }
echo "OK: stitched trace spans laxgw and a node, attribution table present"

# The fleet-wide report must render from the gateway's recent-trace listing.
"$workdir/laxtrace" -addr "http://$gw" -n 50 > "$workdir/summary.txt"
cat "$workdir/summary.txt"
grep -q 'trace(s):' "$workdir/summary.txt" || { echo "FAIL: no summary"; exit 1; }
echo "OK: fleet trace summary rendered"
