#!/usr/bin/env bash
# End-to-end smoke of the fleet gateway: build laxgw with the race detector,
# front three real laxd nodes, drive load, kill -9 one node mid-run, and
# assert (a) the dead node's breaker opened, (b) failover re-dispatched its
# jobs, and (c) the journal closed every accepted job — zero lost jobs.
set -euo pipefail

source "$(dirname "$0")/lib.sh"

go build -race -o "$workdir/laxgw" ./cmd/laxgw
go build -race -o "$workdir/laxd" ./cmd/laxd
go build -o "$workdir/laxload" ./cmd/laxload

# Three real laxd nodes; speed 20 compresses simulated time so the run
# completes thousands of microsecond-scale jobs in wall seconds.
nodes=()
for i in 0 1 2; do
    "$workdir/laxd" -addr 127.0.0.1:0 -speed 20 2> "$workdir/laxd$i.log" &
    pids+=($!)
    nodes+=("http://$(wait_addr $! "$workdir/laxd$i.log" laxd)")
done
victim_pid="${pids[2]}"
echo "laxd nodes up: ${nodes[*]}"

"$workdir/laxgw" -addr 127.0.0.1:0 \
    -nodes "$(IFS=,; echo "${nodes[*]}")" \
    -probe-interval 50ms -fail-threshold 2 \
    2> "$workdir/laxgw.log" &
gw_pid=$!
pids+=("$gw_pid")
gw="$(wait_addr "$gw_pid" "$workdir/laxgw.log" laxgw)"
echo "laxgw up on $gw fronting 3 nodes"

# Load in the background; kill one node (uncleanly — SIGKILL, no drain)
# while the run is in flight.
"$workdir/laxload" -addr "http://$gw" -mode closed -c 8 -duration 6s \
    > "$workdir/load.txt" &
load_pid=$!
sleep 2
echo "killing node 2 ($victim_pid) mid-run"
kill -9 "$victim_pid"
wait "$load_pid" || { echo "FAIL: laxload reported errors"; cat "$workdir/load.txt"; exit 1; }
cat "$workdir/load.txt"

# Give stragglers a beat, then interrogate the gateway's journal.
for _ in $(seq 1 50); do
    inflight="$(curl -sf "http://$gw/v1/fleet" | python3 -c 'import json,sys; print(json.load(sys.stdin)["inflight"])')"
    [ "$inflight" -eq 0 ] && break
    sleep 0.2
done

curl -sf "http://$gw/v1/fleet" > "$workdir/fleet.json"
FLEET_JSON="$workdir/fleet.json" python3 - <<'EOF'
import json, os
f = json.load(open(os.environ["FLEET_JSON"]))
print(f"fleet: submitted {f['submitted']}, accepted {f['accepted']}, "
      f"terminal {f['terminal']}, inflight {f['inflight']}, "
      f"duplicates {f['duplicates']}, violations {f['violations']}")
for n in f["nodes"]:
    print(f"  {n['name']}: breaker {n['breaker']}")
assert f["accepted"] > 0, "no jobs accepted"
assert f["inflight"] == 0, f"{f['inflight']} jobs never reached a terminal state"
assert f["violations"] == 0, f"{f['violations']} journal violations (lost jobs)"
assert any(n["breaker"] == "open" for n in f["nodes"]), \
    "no breaker opened for the killed node"
EOF
echo "OK: zero lost jobs across a node kill"

metrics="$(curl -sf "http://$gw/metrics")"
echo "$metrics" | grep '^laxgw_breaker_opens_total'
opens="$(echo "$metrics" | sed -n 's/^laxgw_breaker_opens_total{node="node2"} \([0-9]*\).*/\1/p')"
if [ -z "$opens" ] || [ "$opens" -eq 0 ]; then
    echo "FAIL: node2's breaker never opened (laxgw_breaker_opens_total)"
    exit 1
fi
echo "$metrics" | grep '^laxgw_failover_' || true

# Graceful drain of the gateway itself.
kill -TERM "$gw_pid"
if ! timeout 30 tail --pid="$gw_pid" -f /dev/null; then
    echo "FAIL: laxgw did not exit after SIGTERM"
    exit 1
fi
echo "OK: laxgw drained and exited cleanly"
