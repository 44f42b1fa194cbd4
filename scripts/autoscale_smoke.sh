#!/usr/bin/env bash
# End-to-end smoke of the elastic fleet: one laxgw built with the race
# detector, autoscaling its in-process nodes while laxload replays the
# diurnal scenario (1000 -> 8000 -> 2000 jobs/s). Asserts the controller
# (a) scaled up under the peak, (b) drained back down after the load fell
# away, and (c) the journal closed every accepted job — zero lost jobs
# across the scale-down churn.
set -euo pipefail

source "$(dirname "$0")/lib.sh"

go build -race -o "$workdir/laxgw" ./cmd/laxgw
go build -o "$workdir/laxload" ./cmd/laxload

# Gateway and client share -speed 0.02, so the replayed arrivals land on
# the gateway's simulated timeline at the scenario's own rates: the 8000
# jobs/s peak is 4x the analyzer's declared 2000 jobs/s per-node knee and
# forces a scale-up; after the replay the observed rate decays to nothing
# and the idle fleet drains back toward -min-nodes.
"$workdir/laxgw" -addr 127.0.0.1:0 -gpus 1 -speed 0.02 \
    -autoscale predictive -min-nodes 1 -max-nodes 4 -node-rate 2000 \
    -scale-interval 25ms -scale-lag 250ms \
    -scale-forecast examples/scenarios/diurnal.json \
    2> "$workdir/laxgw.log" &
gw_pid=$!
pids+=("$gw_pid")
gw="$(wait_addr "$gw_pid" "$workdir/laxgw.log" laxgw)"
grep -q '^laxgw: autoscale predictive' "$workdir/laxgw.log" \
    || { echo "FAIL: laxgw did not announce the autoscaler"; cat "$workdir/laxgw.log"; exit 1; }
echo "laxgw up on $gw (autoscaling 1..4 nodes)"

"$workdir/laxload" -addr "http://$gw" \
    -scenario examples/scenarios/diurnal.json -speed 0.02 \
    | tee "$workdir/replay.txt"
grep -q 'fingerprint 1abcc299f955628a' "$workdir/replay.txt" \
    || { echo "FAIL: diurnal fingerprint drifted"; exit 1; }

# metric NAME -> value of laxgw_autoscale_NAME{policy="predictive"}.
metric() {
    curl -sf "http://$gw/metrics" \
        | sed -n "s/^laxgw_autoscale_$1{[^}]*} \([0-9.e+-]*\).*/\1/p" | head -1
}

ups="$(metric scale_ups_total)"
if [ -z "$ups" ] || [ "${ups%.*}" -lt 1 ]; then
    echo "FAIL: no scale-up under the 8000 jobs/s peak (laxgw_autoscale_scale_ups_total=${ups:-missing})"
    curl -sf "http://$gw/metrics" | grep '^laxgw_autoscale' || true
    exit 1
fi
echo "OK: $ups scale-up decision(s) under the peak"

# The drain needs the observed-rate EMA to decay and the drain patience to
# elapse, so poll rather than assert immediately.
drains=""
for _ in $(seq 1 150); do
    drains="$(metric drains_total)"
    [ -n "$drains" ] && [ "${drains%.*}" -ge 1 ] && break
    sleep 0.2
done
if [ -z "$drains" ] || [ "${drains%.*}" -lt 1 ]; then
    echo "FAIL: fleet never drained after the load fell away (laxgw_autoscale_drains_total=${drains:-missing})"
    curl -sf "http://$gw/metrics" | grep '^laxgw_autoscale' || true
    exit 1
fi
echo "OK: $drains drain decision(s) after the load fell away"

# Every journaled job must reach exactly one terminal state despite nodes
# coming and going mid-run.
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
      f"duplicates {f['duplicates']}, violations {f['violations']}, "
      f"{len(f['nodes'])} node slots")
assert f["accepted"] > 0, "no jobs accepted"
assert f["inflight"] == 0, f"{f['inflight']} jobs never reached a terminal state"
assert f["duplicates"] == 0, f"{f['duplicates']} duplicate terminal states"
assert f["violations"] == 0, f"{f['violations']} journal violations (lost jobs)"
EOF
echo "OK: zero lost jobs across scale-up/drain churn"

kill -TERM "$gw_pid"
if ! timeout 30 tail --pid="$gw_pid" -f /dev/null; then
    echo "FAIL: laxgw did not exit after SIGTERM"
    exit 1
fi
echo "OK: autoscale smoke passed"
