#!/usr/bin/env bash
# End-to-end smoke of the scenario subsystem (DESIGN.md §14, SCENARIOS.md):
# a verified scheduler sweep over a committed scenario, laxload's offline
# plan byte-identity guarantee, and a wall-clock replay against a laxd
# built with the race detector, asserting every cohort shows up.
set -euo pipefail

source "$(dirname "$0")/lib.sh"

go build -race -o "$workdir/laxd" ./cmd/laxd
go build -o "$workdir/laxsim" ./cmd/laxsim
go build -o "$workdir/laxload" ./cmd/laxload

# 1. Verified sweep: every Table 5 scheduler over the diurnal scenario with
#    the invariant checker riding along; the header must carry the golden
#    fingerprint so we know the expansion matched the committed file.
"$workdir/laxsim" -scenario examples/scenarios/diurnal.json -verify \
    | tee "$workdir/sweep.txt"
grep -q 'fingerprint 1abcc299f955628a' "$workdir/sweep.txt" \
    || { echo "FAIL: diurnal fingerprint drifted"; exit 1; }
grep -q '^LAX ' "$workdir/sweep.txt" \
    || { echo "FAIL: sweep table missing LAX row"; exit 1; }

# 2. Offline plan byte-identity: two -plan invocations must be identical.
"$workdir/laxload" -scenario examples/scenarios/three-tenant.json -plan \
    > "$workdir/plan1.txt"
"$workdir/laxload" -scenario examples/scenarios/three-tenant.json -plan \
    > "$workdir/plan2.txt"
cmp "$workdir/plan1.txt" "$workdir/plan2.txt" \
    || { echo "FAIL: -plan output not byte-identical"; exit 1; }
grep -q 'fingerprint f2d361b5e410e25e' "$workdir/plan1.txt" \
    || { echo "FAIL: three-tenant fingerprint drifted"; exit 1; }
echo "OK: plan byte-identical ($(wc -l < "$workdir/plan1.txt") lines)"

# 3. Live replay against a -race laxd. Server speed 50 compresses simulated
#    time; client speed 0.02 compresses the scenario's arrival spacing so
#    the whole replay lands in a few wall seconds.
"$workdir/laxd" -addr 127.0.0.1:0 -speed 50 2> "$workdir/laxd.log" &
laxd_pid=$!
pids+=("$laxd_pid")
addr="$(wait_addr "$laxd_pid" "$workdir/laxd.log" laxd)"
echo "laxd up on $addr"

"$workdir/laxload" -addr "http://$addr" \
    -scenario examples/scenarios/three-tenant.json -speed 0.02 \
    | tee "$workdir/replay.txt"
for cohort in interactive analytics batch; do
    grep -q "$cohort" "$workdir/replay.txt" \
        || { echo "FAIL: replay report missing cohort $cohort"; exit 1; }
done
grep -q 'per-cohort outcomes:' "$workdir/replay.txt" \
    || { echo "FAIL: replay report missing per-cohort table"; exit 1; }

kill -TERM "$laxd_pid"
if ! timeout 30 tail --pid="$laxd_pid" -f /dev/null; then
    echo "FAIL: laxd did not exit after SIGTERM"
    exit 1
fi
wait "$laxd_pid" && echo "OK: scenario smoke passed"
