#!/usr/bin/env bash
# End-to-end smoke of the online serving subsystem: build laxd with the race
# detector, drive it with laxload for a few seconds, assert Algorithm 1
# actually admitted jobs via /metrics, then check SIGTERM drains cleanly.
set -euo pipefail

source "$(dirname "$0")/lib.sh"

go build -race -o "$workdir/laxd" ./cmd/laxd
go build -o "$workdir/laxload" ./cmd/laxload

# Speed 50 compresses simulated time so a short wall-clock run completes
# plenty of microsecond-scale jobs.
"$workdir/laxd" -addr 127.0.0.1:0 -speed 50 2> "$workdir/laxd.log" &
laxd_pid=$!
pids+=("$laxd_pid")
addr="$(wait_addr "$laxd_pid" "$workdir/laxd.log" laxd)"
echo "laxd up on $addr"

"$workdir/laxload" -addr "http://$addr" -mode closed -c 4 -duration 5s

# The paper's overload argument, live: Algorithm 1 rejects at 2x the
# server's capacity estimate and rejects nothing at 0.2x. This needs a
# *slow* clock so 2x capacity is a wall rate HTTP can actually offer
# (at speed 0.05, STEM capacity is a few hundred jobs/s), and the
# per-client cap lifted so every 429 is an admission verdict.
"$workdir/laxd" -addr 127.0.0.1:0 -speed 0.05 -max-per-client 1000000 \
    2> "$workdir/laxd-slow.log" &
slow_pid=$!
pids+=("$slow_pid")
slow="$(wait_addr "$slow_pid" "$workdir/laxd-slow.log" laxd)"

rejected_at() {
    "$workdir/laxload" -addr "http://$slow" -mode open -x "$1" -duration 3s |
        sed -n 's/.*admitted [0-9]*, rejected \([0-9]*\) (admission).*/\1/p'
}
over="$(rejected_at 2.0)"
under="$(rejected_at 0.2)"
echo "admission rejections: $over at 2.0x capacity, $under at 0.2x"
kill -TERM "$slow_pid" && timeout 30 tail --pid="$slow_pid" -f /dev/null
if [ "${over:-0}" -eq 0 ] || [ "${under:-1}" -ne 0 ]; then
    echo "FAIL: want rejections > 0 at 2.0x and = 0 at 0.2x"
    exit 1
fi

metrics="$(curl -sf "http://$addr/metrics")"
echo "$metrics" | grep '^laxd_jobs_'
admitted="$(echo "$metrics" | sed -n 's/^laxd_jobs_admitted_total \([0-9]*\).*/\1/p')"
if [ -z "$admitted" ] || [ "$admitted" -eq 0 ]; then
    echo "FAIL: laxd_jobs_admitted_total is ${admitted:-missing}"
    exit 1
fi
echo "OK: $admitted jobs admitted"

# Graceful drain: SIGTERM must exit 0 within the drain grace plus margin.
kill -TERM "$laxd_pid"
if ! timeout 30 tail --pid="$laxd_pid" -f /dev/null; then
    echo "FAIL: laxd did not exit after SIGTERM"
    exit 1
fi
wait "$laxd_pid" && echo "OK: laxd drained and exited cleanly"
