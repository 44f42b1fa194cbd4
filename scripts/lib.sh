# Shared preamble of the scripts/*_smoke.sh end-to-end drives, sourced after
# `set -euo pipefail`. It moves to the repository root and makes $workdir.
# A smoke script appends every daemon it starts to $pids; on exit, pass or
# fail, each is killed (SIGKILL, so a failed assertion leaves none running)
# and $workdir is removed.

cd "$(dirname "${BASH_SOURCE[0]}")/.."
workdir="$(mktemp -d)"
pids=()
cleanup() {
    for p in "${pids[@]:-}"; do kill -9 "$p" 2>/dev/null || true; done
    rm -rf "$workdir"
}
trap cleanup EXIT

# wait_addr PID LOGFILE PREFIX: print the address of the daemon PID's
# "PREFIX: serving on ADDR" log line once its listener is up. Fails at once
# if the daemon exits first, and after 10 s if it never reports.
wait_addr() {
    local addr=""
    for _ in $(seq 1 100); do
        addr="$(sed -n "s/^$3: serving on \\([^ ]*\\).*/\\1/p" "$2")"
        [ -n "$addr" ] && break
        kill -0 "$1" 2>/dev/null || { echo "$3 exited before serving" >&2; cat "$2" >&2; return 1; }
        sleep 0.1
    done
    [ -n "$addr" ] || { echo "$3 never reported its address" >&2; cat "$2" >&2; return 1; }
    echo "$addr"
}
