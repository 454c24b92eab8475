#!/usr/bin/env bash
# Scripted end-to-end smoke of `arcsd`: two tenant datasets served over
# real TCP, client queries and one wire append with jq assertions on the
# JSON output, a feeder tail, typed exit codes for the failure classes,
# and one injected-fault schedule (needs a failpoints-enabled binary).
#
# Usage: scripts/daemon_smoke.sh [path/to/arcs]
set -euo pipefail

ARCS=${1:-target/release/arcs}
dir=$(mktemp -d)
daemon_pid=""
cleanup() {
    [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true
    rm -rf "$dir"
}
trap cleanup EXIT

expect_exit() {
    local want=$1
    shift
    local got=0
    "$@" >/dev/null 2>&1 || got=$?
    if [ "$got" -ne "$want" ]; then
        echo "FAIL: expected exit $want, got $got: $*" >&2
        exit 1
    fi
}

wait_for_port_file() {
    for _ in $(seq 1 100); do
        [ -s "$1" ] && return 0
        sleep 0.1
    done
    echo "FAIL: daemon never wrote $1" >&2
    exit 1
}

"$ARCS" generate --out "$dir/a.csv" --n 5000 --seed 1
"$ARCS" generate --out "$dir/b.csv" --n 5000 --seed 2 --function 3
: > "$dir/feed.csv"

"$ARCS" daemon --listen 127.0.0.1:0 \
    --datasets alpha="$dir/a.csv",beta="$dir/b.csv" \
    --x age --y salary --criterion group --bins 20 \
    --feed beta="$dir/feed.csv" --feed-interval-ms 50 \
    --port-file "$dir/port.txt" --max-seconds 120 &
daemon_pid=$!
wait_for_port_file "$dir/port.txt"
addr=$(cat "$dir/port.txt")
echo "arcsd up on $addr"

# Both tenants answer queries with the expected shape. A reply's result
# holds exactly these members (`clusters` only when the query clustered),
# so a stray or lost member fails here.
"$ARCS" client --addr "$addr" open --dataset alpha \
    | jq -e '.epoch == 0 and .n_tuples == 5000 and (.labels | index("A") != null)'
"$ARCS" client --addr "$addr" query --dataset alpha \
    --group A --support 0 --confidence 0 --cluster \
    | jq -e '.result.epoch == 0 and (.result.rules | length) > 0 and .cache_hit == false
        and (.result | keys == ["clusters","epoch","group","group_total","n_tuples","rules"])'
# Identical query again: served from the result cache.
"$ARCS" client --addr "$addr" query --dataset alpha \
    --group A --support 0 --confidence 0 --cluster \
    | jq -e '.cache_hit == true'
"$ARCS" client --addr "$addr" query --dataset beta \
    --group A --support 0.01 --confidence 0.5 \
    | jq -e '.result.epoch == 0
        and (.result | keys == ["epoch","group","group_total","n_tuples","rules"])'

# One append over the wire: epoch bumps, stats agree.
head -3 "$dir/b.csv" | tail -2 > "$dir/delta.csv"
"$ARCS" client --addr "$addr" append --dataset beta --rows-file "$dir/delta.csv" \
    | jq -e '.epoch == 1 and .rows == 2'
"$ARCS" client --addr "$addr" stats --dataset beta \
    | jq -e '.epoch == 1 and .snapshot_swaps == 1 and .completed >= 1'
# The other tenant's epoch is untouched (tenants are independent).
"$ARCS" client --addr "$addr" stats --dataset alpha | jq -e '.epoch == 0'

# The feeder tails appended rows into a merge within a few intervals.
head -5 "$dir/b.csv" | tail -2 >> "$dir/feed.csv"
for _ in $(seq 1 100); do
    epoch=$("$ARCS" client --addr "$addr" stats --dataset beta | jq '.epoch')
    [ "$epoch" -ge 2 ] && break
    sleep 0.1
done
[ "$epoch" -ge 2 ] || { echo "FAIL: feeder never merged (epoch $epoch)" >&2; exit 1; }

# Typed failure classes map to distinct exit codes.
expect_exit 3 "$ARCS" client --addr "$addr" query --dataset gamma \
    --group A --support 0 --confidence 0          # unknown dataset
expect_exit 3 "$ARCS" client --addr "$addr" query --dataset alpha \
    --group missing --support 0 --confidence 0    # unknown group
expect_exit 6 "$ARCS" client --addr "$addr" query --dataset alpha \
    --group A --support 0 --confidence 0 --deadline-ms 0   # expired deadline
expect_exit 2 "$ARCS" client --addr "$addr" frobnicate --dataset alpha  # usage

kill "$daemon_pid" 2>/dev/null || true
daemon_pid=""

# One injected-fault schedule through the daemon paths: the first tenant
# lookup fails with a typed FAULT_INJECTED error (exit 4), the next one
# is served. Requires a binary built with --features failpoints; opt in
# with SMOKE_FAILPOINTS=1.
if [ "${SMOKE_FAILPOINTS:-0}" = "1" ]; then
    rm -f "$dir/port.txt"
    ARCS_FAILPOINTS="daemon.tenant-lookup=error@1" \
        "$ARCS" daemon --listen 127.0.0.1:0 --datasets alpha="$dir/a.csv" \
        --x age --y salary --criterion group --bins 20 \
        --port-file "$dir/port.txt" --max-seconds 60 &
    daemon_pid=$!
    wait_for_port_file "$dir/port.txt"
    addr=$(cat "$dir/port.txt")
    expect_exit 4 "$ARCS" client --addr "$addr" open --dataset alpha
    "$ARCS" client --addr "$addr" open --dataset alpha | jq -e '.epoch == 0'
    kill "$daemon_pid" 2>/dev/null || true
    daemon_pid=""
fi

echo "daemon smoke: OK"
