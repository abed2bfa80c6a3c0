#!/bin/sh
# Serving smoke: boot comserve on a random port in replay mode, push
# the recorded stream through comload, assert a non-empty match count
# and a clean drain on SIGTERM. Then the chaos phase: the same replay
# with a write-ahead log, SIGKILL mid-stream, restart on the same log
# directory, re-push, and assert the final drain summary is identical
# to the uninterrupted run — crash recovery is bit-exact. Then the
# fingerprint phase: a WAL server is killed mid-stream and restarted
# under another seed, which must exit 1 naming the seed (the checkpoint
# at record 0 of its log pins it) instead of re-driving its log into
# different state. Finally the
# fleet chaos phase: a comroute router over three replay shards (each
# serving its spatial-hash sub-stream with its own WAL), SIGKILL one
# shard mid-push, restart it on the same address and WAL (it listens
# only once recovery is done), re-push through the router, and assert
# every shard's drain
# summary matches the uninterrupted fleet oracle — a partial outage
# stays partial and recovery is bit-exact per shard. This is the CI
# end-to-end check for the live matching service (see README
# "Serving").
# Usage: scripts/serve_smoke.sh  (or `make serve-smoke`)
set -eu

cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# wait_port portfile pid logfile: block until comserve writes its port.
wait_port() {
    i=0
    while [ ! -s "$1" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "comserve never wrote its port file" >&2
            cat "$3" >&2
            kill "$2" 2>/dev/null || true
            exit 1
        fi
        sleep 0.1
    done
}

# wait_dead pid logfile: block until the process exits.
wait_dead() {
    i=0
    while kill -0 "$1" 2>/dev/null; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "comserve did not exit" >&2
            cat "$2" >&2
            kill -9 "$1" 2>/dev/null || true
            exit 1
        fi
        sleep 0.1
    done
}

echo "==> build"
go build -o "$tmp/comserve" ./cmd/comserve
go build -o "$tmp/comload" ./cmd/comload
go build -o "$tmp/comroute" ./cmd/comroute
go run ./cmd/comgen -requests 400 -workers 300 -seed 42 > "$tmp/stream.csv"

echo "==> boot comserve (replay mode, random port)"
"$tmp/comserve" -addr 127.0.0.1:0 -alg DemCOM -seed 42 \
    -replay "$tmp/stream.csv" -port-file "$tmp/port.txt" \
    > "$tmp/comserve.log" 2>&1 &
srv=$!
wait_port "$tmp/port.txt" "$srv" "$tmp/comserve.log"
addr="$(cat "$tmp/port.txt")"
echo "    listening on $addr"

echo "==> push the workload through comload"
"$tmp/comload" -url "http://$addr" -in "$tmp/stream.csv" \
    -conns 8 -batch 16 -retries 20 -min-matched 1 -label smoke \
    -out "$tmp/load.json"

echo "==> drain on SIGTERM"
kill -TERM "$srv"
wait_dead "$srv" "$tmp/comserve.log"

cat "$tmp/comserve.log"
grep -q "matched" "$tmp/comserve.log" || {
    echo "comserve summary missing" >&2
    exit 1
}
oracle="$(grep "comserve: matched" "$tmp/comserve.log")"

echo "==> chaos: replay with a WAL, SIGKILL mid-stream"
"$tmp/comserve" -addr 127.0.0.1:0 -alg DemCOM -seed 42 \
    -replay "$tmp/stream.csv" -port-file "$tmp/port2.txt" \
    -wal-dir "$tmp/wal" -fsync-batch 8 \
    > "$tmp/comserve2.log" 2>&1 &
srv2=$!
wait_port "$tmp/port2.txt" "$srv2" "$tmp/comserve2.log"
addr2="$(cat "$tmp/port2.txt")"
echo "    listening on $addr2 (wal: $tmp/wal)"

# Throttled push in the background so the kill lands mid-stream; this
# client dies with its server, which is expected.
"$tmp/comload" -url "http://$addr2" -in "$tmp/stream.csv" \
    -conns 4 -batch 8 -retries 50 -qps 400 \
    > /dev/null 2>&1 &
load=$!
sleep 0.7
kill -9 "$srv2"
wait_dead "$srv2" "$tmp/comserve2.log"
wait "$load" 2>/dev/null || true
echo "    killed comserve mid-stream"

echo "==> restart on the same WAL and resume the push"
"$tmp/comserve" -addr 127.0.0.1:0 -alg DemCOM -seed 42 \
    -replay "$tmp/stream.csv" -port-file "$tmp/port3.txt" \
    -wal-dir "$tmp/wal" -fsync-batch 8 \
    > "$tmp/comserve3.log" 2>&1 &
srv3=$!
wait_port "$tmp/port3.txt" "$srv3" "$tmp/comserve3.log"
addr3="$(cat "$tmp/port3.txt")"
grep -q "comserve: recovered" "$tmp/comserve3.log" || {
    echo "restart did not recover from the WAL" >&2
    cat "$tmp/comserve3.log" >&2
    exit 1
}
echo "    $(grep 'comserve: recovered' "$tmp/comserve3.log")"

# Re-push the whole stream: recovered events dedupe as "resumed", the
# rest apply. Zero failures required.
"$tmp/comload" -url "http://$addr3" -in "$tmp/stream.csv" \
    -conns 8 -batch 16 -retries 50 -label chaos -out "$tmp/load2.json"

kill -TERM "$srv3"
wait_dead "$srv3" "$tmp/comserve3.log"
cat "$tmp/comserve3.log"

recovered="$(grep "comserve: matched" "$tmp/comserve3.log")"
if [ "$recovered" != "$oracle" ]; then
    echo "chaos: recovered summary differs from the uninterrupted run" >&2
    echo "    clean:     $oracle" >&2
    echo "    recovered: $recovered" >&2
    exit 1
fi
echo "    recovery is bit-exact: $recovered"

echo "==> fingerprint: SIGKILL mid-stream, restart under another seed"
"$tmp/comserve" -addr 127.0.0.1:0 -alg DemCOM -seed 42 \
    -replay "$tmp/stream.csv" -port-file "$tmp/port4.txt" \
    -wal-dir "$tmp/wal0" -fsync-batch 8 \
    > "$tmp/comserve4.log" 2>&1 &
srv4=$!
wait_port "$tmp/port4.txt" "$srv4" "$tmp/comserve4.log"
"$tmp/comload" -url "http://$(cat "$tmp/port4.txt")" -in "$tmp/stream.csv" \
    -conns 4 -batch 8 -retries 50 -qps 400 \
    > /dev/null 2>&1 &
load=$!
sleep 0.5
kill -9 "$srv4"
wait_dead "$srv4" "$tmp/comserve4.log"
wait "$load" 2>/dev/null || true
# The restart must refuse the log it cannot re-drive faithfully: exit 1,
# naming the seed that record 0's checkpoint pins, instead of recovering
# silently into different state.
status=0
"$tmp/comserve" -addr 127.0.0.1:0 -alg DemCOM -seed 43 \
    -replay "$tmp/stream.csv" -port-file "$tmp/port5.txt" \
    -wal-dir "$tmp/wal0" -fsync-batch 8 \
    > "$tmp/comserve5.log" 2>&1 || status=$?
if [ "$status" -ne 1 ] || ! grep -q "seed" "$tmp/comserve5.log"; then
    echo "fingerprint: restart under another seed exited $status, want 1 naming the seed" >&2
    cat "$tmp/comserve5.log" >&2
    exit 1
fi
echo "    refused: $(grep seed "$tmp/comserve5.log" | head -1)"

# ----------------------------------------------------------------------
# Fleet chaos: router + 3 shards, SIGKILL one mid-push, restart it on
# its WAL, full re-push, per-shard oracle comparison.
# ----------------------------------------------------------------------

echo "==> fleet: split the stream by shard ownership"
"$tmp/comroute" -split "$tmp/stream.csv" -names s1,s2,s3 -out "$tmp/shards"

# boot_shard name csv logfile portfile [extra flags...]
boot_shard() {
    bs_name=$1 bs_csv=$2 bs_log=$3 bs_port=$4
    shift 4
    "$tmp/comserve" -alg DemCOM -seed 42 -replay "$bs_csv" \
        -port-file "$bs_port" "$@" > "$bs_log" 2>&1 &
    bs_pid=$!
    wait_port "$bs_port" "$bs_pid" "$bs_log"
}

echo "==> fleet oracle: uninterrupted 3-shard run through the router"
for s in s1 s2 s3; do
    boot_shard "$s" "$tmp/shards/$s.csv" "$tmp/oracle-$s.log" "$tmp/oracle-$s.port" \
        -addr 127.0.0.1:0
    eval "oracle_${s}_pid=$bs_pid"
done
"$tmp/comroute" -addr 127.0.0.1:0 -port-file "$tmp/oracle-router.port" \
    -shards "s1=http://$(cat "$tmp/oracle-s1.port"),s2=http://$(cat "$tmp/oracle-s2.port"),s3=http://$(cat "$tmp/oracle-s3.port")" \
    > "$tmp/oracle-router.log" 2>&1 &
orouter=$!
wait_port "$tmp/oracle-router.port" "$orouter" "$tmp/oracle-router.log"

"$tmp/comload" -url "http://$(cat "$tmp/oracle-router.port")" -in "$tmp/stream.csv" \
    -conns 8 -batch 8 -retries 50 -unavail-retries 100 -min-matched 1 \
    -label fleet-oracle -out "$tmp/fleet-oracle.json"

kill -TERM "$orouter" 2>/dev/null || true
for s in s1 s2 s3; do
    eval "pid=\$oracle_${s}_pid"
    kill -TERM "$pid"
    wait_dead "$pid" "$tmp/oracle-$s.log"
    grep "comserve: matched" "$tmp/oracle-$s.log" > "$tmp/oracle-$s.matched" || {
        echo "fleet oracle: shard $s summary missing" >&2
        cat "$tmp/oracle-$s.log" >&2
        exit 1
    }
    echo "    oracle $s: $(cat "$tmp/oracle-$s.matched")"
done
wait "$orouter" 2>/dev/null || true

echo "==> fleet chaos: 3 WAL shards, SIGKILL s2 mid-push"
for s in s1 s2 s3; do
    boot_shard "$s" "$tmp/shards/$s.csv" "$tmp/fleet-$s.log" "$tmp/fleet-$s.port" \
        -addr 127.0.0.1:0 -wal-dir "$tmp/fwal-$s" -fsync-batch 8
    eval "fleet_${s}_pid=$bs_pid"
done
s2addr="$(cat "$tmp/fleet-s2.port")"
"$tmp/comroute" -addr 127.0.0.1:0 -port-file "$tmp/fleet-router.port" \
    -shards "s1=http://$(cat "$tmp/fleet-s1.port"),s2=http://$s2addr,s3=http://$(cat "$tmp/fleet-s3.port")" \
    -probe-interval 50ms \
    > "$tmp/fleet-router.log" 2>&1 &
frouter=$!
wait_port "$tmp/fleet-router.port" "$frouter" "$tmp/fleet-router.log"
raddr="$(cat "$tmp/fleet-router.port")"

# Paced background push so the SIGKILL lands mid-stream. Dead-shard
# lines answer unavailable and are retried or dropped client-side;
# the full re-push below settles everything.
"$tmp/comload" -url "http://$raddr" -in "$tmp/stream.csv" \
    -conns 4 -batch 8 -qps 400 -retries 50 -unavail-retries 5 \
    > /dev/null 2>&1 &
fload=$!
sleep 0.7
eval "pid=\$fleet_s2_pid"
kill -9 "$pid"
wait_dead "$pid" "$tmp/fleet-s2.log"
wait "$fload" 2>/dev/null || true
echo "    killed shard s2 mid-stream"

echo "==> fleet: restart s2 on its WAL, re-push"
boot_shard s2 "$tmp/shards/s2.csv" "$tmp/fleet-s2b.log" "$tmp/fleet-s2b.port" \
    -addr "$s2addr" -wal-dir "$tmp/fwal-s2" -fsync-batch 8
fleet_s2_pid=$bs_pid

# Full re-push through the router: recovered events dedupe as resumed,
# the killed shard's cells ride out its restart on the unavailable budget.
# Zero failures required (comload exits non-zero otherwise).
"$tmp/comload" -url "http://$raddr" -in "$tmp/stream.csv" \
    -conns 8 -batch 8 -retries 100 -unavail-retries 400 -min-matched 1 \
    -label fleet-chaos -out "$tmp/fleet-chaos.json"

grep -q "comserve: recovered" "$tmp/fleet-s2b.log" || {
    echo "fleet chaos: restarted shard did not recover from its WAL" >&2
    cat "$tmp/fleet-s2b.log" >&2
    exit 1
}
echo "    $(grep 'comserve: recovered' "$tmp/fleet-s2b.log")"

kill -TERM "$frouter" 2>/dev/null || true
for s in s1 s2 s3; do
    eval "pid=\$fleet_${s}_pid"
    kill -TERM "$pid"
    log="$tmp/fleet-$s.log"
    [ "$s" = s2 ] && log="$tmp/fleet-s2b.log"
    wait_dead "$pid" "$log"
    got="$(grep "comserve: matched" "$log" || true)"
    want="$(cat "$tmp/oracle-$s.matched")"
    if [ "$got" != "$want" ]; then
        echo "fleet chaos: shard $s summary differs from the oracle" >&2
        echo "    oracle: $want" >&2
        echo "    chaos:  $got" >&2
        cat "$log" >&2
        exit 1
    fi
    echo "    $s is bit-exact: $got"
done
wait "$frouter" 2>/dev/null || true
cat "$tmp/fleet-router.log"
grep -q "comroute: shard s2" "$tmp/fleet-router.log" || {
    echo "fleet chaos: router summary missing" >&2
    exit 1
}

echo "==> OK"
