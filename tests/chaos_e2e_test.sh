#!/bin/sh
# Chaos end-to-end test: drive paqocc/paqocd through injected faults
# (PAQOC_FAILPOINTS), kill -9s -- including one mid-GRAPE with
# checkpointing on -- a mid-append crash, and a supervised worker
# crash, and verify the recovery contract of DESIGN.md §9-§10: every
# scenario ends in either a served, byte-identical payload or a clean
# typed error, and a restart (or the fleet router) heals everything.
#
# Usage: chaos_e2e_test.sh <paqocc> <paqocd> <input.qasm> [paqoc-tierd]
set -eu

PAQOCC=$1
PAQOCD=$2
QASM=$3
TIERD=${4:-}
WORK=$(mktemp -d /tmp/paqoc_chaos_e2e.XXXXXX)
cleanup() {
    status=$?
    if [ -n "$DAEMON_PID" ]; then
        kill -9 "$DAEMON_PID" 2>/dev/null || true
    fi
    if [ -n "$TIERD_PID" ]; then
        kill -9 "$TIERD_PID" 2>/dev/null || true
    fi
    rm -rf "$WORK"
    exit "$status"
}
trap cleanup EXIT
DAEMON_PID=
TIERD_PID=

fail() {
    echo "FAIL: $1" >&2
    exit 1
}

SOCK="$WORK/d.sock"
LIB="$WORK/lib"

start_daemon() {
    # $1: extra environment spec for PAQOC_FAILPOINTS (may be empty);
    # remaining arguments are passed to paqocd verbatim.
    fp=$1
    shift
    rm -f "$SOCK"
    if [ -n "$fp" ]; then
        PAQOC_FAILPOINTS=$fp "$PAQOCD" --socket "$SOCK" \
            --library "$LIB" "$@" >> "$WORK/daemon.log" 2>&1 &
    else
        "$PAQOCD" --socket "$SOCK" --library "$LIB" "$@" \
            >> "$WORK/daemon.log" 2>&1 &
    fi
    DAEMON_PID=$!
    i=0
    while [ ! -S "$SOCK" ]; do
        i=$((i + 1))
        [ "$i" -lt 100 ] || fail "daemon did not come up"
        sleep 0.1
    done
}

# 0. The healthy reference payload, computed fully locally.
"$PAQOCC" --topology 2x2 --json "$QASM" > "$WORK/local.json"

# 1. Baseline daemon serve, then kill -9 and restart on the same
#    library: the recovered daemon must serve the identical payload.
start_daemon ""
"$PAQOCC" --connect "$SOCK" --topology 2x2 --json "$QASM" \
    > "$WORK/remote1.json"
cmp -s "$WORK/local.json" "$WORK/remote1.json" \
    || fail "daemon payload differs from the local payload"
kill -9 "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=

start_daemon ""
"$PAQOCC" --connect "$SOCK" --topology 2x2 --json "$QASM" \
    > "$WORK/remote2.json"
cmp -s "$WORK/remote1.json" "$WORK/remote2.json" \
    || fail "payload changed across kill -9 and restart"
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID" || fail "daemon exited non-zero after baseline"
DAEMON_PID=

# 2. Crash mid-append: the daemon aborts while journaling the first
#    fresh pulse. The client must fail with a clean error (not hang),
#    and a restarted daemon must recover the library and serve the
#    same bytes as ever.
rm -rf "$LIB" # fresh library so the compile journals new pulses
start_daemon "journal.append=abort:1"
if "$PAQOCC" --connect "$SOCK" --topology 2x2 --json "$QASM" \
    > "$WORK/crashed.json" 2> "$WORK/crashed.err"; then
    fail "client succeeded against a crashing daemon"
fi
grep -q "failpoints armed" "$WORK/daemon.log" \
    || fail "daemon did not announce its armed failpoints"
wait "$DAEMON_PID" 2>/dev/null && fail "daemon survived an abort" || true
DAEMON_PID=
[ -s "$WORK/crashed.err" ] || fail "client crash error was silent"

start_daemon ""
"$PAQOCC" --connect "$SOCK" --topology 2x2 --json "$QASM" \
    > "$WORK/recovered.json"
cmp -s "$WORK/local.json" "$WORK/recovered.json" \
    || fail "payload differs after crash recovery"
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID" || fail "daemon exited non-zero after recovery"
DAEMON_PID=

# 3. Disk full: the library degrades to read-only but the daemon keeps
#    serving byte-identical payloads, and stays up across requests.
rm -rf "$LIB"
start_daemon "journal.append=enospc:1"
"$PAQOCC" --connect "$SOCK" --topology 2x2 --json "$QASM" \
    > "$WORK/degraded1.json"
cmp -s "$WORK/local.json" "$WORK/degraded1.json" \
    || fail "degraded daemon served a different payload"
"$PAQOCC" --connect "$SOCK" --topology 2x2 --json "$QASM" \
    > "$WORK/degraded2.json"
cmp -s "$WORK/degraded1.json" "$WORK/degraded2.json" \
    || fail "degraded daemon answers changed between requests"
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID" || fail "degraded daemon exited non-zero"
DAEMON_PID=

# 4. Missing daemon: bounded retries fail fast with a typed error...
if "$PAQOCC" --connect "$WORK/no-such.sock" --retries 2 \
    --backoff-ms 1 --topology 2x2 --json "$QASM" \
    > /dev/null 2> "$WORK/noconn.err"; then
    fail "connect to a missing socket succeeded"
fi
grep -q "cannot connect" "$WORK/noconn.err" \
    || fail "missing-daemon error is not typed: $(cat "$WORK/noconn.err")"

# 5. ...and --fallback-local turns the same failure into a local
#    compile with the exact same bytes as a plain local run.
"$PAQOCC" --connect "$WORK/no-such.sock" --retries 1 --backoff-ms 1 \
    --fallback-local --topology 2x2 --json "$QASM" \
    > "$WORK/fallback.json" 2> "$WORK/fallback.err"
cmp -s "$WORK/local.json" "$WORK/fallback.json" \
    || fail "--fallback-local payload differs from the local payload"
grep -q "falling back to local" "$WORK/fallback.err" \
    || fail "fallback did not announce itself on stderr"

# 6. kill -9 mid-GRAPE with checkpointing on: the daemon dies while
#    optimizing, the surviving checkpoint lets a restarted daemon
#    resume, and the resumed payload is byte-identical to an
#    uninterrupted run -- with and without checkpointing enabled
#    (checkpointing never changes the bytes). GRAPE iterations are
#    capped and the circuit kept tiny so the reference runs stay fast;
#    every daemon in this scenario uses the same cap, so their bytes
#    are comparable.
GRAPE_FLAGS="--grape-max-iters 40"
TINY="$WORK/tiny.qasm"
cat > "$TINY" <<'EOF'
OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
h q[0];
cx q[0], q[1];
EOF
rm -rf "$LIB"
start_daemon "" $GRAPE_FLAGS
"$PAQOCC" --connect "$SOCK" --grape --topology 2x2 --json "$TINY" \
    > "$WORK/grape_ref.json"
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID" || fail "grape reference daemon exited non-zero"
DAEMON_PID=

rm -rf "$LIB"
start_daemon "" $GRAPE_FLAGS --checkpoint-every 1
"$PAQOCC" --connect "$SOCK" --grape --topology 2x2 --json "$TINY" \
    > "$WORK/ckpt_ref.json"
cmp -s "$WORK/grape_ref.json" "$WORK/ckpt_ref.json" \
    || fail "checkpointing changed the served bytes"
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID" || fail "checkpointing daemon exited non-zero"
DAEMON_PID=
grep -q "paqocd: checkpoints:" "$WORK/daemon.log" \
    || fail "daemon did not print its checkpoint stats frame"

rm -rf "$LIB"
# Every checkpoint append sleeps, so GRAPE is guaranteed to still be
# mid-derivation when the kill lands -- and at least one append has
# already been made durable.
start_daemon "checkpoint.append=delay-ms(100)" \
    $GRAPE_FLAGS --checkpoint-every 1
"$PAQOCC" --connect "$SOCK" --grape --topology 2x2 --json "$TINY" \
    > /dev/null 2> "$WORK/interrupted.err" &
CLIENT_PID=$!
sleep 0.6
kill -9 "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=
if wait "$CLIENT_PID"; then
    fail "client succeeded against a daemon killed mid-GRAPE"
fi
find "$LIB/checkpoints" -type f 2>/dev/null | grep -q . \
    || fail "no checkpoint survived the kill -9"

start_daemon "" $GRAPE_FLAGS --checkpoint-every 1
"$PAQOCC" --connect "$SOCK" --grape --topology 2x2 --json "$TINY" \
    > "$WORK/resumed.json"
cmp -s "$WORK/ckpt_ref.json" "$WORK/resumed.json" \
    || fail "payload differs after checkpoint resume"
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID" || fail "resumed daemon exited non-zero"
DAEMON_PID=
RESUME_LINE=$(grep "paqocd: checkpoints:" "$WORK/daemon.log" | tail -1)
case "$RESUME_LINE" in
*" 0 trials resumed, 0 completed-trial hits"*)
    fail "restarted daemon never used the checkpoint: $RESUME_LINE" ;;
esac

# 7. Supervised worker crash: --supervise is the fleet router with one
#    worker. The worker aborts just after it starts accepting
#    connections (the worst window), the router restarts it, the
#    client's bounded retries ride across the restart, and SIGTERM
#    still shuts the pair down cleanly. A fleet of one keeps its
#    library in --library DIR itself, so a plain daemon recovers it.
rm -rf "$LIB"
rm -f "$SOCK"
PAQOC_WORKER_FAILPOINTS="worker.crash=abort:1" "$PAQOCD" --supervise \
    --socket "$SOCK" --library "$LIB" >> "$WORK/daemon.log" 2>&1 &
DAEMON_PID=$!
i=0
while [ ! -S "$SOCK" ]; do
    i=$((i + 1))
    [ "$i" -lt 100 ] || fail "supervised daemon did not come up"
    sleep 0.1
done
"$PAQOCC" --connect "$SOCK" --retries 10 --backoff-ms 100 \
    --topology 2x2 --json "$QASM" > "$WORK/supervised.json"
cmp -s "$WORK/local.json" "$WORK/supervised.json" \
    || fail "restarted supervised worker served different bytes"
grep -q "paqocd-router: worker 0 incarnation 1 started" \
    "$WORK/daemon.log" \
    || fail "router never restarted the crashed worker"
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID" || fail "supervised daemon exited non-zero"
DAEMON_PID=
grep -q "paqocd-router: forwarding signal 15 to workers" \
    "$WORK/daemon.log" \
    || fail "router did not forward the shutdown signal"
grep -q "paqocd-router: worker 0 stopped" "$WORK/daemon.log" \
    || fail "worker did not stop on the forwarded signal"
grep -q "paqocd-router: worker 0: 2 incarnations" "$WORK/daemon.log" \
    || fail "router did not report the restarted worker"
[ ! -e "$LIB/worker0" ] || fail "a one-worker fleet split its library"
start_daemon ""
"$PAQOCC" --connect "$SOCK" --retries 10 --backoff-ms 100 \
    --topology 2x2 --json "$QASM" > "$WORK/supervised_lib.json"
cmp -s "$WORK/local.json" "$WORK/supervised_lib.json" \
    || fail "payload differs over the supervised library"
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID" || fail "daemon over the supervised library failed"
DAEMON_PID=
grep "paqocd: spectral library:" "$WORK/daemon.log" | tail -1 \
    | grep -qv ": 0 pulses recovered" \
    || fail "the supervised daemon's library was not recovered"

# 8. Fleet chaos: two workers behind the router, kill -9 one worker
#    while clients are in flight. The router detects the death, keeps
#    dispatching to the survivor, restarts the casualty, and every
#    client that rides its bounded retries gets the byte-identical
#    payload (DESIGN.md §12).
rm -rf "$LIB"
rm -f "$SOCK"
"$PAQOCD" --fleet 2 --socket "$SOCK" --library "$LIB" \
    >> "$WORK/fleet.log" 2>&1 &
DAEMON_PID=$!
i=0
while [ ! -S "$SOCK" ]; do
    i=$((i + 1))
    [ "$i" -lt 100 ] || fail "fleet router did not come up"
    sleep 0.1
done
WPID=
i=0
while [ -z "$WPID" ]; do
    WPID=$(sed -n \
        's/^paqocd-router: worker 0 incarnation 0 started (pid \([0-9]*\)).*/\1/p' \
        "$WORK/fleet.log" | head -1)
    [ -n "$WPID" ] && break
    i=$((i + 1))
    [ "$i" -lt 100 ] || fail "router never announced worker 0"
    sleep 0.1
done

# Load in flight while the worker dies: background clients with
# retries generous enough to span the restart backoff.
for n in 1 2 3 4; do
    "$PAQOCC" --connect "$SOCK" --retries 10 --backoff-ms 100 \
        --topology 2x2 --json "$QASM" > "$WORK/fleet$n.json" &
    eval "FLEET_PID_$n=\$!"
done
kill -9 "$WPID"
for n in 1 2 3 4; do
    eval "pid=\$FLEET_PID_$n"
    wait "$pid" || fail "fleet client $n failed across the worker kill"
    cmp -s "$WORK/local.json" "$WORK/fleet$n.json" \
        || fail "fleet client $n payload differs from the local payload"
done
i=0
until grep -q "worker 0 incarnation 1 started" "$WORK/fleet.log"; do
    i=$((i + 1))
    [ "$i" -lt 100 ] || fail "router never restarted the killed worker"
    sleep 0.1
done
# The restarted incarnation must actually serve.
"$PAQOCC" --connect "$SOCK" --retries 10 --backoff-ms 100 \
    --topology 2x2 --json "$QASM" > "$WORK/fleet_after.json"
cmp -s "$WORK/local.json" "$WORK/fleet_after.json" \
    || fail "fleet payload differs after the worker restart"
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID" || fail "fleet router exited non-zero"
DAEMON_PID=
grep -q "paqocd-router: worker 0: 2 incarnations" "$WORK/fleet.log" \
    || fail "router did not report the restart in its shutdown stats"

# 9. Fleet over TCP with an accept fault: the router drops the first
#    accepted connection (fleet.accept failpoint); the client rides a
#    retry onto a healthy accept and the payload is unchanged. The
#    port is ephemeral, parsed from the router's own announcement.
rm -f "$SOCK"
PAQOC_FAILPOINTS="fleet.accept=return-error:1" "$PAQOCD" --fleet 2 \
    --socket "$SOCK" --listen 127.0.0.1:0 --library "$LIB" \
    >> "$WORK/fleet_tcp.log" 2>&1 &
DAEMON_PID=$!
i=0
while ! grep -q "paqocd: tcp port" "$WORK/fleet_tcp.log"; do
    i=$((i + 1))
    [ "$i" -lt 100 ] || fail "TCP fleet router did not come up"
    sleep 0.1
done
PORT=$(sed -n 's/^paqocd: tcp port \([0-9]*\)$/\1/p' \
    "$WORK/fleet_tcp.log" | head -1)
[ -n "$PORT" ] || fail "could not parse the router's TCP port"
"$PAQOCC" --connect "127.0.0.1:$PORT" --retries 10 --backoff-ms 100 \
    --topology 2x2 --json "$QASM" > "$WORK/fleet_tcp.json"
cmp -s "$WORK/local.json" "$WORK/fleet_tcp.json" \
    || fail "TCP fleet payload differs from the local payload"
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID" || fail "TCP fleet router exited non-zero"
DAEMON_PID=

# 10. Fleet with a poisoned fd handoff: fleet.fdpass=return-error:2
#     fails the SCM_RIGHTS pass to *both* workers on the first
#     accepted connection, so the router runs out of takers and
#     severs it -- the loss window between accept() and the worker
#     owning the fd. The client's bounded retries land on a healthy
#     handoff and the payload is byte-identical.
rm -f "$SOCK"
PAQOC_FAILPOINTS="fleet.fdpass=return-error:2" "$PAQOCD" --fleet 2 \
    --socket "$SOCK" --library "$LIB" \
    >> "$WORK/fleet_fdpass.log" 2>&1 &
DAEMON_PID=$!
i=0
while [ ! -S "$SOCK" ]; do
    i=$((i + 1))
    [ "$i" -lt 100 ] || fail "fdpass-fault fleet router did not come up"
    sleep 0.1
done
"$PAQOCC" --connect "$SOCK" --retries 10 --backoff-ms 100 \
    --topology 2x2 --json "$QASM" > "$WORK/fleet_fdpass.json"
cmp -s "$WORK/local.json" "$WORK/fleet_fdpass.json" \
    || fail "payload differs across the failed fd handoff"
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID" || fail "fdpass-fault fleet router exited non-zero"
DAEMON_PID=

# ---------------------------------------------------------------------
# Shared pulse-cache tier scenarios (DESIGN.md §14). Skipped when the
# paqoc-tierd binary was not passed (older harnesses).
# ---------------------------------------------------------------------
if [ -n "$TIERD" ]; then
    TSOCK="$WORK/tier.sock"
    TSTORE="$WORK/tierstore"

    start_tierd() {
        rm -f "$TSOCK"
        "$TIERD" --socket "$TSOCK" --store "$TSTORE" \
            >> "$WORK/tierd.log" 2>&1 &
        TIERD_PID=$!
        i=0
        while [ ! -S "$TSOCK" ]; do
            i=$((i + 1))
            [ "$i" -lt 100 ] || fail "tier daemon did not come up"
            sleep 0.1
        done
    }

    # Pull one numeric tier counter out of the most recent daemon
    # shutdown table line, e.g. tier_counter tier_hits daemon.log.
    tier_counter() {
        sed -n "s/.*paqocd: tier spectral: .*$1 \([0-9]*\).*/\1/p" \
            "$2" | tail -1
    }

    # 11. Two daemons sharing a tier: daemon A computes locally and
    #     publishes behind; a *fresh* daemon B fetches A's pulses from
    #     the tier instead of recomputing -- and serves the exact same
    #     bytes as a tierless daemon.
    start_tierd
    rm -rf "$LIB"
    start_daemon "" --tier "$TSOCK"
    "$PAQOCC" --connect "$SOCK" --topology 2x2 --json "$QASM" \
        > "$WORK/tier_a.json"
    cmp -s "$WORK/local.json" "$WORK/tier_a.json" \
        || fail "tier-attached daemon A served different bytes"
    kill -TERM "$DAEMON_PID"
    wait "$DAEMON_PID" || fail "tier daemon A exited non-zero"
    DAEMON_PID=
    PUBLISHED=$(tier_counter tier_published "$WORK/daemon.log")
    [ -n "$PUBLISHED" ] && [ "$PUBLISHED" -gt 0 ] \
        || fail "daemon A published nothing to the tier: $PUBLISHED"

    rm -rf "$LIB" # daemon B starts cold: only the tier is warm
    start_daemon "" --tier "$TSOCK"
    "$PAQOCC" --connect "$SOCK" --topology 2x2 --json "$QASM" \
        > "$WORK/tier_b.json"
    cmp -s "$WORK/local.json" "$WORK/tier_b.json" \
        || fail "tier-fed daemon B served different bytes"
    kill -TERM "$DAEMON_PID"
    wait "$DAEMON_PID" || fail "tier daemon B exited non-zero"
    DAEMON_PID=
    HITS=$(tier_counter tier_hits "$WORK/daemon.log")
    [ -n "$HITS" ] && [ "$HITS" -gt 0 ] \
        || fail "daemon B never hit the shared tier: $HITS"

    # 12. kill -9 the tier daemon: a fresh compile daemon pointed at
    #     the dead socket keeps serving byte-identical payloads, and
    #     its breaker trips open instead of hammering the corpse.
    kill -9 "$TIERD_PID"
    wait "$TIERD_PID" 2>/dev/null || true
    TIERD_PID=
    rm -rf "$LIB"
    start_daemon "" --tier "$TSOCK" --tier-cooldown-ms 60000
    "$PAQOCC" --connect "$SOCK" --topology 2x2 --json "$QASM" \
        > "$WORK/tier_dead.json"
    cmp -s "$WORK/local.json" "$WORK/tier_dead.json" \
        || fail "payload differs with the tier daemon dead"
    kill -TERM "$DAEMON_PID"
    wait "$DAEMON_PID" || fail "daemon with dead tier exited non-zero"
    DAEMON_PID=
    grep "paqocd: tier spectral:" "$WORK/daemon.log" | tail -1 \
        | grep -q "breaker open" \
        || fail "breaker did not open against the dead tier"

    # 13. Partition heals: a daemon starts against a down tier, its
    #     breaker opens, then the tier daemon comes back -- the
    #     half-open probe closes the breaker and the anti-entropy
    #     resync republishes the library, so yet another fresh daemon
    #     gets tier hits for pulses the tier never saw published live.
    rm -rf "$LIB" "$TSTORE"
    start_daemon "" --tier "$TSOCK" --tier-cooldown-ms 200
    "$PAQOCC" --connect "$SOCK" --topology 2x2 --json "$QASM" \
        > "$WORK/tier_heal.json"
    cmp -s "$WORK/local.json" "$WORK/tier_heal.json" \
        || fail "payload differs while the tier is partitioned"
    start_tierd # the partition heals
    i=0
    until [ -f "$TSTORE/tier.bin" ] \
        && [ "$(wc -c < "$TSTORE/tier.bin")" -gt 100 ]; do
        i=$((i + 1))
        [ "$i" -lt 100 ] || fail "resync never reached the tier store"
        sleep 0.1
    done
    kill -TERM "$DAEMON_PID"
    wait "$DAEMON_PID" || fail "healed-partition daemon exited non-zero"
    DAEMON_PID=
    RESYNCS=$(tier_counter tier_resyncs "$WORK/daemon.log")
    [ -n "$RESYNCS" ] && [ "$RESYNCS" -gt 0 ] \
        || fail "no anti-entropy resync after the partition healed"
    grep "paqocd: tier spectral:" "$WORK/daemon.log" | tail -1 \
        | grep -q "breaker closed" \
        || fail "breaker did not close after the tier returned"

    rm -rf "$LIB"
    start_daemon "" --tier "$TSOCK"
    "$PAQOCC" --connect "$SOCK" --topology 2x2 --json "$QASM" \
        > "$WORK/tier_resynced.json"
    cmp -s "$WORK/local.json" "$WORK/tier_resynced.json" \
        || fail "resynced tier served different bytes"
    kill -TERM "$DAEMON_PID"
    wait "$DAEMON_PID" || fail "post-resync daemon exited non-zero"
    DAEMON_PID=
    HITS=$(tier_counter tier_hits "$WORK/daemon.log")
    [ -n "$HITS" ] && [ "$HITS" -gt 0 ] \
        || fail "resynced records never served a tier hit: $HITS"

    kill -TERM "$TIERD_PID"
    wait "$TIERD_PID" || fail "tier daemon exited non-zero"
    TIERD_PID=
    grep -q "paqoc-tierd: shut down cleanly" "$WORK/tierd.log" \
        || fail "tier daemon did not announce a clean shutdown"
fi

# ---------------------------------------------------------------------
# Cancellation and overload scenarios (DESIGN.md §15).
# ---------------------------------------------------------------------

# 14. kill -9 the CLIENT mid-GRAPE: the daemon must detect the
#     disconnect, cancel the orphaned derivation at its next poll
#     (counted in the shutdown table), keep running, persist the
#     checkpoint written before unwinding -- and a re-request must
#     resume from it and serve bytes identical to an uninterrupted
#     checkpointed run (scenario 6's reference). The bounded delay
#     budget keeps the derivation slow long enough to orphan it, then
#     lets the resumed request finish fast.
rm -rf "$LIB"
start_daemon "checkpoint.append=delay-ms(100):20" \
    $GRAPE_FLAGS --checkpoint-every 1
"$PAQOCC" --connect "$SOCK" --grape --topology 2x2 --json "$TINY" \
    > /dev/null 2>&1 &
CLIENT_PID=$!
sleep 0.6
kill -9 "$CLIENT_PID"
wait "$CLIENT_PID" 2>/dev/null || true
kill -0 "$DAEMON_PID" 2>/dev/null \
    || fail "daemon died when its client was killed"
find "$LIB/checkpoints" -type f 2>/dev/null | grep -q . \
    || fail "no checkpoint survived the client kill"
"$PAQOCC" --connect "$SOCK" --grape --topology 2x2 --json "$TINY" \
    > "$WORK/cancel_resumed.json"
cmp -s "$WORK/ckpt_ref.json" "$WORK/cancel_resumed.json" \
    || fail "payload differs after a cancelled derivation resumed"
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID" || fail "daemon exited non-zero after client kill"
DAEMON_PID=
SCHED_LINE=$(grep "paqocd: scheduler:" "$WORK/daemon.log" | tail -1)
case "$SCHED_LINE" in
*"cancelled 0,"*|"")
    fail "disconnect cancellation never counted: '$SCHED_LINE'" ;;
esac

# 15. Overload storm: with the ladder pinned at ShedAll through the
#     overload.clock failpoint, a data-plane request is turned away
#     with the typed overload_shed answer carrying retry_after_ms --
#     never served late, never the hot-retry backpressure response --
#     and the shed shows up in the shutdown table.
start_daemon "overload.clock=return-error(1000)" \
    --overload-target-ms 5
if "$PAQOCC" --connect "$SOCK" --topology 2x2 --json "$QASM" \
    > /dev/null 2> "$WORK/shed.err"; then
    fail "request was served by a daemon pinned at ShedAll"
fi
grep -q "overload_shed" "$WORK/shed.err" \
    || fail "shed answer is not typed: $(cat "$WORK/shed.err")"
grep -q "retry after" "$WORK/shed.err" \
    || fail "shed answer carries no back-off: $(cat "$WORK/shed.err")"
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID" || fail "shedding daemon exited non-zero"
DAEMON_PID=
SCHED_LINE=$(grep "paqocd: scheduler:" "$WORK/daemon.log" | tail -1)
case "$SCHED_LINE" in
*"shed 0,"*|"")
    fail "overload shed never counted: '$SCHED_LINE'" ;;
esac

echo "PASS"
