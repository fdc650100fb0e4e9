#!/bin/sh
# Benchmark snapshot driver (DESIGN.md §11).
#
# Default mode regenerates the canonical snapshots at the repo root:
#   BENCH_kernels.json  -- bench_micro_kernels --snapshot
#   BENCH_fleet.json    -- bench_fleet --snapshot
#   BENCH_tier.json     -- bench_tier --snapshot
#   BENCH_overload.json -- bench_overload --snapshot
#
# --check re-measures and compares against the committed snapshots
# instead of overwriting them, exiting 1 on any regression beyond the
# tolerance (the bench binaries print one line per metric). CI's perf
# lane runs `--check --warn-only` so noisy shared runners surface
# regressions without failing the build; run a plain `--check` on
# quiet hardware to enforce.
#
# Options:
#   --check            compare against committed snapshots, don't write
#   --warn-only        with --check: report regressions but exit 0
#   --tolerance FRAC   fractional slack for --check (default 0.35)
#   --build-dir DIR    build tree with the bench binaries (default build)
#   --full             full-length measurement (default passes --quick)
set -eu

cd "$(dirname "$0")/.."
ROOT=$(pwd)

MODE=regen
WARN_ONLY=0
TOLERANCE=0.35
BUILD_DIR=build
QUICK=--quick

usage() {
    sed -n '2,22p' "$0" | sed 's/^# \{0,1\}//'
    exit "${1:-0}"
}

while [ $# -gt 0 ]; do
    case "$1" in
        --check) MODE=check ;;
        --warn-only) WARN_ONLY=1 ;;
        --tolerance) shift; TOLERANCE=$1 ;;
        --build-dir) shift; BUILD_DIR=$1 ;;
        --full) QUICK="" ;;
        -h|--help) usage 0 ;;
        *) echo "bench_snapshot: unknown option '$1'" >&2; usage 2 ;;
    esac
    shift
done

KERNELS_BIN="$BUILD_DIR/bench/bench_micro_kernels"
FLEET_BIN="$BUILD_DIR/bench/bench_fleet"
TIER_BIN="$BUILD_DIR/bench/bench_tier"
OVERLOAD_BIN="$BUILD_DIR/bench/bench_overload"
for bin in "$KERNELS_BIN" "$FLEET_BIN" "$TIER_BIN" "$OVERLOAD_BIN"; do
    if [ ! -x "$bin" ]; then
        echo "bench_snapshot: missing $bin -- build first:" >&2
        echo "  cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
        exit 2
    fi
done

STATUS=0
run_one() {
    bin=$1
    snapshot=$2
    if [ "$MODE" = check ]; then
        echo "== checking $snapshot =="
        if ! "$bin" --compare "$ROOT/$snapshot" \
            --tolerance "$TOLERANCE" $QUICK; then
            STATUS=1
        fi
    else
        echo "== writing $snapshot =="
        "$bin" --snapshot "$ROOT/$snapshot" $QUICK
    fi
}

run_one "$KERNELS_BIN" BENCH_kernels.json
run_one "$FLEET_BIN" BENCH_fleet.json
run_one "$TIER_BIN" BENCH_tier.json
run_one "$OVERLOAD_BIN" BENCH_overload.json

if [ "$STATUS" -ne 0 ]; then
    if [ "$WARN_ONLY" = 1 ]; then
        echo "bench_snapshot: WARNING: regression detected" \
            "(--warn-only, not failing)" >&2
        exit 0
    fi
    echo "bench_snapshot: FAILED: benchmark regression vs committed" \
        "snapshot (tolerance $TOLERANCE)" >&2
    exit 1
fi
echo "bench_snapshot: done"
