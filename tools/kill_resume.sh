#!/usr/bin/env bash
# Kill-resume gate for durable coordinator sweeps.
#
# Repeatedly SIGKILLs a coordinator mid-sweep (no drain, no flush — the
# crash case), restarts it on the same --cache file, and requires:
#
#   1. the restarted coordinator loads the records the victim flushed
#      (`smtflex stats` shows result_cache_entries > 0 before the resumed
#      sweep is sent),
#   2. the resumed sweep is byte-identical to a single-node run,
#   3. after the resume, a fleet-less coordinator on the same cache
#      renders the sweep with ZERO recompute (no "computing ... locally"
#      warning) — i.e. every chunk the fleet ever delivered was durable
#      and nothing was redone.
#
# Usage: kill_resume.sh <smtflex binary> [rounds]

set -euo pipefail

BIN=${1:?usage: kill_resume.sh <smtflex binary> [rounds]}
ROUNDS=${2:-3}

export SMTFLEX_BUDGET=${SMTFLEX_BUDGET:-2000}
export SMTFLEX_WARMUP=${SMTFLEX_WARMUP:-500}

WORK=$(mktemp -d /tmp/smtflex_kill_resume.XXXXXX)
PIDS=()
cleanup() {
    local pid
    for pid in "${PIDS[@]:-}"; do
        kill "$pid" 2>/dev/null || true
    done
    wait 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

# Three backends on loopback, one private cache each.
"$BIN" serve --port 7411 --cache "$WORK/b1_cache.txt" & PIDS+=($!)
"$BIN" serve --port 7412 --cache "$WORK/b2_cache.txt" & PIDS+=($!)
"$BIN" serve --port 7413 --cache "$WORK/b3_cache.txt" & PIDS+=($!)
sleep 1
BACKENDS=(--backend 127.0.0.1:7411 --backend 127.0.0.1:7412
          --backend 127.0.0.1:7413)

# The single-node reference (no fleet).
SMTFLEX_CACHE="$WORK/solo_cache.txt" "$BIN" sweep > "$WORK/solo_sweep.txt"

# True once a shard segment of cache $1 holds a CRC-tagged record.
has_record() {
    grep -qs '|c[0-9a-f]\{8\}$' "$1".shard-*
}

for ROUND in $(seq 1 "$ROUNDS"); do
    echo "=== round $ROUND: SIGKILL mid-sweep, then resume ==="
    # One cache file per round, shared by the victim, resumed and verify
    # coordinators: only what the victim flushed to it may carry state
    # across the kill.
    CACHE="$WORK/coord${ROUND}.txt"

    "$BIN" coordinator --port 7410 --cache "$CACHE" "${BACKENDS[@]}" \
        2> "$WORK/victim${ROUND}.log" &
    VICTIM=$!
    sleep 1

    # Fire the sweep, then SIGKILL the coordinator as soon as the first
    # delivered record is in its cache — mid-sweep by construction.
    "$BIN" sweep --addr 127.0.0.1:7410 > "$WORK/killed_sweep.txt" \
        2>/dev/null & CLIENT=$!
    for _ in $(seq 1 200); do
        has_record "$CACHE" && break
        sleep 0.05
    done
    kill -9 "$VICTIM"
    wait "$VICTIM" 2>/dev/null || true
    wait "$CLIENT" 2>/dev/null || true
    has_record "$CACHE" ||
        { echo "FAIL: no cached record survived the kill"; exit 1; }

    # Resume: new process, same cache. It must load the victim's records
    # before it sees the sweep, and complete the sweep byte-identically
    # to the single-node reference.
    "$BIN" coordinator --port 7410 --cache "$CACHE" "${BACKENDS[@]}" \
        2> "$WORK/resumed${ROUND}.log" &
    RESUMED=$!
    sleep 1
    LOADED=$("$BIN" stats --addr 127.0.0.1:7410 |
             awk '$1 == "result_cache_entries" { print $2 }')
    if [ "${LOADED:-0}" -eq 0 ]; then
        echo "FAIL: resumed coordinator loaded no cached records"
        cat "$WORK/resumed${ROUND}.log"
        exit 1
    fi
    "$BIN" sweep --addr 127.0.0.1:7410 > "$WORK/resumed_sweep.txt"
    kill "$RESUMED"; wait "$RESUMED" 2>/dev/null || true

    diff -u "$WORK/solo_sweep.txt" "$WORK/resumed_sweep.txt"
    echo "round $ROUND: resumed from $LOADED cached records;" \
         "sweep is byte-identical"

    # Zero-recompute proof: with the now-complete cache, a coordinator
    # with NO fleet must serve the sweep purely from stored records —
    # any missing record would trigger the local-compute warning.
    "$BIN" coordinator --port 7410 --cache "$CACHE" \
        2> "$WORK/verify${ROUND}.log" &
    VERIFY=$!
    sleep 1
    "$BIN" sweep --addr 127.0.0.1:7410 > "$WORK/cache_only_sweep.txt"
    kill "$VERIFY"; wait "$VERIFY" 2>/dev/null || true

    diff -u "$WORK/solo_sweep.txt" "$WORK/cache_only_sweep.txt"
    if grep -q "computing .* locally" "$WORK/verify${ROUND}.log"; then
        echo "FAIL: cache-only render recomputed records"
        cat "$WORK/verify${ROUND}.log"
        exit 1
    fi
    echo "round $ROUND: the cache alone serves the sweep, zero recompute"
done

echo "kill-resume gate passed ($ROUNDS rounds)"
