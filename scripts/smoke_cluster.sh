#!/usr/bin/env bash
# Multi-process cluster smoke test: launches a real 2-shard x 4-replica
# RingBFT cluster as separate `ringbft-node` processes on localhost TCP,
# kills one replica with SIGKILL mid-run and restarts it from its
# write-ahead ledger (`--data-dir`: the restarted process must replay
# its local log instead of starting blank), and requires the workload
# to complete a minimum number of transactions end-to-end.
#
# The shard-1 process also runs with causal tracing at full sampling,
# `--telemetry-port` and `--trace-dump-path`: mid-run the script scrapes
# the live HTTP endpoint (well-formed JSON, populated phase histograms,
# span events on the /trace route) and at the end it requires the
# periodic trace-dump file to hold assemblable span events.
#
# Used by CI; runnable locally:
#   cargo build --release && scripts/smoke_cluster.sh
#
# Environment:
#   RINGBFT_NODE   path to the ringbft-node binary
#                  (default target/release/ringbft-node)
#   SMOKE_SECS     workload duration in seconds (default 25)
#   SMOKE_MIN_TXNS minimum completed transactions (default 50)
#   SMOKE_KILL_AT  seconds into the workload before the kill/restart
#                  (default 8; 0 disables the restart phase)

set -euo pipefail

SECS="${SMOKE_SECS:-25}"
MIN_TXNS="${SMOKE_MIN_TXNS:-50}"
KILL_AT="${SMOKE_KILL_AT:-8}"
WORKDIR="$(mktemp -d)"
CONFIG="$WORKDIR/cluster.json"
TRACE_DUMP="$WORKDIR/trace-dump.jsonl"
TELEMETRY_PORT=0

if [[ -z "${RINGBFT_NODE:-}" ]]; then
    # The root package's `cargo build --release` does not build
    # dependency binaries; build (or refresh) the node binary here.
    echo "smoke: building ringbft-node"
    cargo build --release -p ringbft-net --bin ringbft-node
    RINGBFT_NODE=target/release/ringbft-node
fi
BIN="$RINGBFT_NODE"

if [[ ! -x "$BIN" ]]; then
    echo "smoke: $BIN not found" >&2
    exit 2
fi

PIDS=()
VICTIM_PID=""

cleanup() {
    # Kill every spawned ringbft-node — replicas, the victim's restarted
    # incarnation, and (on failure paths) the workload — then reap them
    # so no process outlives the script whatever branch exited.
    for pid in ${VICTIM_PID:-} "${PIDS[@]:-}"; do
        [[ -n "$pid" ]] && kill "$pid" 2>/dev/null || true
    done
    sleep 0.2
    for pid in ${VICTIM_PID:-} "${PIDS[@]:-}"; do
        [[ -n "$pid" ]] && kill -9 "$pid" 2>/dev/null || true
    done
    wait 2>/dev/null || true
    rm -rf "$WORKDIR"
}
trap cleanup EXIT INT TERM

# Launches the replica processes for the config generated with the given
# port base. The victim replica S0r3 runs as its own process so it can
# be killed and blank-restarted alone; its three shard siblings share a
# process (clients learn reply routes per *process* via Hello dial-back,
# so the reply quorum f+1 = 2 must live in a process the client dials —
# the primary's). Returns via globals: PIDS, VICTIM_PID.
start_replicas() {
    local port_base="$1"
    "$BIN" --example-config 2 4 --port-base "$port_base" >"$CONFIG"
    # Trace every transaction (default is 1/64): the smoke run is short
    # and the scrape assertions below want guaranteed span traffic.
    grep -q '"trace_sample_rate": 64,' "$CONFIG" || {
        echo "smoke: example config lost the trace_sample_rate knob" >&2
        exit 1
    }
    sed -i 's/"trace_sample_rate": 64,/"trace_sample_rate": 1,/' "$CONFIG"
    TELEMETRY_PORT=$((port_base + 1000))
    PIDS=()
    echo "smoke: starting shard 0 (quorum process + victim process, ports from $port_base)"
    "$BIN" --config "$CONFIG" --host S0r0 --host S0r1 --host S0r2 --stats-secs 0 &
    PIDS+=($!)
    # The victim runs on a durable write-ahead ledger, so the kill -9
    # below can restart it crash-consistently from its own log.
    "$BIN" --config "$CONFIG" --host S0r3 --stats-secs 0 \
        --data-dir "$WORKDIR/wal" &
    VICTIM_PID=$!
    echo "smoke: starting shard 1 process (telemetry on ports from $TELEMETRY_PORT)"
    "$BIN" --config "$CONFIG" --host S1r0 --host S1r1 --host S1r2 --host S1r3 \
        --stats-secs 0 --telemetry-port "$TELEMETRY_PORT" \
        --trace-dump-path "$TRACE_DUMP" &
    PIDS+=($!)
}

# Did every replica process survive startup (no port collision)?
replicas_alive() {
    for pid in "${PIDS[@]}" "$VICTIM_PID"; do
        if ! kill -0 "$pid" 2>/dev/null; then
            return 1
        fi
    done
    return 0
}

# Start the cluster, retrying with a different port base when a replica
# dies during startup — a stale listener from a previous CI job (or an
# unrelated service) on the default ports must not fail the run.
STARTED=0
for attempt in 0 1 2; do
    port_base=$((4100 + attempt * 40 + (RANDOM % 20) * 2))
    start_replicas "$port_base"
    sleep 2
    if replicas_alive; then
        STARTED=1
        break
    fi
    echo "smoke: a replica died during startup (port collision?); retrying" >&2
    cleanup_pids=("${PIDS[@]}" "$VICTIM_PID")
    for pid in "${cleanup_pids[@]}"; do kill "$pid" 2>/dev/null || true; done
    wait 2>/dev/null || true
done
if [[ "$STARTED" != 1 ]]; then
    echo "smoke: could not start the cluster after 3 attempts" >&2
    exit 1
fi

echo "smoke: driving 100 logical clients for ${SECS}s (require ≥ ${MIN_TXNS} txns)"
"$BIN" --config "$CONFIG" --workload 1000000:100:42 \
    --stats-secs 5 --duration-secs "$SECS" --min-completions "$MIN_TXNS" &
WORKLOAD_PID=$!
PIDS+=("$WORKLOAD_PID")

# Threads of a process (0 when it is gone).
threads_of() {
    awk '/^Threads:/ { print $2 }' "/proc/$1/status" 2>/dev/null || echo 0
}

# Live telemetry scrape, served directly off S1r0's reactor: /metrics
# must be well-formed JSON with populated phase histograms (the shard
# is committing batches by now), /trace must carry span events.
scrape_telemetry() {
    local url="http://127.0.0.1:${TELEMETRY_PORT}/metrics"
    echo "smoke: scraping $url"
    local body
    if ! body=$(curl -fsS --max-time 5 "$url"); then
        echo "smoke: telemetry scrape failed" >&2
        exit 1
    fi
    python3 - "$body" <<'PY'
import json, sys
doc = json.loads(sys.argv[1])
assert doc["id"] == "S1r0", f"scraped the wrong node: {doc['id']}"
hist = doc["metrics"]["histograms"]["phase.preprepare_commit"]
assert hist["count"] > 0, "live scrape shows empty phase histograms under load"
PY
    local spans
    if ! spans=$(curl -fsS --max-time 5 "http://127.0.0.1:${TELEMETRY_PORT}/trace"); then
        echo "smoke: trace-route scrape failed" >&2
        exit 1
    fi
    if ! grep -q '"ev":"span"' <<<"$spans"; then
        echo "smoke: /trace served no span events" >&2
        exit 1
    fi
    echo "smoke: live telemetry ok (populated phase histograms + span events)"
}

if [[ "$KILL_AT" -eq 0 ]]; then
    sleep 5
    scrape_telemetry
fi

if [[ "$KILL_AT" -gt 0 ]]; then
    # Mid-run fault: kill replica S0r3 outright, leave the shard running
    # at quorum 3/4 for a while, then restart the replica *blank* (fresh
    # process, same listener from the shared config). The restarted
    # incarnation must catch up via the recovery subsystem while the
    # workload keeps completing transactions.
    sleep "$KILL_AT"

    # Thread model: with the cluster fully connected and the workload's
    # 100 logical clients live, a process hosting H replicas runs one
    # reactor thread per replica plus the main thread — connection
    # count must not move it. The shard-1 process hosts 4 replicas:
    # allow 4 reactors + main + 1 slack.
    THREAD_BUDGET=6
    SHARD1_THREADS=$(threads_of "${PIDS[1]}")
    SHARD1_THREADS=${SHARD1_THREADS:-0}
    if [[ "$SHARD1_THREADS" -gt "$THREAD_BUDGET" ]]; then
        echo "smoke: shard-1 process runs $SHARD1_THREADS threads for 4 hosted replicas" \
             "(budget $THREAD_BUDGET — thread-per-connection regression?)" >&2
        exit 1
    fi
    echo "smoke: shard-1 process thread count $SHARD1_THREADS" \
         "(4 reactors + main, budget $THREAD_BUDGET) — ok"
    scrape_telemetry
    echo "smoke: killing replica S0r3 (pid $VICTIM_PID) with SIGKILL"
    kill -9 "$VICTIM_PID" 2>/dev/null || true
    wait "$VICTIM_PID" 2>/dev/null || true
    # kill -9 gave the process no chance to close its log: the appends
    # it had already written must still be sitting in the OS file.
    if [[ ! -s "$WORKDIR/wal/S0r3.wal" ]]; then
        echo "smoke: victim's write-ahead ledger missing or empty after kill -9" >&2
        exit 1
    fi
    sleep 3
    echo "smoke: restarting replica S0r3 from its write-ahead ledger"
    "$BIN" --config "$CONFIG" --host S0r3 --stats-secs 0 \
        --data-dir "$WORKDIR/wal" >"$WORKDIR/victim-restart.log" &
    VICTIM_PID=$!
    sleep 2
    if ! kill -0 "$VICTIM_PID" 2>/dev/null; then
        echo "smoke: restarted replica died immediately" >&2
        cat "$WORKDIR/victim-restart.log" >&2 || true
        exit 1
    fi
    # The restart replayed the log rather than starting blank.
    REPLAYED=$(sed -n 's/.*(\([0-9]*\) bytes, durable checkpoint seq \([0-9]*\)).*/\1/p' \
        "$WORKDIR/victim-restart.log" | head -1)
    if [[ -z "$REPLAYED" || "$REPLAYED" -eq 0 ]]; then
        echo "smoke: restarted replica did not replay its write-ahead ledger:" >&2
        cat "$WORKDIR/victim-restart.log" >&2 || true
        exit 1
    fi
    echo "smoke: S0r3 replayed $REPLAYED bytes from its ledger"
fi

RC=0
wait "$WORKLOAD_PID" || RC=$?

if [[ "$KILL_AT" -gt 0 ]] && ! kill -0 "$VICTIM_PID" 2>/dev/null; then
    echo "smoke: restarted replica did not survive the run" >&2
    exit 1
fi

# The periodic trace dump must have flushed span events the offline
# collector can assemble (the same JSON lines the /trace route serves).
if [[ ! -s "$TRACE_DUMP" ]]; then
    echo "smoke: trace dump $TRACE_DUMP missing or empty" >&2
    exit 1
fi
if ! grep -q '"ev":"span"' "$TRACE_DUMP"; then
    echo "smoke: trace dump holds no span events" >&2
    exit 1
fi
echo "smoke: trace dump flushed ($(wc -l <"$TRACE_DUMP") events)"

echo "smoke: workload exited with status $RC"
exit "$RC"
