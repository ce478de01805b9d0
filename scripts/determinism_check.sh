#!/usr/bin/env bash
# Determinism regression check for the sim engine: two runs of the
# TiVo integration scenario with the same seed must produce
# byte-identical metrics JSON, span listings, and profiler output.
# Registered in ctest as `determinism_sim_executor`; each run is a
# fresh process, so the metrics registry, span id counter, and
# profiler sample store start from zero both times.
#
# With a third argument (the hydra_fleet binary), a 4-host fleet
# scale run is checked the same way: two fresh
# processes, byte-identical report JSON and metrics dump. Registered
# in ctest as `determinism_fleet`.
#
# Usage: determinism_check.sh <hydra_sim-binary> <scratch-dir> \
#                             [hydra_fleet-binary]
set -euo pipefail

BIN="$1"
SCRATCH="$2"
FLEET_BIN="${3:-}"
mkdir -p "$SCRATCH"

# Each run gets its own subdirectory but identical file names, so the
# paths echoed into stdout are comparable byte for byte.
run() {
    local dir="$SCRATCH/$1"
    mkdir -p "$dir"
    (cd "$dir" &&
     "$BIN" --server offloaded --client offloaded \
            --seconds 8 --seed 42 \
            --metrics-format=json \
            --metrics-out metrics.json \
            --spans-out spans.json \
            --flight-out flight.json --flight-interval-ms 500 \
            --profile-out profile.folded --profile-interval-ms 250 \
            > stdout.txt)
}

run a
run b

cmp "$SCRATCH/a/metrics.json" "$SCRATCH/b/metrics.json" || {
    echo "FAIL: metrics JSON differs between runs" >&2
    diff "$SCRATCH/a/metrics.json" "$SCRATCH/b/metrics.json" | head >&2
    exit 1
}
cmp "$SCRATCH/a/spans.json" "$SCRATCH/b/spans.json" || {
    echo "FAIL: span output differs between runs" >&2
    diff "$SCRATCH/a/spans.json" "$SCRATCH/b/spans.json" | head >&2
    exit 1
}
cmp "$SCRATCH/a/flight.json" "$SCRATCH/b/flight.json" || {
    echo "FAIL: flight recording differs between runs" >&2
    diff "$SCRATCH/a/flight.json" "$SCRATCH/b/flight.json" | head >&2
    exit 1
}
cmp "$SCRATCH/a/profile.folded" "$SCRATCH/b/profile.folded" || {
    echo "FAIL: profile output differs between runs" >&2
    diff "$SCRATCH/a/profile.folded" "$SCRATCH/b/profile.folded" | head >&2
    exit 1
}
cmp "$SCRATCH/a/stdout.txt" "$SCRATCH/b/stdout.txt" || {
    echo "FAIL: scenario output differs between runs" >&2
    diff "$SCRATCH/a/stdout.txt" "$SCRATCH/b/stdout.txt" | head >&2
    exit 1
}

echo "OK: sim engine is deterministic (metrics, spans, flight"
echo "    recording, profile, and scenario output byte-identical)"

# Chaos section: the seeded fault injector must not cost determinism.
# Two fresh-process runs with the same chaos seed — packet drop /
# duplicate / corrupt draws, slowed posts, and a mid-stream NIC reset
# with its restart-with-state-handoff recovery — must still be
# byte-identical.
run_chaos() {
    local dir="$SCRATCH/chaos-$1"
    mkdir -p "$dir"
    (cd "$dir" &&
     "$BIN" --server offloaded --client offloaded \
            --seconds 8 --seed 42 \
            --chaos '7:drop=0.01,dup=0.01,corrupt=0.005,slow=0.02,reset@3000=client-nic/5' \
            --metrics-format=json \
            --metrics-out metrics.json \
            > stdout.txt)
}

run_chaos a
run_chaos b

cmp "$SCRATCH/chaos-a/metrics.json" "$SCRATCH/chaos-b/metrics.json" || {
    echo "FAIL: seeded-chaos metrics JSON differs between runs" >&2
    diff "$SCRATCH/chaos-a/metrics.json" \
         "$SCRATCH/chaos-b/metrics.json" | head >&2
    exit 1
}
cmp "$SCRATCH/chaos-a/stdout.txt" "$SCRATCH/chaos-b/stdout.txt" || {
    echo "FAIL: seeded-chaos scenario output differs between runs" >&2
    diff "$SCRATCH/chaos-a/stdout.txt" \
         "$SCRATCH/chaos-b/stdout.txt" | head >&2
    exit 1
}
grep -q "faults injected" "$SCRATCH/chaos-a/stdout.txt" || {
    echo "FAIL: chaos run reported no injected faults" >&2
    exit 1
}

echo "OK: seeded chaos injection replays byte-for-byte (faults,"
echo "    recovery, metrics, and scenario output identical)"

# Fleet section: a 4-host open-loop scale run (placement ring, remote
# wire channels, churn) must be just as reproducible under the sim
# engine. The JSON report carries only virtual-time quantities, so it
# is comparable byte for byte; wall-clock lives in the table output
# only.
if [ -n "$FLEET_BIN" ]; then
    run_fleet() {
        local dir="$SCRATCH/fleet-$1"
        mkdir -p "$dir"
        (cd "$dir" &&
         "$FLEET_BIN" --hosts 4 --streams 500 --rate 200000 \
                      --duration-ms 20 --churn 1 --seed 42 \
                      --json \
                      --metrics-out metrics.json \
                      > report.json)
    }
    run_fleet a
    run_fleet b
    cmp "$SCRATCH/fleet-a/report.json" "$SCRATCH/fleet-b/report.json" || {
        echo "FAIL: 4-host fleet report differs between runs" >&2
        diff "$SCRATCH/fleet-a/report.json" \
             "$SCRATCH/fleet-b/report.json" | head >&2
        exit 1
    }
    cmp "$SCRATCH/fleet-a/metrics.json" \
        "$SCRATCH/fleet-b/metrics.json" || {
        echo "FAIL: 4-host fleet metrics JSON differs between runs" >&2
        diff "$SCRATCH/fleet-a/metrics.json" \
             "$SCRATCH/fleet-b/metrics.json" | head >&2
        exit 1
    }
    echo "OK: 4-host fleet scale run is deterministic (report and"
    echo "    metrics byte-identical)"
fi
