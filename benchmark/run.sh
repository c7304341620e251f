#!/usr/bin/env bash
# Builds the benchmark package and runs it. Run from the repository root.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the last line of standard output is the result object
#       (this is the form the driver calls, see BENCHMARK.json)
#   benchmark/run.sh [--seed N] [--seconds S] [--repeat R] [--results FILE]
#       every workload, timed and traced, R times; one stamped result
#       object per run is appended to FILE (default benchmark/out/results.jsonl)
set -euo pipefail

workload="" seed=1 seconds=10 trace="" repeat=1 results=""
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2" ;;
        --seed) seed="$2" ;;
        --seconds) seconds="$2" ;;
        --trace) trace="$2" ;;
        --repeat) repeat="$2" ;;
        --results) results="$2" ;;
        *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
    esac
    [ $# -ge 2 ] || { echo "run.sh: $1 needs a value" >&2; exit 2; }
    shift 2
done

target="${CARGO_TARGET_DIR:-benchmark/target}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml >&2
bin="$target/release/just-benchmark"

JUST_BENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
JUST_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export JUST_BENCH_COMMIT JUST_BENCH_RUSTC

if [ -n "$workload" ]; then
    exec "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" \
        --trace "${trace:-0}" ${results:+--results "$results"}
fi

results="${results:-benchmark/out/results.jsonl}"
mkdir -p "$(dirname "$results")"
for _ in $(seq "$repeat"); do
    for w in ingest point_hot analytic mixed_cold; do
        for t in ${trace:-0 1}; do
            "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" \
                --trace "$t" --results "$results"
        done
    done
done
echo "results appended to $results" >&2
