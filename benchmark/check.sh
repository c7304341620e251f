#!/usr/bin/env bash
# Format, lint and unit-test the benchmark package, then smoke every
# workload for two seconds, timed and traced. Run from the repository
# root.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
manifest=benchmark/Cargo.toml
cargo fmt --manifest-path "$manifest" --check
cargo clippy --manifest-path "$manifest" --offline --all-targets -- -D warnings
cargo test --manifest-path "$manifest" --offline --release --quiet

# Two seconds give too few samples for a p95, so the smoke checks that
# every operation was answered correctly, not that the run is valid.
for w in ingest point_hot analytic mixed_cold; do
    for t in 0 1; do
        bash benchmark/run.sh --workload "$w" --seed 7 --seconds 2 --trace "$t" 2>/dev/null |
            tail -n 1 | grep -q '"failed":0,' ||
            { echo "smoke failed: $w --trace $t" >&2; exit 1; }
        echo "smoke ok: $w --trace $t"
    done
done
