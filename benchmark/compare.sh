#!/usr/bin/env bash
# benchmark/compare.sh A.jsonl B.jsonl
#
# A and B are result files written by `run.sh --results FILE` (one stamped
# result object per run). Prints, per (workload, end-to-end metric), the
# median and quartile spread of each side and PASS/FAIL of B against A
# under the metric's bound; exits 1 on any FAIL. Run from the repository
# root.
set -euo pipefail
[ $# -eq 2 ] || { echo "usage: benchmark/compare.sh A.jsonl B.jsonl" >&2; exit 2; }

target="${CARGO_TARGET_DIR:-benchmark/target}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml >&2
exec "$target/release/just-benchmark" compare "$1" "$2"
