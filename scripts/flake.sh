#!/usr/bin/env bash
# Flake census: how often each check fails on an unchanged tree.
#
#   scripts/flake.sh N
#
# Runs each `ci.sh` figure guard N times, then each tier-1 test binary
# (the debug test binaries `cargo test` builds for the workspace) N times
# with two busy loops beside it, and prints one line per check:
# "<failures>/<runs> <check>". A failed run's output is kept under
# FLAKE_DIR (default: a mktemp dir, printed at the end). At most three
# processes run at once: one check and, for the test binaries, the two
# busy loops. Exits 1 when any check failed at least once.
set -euo pipefail
cd "$(dirname "$0")/.."

N="${1:-}"
[[ "$N" =~ ^[1-9][0-9]*$ ]] || { echo "usage: scripts/flake.sh N" >&2; exit 2; }
FLAKE_DIR="${FLAKE_DIR:-$(mktemp -d)}"
mkdir -p "$FLAKE_DIR"

LOOPS=()
stop_loops() {
    [ ${#LOOPS[@]} -eq 0 ] || kill "${LOOPS[@]}" 2>/dev/null || true
    LOOPS=()
}
trap stop_loops EXIT

TOTAL_FAILED=0
# tally <check> <failures>
tally() {
    printf '%d/%d %s\n' "$2" "$N" "$1"
    [ "$2" -eq 0 ] || TOTAL_FAILED=$((TOTAL_FAILED + 1))
}

# The figure guards exactly as ci.sh greps them.
cargo build --release --quiet --bin figures
guard() { # figure, then the PASS lines its output must hold
    local figure="$1" fails=0 out
    shift
    for i in $(seq "$N"); do
        out="$FLAKE_DIR/$figure.$i.txt"
        local ok=1
        ./target/release/figures "$figure" --scale 0.1 --json "$FLAKE_DIR/json" >"$out" 2>&1 || ok=0
        for line in "$@"; do
            grep -q "$line" "$out" || ok=0
        done
        if [ "$ok" -eq 1 ]; then rm -f "$out"; else fails=$((fails + 1)); fi
    done
    tally "figures $figure" "$fails"
}
guard obs_overhead "overhead guard: PASS"
guard ingest_concurrency "scaling guard: PASS" "p99 guard: PASS"
guard mvcc_split "parity guard: PASS" "split guard: PASS" "replay guard: PASS"

# Every test binary of the workspace's default members (not the bins and
# examples `cargo test` also builds), with the package directory cargo
# would run it in.
cargo test --no-run --quiet --message-format=json 2>/dev/null \
    | grep '"executable":"/' | grep -E '"profile":\{[^}]*"test":true' \
    | sed -E 's/.*"manifest_path":"([^"]*)".*"executable":"([^"]*)".*/\1 \2/' \
    | sort -u -k2 >"$FLAKE_DIR/binaries"
for _ in 1 2; do
    (while :; do :; done) &
    LOOPS+=("$!")
done
while read -r manifest binary; do
    name="$(basename "$(dirname "$manifest")")/$(basename "${binary%-*}")"
    fails=0
    for i in $(seq "$N"); do
        out="$FLAKE_DIR/$(basename "$binary").$i.txt"
        if (cd "$(dirname "$manifest")" && exec "$binary" -q) >"$out" 2>&1; then
            rm -f "$out"
        else
            fails=$((fails + 1))
        fi
    done
    tally "test $name" "$fails"
done <"$FLAKE_DIR/binaries"
stop_loops

echo "failed runs kept in $FLAKE_DIR"
[ "$TOTAL_FAILED" -eq 0 ]
