#!/usr/bin/env bash
# CI gate: formatting, lints, build, full test suite, server smoke test,
# crash-recovery smoke tests. Run before every push; the repo must stay
# green under all of them.
#
# Stages (so `.github/workflows/ci.yml` can run them as parallel jobs):
#
#   ./ci.sh lint    # fmt --check, clippy -D warnings, doc gate, LOC.tsv fresh, no ignored test
#   ./ci.sh test    # locked build, tests, smoke tests, bench guards, benchmark/check.sh
#   ./ci.sh         # everything, in order (the pre-push gate)
#
# SMOKE_DIR can be pre-set (CI does, so the data dir survives as an
# artifact on failure); it defaults to a throwaway mktemp dir. On
# success the dir is removed; on failure it is kept for post-mortem.
set -euo pipefail
cd "$(dirname "$0")"

STAGE="${1:-all}"
case "$STAGE" in
    lint | test | all) ;;
    *)
        echo "usage: ci.sh [lint|test]" >&2
        exit 2
        ;;
esac

if [ "$STAGE" != "test" ]; then
    echo "==> cargo fmt --check"
    cargo fmt --all -- --check

    echo "==> cargo clippy -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings

    echo "==> cargo doc --no-deps (rustdoc warnings are errors)"
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

    echo "==> scripts/loc.sh --check (LOC.tsv is the tracked size report)"
    scripts/loc.sh --check

    echo "==> no ignored tests (the test stage runs every test it lists)"
    if git grep --untracked -nE '#\[ignore|```[a-z0-9_,]*ignore' -- '*.rs'; then
        echo "a test or doctest above is marked ignored"
        exit 1
    fi
fi
if [ "$STAGE" = "lint" ]; then
    echo "lint gate passed."
    exit 0
fi

# --locked: the checked-in Cargo.lock must already satisfy every
# manifest; a drifted lockfile fails here instead of silently being
# rewritten on a developer machine.
echo "==> cargo build --release --locked"
cargo build --workspace --release --locked

echo "==> cargo test"
cargo test --workspace -q

SMOKE_DIR="${SMOKE_DIR:-$(mktemp -d)}"
mkdir -p "$SMOKE_DIR"
JUSTD_PID=""
cleanup() {
    status=$?
    [ -n "$JUSTD_PID" ] && kill -9 "$JUSTD_PID" 2>/dev/null || true
    if [ "$status" -eq 0 ]; then
        rm -rf "$SMOKE_DIR"
    else
        echo "FAILED — smoke data kept at $SMOKE_DIR" >&2
    fi
    exit "$status"
}
trap cleanup EXIT

cli() { ./target/release/just-cli --addr "$ADDR" --user smoke "$@"; }

start_justd() { # args: data-dir, port-file, extra flags...
    local data="$1" portf="$2"
    shift 2
    rm -f "$portf"
    ./target/release/justd --data "$data" --addr 127.0.0.1:0 \
        --port-file "$portf" "$@" &
    JUSTD_PID=$!
    for _ in $(seq 1 100); do
        [ -s "$portf" ] && break
        sleep 0.1
    done
    [ -s "$portf" ] || { echo "justd never wrote its port"; exit 1; }
    ADDR="127.0.0.1:$(cat "$portf")"
}

echo "==> server smoke test (justd + just-cli)"
start_justd "$SMOKE_DIR/data" "$SMOKE_DIR/port"
cli query "CREATE TABLE pts (fid integer:primary key, geom point)"
cli query "INSERT INTO pts VALUES (1, st_makePoint(116.4, 39.9))"
cli query "SELECT fid FROM pts" | grep -q "^1$"
# One 1 000-row INSERT: the streaming parser and both ends' kept frame
# buffers over a real socket.
ROWS_SQL=$(seq 2 1001 | awk '{ printf "%s(%d, st_makePoint(116.%04d, 39.9))", (NR > 1 ? ", " : ""), $1, $1 }')
cli query "INSERT INTO pts VALUES $ROWS_SQL"
cli query "SELECT count(*) AS n FROM pts" | grep -q "^1001$"
./target/release/just-cli --addr "$ADDR" shutdown
wait "$JUSTD_PID"   # graceful shutdown must exit 0 (set -e enforces it)
JUSTD_PID=""

echo "==> idle smoke (a loaded justd with two open connections burns no CPU)"
# No thread of the store or the server wakes without work: the last
# insert's group commit runs, then the maintenance workers and both
# connection threads sleep. utime + stime of justd over 5 s must stay
# within 2 clock ticks.
start_justd "$SMOKE_DIR/idle-data" "$SMOKE_DIR/idle-port"
cli query "CREATE TABLE idlepts (fid integer:primary key, time date, geom point)"
IDLE_ROWS=$(seq 0 999 | awk '{ printf "%s(%d, %d, st_makePoint(%.3f, 39.9))", \
    (NR > 1 ? ", " : ""), $1, $1 * 60000, 116 + ($1 % 100) / 1000 }')
cli query "INSERT INTO idlepts VALUES $IDLE_ROWS" >/dev/null
WATCH_PIDS=()
for _ in 1 2; do
    ./target/release/just-cli --addr "$ADDR" --user smoke --watch-metrics 3600 >/dev/null &
    WATCH_PIDS+=("$!")
done
sleep 1
justd_ticks() { awk '{ print $14 + $15 }' "/proc/$JUSTD_PID/stat"; }
IDLE_BEFORE=$(justd_ticks)
sleep 5
IDLE_TICKS=$(($(justd_ticks) - IDLE_BEFORE))
kill "${WATCH_PIDS[@]}"
wait "${WATCH_PIDS[@]}" 2>/dev/null || true
if [ "$IDLE_TICKS" -gt 2 ]; then
    echo "idle justd used $IDLE_TICKS clock ticks of CPU in 5 s (bound: 2)"
    exit 1
fi
./target/release/just-cli --addr "$ADDR" shutdown
wait "$JUSTD_PID"
JUSTD_PID=""
echo "idle OK: $IDLE_TICKS clock ticks in 5 s"

echo "==> crash-recovery smoke test (kill -9, reopen, verify)"
CRASH_DATA="$SMOKE_DIR/crash-data"
start_justd "$CRASH_DATA" "$SMOKE_DIR/crash-port" --wal-sync per-write
cli query "CREATE TABLE crashpts (fid integer:primary key, geom point)"
ROWS=25
for i in $(seq 1 "$ROWS"); do
    # Each INSERT is acknowledged over the wire before the next is sent:
    # everything the loop completes is an acknowledged write.
    cli query "INSERT INTO crashpts VALUES ($i, st_makePoint(116.$i, 39.9))"
done
kill -9 "$JUSTD_PID"
wait "$JUSTD_PID" 2>/dev/null || true   # reap; exit status is the kill
JUSTD_PID=""

start_justd "$CRASH_DATA" "$SMOKE_DIR/crash-port" --wal-sync per-write
GOT=$(cli query "SELECT fid FROM crashpts" | grep -c '^[0-9][0-9]*$')
if [ "$GOT" -ne "$ROWS" ]; then
    echo "crash recovery lost acknowledged writes: $GOT/$ROWS rows survive"
    exit 1
fi
for i in 1 "$ROWS"; do
    cli query "SELECT fid FROM crashpts" | grep -q "^$i$"
done
./target/release/just-cli --addr "$ADDR" shutdown
wait "$JUSTD_PID"
JUSTD_PID=""
echo "crash recovery OK: $GOT/$ROWS acknowledged rows survived kill -9"

echo "==> format-epoch smoke (a store of another epoch is refused untouched)"
# The recovered store, relabelled epoch 2 (the row and ids-entry
# encoding an older build wrote): justd must refuse to start, name both
# epochs, and leave every byte under the data dir as it was. Restoring
# the label brings back the same rows.
CRASH_FORMAT="$CRASH_DATA/data/FORMAT"
cp "$CRASH_FORMAT" "$SMOKE_DIR/FORMAT.epoch3"
printf 'just-kvstore format 2\n' >"$CRASH_FORMAT"
crash_md5() { (cd "$CRASH_DATA" && find . -type f -print0 | LC_ALL=C sort -z | xargs -0 md5sum); }
crash_md5 >"$SMOKE_DIR/format-before.md5"
STATUS=0
timeout 30 ./target/release/justd --data "$CRASH_DATA" --addr 127.0.0.1:0 \
    2>"$SMOKE_DIR/format.err" || STATUS=$?
if [ "$STATUS" -eq 0 ] || [ "$STATUS" -eq 124 ]; then
    echo "justd served a store of format epoch 2 (exit $STATUS)"
    exit 1
fi
grep -q "epoch 2" "$SMOKE_DIR/format.err" && grep -q "epoch 3" "$SMOKE_DIR/format.err" || {
    echo "refusal does not name both epochs:"; cat "$SMOKE_DIR/format.err"; exit 1
}
crash_md5 | diff "$SMOKE_DIR/format-before.md5" - || {
    echo "a refused open changed the store"; exit 1
}
cp "$SMOKE_DIR/FORMAT.epoch3" "$CRASH_FORMAT"
start_justd "$CRASH_DATA" "$SMOKE_DIR/crash-port" --wal-sync per-write
GOT=$(cli query "SELECT fid FROM crashpts" | grep -c '^[0-9][0-9]*$')
if [ "$GOT" -ne "$ROWS" ]; then
    echo "restored epoch serves $GOT/$ROWS rows"
    exit 1
fi
./target/release/just-cli --addr "$ADDR" shutdown
wait "$JUSTD_PID"
JUSTD_PID=""
echo "format epoch OK: epoch 2 refused with the store untouched, $GOT/$ROWS rows after restore"

echo "==> concurrent-ingest crash smoke (8 writers, kill -9 mid-ingest)"
# Eight writers insert concurrently against the write path (one
# memtable and one WAL per region, per-write sync): writers 0-3
# one row per INSERT, writers 4-7 eight rows per INSERT (one write batch
# per kv table). Each writer logs its row ids to its own file only
# *after* the INSERT's response came back — the log is exactly the set
# of acknowledged writes. justd is killed -9 while all eight are
# mid-flight, restarted on the same data dir, and every logged id must
# survive replay, once.
ING_DATA="$SMOKE_DIR/ingest-data"
ING_LOG="$SMOKE_DIR/ingest-acked"
mkdir -p "$ING_LOG"
start_justd "$ING_DATA" "$SMOKE_DIR/ingest-port" \
    --wal-sync per-write
cli query "CREATE TABLE ingpts (fid integer:primary key, geom point)"
WRITER_PIDS=()
for w in $(seq 0 7); do
    (
        per=1
        [ "$w" -ge 4 ] && per=8
        for i in $(seq 1 1000); do
            fids=$(seq $((w * 100000 + (i - 1) * per + 1)) $((w * 100000 + i * per)))
            values=$(for fid in $fids; do printf '(%s, st_makePoint(116.4, 39.9)),' "$fid"; done)
            cli query "INSERT INTO ingpts VALUES ${values%,}" >/dev/null 2>&1 || break
            echo "$fids" >>"$ING_LOG/w$w"
        done
    ) &
    WRITER_PIDS+=("$!")
done
sleep 1.5
kill -9 "$JUSTD_PID"
wait "$JUSTD_PID" 2>/dev/null || true
JUSTD_PID=""
for wp in "${WRITER_PIDS[@]}"; do
    wait "$wp" 2>/dev/null || true   # writers exit via `|| break` once the server dies
done
sort "$ING_LOG"/w* >"$ING_LOG/want"
[ -s "$ING_LOG/want" ] || { echo "no writes were acknowledged before the kill"; exit 1; }

start_justd "$ING_DATA" "$SMOKE_DIR/ingest-port" \
    --wal-sync per-write
# --max-rows: the verification must see every surviving row, not the
# default 100-row display window.
./target/release/just-cli --addr "$ADDR" --user smoke --max-rows 100000 \
    query "SELECT fid FROM ingpts" | grep '^[0-9][0-9]*$' | sort >"$ING_LOG/got"
LOST=$(comm -23 "$ING_LOG/want" "$ING_LOG/got")
if [ -n "$LOST" ]; then
    echo "concurrent ingest lost acknowledged rows after kill -9:"
    echo "$LOST" | head -20
    exit 1
fi
DUPS=$(sort "$ING_LOG/got" | uniq -d)
if [ -n "$DUPS" ]; then
    echo "recovery resurrected duplicate rows:"
    echo "$DUPS" | head -20
    exit 1
fi
./target/release/just-cli --addr "$ADDR" shutdown
wait "$JUSTD_PID"
JUSTD_PID=""
echo "concurrent ingest OK: $(wc -l <"$ING_LOG/want") acked rows from 8 writers all survived"

echo "==> region-lifecycle smoke (SPLIT REGION mid-scan, kill -9 map replay)"
# Eight writers load a table, then a deliberately slow scan (sleep_ms
# runs per row) is split out from under: SPLIT REGION must land while
# the scan is mid-stream, the scan must still return every row (it pins
# the pre-split region), SHOW REGIONS must list both daughters, and a
# kill -9 restart must replay the WAL into the *same* region map.
REG_DATA="$SMOKE_DIR/region-data"
start_justd "$REG_DATA" "$SMOKE_DIR/region-port" --wal-sync per-write
cli query "CREATE TABLE regpts (fid integer:primary key, geom point)"
REG_PIDS=()
for w in $(seq 0 7); do
    (
        for i in $(seq 1 150); do
            fid=$((w * 100000 + i))
            cli query "INSERT INTO regpts VALUES ($fid, st_makePoint(116.4, 39.9))" \
                >/dev/null
        done
    ) &
    REG_PIDS+=("$!")
done
for rp in "${REG_PIDS[@]}"; do wait "$rp"; done
REG_ROWS=1200
REG_BEFORE=$(cli query "SHOW REGIONS" | grep -c "^regpts | ")
# The mid-scan victim: ~2ms/row keeps it streaming for ~2.4s.
REG_SCAN_OUT="$SMOKE_DIR/region-scan.out"
./target/release/just-cli --addr "$ADDR" --user smoke --max-rows 100000 \
    query "SELECT fid FROM regpts WHERE sleep_ms(2) >= 0" >"$REG_SCAN_OUT" &
REG_SCAN_PID=$!
sleep 0.4
cli query "SPLIT REGION regpts 0" | grep -q "split at key" \
    || { echo "SPLIT REGION did not split"; exit 1; }
DAUGHTERS=$(cli query "SHOW REGIONS" | grep -c "^regpts | ") || true
if [ "$DAUGHTERS" -ne $((REG_BEFORE + 1)) ]; then
    echo "SHOW REGIONS lists $DAUGHTERS regpts regions after the split," \
        "want $((REG_BEFORE + 1))"
    exit 1
fi
wait "$REG_SCAN_PID" || { echo "scan spanning the split failed"; exit 1; }
GOT=$(grep -c '^[0-9][0-9]*$' "$REG_SCAN_OUT")
if [ "$GOT" -ne "$REG_ROWS" ]; then
    echo "scan spanning the split returned $GOT/$REG_ROWS rows"
    exit 1
fi
# Post-split acknowledged writes must land in the daughters' WALs.
for i in $(seq 1 8); do
    cli query "INSERT INTO regpts VALUES ($((900000 + i)), st_makePoint(116.4, 39.9))"
done
# region index + start_key identify the map; counters churn, so compare
# only those columns across the restart.
cli query "SHOW REGIONS" | grep "^regpts | " \
    | awk -F'|' '{print $2 $3}' >"$SMOKE_DIR/region-map-want"
kill -9 "$JUSTD_PID"
wait "$JUSTD_PID" 2>/dev/null || true
JUSTD_PID=""
start_justd "$REG_DATA" "$SMOKE_DIR/region-port" --wal-sync per-write
# The SELECT must come first: it opens the table's kv stores (they are
# opened lazily), which is what replays the WALs into the daughters.
GOT=$(./target/release/just-cli --addr "$ADDR" --user smoke --max-rows 100000 \
    query "SELECT fid FROM regpts" | grep -c '^[0-9][0-9]*$')
if [ "$GOT" -ne $((REG_ROWS + 8)) ]; then
    echo "daughters lost rows across kill -9: $GOT/$((REG_ROWS + 8)) survive"
    exit 1
fi
cli query "SHOW REGIONS" | grep "^regpts | " \
    | awk -F'|' '{print $2 $3}' >"$SMOKE_DIR/region-map-got"
diff "$SMOKE_DIR/region-map-want" "$SMOKE_DIR/region-map-got" || {
    echo "kill -9 restart replayed a different region map"
    exit 1
}
./target/release/just-cli --addr "$ADDR" shutdown
wait "$JUSTD_PID"
JUSTD_PID=""
echo "region lifecycle OK: split landed mid-scan, map and rows survived kill -9"

echo "==> observability smoke test (SHOW QUERIES / KILL QUERY over the wire)"
OBS_DATA="$SMOKE_DIR/obs-data"
start_justd "$OBS_DATA" "$SMOKE_DIR/obs-port" --slow-query-ms 50
cli query "CREATE TABLE obspts (fid integer:primary key, geom point)"
# Enough rows that the scan spans more than one 1024-row batch, so a
# kill lands at a real batch boundary mid-stream.
OBS_VALS=$(for i in $(seq 1 1200); do printf '(%d, st_makePoint(116.1, 39.9)),' "$i"; done)
cli query "INSERT INTO obspts VALUES ${OBS_VALS%,}" | grep -q "1200"
# A runaway query: the volatile sleep_ms predicate runs per row, so this
# would take ~6s if nobody kills it.
SLOW_ERR="$SMOKE_DIR/obs-slow.err"
cli query "SELECT fid FROM obspts WHERE sleep_ms(5) >= 0" 2>"$SLOW_ERR" &
SLOW_PID=$!
# Concurrently, SHOW QUERIES on a second connection must list it live.
QID=""
for _ in $(seq 1 100); do
    QID=$(cli query "SHOW QUERIES" | awk 'NR==3{print $1}')
    [ -n "$QID" ] && break
    sleep 0.1
done
[ -n "$QID" ] || { echo "runaway query never appeared in SHOW QUERIES"; exit 1; }
cli query "SHOW QUERIES" | grep -q "sleep_ms"
# Region traffic stats are visible and namespaced to this user.
cli query "SHOW REGIONS" | grep -q "^obspts | "
# KILL QUERY actually stops it: the client gets a typed CANCELLED error
# (carrying the server's request id), well before the scan would finish.
cli query "KILL QUERY $QID" | grep -q "kill requested for query $QID"
if wait "$SLOW_PID"; then
    echo "killed query unexpectedly succeeded"
    exit 1
fi
grep -q "cancelled" "$SLOW_ERR" || {
    echo "killed query did not report CANCELLED:"; cat "$SLOW_ERR"; exit 1
}
grep -q "request id" "$SLOW_ERR" || {
    echo "error did not quote the server request id:"; cat "$SLOW_ERR"; exit 1
}
# The killed scan released its snapshot pins: every region reports 0 open
# snapshots (a leaked pin holds flushed generations and blocks compaction).
cli query "SHOW REGIONS" | awk -F' [|] ' '
    $1 == "table" { for (i = 1; i <= NF; i++) if ($i == "snapshots") col = i }
    $1 == "obspts" { rows++; if (!col || $col != 0) bad = 1 }
    END { exit (bad || !rows) }' || {
    echo "a region still holds a snapshot after KILL QUERY:"
    cli query "SHOW REGIONS"
    exit 1
}
# The kill and the slow-query log are in the event log.
cli query "SHOW EVENTS LIMIT 50" | grep -q "query.killed"
# The slow-log entry carries the scan's IO attrs from the operator spans.
cli query "SHOW EVENTS LIMIT 50" | grep "query.slow" | grep -q "blocks_read="
# --watch-metrics renders SHOW METRICS as a table and tolerates a closed
# stdout (head exits after the first screen).
./target/release/just-cli --addr "$ADDR" --user smoke --watch-metrics 1 \
    | head -40 | grep -q "just_core_queries_killed"
./target/release/just-cli --addr "$ADDR" shutdown
wait "$JUSTD_PID"
JUSTD_PID=""
echo "observability smoke OK: query $QID listed live, killed, logged"

echo "==> observability overhead bench (<5% scan-throughput guard)"
OBS_BENCH_OUT="$SMOKE_DIR/obs_overhead.txt"
./target/release/figures obs_overhead --scale 0.1 --json "$SMOKE_DIR/bench" \
    | tee "$OBS_BENCH_OUT"
grep -q "overhead guard: PASS" "$OBS_BENCH_OUT"

echo "==> ingest-concurrency smoke bench (scaling + p99 flatness guards)"
ING_BENCH_OUT="$SMOKE_DIR/ingest_concurrency.txt"
./target/release/figures ingest_concurrency --scale 0.1 --json "$SMOKE_DIR/bench" \
    | tee "$ING_BENCH_OUT"
grep -q "scaling guard: PASS" "$ING_BENCH_OUT"
grep -q "p99 guard: PASS" "$ING_BENCH_OUT"

echo "==> MVCC/split smoke bench (snapshot parity + split p99 + replay guards)"
MVCC_BENCH_OUT="$SMOKE_DIR/mvcc_split.txt"
./target/release/figures mvcc_split --scale 0.1 --json "$SMOKE_DIR/bench" \
    | tee "$MVCC_BENCH_OUT"
grep -q "parity guard: PASS" "$MVCC_BENCH_OUT"
grep -q "split guard: PASS" "$MVCC_BENCH_OUT"
grep -q "replay guard: PASS" "$MVCC_BENCH_OUT"

echo "==> benchmark/check.sh (the standalone benchmark package still builds against the workspace)"
# benchmark/ is its own package outside the workspace, so nothing above
# compiles it: an API change in a crate it calls would go unnoticed.
bash benchmark/check.sh

echo "==> EXPLAIN bytecode listing smoke (just-cli renders programs)"
start_justd "$SMOKE_DIR/exec-data" "$SMOKE_DIR/exec-port"
cli query "CREATE TABLE expts (fid integer:primary key, geom point)"
cli query "INSERT INTO expts VALUES (1, st_makePoint(116.4, 39.9))"
EXPLAIN_OUT=$(cli query "EXPLAIN SELECT fid FROM expts WHERE fid % 2 = 1 AND fid > 0")
echo "$EXPLAIN_OUT" | grep -q "program residual:"
echo "$EXPLAIN_OUT" | grep -q "= cmp r"
# Integer `/` and `%` wrap at the i64 edge: `v - 1` is i64::MIN, and
# dividing it by -1 answers a row instead of panicking the connection.
cli query "CREATE TABLE ovf (fid integer:primary key, v integer)"
cli query "INSERT INTO ovf VALUES (1, -9223372036854775807)"
cli query "SELECT fid, (v - 1) / -1 AS q FROM ovf" | grep -q "^1 | -9223372036854775808$"
cli query "SELECT fid, (v - 1) % -1 AS q FROM ovf" | grep -q "^1 | 0$"
[ "$(cli health)" = "ok" ]
# Every closed connection gave back its admission slot: the only one
# left is the connection asking.
for _ in $(seq 1 50); do
    ACTIVE=$(cli metrics | awk '$1 == "just_server_connections_active" { print $2 }')
    [ "$ACTIVE" = "1" ] && break
    sleep 0.1
done
[ "$ACTIVE" = "1" ] || { echo "connections_active stuck at $ACTIVE"; exit 1; }
JOIN_EXPLAIN_OUT=$(cli query "EXPLAIN SELECT l.fid, r.fid FROM expts l JOIN expts r ON l.fid = r.fid ORDER BY l.fid LIMIT 3")
echo "$JOIN_EXPLAIN_OUT" | grep -q "hash_join"
echo "$JOIN_EXPLAIN_OUT" | grep -q "topk"
# The listing is the pipeline the executor opened: the hash join lists
# the key program it compiled over each input.
echo "$JOIN_EXPLAIN_OUT" | grep -q "program key 0 left:"
echo "$JOIN_EXPLAIN_OUT" | grep -q "program key 0 right:"
# EXPLAIN analyzes a query as running it does: an unknown column fails it
# over the wire with the analysis error.
if BAD_EXPLAIN_OUT=$(cli query "EXPLAIN SELECT nope FROM expts" 2>&1); then
    echo "EXPLAIN of an unknown column succeeded:"; echo "$BAD_EXPLAIN_OUT"; exit 1
fi
echo "$BAD_EXPLAIN_OUT" | grep -q "unknown column 'nope'" || {
    echo "EXPLAIN failed without the analysis error:"; echo "$BAD_EXPLAIN_OUT"; exit 1
}
# A WHERE conjunct over one join input becomes that input's index window:
# the first scan line (`l`) carries it, the second does not, and nothing
# is left to filter above the hash join.
SINK_EXPLAIN_OUT=$(cli query "EXPLAIN SELECT l.fid, r.fid FROM expts l JOIN expts r ON l.fid = r.fid WHERE l.geom WITHIN st_makeMBR(116, 39, 117, 40)")
echo "$SINK_EXPLAIN_OUT" | grep "Scan \[expts\]" | head -1 | grep -q "spatial=(l.geom within"
echo "$SINK_EXPLAIN_OUT" | grep "Scan \[expts\]" | tail -1 | grep -qv "spatial="
echo "$SINK_EXPLAIN_OUT" | grep -q "hash_join"
if echo "$SINK_EXPLAIN_OUT" | grep -q "Filter"; then
    echo "a filter stayed above the join:"; echo "$SINK_EXPLAIN_OUT"; exit 1
fi
# TOP-K over a stored scan gates it: once the heap holds k rows, rows that
# cannot beat its worst key are refused before refine and decode, and the
# scan line under `topk` says how many (`rows_gated=`).
cli query "CREATE TABLE gtop (fid integer:primary key, geom point, amount integer)"
GTOP_ROWS=$(seq 0 2999 | awk '{ printf "%s(%d, st_makePoint(%.3f, 39.9), %d)", \
    (NR > 1 ? ", " : ""), $1, 116 + ($1 % 100) / 1000, ($1 * 7919) % 1000 }')
cli query "INSERT INTO gtop VALUES $GTOP_ROWS" >/dev/null
TOPK_OUT=$(cli query "EXPLAIN ANALYZE SELECT fid, amount FROM gtop WHERE geom WITHIN st_makeMBR(115, 39, 117, 40) ORDER BY amount DESC LIMIT 10")
echo "$TOPK_OUT" | sed -n '/topk/,$p' | grep "Scan \[gtop\]" | grep -q "rows_gated=" || {
    echo "the scan under topk was not gated:"; echo "$TOPK_OUT"; exit 1
}
# A LIMIT over a hash join stops the streamed probe side: the join drains
# gtop, pulls one batch of expts' 3 000 rows, and the satisfied LIMIT
# closes the probe scan before it runs dry (`scan_early_terminations=`).
EXPTS_ROWS=$(seq 2 3000 | awk '{ printf "%s(%d, st_makePoint(116.4, 39.9))", \
    (NR > 1 ? ", " : ""), $1 }')
cli query "INSERT INTO expts VALUES $EXPTS_ROWS" >/dev/null
LIMIT_OUT=$(cli query "EXPLAIN ANALYZE SELECT l.fid, r.amount FROM expts l JOIN gtop r ON l.fid = r.fid LIMIT 5")
echo "$LIMIT_OUT" | grep "Scan \[expts\]" | head -1 | grep -q "scan_early_terminations=" || {
    echo "the LIMIT did not stop the probe scan:"; echo "$LIMIT_OUT"; exit 1
}
# One merge per region per scan: an ST range query plans many key
# ranges, and over a table merged down to one region they all re-seek
# one merge (`merges=1` beside `key_ranges=` above 1).
cli query "CREATE TABLE onereg (fid integer:primary key, time date, geom point)"
ONEREG_ROWS=$(seq 0 499 | awk '{ printf "%s(%d, %d, st_makePoint(%.3f, %.3f))", \
    (NR > 1 ? ", " : ""), $1, $1 * 60000, 116 + ($1 % 50) / 100, 39.5 + ($1 % 37) / 50 }')
cli query "INSERT INTO onereg VALUES $ONEREG_ROWS" >/dev/null
for _ in 1 2 3; do cli query "MERGE REGIONS onereg 0 1" >/dev/null; done
[ "$(cli query "SHOW REGIONS" | grep -c "^onereg | ")" = 1 ] || {
    echo "onereg is not one region:"; cli query "SHOW REGIONS"; exit 1
}
MERGES_OUT=$(cli query "EXPLAIN ANALYZE SELECT fid FROM onereg WHERE geom WITHIN st_makeMBR(116.1, 39.6, 116.3, 39.9) AND time BETWEEN 0 AND 20000000" \
    | grep "Scan \[onereg\]")
echo "$MERGES_OUT" | grep -q "merges=1[,)]" \
    && echo "$MERGES_OUT" | grep -Eq "key_ranges=([2-9]|[1-9][0-9]+)[,)]" || {
    echo "the key ranges of one region did not share one merge:"; echo "$MERGES_OUT"; exit 1
}
./target/release/just-cli --addr "$ADDR" shutdown
wait "$JUSTD_PID"
JUSTD_PID=""
echo "EXPLAIN smoke OK: compiled program listing rendered over the wire"

echo "==> streaming example (query_stream + LIMIT early-exit)"
cargo run --release -q -p just-core --example streaming_scan

echo "CI gate passed."
