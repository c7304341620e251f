//! MVCC snapshot reads + online region split under mixed load (`ISSUE
//! 10`): the region-lifecycle counterpart of `ingest_concurrency`.
//!
//! Three functional guards, all re-checked by `ci.sh` through the
//! process exit code:
//!
//! - **parity**: a [`just_kvstore::TableSnapshot`] captured mid-flight
//!   under 16-writer ingest is byte-for-byte equal to a *serial*
//!   execution of exactly the operations committed before it. The
//!   writers apply-and-count under the read side of a quiesce lock; the
//!   snapshot and the counters are taken together under the write side,
//!   so the expected content is exact, not statistical.
//! - **split**: forcing `SPLIT REGION` / `MERGE REGIONS` churn under
//!   concurrent writes and scans produces zero scan errors, a stream
//!   opened before the split completes correctly across it, and the
//!   scan p99 under churn stays under **2x** the churn-free p99
//!   (medians of paired phases, same device-mood reasoning as
//!   `ingest_concurrency`).
//! - **replay**: after a simulated `kill -9` (the data directory copied
//!   live, no shutdown, WAL unflushed), reopening reconstructs the
//!   post-split region map from the `REGIONS` manifest and replays
//!   every acknowledged write into the daughters.

use crate::config::BenchConfig;
use crate::harness::{Report, Table as TextTable};
use just_kvstore::{ScanOptions, Store, StoreOptions, Table};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

const WRITERS: usize = 16;

fn bench_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("just-fig-mvcc-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn store_options() -> StoreOptions {
    StoreOptions {
        // Small enough that the load phase produces real SSTables (and
        // split fences), large enough to stay off the write path.
        flush_threshold: 1 << 20,
        ..StoreOptions::default()
    }
}

fn key_of(writer: usize, i: usize) -> Vec<u8> {
    format!("w{writer:02}-{i:07}").into_bytes()
}

fn value_of(writer: usize, i: usize) -> Vec<u8> {
    format!(
        "v{writer:02}-{i:07}-{:016x}",
        (writer as u64) << 32 | i as u64
    )
    .into_bytes()
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() as f64 - 1.0) * p).round() as usize]
}

/// Guard 1: snapshot byte parity vs a serial execution, 16 writers.
fn snapshot_parity(rows_per_writer: usize, out: &mut impl std::io::Write) -> bool {
    let dir = bench_dir("parity");
    let store = Store::open(&dir, store_options()).expect("store");
    let table = store.create_table("mvcc", 1).expect("table");

    let quiesce = Arc::new(RwLock::new(()));
    let applied: Arc<Vec<AtomicUsize>> =
        Arc::new((0..WRITERS).map(|_| AtomicUsize::new(0)).collect());
    let handles: Vec<_> = (0..WRITERS)
        .map(|w| {
            let table = table.clone();
            let quiesce = quiesce.clone();
            let applied = applied.clone();
            std::thread::spawn(move || {
                for i in 0..rows_per_writer {
                    let guard = quiesce.read().unwrap();
                    table.put(key_of(w, i), value_of(w, i)).expect("put");
                    applied[w].fetch_add(1, Ordering::Relaxed);
                    drop(guard);
                }
            })
        })
        .collect();

    // Capture mid-flight: snapshot + applied counts under one quiesce.
    std::thread::sleep(std::time::Duration::from_millis(30));
    let (snap, counts) = {
        let _w = quiesce.write().unwrap();
        let counts: Vec<usize> = applied.iter().map(|a| a.load(Ordering::Relaxed)).collect();
        (table.snapshot(), counts)
    };
    for h in handles {
        h.join().expect("writer");
    }

    // The serial execution: each writer's first `counts[w]` ops, merged
    // in key order (writer key spaces are disjoint and internally
    // ordered, so this is a flat sorted merge).
    let mut expected: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    for (w, &n) in counts.iter().enumerate() {
        for i in 0..n {
            expected.push((key_of(w, i), value_of(w, i)));
        }
    }
    expected.sort();
    let got: Vec<(Vec<u8>, Vec<u8>)> = snap
        .scan(b"", b"\xff")
        .expect("snapshot scan")
        .into_iter()
        .map(|e| (e.key, e.value))
        .collect();
    let got_bytes: usize = got.iter().map(|(k, v)| k.len() + v.len()).sum();
    let want_bytes: usize = expected.iter().map(|(k, v)| k.len() + v.len()).sum();
    let ok = got == expected;
    let mid_rows: usize = counts.iter().sum();
    writeln!(
        out,
        "parity guard: {} (snapshot at {mid_rows}/{} rows: {} rows / {got_bytes} bytes vs \
         serial {} rows / {want_bytes} bytes)",
        if ok { "PASS" } else { "FAIL" },
        WRITERS * rows_per_writer,
        got.len(),
        expected.len(),
    )
    .unwrap();
    drop(snap);
    drop(table);
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
    ok
}

/// One scan phase: `scans` range scans against `table` with 4 writers
/// running; returns per-scan latencies (us), or the first of three
/// failures: a scan error, a loaded writer range scanned empty, or a
/// churn phase that split nothing.
fn scan_phase(table: &Arc<Table>, scans: usize, churn: bool) -> Result<Vec<u64>, &'static str> {
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..4)
        .map(|w| {
            let table = table.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    table
                        .put(key_of(20 + w, i % 50_000), value_of(20 + w, i))
                        .expect("churn put");
                    i += 1;
                }
            })
        })
        .collect();
    let churner = churn.then(|| {
        let table = table.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut splits = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let n = table.num_regions();
                if n >= 4 {
                    table.merge_regions(0).expect("merge");
                } else {
                    table.flush().expect("flush");
                    if table.split_region(splits % n).expect("split").is_some() {
                        splits += 1;
                    }
                }
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            splits
        })
    });

    let mut lat = Vec::with_capacity(scans);
    let mut failed = None;
    for s in 0..scans {
        let w = s % WRITERS;
        let lo = key_of(w, 0);
        let hi = key_of(w, 9_999_999);
        let t0 = Instant::now();
        let failure = match table.snapshot().scan(&lo, &hi) {
            Err(_) => Some("a range scan failed"),
            // The load phase put rows in every writer range.
            Ok(hits) => hits.is_empty().then_some("a writer range scanned empty"),
        };
        failed = failed.or(failure);
        lat.push(t0.elapsed().as_micros() as u64);
    }
    stop.store(true, Ordering::Relaxed);
    for h in writers {
        h.join().expect("churn writer");
    }
    if let Some(c) = churner {
        if c.join().expect("churner") == 0 {
            failed = failed.or(Some("a churn phase split no region"));
        }
    }
    lat.sort_unstable();
    failed.map_or(Ok(lat), Err)
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("mkdir");
    for entry in std::fs::read_dir(src).expect("read_dir") {
        let entry = entry.expect("dirent");
        let to = dst.join(entry.file_name());
        if entry.file_type().expect("ftype").is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).expect("copy");
        }
    }
}

/// Runs the three guards; returns `true` when all hold.
pub fn run(cfg: &BenchConfig, out: &mut impl std::io::Write, report: &mut Report) -> bool {
    let rows_per_writer = ((cfg.orders as f64 / 20_000.0) * 2_500.0).max(600.0) as usize;
    report.meta_raw("writers", WRITERS.to_string());
    report.meta_raw("rows_per_writer", rows_per_writer.to_string());
    writeln!(
        out,
        "== MVCC snapshots + online split: {WRITERS} writers, {rows_per_writer} rows/writer =="
    )
    .unwrap();

    // ---- Guard 1: snapshot parity under concurrent ingest ----
    report.phase("parity");
    let parity_ok = snapshot_parity(rows_per_writer, out);
    report.meta_raw("parity_ok", parity_ok.to_string());

    // ---- Guard 2: split churn vs quiet scans ----
    report.phase("split_churn");
    let dir = bench_dir("churn");
    let store = Store::open(&dir, store_options()).expect("store");
    let table = store.create_table("churn", 1).expect("table");
    for w in 0..WRITERS {
        for i in 0..rows_per_writer {
            table.put(key_of(w, i), value_of(w, i)).expect("load");
        }
    }
    table.flush().expect("flush");

    // A stream opened before the split must complete across it.
    let whole = vec![(b"".to_vec(), b"\xff".to_vec())];
    let mut pre_split_stream = table
        .snapshot()
        .scan_ranges_stream(whole, ScanOptions::default());
    let first = pre_split_stream
        .next_batch()
        .expect("pre-split batch")
        .map(|b| b.len())
        .unwrap_or(0);
    let split_at = table.split_region(0).expect("forced split");
    let mut streamed = first;
    while let Some(batch) = pre_split_stream.next_batch().expect("cross-split batch") {
        streamed += batch.len();
    }
    let stream_ok = split_at.is_some() && streamed >= WRITERS * rows_per_writer;
    writeln!(
        out,
        "mid-scan split: {} (stream opened pre-split returned {streamed} rows across the swap)",
        if stream_ok { "PASS" } else { "FAIL" }
    )
    .unwrap();

    let scans = 220usize;
    const PAIRS: usize = 3;
    let mut ratios = Vec::with_capacity(PAIRS);
    let mut last = None;
    let mut failure = None;
    for _ in 0..PAIRS {
        let quiet = scan_phase(&table, scans, false);
        let churned = scan_phase(&table, scans, true);
        match (quiet, churned) {
            (Ok(q), Ok(c)) => {
                let qp99 = percentile(&q, 0.99).max(1);
                let cp99 = percentile(&c, 0.99);
                ratios.push(cp99 as f64 / qp99 as f64);
                last = Some((qp99, cp99));
            }
            (Err(cause), _) | (_, Err(cause)) => failure = failure.or(Some(cause)),
        }
    }
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let ratio = ratios.get(ratios.len() / 2).copied().unwrap_or(f64::MAX);
    let (qp99, cp99) = last.unwrap_or((0, 0));
    let split_ok = failure.is_none() && stream_ok && ratio < 2.0;
    let cause = failure.map(|c| format!("; {c}")).unwrap_or_default();
    report.meta_raw("scan_p99_quiet_us", qp99.to_string());
    report.meta_raw("scan_p99_churn_us", cp99.to_string());
    report.meta_raw("scan_p99_ratio", format!("{ratio:.2}"));
    writeln!(
        out,
        "split guard: {} (scan p99 under split churn {ratio:.2}x quiet, median of {PAIRS} \
         paired phases, last pair {cp99}us vs {qp99}us, need < 2x and zero scan errors{cause})",
        if split_ok { "PASS" } else { "FAIL" }
    )
    .unwrap();

    let mut table_txt = TextTable::new(&["phase", "scan p99 us"]);
    table_txt.row(vec!["quiet".into(), qp99.to_string()]);
    table_txt.row(vec!["split churn".into(), cp99.to_string()]);
    writeln!(out, "{}", table_txt.render()).unwrap();
    drop(table);
    drop(store);
    std::fs::remove_dir_all(&dir).ok();

    // ---- Guard 3: WAL replay after kill -9 reconstructs daughters ----
    report.phase("replay");
    let dir = bench_dir("replay");
    let store = Store::open(&dir, store_options()).expect("store");
    let table = store.create_table("crash", 1).expect("table");
    for w in 0..4 {
        for i in 0..rows_per_writer {
            table.put(key_of(w, i), value_of(w, i)).expect("load");
        }
    }
    table.flush().expect("flush");
    let split = table.split_region(0).expect("split").is_some();
    let regions_before = table.num_regions();
    // Acknowledged-but-unflushed writes into both daughters: these only
    // exist in the daughters' WALs at "crash" time.
    for i in 0..200 {
        table
            .put(key_of(0, rows_per_writer + i), b"post-split".to_vec())
            .expect("post");
        table
            .put(key_of(3, rows_per_writer + i), b"post-split".to_vec())
            .expect("post");
    }
    let expected_rows = 4 * rows_per_writer + 400;
    let crash_dir = bench_dir("replay-crashcopy");
    copy_dir(&dir, &crash_dir); // kill -9: no shutdown, no flush
    drop(table);
    drop(store);

    let store2 = Store::open(&crash_dir, store_options()).expect("reopen");
    let table2 = store2.open_table("crash", 1).expect("reopen table");
    let regions_after = table2.num_regions();
    let replayed = table2.snapshot();
    let rows_after = replayed.scan(b"", b"\xff").expect("post-replay scan").len();
    let post_ok = replayed
        .get(&key_of(0, rows_per_writer + 7))
        .expect("post-replay get")
        .as_deref()
        == Some(b"post-split".as_ref());
    let replay_ok =
        split && regions_after == regions_before && rows_after == expected_rows && post_ok;
    report.meta_raw("regions_before_crash", regions_before.to_string());
    report.meta_raw("regions_after_replay", regions_after.to_string());
    report.meta_raw("rows_after_replay", rows_after.to_string());
    writeln!(
        out,
        "replay guard: {} (kill -9 after split: {regions_after}/{regions_before} regions, \
         {rows_after}/{expected_rows} rows, WAL'd post-split writes {})",
        if replay_ok { "PASS" } else { "FAIL" },
        if post_ok { "intact" } else { "LOST" }
    )
    .unwrap();
    drop((replayed, table2, store2));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&crash_dir).ok();

    parity_ok && split_ok && replay_ok
}
