//! Ingest throughput vs concurrent writer count: group commit on one
//! memtable.
//!
//! One table, one region, so every writer shares the region's one
//! memtable lock and its one WAL. Each point of the sweep opens a fresh
//! store under the `per-write` sync policy — the policy where a write
//! path without group commit pays most: one fsync per acknowledged row.
//! A writer appends and inserts under the memtable lock, then waits for
//! its fsync outside it, so one fsync covers every writer queued on the
//! log while it was in flight and throughput scales with writers even on
//! a single-core box (the win is fsync amortization, not CPU
//! parallelism). Batching comes from writers *colliding* on the log
//! while its fsync is in flight; spreading 16 writers over several logs
//! per region dilutes collisions back toward one fsync per record
//! (measured on that earlier layout: one log sustained ~8 rows/fsync at
//! 16 writers, eight decayed to ~1).
//!
//! Writer-side ack latencies are collected exactly (a `Vec` per writer)
//! rather than through the log-scale histograms — the p99 guard
//! compares values a coarse bucket would round past. A point's p99 is
//! the median across writers of each writer's own p99: a background-IO
//! stall (a few ms, a few times a second on shared storage) parks every
//! concurrently-waiting writer at once, so in a merged distribution one
//! stall plants ~16 samples and single-handedly drags the merged p99,
//! while per writer it is one sample in hundreds, invisible at p99.
//!
//! Two functional guards (re-checked by `ci.sh`), both computed from
//! **paired** runs — `GUARD_PAIRS` back-to-back (1-writer, 16-writer)
//! measurements. Shared storage swings between multi-second "moods"
//! (fsync p99 of ~300us in one window, intermittent multi-ms stalls in
//! the next), so any ratio of two points measured seconds apart
//! compares moods, not code; inside one pair both sides inflate
//! together and the ratio survives. The scaling guard takes the median
//! of the per-pair ratios; the p99 guard takes the **cleanest** pair
//! (see below), because a storage mood only ever *inflates* the
//! 16-writer tail — it never deflates it — so when the pairs disagree,
//! the best pair is the closest estimate of the machine-inherent cliff
//! and the worst pairs are measurements of the mood.
//!
//! - **scaling**: 16-writer throughput ≥ **3×** single-writer;
//! - **p99**: 16-writer p99 ack latency stays flat — within **2×** the
//!   single-writer p99, or failing that within **5×** the 16-writer
//!   point's own p50. The guard exists to catch queueing that grows
//!   with writer count: a fully serialized ack path pushes the
//!   16-writer p99 to 6-10× its p50, and the lock convoy this guard was
//!   built against (writers parked on an fsync while holding the
//!   memtable lock) measured 15-78ms tails (40-100×), while
//!   healthy group commit sits at 2-4× (full-scale windows are long
//!   enough that each writer's p99 swallows a couple of real device
//!   stalls). The cross-point ratio alone is structurally ~2.0
//!   on a box where fsync latency dominates — a follower's worst-case
//!   ack spans two fsync periods (the tail of the in-flight fsync it
//!   just missed, plus its own covering one) against the solo writer's
//!   single period — so it flips on residual noise; the own-p50
//!   flatness check is the stable detector. A pair is **clean** when it
//!   meets either bound, and the guard passes when at least one of the
//!   `GUARD_PAIRS` pairs is clean: the pathologies this guard exists to
//!   catch (ack-path convoys) are structural and show up in *every*
//!   pair, while device stalls are intermittent and spare at least one.

use crate::config::BenchConfig;
use crate::harness::{Report, Table};
use just_kvstore::{Store, StoreOptions, SyncPolicy};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Writer-thread sweep; the guards compare index 0 (1 writer) against
/// the 16-writer point.
const WRITERS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// Rows per writer at `--scale 1`.
const ROWS_PER_WRITER_FULL_SCALE: usize = 1500;

/// Repetitions per sweep point; each reported metric is the median
/// across them. A single background-IO stall (a few ms, a few times a
/// second on shared storage) lands in ~1% of samples and would
/// otherwise singlehandedly decide a point's tail in either direction.
const REPS: usize = 3;

/// Back-to-back (1-writer, 16-writer) pairs the guards are computed
/// from; the scaling guard takes the median of its per-pair ratios and
/// the p99 guard takes the cleanest pair (see the module docs on device
/// moods).
const GUARD_PAIRS: usize = 5;

struct Point {
    writers: usize,
    rows: usize,
    secs: f64,
    p50_us: u64,
    p99_us: u64,
    fsyncs: u64,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn measure(tag: &str, writers: usize, rows_per_writer: usize) -> Point {
    let dir = std::env::temp_dir().join(format!(
        "just-fig-ingest-{tag}-{writers}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let mut opts = StoreOptions {
        // Large threshold: the sweep measures the ingest pipeline, not
        // flush throughput.
        flush_threshold: 256 << 20,
        ..StoreOptions::default()
    };
    opts.wal_sync = SyncPolicy::PerWrite;
    opts.maintenance.workers = 0;
    let store = Store::open(&dir, opts).expect("store");
    let table = store.create_table("ingest", 1).expect("table");

    // Warmup + start barrier: store open, thread spawn and first-touch
    // page faults all land *before* the measured window, so latency
    // tails reflect the steady-state pipeline, not process startup.
    let warmup = (rows_per_writer / 5).max(16);
    let barrier = Arc::new(Barrier::new(writers + 1));
    let handles: Vec<_> = (0..writers)
        .map(|w| {
            let table = table.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                for i in 0..warmup {
                    let key = format!("warm-w{w:02}-{i:08}").into_bytes();
                    table.put(key, vec![0x4au8; 64]).expect("warmup put");
                }
                barrier.wait();
                let mut lat_us = Vec::with_capacity(rows_per_writer);
                for i in 0..rows_per_writer {
                    let key = format!("w{w:02}-{i:08}").into_bytes();
                    let value = vec![0x4au8; 64];
                    let t = Instant::now();
                    table.put(key, value).expect("put");
                    lat_us.push(t.elapsed().as_micros() as u64);
                }
                lat_us
            })
        })
        .collect();
    barrier.wait();
    let syncs_before = just_obs::global().counter("just_kvstore_wal_syncs").get();
    let t0 = Instant::now();
    let mut per_writer: Vec<Vec<u64>> = handles
        .into_iter()
        .map(|h| h.join().expect("writer thread"))
        .collect();
    let secs = t0.elapsed().as_secs_f64();
    let fsyncs = just_obs::global().counter("just_kvstore_wal_syncs").get() - syncs_before;
    drop(table);
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
    let mut merged: Vec<u64> = per_writer.iter().flatten().copied().collect();
    merged.sort_unstable();
    // Median across writers of per-writer p99 (see the module docs on
    // why a merged p99 is stall-fragile at high writer counts).
    let mut writer_p99s: Vec<u64> = per_writer
        .iter_mut()
        .map(|lat| {
            lat.sort_unstable();
            percentile(lat, 0.99)
        })
        .collect();
    writer_p99s.sort_unstable();
    Point {
        writers,
        rows: writers * rows_per_writer,
        secs,
        p50_us: percentile(&merged, 0.50),
        p99_us: writer_p99s[writer_p99s.len() / 2],
        fsyncs,
    }
}

/// Runs [`REPS`] repetitions of one sweep point and takes the median of
/// each metric independently.
fn measure_median(writers: usize, rows_per_writer: usize) -> Point {
    let reps: Vec<Point> = (0..REPS)
        .map(|r| measure(&format!("rep{r}"), writers, rows_per_writer))
        .collect();
    fn med_u64(mut v: Vec<u64>) -> u64 {
        v.sort_unstable();
        v[v.len() / 2]
    }
    fn med_f64(mut v: Vec<f64>) -> f64 {
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        v[v.len() / 2]
    }
    Point {
        writers,
        rows: writers * rows_per_writer,
        secs: med_f64(reps.iter().map(|p| p.secs).collect()),
        p50_us: med_u64(reps.iter().map(|p| p.p50_us).collect()),
        p99_us: med_u64(reps.iter().map(|p| p.p99_us).collect()),
        fsyncs: med_u64(reps.iter().map(|p| p.fsyncs).collect()),
    }
}

/// Runs the writer-count sweep. Returns `true` when both the scaling
/// and p99 guards hold.
pub fn run(cfg: &BenchConfig, out: &mut impl std::io::Write, report: &mut Report) -> bool {
    // Floor of 400: the single-writer p99 is the guard's denominator,
    // and with fewer samples it is decided by a couple of outliers.
    let rows_per_writer =
        (ROWS_PER_WRITER_FULL_SCALE as f64 * cfg.orders as f64 / 20_000.0).max(400.0) as usize;
    report.meta_raw("host_cpus", crate::harness::host_cpus().to_string());
    report.meta_raw(
        "writer_sweep",
        format!(
            "[{}]",
            WRITERS
                .iter()
                .map(|w| w.to_string())
                .collect::<Vec<_>>()
                .join(",")
        ),
    );
    report.meta_raw("rows_per_writer", rows_per_writer.to_string());
    report.meta_raw("reps", REPS.to_string());
    report.meta_str("wal_sync", "per-write");

    let mut points = Vec::with_capacity(WRITERS.len());
    for &w in &WRITERS {
        report.phase(&format!("writers_{w}"));
        points.push(measure_median(w, rows_per_writer));
    }

    let mut table = Table::new(&[
        "writers",
        "rows",
        "rows/s",
        "p50 us",
        "p99 us",
        "fsyncs",
        "rows/fsync",
    ]);
    for p in &points {
        let thr = p.rows as f64 / p.secs;
        table.row(vec![
            p.writers.to_string(),
            p.rows.to_string(),
            format!("{thr:.0}"),
            p.p50_us.to_string(),
            p.p99_us.to_string(),
            p.fsyncs.to_string(),
            format!("{:.1}", p.rows as f64 / (p.fsyncs.max(1)) as f64),
        ]);
        report.meta_raw(
            &format!("throughput_rps_w{}", p.writers),
            format!("{:.0}", thr),
        );
        report.meta_raw(&format!("p99_us_w{}", p.writers), p.p99_us.to_string());
    }
    writeln!(
        out,
        "== Ingest concurrency: 1 region, per-write WAL, {} rows/writer ==",
        rows_per_writer
    )
    .unwrap();
    writeln!(out, "{}", table.render()).unwrap();

    // Guards: paired runs, median of per-pair ratios (module docs).
    report.phase("guard_pairs");
    let mut scalings = Vec::with_capacity(GUARD_PAIRS);
    let mut p99_ratios = Vec::with_capacity(GUARD_PAIRS);
    let mut flats = Vec::with_capacity(GUARD_PAIRS);
    let mut last_pair = None;
    for r in 0..GUARD_PAIRS {
        let b = measure(&format!("guard{r}b"), 1, rows_per_writer);
        let s = measure(&format!("guard{r}s"), 16, rows_per_writer);
        scalings.push((s.rows as f64 / s.secs) / (b.rows as f64 / b.secs));
        p99_ratios.push(s.p99_us as f64 / b.p99_us.max(1) as f64);
        flats.push(s.p99_us as f64 / s.p50_us.max(1) as f64);
        last_pair = Some((b, s));
    }
    fn med(mut v: Vec<f64>) -> f64 {
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        v[v.len() / 2]
    }
    let scaling = med(scalings);
    // Cleanest pair: noise only inflates the 16-writer tail, so the
    // pair with the lowest flatness is the one least touched by a
    // storage mood (module docs). Both reported ratios come from that
    // same pair so they describe one measurement, not a mix.
    let best = (0..GUARD_PAIRS)
        .min_by(|&a, &b| flats[a].partial_cmp(&flats[b]).expect("finite"))
        .expect("at least one guard pair");
    let p99_ratio = p99_ratios[best];
    let flatness = flats[best];
    let (base, sixteen) = last_pair.expect("at least one guard pair");

    let scaling_ok = scaling >= 3.0;
    writeln!(
        out,
        "scaling guard: {} (16 writers {scaling:.1}x single-writer throughput, \
         median of {GUARD_PAIRS} paired runs, need >= 3x)",
        if scaling_ok { "PASS" } else { "FAIL" }
    )
    .unwrap();
    let p99_ok = (0..GUARD_PAIRS).any(|i| p99_ratios[i] <= 2.0 || flats[i] <= 5.0);
    report.meta_raw("guard_pairs", GUARD_PAIRS.to_string());
    report.meta_raw("scaling_16v1", format!("{scaling:.2}"));
    report.meta_raw("p99_ratio_16v1", format!("{p99_ratio:.2}"));
    report.meta_raw("p99_over_p50_w16", format!("{flatness:.2}"));
    writeln!(
        out,
        "p99 guard: {} (16-writer p99 {p99_ratio:.2}x single-writer, {flatness:.2}x own p50, \
         cleanest of {GUARD_PAIRS} paired runs; need <= 2x single-writer or <= 5x own p50 \
         in at least one pair; last pair {}us vs {}us)",
        if p99_ok { "PASS" } else { "FAIL" },
        sixteen.p99_us,
        base.p99_us
    )
    .unwrap();

    scaling_ok && p99_ok
}
