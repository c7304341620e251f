//! Streaming scan pipeline: what a consumer that stops early saves, over
//! a scan fanned out across many key ranges (the shape a salted
//! spatio-temporal index plan produces).
//!
//! Two runs of [`just_kvstore::ScanStream`] over the same flushed table,
//! block cache disabled so `blocks_read` is true disk IO:
//!
//! 1. **stream-full** — `scan_ranges_stream` drained to the end: every
//!    row, in bounded in-flight memory (the peak batch size is
//!    reported). The materializing scans are exactly this drain.
//! 2. **stream-limit** — `scan_ranges_stream` cancelled after 10 rows:
//!    the consumer-side `LIMIT k` pattern.
//!
//! Two functional guards (re-checked by `ci.sh`): the full drain must
//! return exactly the rows that were ingested (a brute-force count), and
//! the limited stream must read **< 20 %** of the blocks the full drain
//! reads.

use crate::config::BenchConfig;
use crate::harness::{ms, time_once, Report, Table};
use just_kvstore::{ScanOptions, Store, StoreOptions};

/// Ranges in the scan plan: enough fan-out that early termination has
/// whole ranges left to skip, like a sharded curve-range plan.
const FANOUT: usize = 16;

/// Rows the limited consumer wants.
const LIMIT: usize = 10;

fn key(shard: usize, i: usize) -> Vec<u8> {
    format!("{shard:02}/rec{i:08}").into_bytes()
}

/// A GPS-fix-like payload, sized so scans span many 4 KiB blocks.
fn value(i: usize) -> Vec<u8> {
    format!(
        "lng=116.{:06},lat=39.{:06},speed={:02}.5,heading={:03},status=driving,seq={i:08};",
        i * 131 % 1_000_000,
        i * 977 % 1_000_000,
        i % 80,
        i % 360
    )
    .into_bytes()
}

/// Runs the streaming-scan comparison. Returns `true` when both
/// functional guards pass.
pub fn run(cfg: &BenchConfig, out: &mut impl std::io::Write, report: &mut Report) -> bool {
    let n = cfg.orders.max(2000);
    report.phase("ingest");
    let dir = std::env::temp_dir().join(format!("just-fig-scan-stream-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = Store::open(
        &dir,
        StoreOptions {
            block_size: 4096,
            block_cache_bytes: 0,
            ..StoreOptions::default()
        },
    )
    .expect("store open");
    let t = store.create_table("fanout", 4).expect("create table");
    for i in 0..n {
        t.put(key(i % FANOUT, i / FANOUT), value(i)).expect("put");
    }
    t.flush().expect("flush");
    t.compact().expect("compact");

    let ranges: Vec<(Vec<u8>, Vec<u8>)> = (0..FANOUT)
        .map(|s| (key(s, 0), key(s, usize::MAX / 2)))
        .collect();

    let mut table = Table::new(&[
        "path",
        "rows out",
        "blocks read",
        "ms",
        "batches",
        "peak batch KiB",
    ]);

    // 1. Scan drained to exhaustion: every block of every range, in
    // bounded in-flight memory.
    report.phase("stream-full");
    let before = store.metrics().snapshot();
    let (full_rows, full_t) = time_once(|| {
        let mut stream = t.scan_ranges_stream(ranges.clone(), ScanOptions::default());
        let mut rows = 0usize;
        while let Some(batch) = stream.next_batch().expect("stream batch") {
            rows += batch.len();
        }
        rows
    });
    let full = store.metrics().snapshot().since(&before);
    table.row(vec![
        "stream-full".into(),
        full_rows.to_string(),
        full.blocks_read.to_string(),
        ms(full_t),
        full.batches_emitted.to_string(),
        format!("{:.1}", full.batch_bytes_peak as f64 / 1024.0),
    ]);

    // 2. Scan cancelled after LIMIT rows: the pushdown payoff.
    report.phase("stream-limit");
    let before = store.metrics().snapshot();
    let (lim_rows, lim_t) = time_once(|| {
        let mut stream = t.scan_ranges_stream(
            ranges.clone(),
            ScanOptions {
                batch_rows: LIMIT,
                ..Default::default()
            },
        );
        let cancel = stream.cancel_token();
        let mut rows = 0usize;
        while let Some(batch) = stream.next_batch().expect("stream batch") {
            rows += batch.len();
            if rows >= LIMIT {
                cancel.cancel();
                break;
            }
        }
        rows
    });
    let lim = store.metrics().snapshot().since(&before);
    table.row(vec![
        format!("stream-limit{LIMIT}"),
        lim_rows.to_string(),
        lim.blocks_read.to_string(),
        ms(lim_t),
        lim.batches_emitted.to_string(),
        // `batch_bytes_peak` is a store-wide high-water mark, so after the
        // full drain above it no longer attributes to this phase.
        "-".into(),
    ]);

    writeln!(
        out,
        "== Streaming scan: full drain vs LIMIT {LIMIT} over {FANOUT} ranges =="
    )
    .unwrap();
    writeln!(out, "{}", table.render()).unwrap();

    let parity_ok = full_rows == n && lim_rows == LIMIT;
    let pct = 100.0 * lim.blocks_read as f64 / full.blocks_read.max(1) as f64;
    let pushdown_ok = lim.blocks_read * 5 < full.blocks_read && lim.scan_early_terminations == 1;
    writeln!(
        out,
        "parity guard: {} (stream drained {full_rows} rows of {n} ingested, \
         limit run returned {lim_rows})",
        if parity_ok { "PASS" } else { "FAIL" },
    )
    .unwrap();
    writeln!(
        out,
        "streaming guard: {} (LIMIT {LIMIT} read {} blocks vs {} for the full drain: \
         {pct:.1}%, need <20%; early terminations: {})",
        if pushdown_ok { "PASS" } else { "FAIL" },
        lim.blocks_read,
        full.blocks_read,
        lim.scan_early_terminations,
    )
    .unwrap();

    drop(t);
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
    parity_ok && pushdown_ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_stream_figure_runs_and_guards_pass_at_tiny_scale() {
        let cfg = BenchConfig {
            orders: 3000,
            ..BenchConfig::default()
        };
        let mut buf = Vec::new();
        let ok = run(&cfg, &mut buf, &mut Report::new("scan_stream"));
        let text = String::from_utf8(buf).unwrap();
        assert!(ok, "guards must pass: {text}");
        assert!(text.contains("parity guard: PASS"), "{text}");
        assert!(text.contains("streaming guard: PASS"), "{text}");
    }
}
