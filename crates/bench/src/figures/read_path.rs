//! Read-path overhead: blocks read and latency across SSTable formats —
//! legacy v1 (full keys, linear in-block scans, no bloom), v2 (prefix
//! compression + restart-point binary search + bloom filters), and v2
//! with per-block compression.
//!
//! This is the paper's §V compression argument measured end to end: the
//! same rows, the same scans and point gets, differing only in on-disk
//! layout. The block cache is disabled so `blocks_read` is true disk IO.
//! Two functional guards are printed (and re-checked by `ci.sh`):
//! a miss-heavy point-get workload must resolve ≥95 % of misses by bloom
//! filter alone, and the compressed v2 layout must read ≥30 % fewer
//! blocks than v1 on the range-scan workload.

use crate::config::BenchConfig;
use crate::harness::{median_latency, ms, Report, Table};
use just_compress::Codec;
use just_kvstore::{BlockFormat, Store, StoreOptions};

/// The swept configurations: (label, format, codec, bloom bits/key).
pub fn variants() -> Vec<(&'static str, BlockFormat, Codec, usize)> {
    vec![
        ("v1", BlockFormat::V1, Codec::None, 0),
        ("v2", BlockFormat::V2, Codec::None, 10),
        ("v2-zip", BlockFormat::V2, Codec::Zip, 10),
    ]
}

/// Trajectory-point key for record `i`: 256 points per trajectory id,
/// lexicographically ascending in `i` (even slots; odd slots stay free
/// for the miss workload).
fn key(i: usize) -> Vec<u8> {
    format!("traj/{:04}/{:010}", i / 256, i * 2).into_bytes()
}

/// Absent key inside the table's key fence (odd slot of record `i`).
fn miss_key(i: usize) -> Vec<u8> {
    format!("traj/{:04}/{:010}", i / 256, i * 2 + 1).into_bytes()
}

/// A GPS-sample-like value: structured, repetitive, compressible — the
/// field shape the paper compresses.
fn value(i: usize) -> Vec<u8> {
    format!(
        "lng=116.{:06},lat=39.{:06},speed={:02}.5,heading={:03},status=driving;",
        i * 131 % 1_000_000,
        i * 977 % 1_000_000,
        i % 80,
        i % 360
    )
    .into_bytes()
}

/// Runs the read-path sweep. Returns `true` when both functional guards
/// pass (the binary's exit path and `ci.sh` depend on this, not on
/// timings).
pub fn run(cfg: &BenchConfig, out: &mut impl std::io::Write, report: &mut Report) -> bool {
    let n = cfg.orders;
    // Each scan must span several blocks' worth of rows, or the one-
    // block-per-scan floor hides the layout difference being measured.
    let scans = (n / 100).clamp(10, 200);
    let span = n / scans; // records per range scan
    let gets = 500.min(n);

    let mut table = Table::new(&[
        "format",
        "disk KiB",
        "scan blocks",
        "scan ms(med)",
        "get ms(med)",
        "miss blocks",
        "bloom skip %",
    ]);
    let mut v1_scan_blocks = 0u64;
    let mut zip_scan_blocks = 0u64;
    let mut bloom_pct = 0.0f64;
    for (label, format, codec, bloom_bits) in variants() {
        report.phase(&format!("ingest-{label}"));
        let dir =
            std::env::temp_dir().join(format!("just-fig-read-path-{label}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = Store::open(
            &dir,
            StoreOptions {
                block_size: 4096,
                sst_format: format,
                codec,
                bloom_bits_per_key: bloom_bits,
                block_cache_bytes: 0,
                ..StoreOptions::default()
            },
        )
        .expect("store open");
        let t = store.create_table("traj", 1).expect("create table");
        for i in 0..n {
            t.put(key(i), value(i)).expect("put");
        }
        t.flush().expect("flush");
        t.compact().expect("compact");
        let disk_kib = t.disk_size() / 1024;

        // Range scans over disjoint slices of the keyspace.
        report.phase(&format!("scan-{label}"));
        // The store's own counters, not the process-wide registry:
        // other engines in this process must not leak into the guards.
        let before = store.metrics().snapshot();
        let ranges: Vec<(Vec<u8>, Vec<u8>)> = (0..scans)
            .map(|s| (key(s * span), key((s + 1) * span - 1)))
            .collect();
        let scan_med = median_latency(&ranges, |(lo, hi)| {
            let hits = t.scan(lo, hi).expect("scan");
            assert!(!hits.is_empty(), "scan returned no rows");
        });
        let scan_blocks = store.metrics().snapshot().since(&before).blocks_read;

        // Point gets on present keys.
        report.phase(&format!("get-hit-{label}"));
        let hit_keys: Vec<Vec<u8>> = (0..gets).map(|i| key(i * (n / gets))).collect();
        let get_med = median_latency(&hit_keys, |k| {
            assert!(t.get(k).expect("get").is_some(), "present key missing");
        });

        // Miss-heavy point gets: absent keys *inside* the key fence, so
        // only a bloom filter (or a block read) can answer them.
        report.phase(&format!("get-miss-{label}"));
        let before = store.metrics().snapshot();
        for i in 0..gets {
            assert!(
                t.get(&miss_key(i * (n / gets))).expect("get").is_none(),
                "miss key unexpectedly present"
            );
        }
        let d = store.metrics().snapshot().since(&before);
        let skip_pct = 100.0 * d.bloom_skips as f64 / gets as f64;

        if label == "v1" {
            v1_scan_blocks = scan_blocks;
        }
        if label == "v2-zip" {
            zip_scan_blocks = scan_blocks;
            bloom_pct = skip_pct;
        }
        table.row(vec![
            label.to_string(),
            disk_kib.to_string(),
            scan_blocks.to_string(),
            ms(scan_med),
            ms(get_med),
            d.blocks_read.to_string(),
            format!("{skip_pct:.1}"),
        ]);
        drop(t);
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }

    writeln!(
        out,
        "== Read path: blocks read and latency across SSTable formats =="
    )
    .unwrap();
    writeln!(out, "{}", table.render()).unwrap();

    let bloom_ok = bloom_pct >= 95.0;
    let saved = 100.0 - 100.0 * zip_scan_blocks as f64 / v1_scan_blocks.max(1) as f64;
    let compression_ok = saved >= 30.0;
    writeln!(
        out,
        "bloom guard: {} ({bloom_pct:.1}% of {gets} in-fence misses bloom-skipped, need >=95%)",
        if bloom_ok { "PASS" } else { "FAIL" },
    )
    .unwrap();
    writeln!(
        out,
        "compression guard: {} (v2-zip scans read {zip_scan_blocks} blocks vs {v1_scan_blocks} \
         for v1: {saved:.1}% fewer, need >=30%)",
        if compression_ok { "PASS" } else { "FAIL" },
    )
    .unwrap();
    bloom_ok && compression_ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_path_figure_runs_and_guards_pass_at_tiny_scale() {
        let cfg = BenchConfig {
            orders: 2000,
            ..BenchConfig::default()
        };
        let mut buf = Vec::new();
        let ok = run(&cfg, &mut buf, &mut Report::new("read_path"));
        let text = String::from_utf8(buf).unwrap();
        assert!(ok, "guards must pass: {text}");
        assert!(text.contains("bloom guard: PASS"), "{text}");
        assert!(text.contains("compression guard: PASS"), "{text}");
        for (label, ..) in variants() {
            assert!(
                text.lines().any(|l| l.trim().starts_with(label)),
                "missing row for {label}: {text}"
            );
        }
    }
}
