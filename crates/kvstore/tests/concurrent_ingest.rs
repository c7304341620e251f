//! Seeded end-to-end property test for the concurrent ingest pipeline:
//! several writers hammer one table through the write path (one
//! memtable and one WAL per region, group commit) while streaming scans
//! run against the live store, and a mid-run directory snapshot
//! simulates `kill -9` (the `durability.rs` idiom).
//!
//! Invariants, per seeded case:
//!
//! - **no lost acked write**: every key acknowledged before a scan
//!   starts appears in that scan; every key acknowledged before the
//!   crash snapshot begins is recovered from the copy;
//! - **no duplicates**: scans and recovery yield strictly ascending
//!   keys (a key replayed twice would violate this);
//! - **consistent values**: every row carries the value derived from
//!   its key, so a scan never observes a torn or foreign write.
//!
//! Cases are generated from a seeded [`just_obs::Rng`], so every run
//! exercises the same writer counts, flush pressure and memtable caps.

mod common;

use just_kvstore::{ScanOptions, Store, StoreOptions, SyncPolicy};
use just_obs::Rng;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::{Arc, Barrier, Mutex};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "just-conc-ingest-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn value_for(key: &[u8]) -> Vec<u8> {
    let mut v = b"v-".to_vec();
    v.extend_from_slice(key);
    v
}

/// Collects a full streaming scan and checks the order / value
/// invariants; returns the scanned key set.
fn checked_scan(table: &just_kvstore::Table) -> BTreeSet<Vec<u8>> {
    let range = vec![(b"".to_vec(), b"\xff".to_vec())];
    let mut stream = table
        .snapshot()
        .scan_ranges_stream(range, ScanOptions::default());
    let mut seen = BTreeSet::new();
    let mut last: Option<Vec<u8>> = None;
    while let Some(batch) = stream.next_batch().unwrap() {
        for entry in batch {
            if let Some(prev) = &last {
                assert!(
                    *prev < entry.key,
                    "scan keys must be strictly ascending (duplicate or reordered row): \
                     {prev:?} then {:?}",
                    entry.key
                );
            }
            assert_eq!(
                entry.value,
                value_for(&entry.key),
                "row value does not match its key derivation"
            );
            last = Some(entry.key.clone());
            seen.insert(entry.key);
        }
    }
    seen
}

fn assert_superset(seen: &BTreeSet<Vec<u8>>, acked: &BTreeSet<Vec<u8>>, what: &str) {
    if let Some(missing) = acked.difference(seen).next() {
        panic!(
            "{what} lost an acknowledged write: {:?} ({} acked, {} visible)",
            String::from_utf8_lossy(missing),
            acked.len(),
            seen.len()
        );
    }
}

#[test]
fn concurrent_writers_streaming_scans_and_crash_recovery() {
    // The seed gives four cases that flush mid-run, two of them with
    // writers relieving the region themselves.
    for case in 0u64..8 {
        let mut rng = Rng::seed_from_u64(0x494e_4745_5754 ^ case);
        let writers = rng.gen_range(2usize..6);
        let rows_per_writer = rng.gen_range(80usize..160);
        // Half the cases flush mid-run, so scans and recovery cross the
        // memtable/SSTable boundary while writers are still appending.
        let flush_threshold = if rng.gen_range(0usize..2) == 0 {
            8 << 10
        } else {
            256 << 20
        };
        // Half of those flush at 4 KiB, so the region's cap is 8 KiB
        // (twice the threshold) and writers relieve it themselves while
        // the scheduler also flushes it: a frozen generation of at least
        // 4 KiB plus the first 4 KiB the fresh memtable reserves reach
        // the cap while the generation's flush is in flight. (At 8 KiB
        // the 16 KiB cap is rarely reached.)
        let writers_flush = flush_threshold == 8 << 10 && rng.gen_range(0usize..2) == 0;
        let flush_threshold = if writers_flush {
            4 << 10
        } else {
            flush_threshold
        };

        let dir = tmpdir(&format!("case{case}"));
        let mut opts = StoreOptions {
            flush_threshold,
            ..StoreOptions::default()
        };
        opts.wal_sync = SyncPolicy::PerWrite;
        let store = Store::open(&dir, opts.clone()).unwrap();
        let table = store.create_table("t", 1).unwrap();
        let stalls = just_obs::global().counter("just_kvstore_backpressure_stalls");
        let stalls_before = stalls.get();

        // Shared ack log: a key is inserted *after* `put` returns, so
        // the set only ever contains acknowledged (fsync-covered,
        // per-write sync) writes.
        let acked: Arc<Mutex<BTreeSet<Vec<u8>>>> = Arc::new(Mutex::new(BTreeSet::new()));
        let barrier = Arc::new(Barrier::new(writers + 1));
        let handles: Vec<_> = (0..writers)
            .map(|w| {
                let table = table.clone();
                let acked = Arc::clone(&acked);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for i in 0..rows_per_writer {
                        let key = format!("w{w:02}-{i:05}").into_bytes();
                        table.put(key.clone(), value_for(&key)).unwrap();
                        acked.lock().unwrap().insert(key);
                    }
                })
            })
            .collect();
        barrier.wait();

        // Streaming scans against the live store, plus one mid-run
        // crash snapshot. The acked set is captured *before* each scan
        // or copy starts: per-write sync means those records were
        // fsynced before the writer was released.
        let mut crash: Option<(PathBuf, BTreeSet<Vec<u8>>)> = None;
        for round in 0.. {
            let before = acked.lock().unwrap().clone();
            let seen = checked_scan(&table);
            assert_superset(&seen, &before, "live streaming scan");
            let done = before.len() == writers * rows_per_writer;
            // Usually lands mid-ingest (round 1); the `done` arm keeps
            // the copy from being skipped entirely on a machine fast
            // enough to drain the writers during the first scan.
            if crash.is_none() && (round >= 1 || done) {
                let acked_before_copy = acked.lock().unwrap().clone();
                let copy = tmpdir(&format!("case{case}-crash"));
                common::copy_live_dir(&dir, &copy);
                crash = Some((copy, acked_before_copy));
            }
            if done {
                break;
            }
            std::thread::yield_now();
        }
        for h in handles {
            h.join().unwrap();
        }
        if writers_flush {
            assert!(stalls.get() > stalls_before, "no writer reached the cap");
        }

        // Clean reopen: WAL replay restores every acknowledged write
        // exactly once.
        let every_key = acked.lock().unwrap().clone();
        assert_eq!(every_key.len(), writers * rows_per_writer);
        drop(table);
        drop(store);
        let reopened = Store::open(&dir, opts.clone()).unwrap();
        let t2 = reopened.open_table("t", 1).unwrap();
        assert_superset(&checked_scan(&t2), &every_key, "post-restart scan");
        drop(t2);
        drop(reopened);

        // Crash-copy reopen: the snapshot was taken mid-ingest with the
        // WAL mid-append; replay must recover everything acked before
        // the copy began and tolerate the torn tail.
        let (copy, acked_before_copy) = crash.expect("writers outlived round 1");
        let recovered = Store::open(&copy, opts).unwrap();
        let t3 = recovered.open_table("t", 1).unwrap();
        assert_superset(
            &checked_scan(&t3),
            &acked_before_copy,
            "crash-snapshot recovery",
        );
        drop(t3);
        drop(recovered);

        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&copy).ok();
    }
}
