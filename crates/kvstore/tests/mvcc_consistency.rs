//! Seeded concurrency property: under concurrent ingest, snapshot scans
//! and forced online region splits/merges, every scan taken through a
//! [`just_kvstore::TableSnapshot`] must equal a *serial* execution of
//! exactly the operations committed before the snapshot.
//!
//! The protocol makes "committed before" observable without trusting the
//! implementation under test: writers apply each operation to the table
//! and append it to their own log while holding the read side of a quiesce
//! lock; the checker briefly takes the write side, so at that instant no
//! writer is mid-operation and the logs are precisely the applied set.
//! It captures the snapshot and clones the logs inside that window, then
//! releases the lock and verifies at leisure while writers, the flusher
//! and the splitter keep running. Each writer owns a disjoint key space,
//! so per-writer log order is per-key commit order and replaying the logs
//! into a `BTreeMap` is a faithful serial execution. Half the writers
//! send their operations as [`just_kvstore::Table::write_batch`]es of
//! one to eight, applied and logged under one read guard.
//!
//! Everything is seeded (a per-writer LCG), so a failure replays.

use just_kvstore::{MaintenanceOptions, ScanOptions, Store, StoreOptions, SyncPolicy};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};

const WRITERS: usize = 4;
const KEYS_PER_WRITER: u64 = 300;
const CHECKS: usize = 8;

#[derive(Clone)]
enum Op {
    Put(Vec<u8>, Vec<u8>),
    Delete(Vec<u8>),
}

/// Deterministic per-writer op stream (an LCG; no external RNG crates).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }
}

fn key_of(writer: usize, slot: u64) -> Vec<u8> {
    format!("w{writer}-{slot:04}").into_bytes()
}

fn replay(logs: &[Vec<Op>]) -> BTreeMap<Vec<u8>, Vec<u8>> {
    let mut model = BTreeMap::new();
    for log in logs {
        for op in log {
            match op {
                Op::Put(k, v) => {
                    model.insert(k.clone(), v.clone());
                }
                Op::Delete(k) => {
                    model.remove(k);
                }
            }
        }
    }
    model
}

#[test]
fn snapshot_scans_equal_serial_execution_under_splits() {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "just-mvcc-prop-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    // Tiny flush threshold and blocks: plenty of SSTables, so splits
    // find fences and snapshots cross the memtable/SSTable boundary.
    // No WAL and no scheduler: the splitter thread below is the only
    // maintenance, so the interleaving is the test's own.
    let store = Store::open(
        &dir,
        StoreOptions {
            flush_threshold: 8 << 10,
            block_size: 512,
            block_cache_bytes: 0,
            wal_sync: SyncPolicy::Off,
            maintenance: MaintenanceOptions {
                workers: 0,
                ..MaintenanceOptions::default()
            },
            ..StoreOptions::default()
        },
    )
    .unwrap();
    let table = store.create_table("prop", 1).unwrap();

    let quiesce = Arc::new(RwLock::new(()));
    let stop = Arc::new(AtomicBool::new(false));
    let logs: Vec<Arc<Mutex<Vec<Op>>>> = (0..WRITERS)
        .map(|_| Arc::new(Mutex::new(Vec::new())))
        .collect();

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let table = table.clone();
            let quiesce = quiesce.clone();
            let stop = stop.clone();
            let log = logs[w].clone();
            std::thread::spawn(move || {
                let mut rng = Rng(0x5EED + w as u64);
                let mut n = 0u64;
                // Bounded op count: without a background scheduler this
                // table flushes inline, so unbounded writers would bury
                // the region in SSTables and turn the test into an IO
                // benchmark.
                let batched = w % 2 == 1;
                while !stop.load(Ordering::Relaxed) && n < 12_000 {
                    let len = if batched { 1 + rng.next() % 8 } else { 1 };
                    let ops: Vec<Op> = (0..len)
                        .map(|i| {
                            let key = key_of(w, rng.next() % KEYS_PER_WRITER);
                            if rng.next().is_multiple_of(4) {
                                Op::Delete(key)
                            } else {
                                Op::Put(key, format!("w{w}-v{}", n + i).into_bytes())
                            }
                        })
                        .collect();
                    // Apply and log under one read guard: the checker's
                    // write lock can only be held when no operation is
                    // applied-but-unlogged (or logged-but-unapplied).
                    let guard = quiesce.read().unwrap();
                    if batched {
                        let batch = ops.iter().map(|op| match op {
                            Op::Put(k, v) => (k.clone(), Some(v.clone())),
                            Op::Delete(k) => (k.clone(), None),
                        });
                        table.write_batch(batch.collect()).unwrap();
                    } else {
                        match &ops[0] {
                            Op::Put(k, v) => table.put(k.clone(), v.clone()).unwrap(),
                            Op::Delete(k) => table.delete(k.clone()).unwrap(),
                        }
                    }
                    log.lock().unwrap().extend(ops);
                    drop(guard);
                    n += len;
                }
            })
        })
        .collect();

    // Lifecycle churn: force splits (and the odd merge) while the
    // checker runs. Errors other than "too small" are real failures.
    let splitter = {
        let table = table.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut rng = Rng(0xCAFE);
            let mut splits = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let n = table.num_regions();
                if n >= 6 && rng.next().is_multiple_of(3) {
                    let first = (rng.next() as usize) % (n - 1);
                    table.merge_regions(first).unwrap();
                } else {
                    table.flush().unwrap();
                    let idx = (rng.next() as usize) % n;
                    if table.split_region(idx).unwrap().is_some() {
                        splits += 1;
                    }
                }
                // Stand in for the background scheduler: keep the
                // SSTable count bounded so scans stay cheap.
                table.compact().unwrap();
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            splits
        })
    };

    // Hold the writers' read-guard pattern wrong way round and the test
    // fails loudly — this is the property check proper.
    let mut checked_rows = 0usize;
    for round in 0..CHECKS {
        std::thread::sleep(std::time::Duration::from_millis(40));
        let (snap, frozen_logs) = {
            let _w = quiesce.write().unwrap();
            let snap = table.snapshot();
            let frozen: Vec<Vec<Op>> = logs.iter().map(|l| l.lock().unwrap().clone()).collect();
            (snap, frozen)
        };
        let model = replay(&frozen_logs);
        // Materializing scan.
        let got: Vec<(Vec<u8>, Vec<u8>)> = snap
            .scan(b"", b"\xff")
            .unwrap()
            .into_iter()
            .map(|e| (e.key, e.value))
            .collect();
        let want: Vec<(Vec<u8>, Vec<u8>)> =
            model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        assert_eq!(
            got,
            want,
            "round {round}: snapshot scan diverged from serial execution \
             (snapshot seqs: {:?})",
            snap.region_seqs()
        );
        // Streaming scan: identical cut, batch by batch.
        let range = vec![(b"".to_vec(), b"\xff".to_vec())];
        let mut stream = snap.scan_ranges_stream(range, ScanOptions::default());
        let mut streamed = Vec::new();
        while let Some(batch) = stream.next_batch().unwrap() {
            streamed.extend(batch.into_iter().map(|e| (e.key, e.value)));
        }
        assert_eq!(streamed, want, "round {round}: streamed cut diverged");
        // Point gets agree with the cut too (sample a few model keys).
        for (k, v) in model.iter().take(20) {
            assert_eq!(snap.get(k).unwrap().as_ref(), Some(v), "round {round}");
        }
        checked_rows += want.len();
    }

    stop.store(true, Ordering::Relaxed);
    for h in writers {
        h.join().unwrap();
    }
    let splits = splitter.join().unwrap();
    assert!(splits >= 1, "the test never exercised an online split");
    assert!(checked_rows > 0, "the checker never saw data");

    // Final serial check at rest: latest reads equal full log replay.
    let model = replay(
        &logs
            .iter()
            .map(|l| l.lock().unwrap().clone())
            .collect::<Vec<_>>(),
    );
    let got: Vec<(Vec<u8>, Vec<u8>)> = table
        .snapshot()
        .scan(b"", b"\xff")
        .unwrap()
        .into_iter()
        .map(|e| (e.key, e.value))
        .collect();
    let want: Vec<(Vec<u8>, Vec<u8>)> = model.into_iter().collect();
    assert_eq!(got, want, "final state diverged from serial execution");
    std::fs::remove_dir_all(&dir).ok();
}
