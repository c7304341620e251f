//! An idle store costs nothing: the maintenance workers sleep until an
//! event gives them work, and the events that must wake them — a
//! `batched` append, a flush that reaches the compaction trigger or
//! may make a region big enough to split — do.
//!
//! The sweep and sync counters are process-global, so the tests of this
//! binary take turns (`SERIAL`) and each drops its store before the next
//! one reads them.

mod common;

use common::incompressible;
use just_kvstore::{MaintenanceOptions, Store, StoreOptions, SyncPolicy};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("just-idle-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn counter(name: &str) -> u64 {
    just_obs::global().counter(name).get()
}

fn sweeps() -> u64 {
    counter("just_kvstore_maintenance_sweeps")
}

fn wal_syncs() -> u64 {
    counter("just_kvstore_wal_syncs")
}

/// Waits (up to 5 s) until no sweep has run for 50 ms.
fn settle() {
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut last = sweeps();
    while Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
        let now = sweeps();
        if now == last {
            return;
        }
        last = now;
    }
}

#[test]
fn an_idle_store_runs_no_sweeps() {
    let _serial = serial();
    let dir = tmpdir("sweeps");
    let store = Store::open(&dir, StoreOptions::default()).unwrap();
    for name in ["a", "b", "c"] {
        let table = store.create_table(name, 4).unwrap();
        for i in 0..64u32 {
            table
                .put(format!("k{i:04}").into_bytes(), b"v".to_vec())
                .unwrap();
        }
    }
    // The last write's sync window closes, its group commit runs, and
    // then nothing is due.
    settle();
    let (before, syncs) = (sweeps(), wal_syncs());
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(sweeps() - before, 0, "an idle store swept");
    assert_eq!(wal_syncs(), syncs);
    drop(store);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn one_batched_put_is_fsynced_with_no_further_traffic() {
    let _serial = serial();
    let dir = tmpdir("sync");
    let store = Store::open(&dir, StoreOptions::default()).unwrap();
    let table = store.create_table("t", 1).unwrap();
    settle();
    let before = wal_syncs();
    table.put(b"k".to_vec(), b"v".to_vec()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(1);
    while wal_syncs() == before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        wal_syncs(),
        before + 1,
        "the put was not fsynced within 1 s"
    );
    drop(store);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn explicit_flushes_to_the_trigger_are_compacted_in_the_background() {
    let _serial = serial();
    let dir = tmpdir("compact");
    // No log, so no sync deadline wakes the workers: only the flushes'
    // kicks can.
    let options = StoreOptions {
        wal_sync: SyncPolicy::Off,
        maintenance: MaintenanceOptions {
            compact_trigger: 4,
            ..MaintenanceOptions::default()
        },
        ..StoreOptions::default()
    };
    let store = Store::open(&dir, options).unwrap();
    let table = store.create_table("t", 1).unwrap();
    for i in 0..4u32 {
        table
            .put(format!("k{i}").into_bytes(), b"v".to_vec())
            .unwrap();
        table.flush().unwrap();
    }
    let sstables = || table.region_stats()[0].sstables;
    let deadline = Instant::now() + Duration::from_secs(5);
    while sstables() > 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(sstables(), 1, "four flushed tables were not compacted");
    assert_eq!(table.snapshot().scan(b"", b"\xff").unwrap().len(), 4);
    drop(store);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn a_region_flushed_past_the_split_size_is_split_with_no_further_writes() {
    let _serial = serial();
    let dir = tmpdir("split");
    // No log, so no sync deadline wakes the workers, and a flush
    // threshold no write here reaches: only the explicit flush's kick
    // can bring about the split check.
    let options = StoreOptions {
        wal_sync: SyncPolicy::Off,
        maintenance: MaintenanceOptions {
            split_bytes: 16 << 10,
            ..MaintenanceOptions::default()
        },
        ..StoreOptions::default()
    };
    let store = Store::open(&dir, options).unwrap();
    let table = store.create_table("t", 2).unwrap();
    // Region 1 (keys from byte 0x80): worker 1's, not worker 0's, which
    // runs the split check. The values do not compress, so the flushed
    // table is past the split size on disk too.
    for i in 0..256u32 {
        let key = [&[0x90u8][..], &i.to_be_bytes()].concat();
        table.put(key, incompressible(u64::from(i), 256)).unwrap();
    }
    settle();
    assert_eq!(table.num_regions(), 2, "split before the flush");
    table.flush().unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while table.num_regions() == 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(table.num_regions(), 3, "the flushed region was not split");
    assert_eq!(table.snapshot().scan(b"", b"\xff").unwrap().len(), 256);
    drop(store);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn shutdown_wakes_workers_parked_without_a_deadline() {
    let _serial = serial();
    let dir = tmpdir("shutdown");
    for cycle in 0..200u64 {
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        match cycle {
            0 => store.create_table("t", 2).unwrap(),
            _ => store.open_table("t", 2).unwrap(),
        };
        // Some cycles stop the workers at once, some once they park.
        std::thread::sleep(Duration::from_micros(cycle % 4 * 500));
        // On its own thread, so a hung shutdown fails the test instead
        // of stalling it.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            store.shutdown();
            done_tx.send(()).ok();
        });
        assert!(
            done_rx.recv_timeout(Duration::from_secs(1)).is_ok(),
            "shutdown {cycle} took over 1 s"
        );
    }
    std::fs::remove_dir_all(dir).ok();
}
