//! Store-level durability integration tests: the WAL + background
//! maintenance scheduler working together, including a simulated
//! `kill -9` (snapshot the live data directory, reopen the copy).

mod common;

use just_kvstore::{MaintenanceOptions, Store, StoreOptions, SyncPolicy};
use std::path::{Path, PathBuf};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "just-durability-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn crash_copy_recovers_every_acknowledged_write() {
    // Batched sync acknowledges after write(2): a killed process loses
    // nothing because the kernel page cache survives it. Snapshotting
    // the live directory sees exactly that state.
    let dir = tmpdir("crash");
    let store = Store::open(&dir, StoreOptions::default()).unwrap();
    let t = store.create_table("t", 4).unwrap();
    for i in 0..1000u32 {
        t.put(
            format!("k{i:06}").into_bytes(),
            format!("v{i}").into_bytes(),
        )
        .unwrap();
    }
    let crash = tmpdir("crash-copy");
    common::copy_live_dir(&dir, &crash);

    let recovered = Store::open(&crash, StoreOptions::default()).unwrap();
    let t2 = recovered.open_table("t", 4).unwrap();
    assert_eq!(t2.snapshot().scan(b"", b"\xff").unwrap().len(), 1000);
    assert_eq!(
        t2.snapshot().get(b"k000999").unwrap(),
        Some(b"v999".to_vec())
    );
    drop(store);
    std::fs::remove_dir_all(dir).ok();
    std::fs::remove_dir_all(crash).ok();
}

#[test]
fn scheduler_flushes_and_compacts_in_background() {
    // Tiny thresholds: the scheduler must keep up with sustained ingest,
    // flushing past the memtable threshold and compacting past the
    // file-count trigger. A writer that finds a region at the 16 KiB cap
    // (twice the threshold) flushes it itself; the scheduler does the
    // rest.
    let dir = tmpdir("sched");
    let store = Store::open(
        &dir,
        StoreOptions {
            flush_threshold: 8 << 10,
            maintenance: MaintenanceOptions {
                workers: 2,
                compact_trigger: 4,
                ..MaintenanceOptions::default()
            },
            ..StoreOptions::default()
        },
    )
    .unwrap();
    let t = store.create_table("t", 2).unwrap();
    for i in 0..4000u32 {
        t.put(format!("k{i:06}").into_bytes(), vec![7; 64]).unwrap();
    }
    // Wait for maintenance to drain the memtables.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let hits = t.snapshot().scan(b"", b"\xff").unwrap();
        assert_eq!(hits.len(), 4000, "scan must always see every row");
        if t.disk_size() > 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "background flush never ran"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    store.shutdown();
    drop(store);

    // Reopen: everything (flushed + WAL tail) recovers.
    let s2 = Store::open(&dir, StoreOptions::default()).unwrap();
    let t2 = s2.open_table("t", 2).unwrap();
    assert_eq!(t2.snapshot().scan(b"", b"\xff").unwrap().len(), 4000);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn wal_disabled_reproduces_pre_durability_behaviour() {
    // wal_sync = Off: no wal_ files appear, unflushed rows die
    // with the process — the seed repo's semantics, still available for
    // benchmarks that want raw ingest speed.
    let dir = tmpdir("nowal");
    let store = Store::open(
        &dir,
        StoreOptions {
            wal_sync: SyncPolicy::Off,
            ..StoreOptions::default()
        },
    )
    .unwrap();
    let t = store.create_table("t", 2).unwrap();
    t.put(b"k".to_vec(), b"v".to_vec()).unwrap();
    let mut wal_files = 0;
    for entry in walk(&dir) {
        if entry
            .file_name()
            .unwrap()
            .to_string_lossy()
            .starts_with("wal_")
        {
            wal_files += 1;
        }
    }
    assert_eq!(wal_files, 0, "WAL disabled must write no wal_ segments");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn failed_manifest_write_rolls_back_split_and_merge() {
    // The manifest rename is the commit point of a split/merge, so it
    // must happen before the in-memory map routes anything to a
    // daughter: otherwise a failed persist leaves acknowledged writes in
    // daughter WALs that the next open sweeps away as unreferenced.
    let dir = tmpdir("manifest-fail");
    let options = || StoreOptions {
        flush_threshold: 16 << 10,
        maintenance: MaintenanceOptions {
            workers: 0,
            ..MaintenanceOptions::default()
        },
        ..StoreOptions::default()
    };
    let store = Store::open(&dir, options()).unwrap();
    // Two regions: leading bytes below / from 0x80.
    let t = store.create_table("t", 2).unwrap();
    for i in 0..2000u32 {
        t.put(format!("k{i:05}").into_bytes(), vec![7; 48]).unwrap();
        t.put(format!("\u{e9}{i:05}").into_bytes(), vec![9; 48])
            .unwrap();
    }
    // `File::create` on a directory fails: every manifest write now
    // errors out before its rename.
    std::fs::create_dir(dir.join("t").join("REGIONS.tmp")).unwrap();
    assert!(t.split_region(0).is_err(), "split must surface the error");
    assert!(t.merge_regions(0).is_err(), "merge must surface the error");
    assert_eq!(t.num_regions(), 2, "a failed commit must not swap the map");
    assert!(t.region_stats().iter().all(|r| !r.sealed));
    // The parents take writes again, and those writes are durable.
    t.put(b"k-after".to_vec(), b"low".to_vec()).unwrap();
    t.put("\u{e9}-after".into(), b"high".to_vec()).unwrap();
    let acknowledged = t.snapshot().scan(b"", b"\xff").unwrap();
    assert_eq!(acknowledged.len(), 4002);
    drop(t);
    drop(store);

    let reopened = Store::open(&dir, options()).unwrap();
    let t = reopened.open_table("t", 2).unwrap();
    assert_eq!(t.num_regions(), 2);
    let recovered = t.snapshot().scan(b"", b"\xff").unwrap();
    assert_eq!(recovered.len(), acknowledged.len(), "reopen lost keys");
    assert!(
        recovered == acknowledged,
        "reopen changed acknowledged values"
    );
    std::fs::remove_dir_all(dir).ok();
}

fn walk(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        if entry.file_type().unwrap().is_dir() {
            out.extend(walk(&entry.path()));
        } else {
            out.push(entry.path());
        }
    }
    out
}
