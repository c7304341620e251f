//! Block-cache integration: repeated scans are served from memory, the
//! IO counters distinguish disk reads from cache hits, one file's blocks
//! can fill the whole budget, and no block outlives its file.

use just_kvstore::{MaintenanceOptions, ScanOptions, Store, StoreOptions, Table};
use std::path::{Path, PathBuf};

#[test]
fn repeated_scans_hit_the_cache() {
    let dir = std::env::temp_dir().join(format!(
        "just-kv-cache-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let store = Store::open(&dir, StoreOptions::default()).unwrap();
    let table = store.create_table("t", 2).unwrap();
    for i in 0..5000u32 {
        table.put(i.to_be_bytes().to_vec(), vec![0u8; 64]).unwrap();
    }
    table.flush().unwrap();

    store.metrics().reset();
    let first = table
        .snapshot()
        .scan(&100u32.to_be_bytes(), &900u32.to_be_bytes())
        .unwrap();
    let cold = store.metrics().snapshot();
    assert!(cold.blocks_read > 0, "cold scan reads from disk");

    store.metrics().reset();
    let second = table
        .snapshot()
        .scan(&100u32.to_be_bytes(), &900u32.to_be_bytes())
        .unwrap();
    let warm = store.metrics().snapshot();
    assert_eq!(first, second, "cache must not change results");
    assert_eq!(warm.blocks_read, 0, "warm scan is disk-free");
    assert!(warm.cache_hits >= cold.blocks_read, "served from cache");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn disabled_cache_always_reads_disk() {
    let dir = std::env::temp_dir().join(format!(
        "just-kv-nocache-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let store = Store::open(
        &dir,
        StoreOptions {
            block_cache_bytes: 0,
            ..StoreOptions::default()
        },
    )
    .unwrap();
    let table = store.create_table("t", 2).unwrap();
    for i in 0..2000u32 {
        table.put(i.to_be_bytes().to_vec(), vec![0u8; 64]).unwrap();
    }
    table.flush().unwrap();

    store.metrics().reset();
    table
        .snapshot()
        .scan(&0u32.to_be_bytes(), &1999u32.to_be_bytes())
        .unwrap();
    let first = store.metrics().snapshot();
    store.metrics().reset();
    table
        .snapshot()
        .scan(&0u32.to_be_bytes(), &1999u32.to_be_bytes())
        .unwrap();
    let second = store.metrics().snapshot();
    assert_eq!(first.blocks_read, second.blocks_read, "no caching");
    assert_eq!(second.cache_hits, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compaction_invalidates_cached_blocks() {
    let dir = std::env::temp_dir().join(format!(
        "just-kv-cache-compact-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let store = Store::open(&dir, StoreOptions::default()).unwrap();
    let table = store.create_table("t", 1).unwrap();
    for round in 0..3 {
        for i in 0..500u32 {
            table
                .put(i.to_be_bytes().to_vec(), format!("v{round}").into_bytes())
                .unwrap();
        }
        table.flush().unwrap();
    }
    // Warm the cache, then compact (which rewrites files).
    table
        .snapshot()
        .scan(&0u32.to_be_bytes(), &499u32.to_be_bytes())
        .unwrap();
    table.compact().unwrap();
    // Post-compaction scans see the latest data.
    let after = table
        .snapshot()
        .scan(&0u32.to_be_bytes(), &499u32.to_be_bytes())
        .unwrap();
    assert_eq!(after.len(), 500);
    assert!(after.iter().all(|e| e.value == b"v2"));
    std::fs::remove_dir_all(&dir).ok();
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("just-kv-cache-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A store caching up to `cache_bytes`, without background maintenance:
/// every flush, compaction, split and merge below is the test's own.
fn open_store(dir: &Path, cache_bytes: usize) -> Store {
    let options = StoreOptions {
        block_cache_bytes: cache_bytes,
        maintenance: MaintenanceOptions {
            workers: 0,
            ..MaintenanceOptions::default()
        },
        ..StoreOptions::default()
    };
    Store::open(dir, options).unwrap()
}

/// `rounds` flushed tables, each overwriting the same `keys` keys.
fn load(table: &Table, rounds: u8, keys: u32) {
    for round in 0..rounds {
        for i in 0..keys {
            table
                .put(i.to_be_bytes().to_vec(), vec![round; 200])
                .unwrap();
        }
        table.flush().unwrap();
    }
}

/// Scans the whole table through the cache; returns the rows.
fn scan_all(table: &Table) -> usize {
    table
        .snapshot()
        .scan(b"", b"\xff\xff\xff\xff")
        .unwrap()
        .len()
}

#[test]
fn one_compacted_file_can_fill_the_whole_cache() {
    const CACHE: usize = 4 << 20;
    let dir = tmpdir("budget");
    let store = open_store(&dir, CACHE);
    let table = store.create_table("t", 1).unwrap();
    load(&table, 2, 8000);
    table.compact().unwrap();
    assert_eq!(table.region_stats()[0].sstables, 1);
    let disk = table.disk_size() as usize;
    assert!(disk < CACHE, "{disk} bytes on disk");
    assert_eq!(scan_all(&table), 8000);
    // The file's data blocks, all of them: a file's blocks spread over
    // every shard of the one budget, not into one shard's sixteenth.
    let resident = store.cache().resident_bytes();
    assert!(
        resident > CACHE / 16 && resident >= disk * 9 / 10,
        "{resident} bytes of a {disk}-byte file stayed in a {CACHE}-byte cache"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn no_cached_block_outlives_its_file() {
    let dir = tmpdir("retired");
    let store = open_store(&dir, 4 << 20);
    let cache = store.cache();
    let table = store.create_table("t", 1).unwrap();
    load(&table, 3, 2000);
    // Each rewrite reads around the cache and retires every file a scan
    // cached, so once the handles drop nothing is left.
    for step in ["compaction", "split", "merge"] {
        assert_eq!(scan_all(&table), 2000, "{step}");
        assert!(cache.resident_bytes() > 0, "{step}");
        match step {
            "compaction" => table.compact().unwrap(),
            "split" => assert!(table.split_region(0).unwrap().is_some()),
            _ => table.merge_regions(0).unwrap(),
        }
        assert_eq!(cache.resident_bytes(), 0, "{step} left blocks behind");
    }

    // A scan that entered the region before a compaction goes on reading
    // the files it retires, and caches their blocks after the swap.
    load(&table, 2, 2000);
    let opts = ScanOptions {
        batch_rows: 16,
        ..ScanOptions::default()
    };
    let mut stream = (table.snapshot()).scan_ranges_stream(vec![(vec![], vec![0xff; 4])], opts);
    let mut rows = stream.next_batch().unwrap().unwrap().len();
    table.compact().unwrap();
    while let Some(batch) = stream.next_batch().unwrap() {
        rows += batch.len();
    }
    assert_eq!(rows, 2000);
    assert!(cache.resident_bytes() > 0);
    drop(stream);
    assert_eq!(
        cache.resident_bytes(),
        0,
        "the retired files' blocks stayed"
    );
    std::fs::remove_dir_all(&dir).ok();
}
