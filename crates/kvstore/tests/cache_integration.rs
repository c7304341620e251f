//! Block-cache integration: repeated scans are served from memory, and
//! the IO counters distinguish disk reads from cache hits.

use just_kvstore::{Store, StoreOptions};

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

    // Cache stats surface through the store handle.
    let (hits, misses) = store.cache().stats();
    assert!(hits > 0 && misses > 0);
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
