//! Micro-benchmarks for the key-value substrate: point writes (the
//! "millions of updates per second" HBase property) and range scans.

use just_bench::harness::bench;
use just_kvstore::{Store, StoreOptions};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

fn main() {
    let dir = std::env::temp_dir().join(format!("just-bench-kv-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = Store::open(&dir, StoreOptions::default()).unwrap();

    // Pre-populated table for scans.
    let table = store.create_table("scan", 4).unwrap();
    for i in 0..100_000u32 {
        table.put(i.to_be_bytes().to_vec(), vec![0u8; 64]).unwrap();
    }
    table.flush().unwrap();

    let write_table = store.create_table("writes", 4).unwrap();
    let counter = AtomicU64::new(0);
    bench("kvstore/put_64b", || {
        let i = counter.fetch_add(1, Ordering::Relaxed);
        write_table
            .put(i.to_be_bytes().to_vec(), vec![0u8; 64])
            .unwrap()
    });
    // Every read opens the snapshot it reads at, as the storage layer does.
    bench("kvstore/get_hit", || {
        table
            .snapshot()
            .get(black_box(&5000u32.to_be_bytes()))
            .unwrap()
    });
    bench("kvstore/scan_1k_of_100k", || {
        table
            .snapshot()
            .scan(
                black_box(&10_000u32.to_be_bytes()),
                black_box(&10_999u32.to_be_bytes()),
            )
            .unwrap()
    });
    std::fs::remove_dir_all(&dir).ok();
}
