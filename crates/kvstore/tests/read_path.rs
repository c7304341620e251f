//! The read path's two IO arguments, counted at the store boundary with
//! the block cache off (so `blocks_read` is true disk IO and the counts
//! repeat exactly):
//!
//! - a point `GET` for an absent key *inside* a table's key fence is
//!   answered by the bloom filter, without a block read;
//! - per-block compression packs more rows into each block, so the same
//!   scans fetch fewer blocks — the paper's §IV-D compression→fewer-IOs
//!   effect.

mod common;

use common::incompressible;
use just_kvstore::{Store, StoreOptions, Table};
use std::path::PathBuf;
use std::sync::Arc;

const ROWS: usize = 20_000;
/// The default store's scans read at most this many tenths of the raw
/// blocks (measured: 332 of 547, 0.61).
const BOUND: u64 = 7;

/// Trajectory-point key for record `i`: 256 points per trajectory id,
/// ascending in `i`, on even slots (odd slots stay free for misses).
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

/// Incompressible bytes as long as `value(i)`: a block of them saves
/// nothing, so the writer keeps it raw and it is cut where a raw block
/// of `value`s would be.
fn noise(i: usize) -> Vec<u8> {
    incompressible(i as u64, value(i).len())
}

/// `ROWS` records with `value` in one compacted SSTable, cache off.
fn loaded(name: &str, value: fn(usize) -> Vec<u8>) -> (Store, Arc<Table>, PathBuf) {
    let dir = std::env::temp_dir().join(format!("just-read-path-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = Store::open(
        &dir,
        StoreOptions {
            block_cache_bytes: 0,
            ..StoreOptions::default()
        },
    )
    .unwrap();
    let t = store.create_table("traj", 1).unwrap();
    for i in 0..ROWS {
        t.put(key(i), value(i)).unwrap();
    }
    t.flush().unwrap();
    t.compact().unwrap();
    (store, t, dir)
}

#[test]
fn bloom_filter_answers_in_fence_misses_without_block_reads() {
    let (store, t, dir) = loaded("bloom", value);
    let gets = 500;
    let before = store.metrics().snapshot();
    for i in 0..gets {
        assert_eq!(
            t.snapshot().get(&miss_key(i * (ROWS / gets))).unwrap(),
            None
        );
    }
    let d = store.metrics().snapshot().since(&before);
    assert!(
        d.bloom_skips * 100 >= gets as u64 * 95,
        "bloom filter must answer >=95% of in-fence misses: {d:?}"
    );
    assert_eq!(
        d.bloom_skips + d.blocks_read,
        gets as u64,
        "a miss is a bloom skip or (false positive) exactly one block read: {d:?}"
    );
    drop((t, store));
    std::fs::remove_dir_all(dir).ok();
}

// The same comparison against `Codec::Zip` blocks, whose split is set
// per store no longer, is `table.rs`'s
// `zip_blocks_mean_fewer_block_reads_for_the_same_scans`.
#[test]
fn compressed_blocks_mean_fewer_block_reads_for_the_same_scans() {
    // Each scan spans several blocks' worth of rows, or the one-block-
    // per-scan floor hides the difference.
    let scans = 200;
    let span = ROWS / scans;
    let scan_blocks = |name: &str, value: fn(usize) -> Vec<u8>| -> u64 {
        let (store, t, dir) = loaded(name, value);
        let before = store.metrics().snapshot();
        for s in 0..scans {
            let hits = t
                .snapshot()
                .scan(&key(s * span), &key((s + 1) * span - 1))
                .unwrap();
            assert_eq!(hits.len(), span);
        }
        let blocks = store.metrics().snapshot().since(&before).blocks_read;
        drop((t, store));
        std::fs::remove_dir_all(dir).ok();
        blocks
    };
    let raw = scan_blocks("raw", noise);
    let packed = scan_blocks("packed", value);
    assert!(
        packed * 10 <= raw * BOUND,
        "the default store must scan <= {BOUND}/10 of the raw blocks: {packed} vs {raw}"
    );
}
