//! A scan allocates per region and per batch, never per range or per
//! entry: the block cursor lends keys and values out of the cached
//! block, the merge orders its sources by those borrowed keys, one merge
//! per region re-seeks from range to range, and the stream copies each
//! live entry once, into one arena batch it reuses. Counted with a
//! counting global allocator, which is why this binary holds one
//! `#[test]` (a second test thread would allocate into the same counter)
//! and opens its store without background maintenance.

use just_kvstore::{MaintenanceOptions, ScanOptions, Store, StoreOptions, SyncPolicy};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter only observes the calls. `realloc`
// keeps its default (alloc + copy + dealloc), so it counts as one
// allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller's obligations for `alloc` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const ENTRIES: u64 = 20_000;
const RANGES: u64 = 100;

fn key(i: u64) -> Vec<u8> {
    format!("k{i:016}").into_bytes()
}

#[test]
fn a_cached_scan_allocates_per_range_not_per_key() {
    let dir = std::env::temp_dir().join(format!("just-kv-scan-alloc-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = Store::open(
        &dir,
        StoreOptions {
            block_cache_bytes: 64 << 20,
            wal_sync: SyncPolicy::Off,
            maintenance: MaintenanceOptions {
                workers: 0,
                ..MaintenanceOptions::default()
            },
            ..StoreOptions::default()
        },
    )
    .unwrap();
    let table = store.create_table("t", 1).unwrap();
    for i in 0..ENTRIES {
        table.put(key(i), vec![i as u8; 58]).unwrap();
    }
    table.compact().unwrap();
    // 100 disjoint ranges of 150 keys each, spread over the table.
    let stride = ENTRIES / RANGES;
    let ranges: Vec<_> = (0..RANGES)
        .map(|r| (key(r * stride), key(r * stride + 149)))
        .collect();
    // The first drain fills the block cache; the second is measured.
    let drain = |ranges: Vec<(Vec<u8>, Vec<u8>)>| {
        let mut stream = table
            .snapshot()
            .scan_ranges_stream(ranges, ScanOptions::default());
        let before = ALLOCS.load(Relaxed);
        let mut keys = 0;
        while let Some(batch) = stream.next_batch().unwrap() {
            keys += batch.len();
        }
        drop(stream);
        (keys, ALLOCS.load(Relaxed) - before)
    };
    drain(ranges.clone());
    let (keys, allocs) = drain(ranges);
    println!("{keys} keys over {RANGES} cached ranges: {allocs} allocations");
    assert_eq!(keys as u64, RANGES * 150);
    assert!(
        allocs * 20 < keys,
        "{allocs} allocations for {keys} keys: not fewer than 0.05 per key"
    );

    // 1 000 one-key ranges in the one region: one merge re-seeks through
    // them all, so the count (stream construction included) does not
    // grow with the ranges. Again the first drain fills the cache.
    let points = || {
        (0..1000)
            .map(|i| (key(i * 20), key(i * 20)))
            .collect::<Vec<_>>()
    };
    let point_drain = |ranges| {
        let before = ALLOCS.load(Relaxed);
        let mut stream = table
            .snapshot()
            .scan_ranges_stream(ranges, ScanOptions::default());
        let mut keys = 0;
        while let Some(batch) = stream.next_batch().unwrap() {
            keys += batch.len();
        }
        drop(stream);
        (keys, ALLOCS.load(Relaxed) - before)
    };
    point_drain(points());
    let (keys, allocs) = point_drain(points());
    println!("{keys} keys over 1000 cached one-key ranges: {allocs} allocations");
    assert_eq!(keys, 1000);
    assert!(
        allocs < 64,
        "{allocs} allocations for 1000 ranges in one region"
    );
    store.drop_table("t").unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
