//! Maintenance memory is O(input tables × one block), not O(region):
//! compaction, split and merge pull the read path's lazy merge straight
//! into an SSTable builder, so rewriting a region never holds the region.
//!
//! The measurement is a counting global allocator, which is why this file
//! has exactly one `#[test]` (a second test thread would allocate into
//! the same counters) and opens the store without background maintenance.

use just_kvstore::{DurabilityOptions, MaintenanceOptions, Store, StoreOptions, Table};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Live heap bytes, and their high-water mark since the last reset.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters only observe the layouts. `realloc`
// keeps its default (alloc + copy + dealloc), so it is counted as both.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations for `alloc` are `System`'s.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Relaxed) + layout.size();
            PEAK.fetch_max(live, Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// How far the live heap rose above its starting level while `f` ran.
fn peak_growth(f: impl FnOnce()) -> usize {
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    f();
    PEAK.load(Relaxed) - before
}

const VALUE_BYTES: usize = 1024;
const GENERATION_KEYS: u32 = 4000;

/// Writes one ~4 MiB generation and flushes it to its own SSTable. Each
/// generation overwrites the last quarter of the previous one and
/// deletes a slice of it, so the rewrite has shadowed versions and
/// tombstones to resolve.
fn load_generation(table: &Table, generation: u32) {
    let first = generation * (GENERATION_KEYS * 3 / 4);
    for i in first..first + GENERATION_KEYS {
        let value = vec![(i ^ generation) as u8; VALUE_BYTES];
        table.put(format!("k{i:08}").into_bytes(), value).unwrap();
    }
    for i in first.saturating_sub(500)..first.saturating_sub(300) {
        table.delete(format!("k{i:08}").into_bytes()).unwrap();
    }
    table.flush().unwrap();
}

#[test]
fn compaction_and_split_hold_blocks_not_the_region() {
    let dir = std::env::temp_dir().join(format!("just-kv-maint-mem-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = Store::open(
        &dir,
        StoreOptions {
            // Flushes are explicit, one per generation.
            flush_threshold: 64 << 20,
            block_cache_bytes: 0,
            durability: DurabilityOptions::disabled(),
            maintenance: MaintenanceOptions {
                enabled: false,
                ..MaintenanceOptions::default()
            },
            ..StoreOptions::default()
        },
    )
    .unwrap();
    let table = store.create_table("t", 1).unwrap();
    for generation in 0..5 {
        load_generation(&table, generation);
    }
    let region = &table.region_stats()[0];
    let disk = region.disk_bytes as usize;
    assert!(region.sstables >= 4 && disk >= 16 << 20, "{region:?}");
    let rows = table.scan(b"", b"\xff").unwrap().len();

    let grew = peak_growth(|| table.compact().unwrap());
    assert_eq!(table.region_stats()[0].sstables, 1);
    assert!(
        grew <= disk / 4,
        "compact() grew the heap by {grew} bytes over a {disk}-byte region"
    );

    // Give the split more than one input table as well.
    for generation in 5..7 {
        load_generation(&table, generation);
    }
    let rows = rows + 2 * (GENERATION_KEYS as usize * 3 / 4) - 2 * 200;
    let disk = table.disk_size() as usize;
    assert!(disk >= 16 << 20 && table.region_stats()[0].sstables >= 3);
    let grew = peak_growth(|| {
        table.split_region(0).unwrap().expect("region splits");
    });
    assert_eq!(table.num_regions(), 2);
    assert!(
        grew <= disk / 4,
        "split_region() grew the heap by {grew} bytes over a {disk}-byte region"
    );
    assert_eq!(table.scan(b"", b"\xff").unwrap().len(), rows);
    std::fs::remove_dir_all(&dir).ok();
}
