//! An SSTable's index is one buffer whatever its block count, measured
//! with a counting global allocator: a flush that writes ten times the
//! blocks asks for exactly as many heap blocks (the builder reuses one
//! block buffer and encodes the index into one growing buffer, whose
//! doublings are the only resizes that grow with the table), and
//! reopening a store whose table has ten times the blocks allocates
//! exactly as often.
//!
//! The counting allocator is why this file has exactly one `#[test]` (a
//! second test thread would allocate into the same counters). `--
//! --nocapture` prints the counts.

use just_kvstore::{MaintenanceOptions, Store, StoreOptions, SyncPolicy};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Fresh heap blocks asked for, and resizes of existing ones.
static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static RESIZES: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters only observe the calls.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller's obligations for `alloc` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        RESIZES.fetch_add(1, Relaxed);
        // SAFETY: the caller's obligations for `realloc` are `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// `(fresh allocations, resizes)` made while `f` ran.
fn counted(f: impl FnOnce()) -> (usize, usize) {
    let (allocs, resizes) = (ALLOCS.load(Relaxed), RESIZES.load(Relaxed));
    f();
    (
        ALLOCS.load(Relaxed) - allocs,
        RESIZES.load(Relaxed) - resizes,
    )
}

/// A WAL-less, uncached store whose flushes run inline on the writer.
fn open_store(dir: &Path) -> Store {
    let options = StoreOptions {
        flush_threshold: 64 << 20,
        block_cache_bytes: 0,
        wal_sync: SyncPolicy::Off,
        maintenance: MaintenanceOptions {
            workers: 0,
            ..MaintenanceOptions::default()
        },
        ..StoreOptions::default()
    };
    Store::open(dir, options).unwrap()
}

/// Flushes `rows` rows of ~100 bytes (about 40 to a 4 KiB block) into
/// one SSTable of a fresh one-region table under `dir`, after a warm-up
/// flush; returns what the flush allocated.
fn flush(dir: &Path, rows: u32) -> (usize, usize) {
    let store = open_store(dir);
    let table = store.create_table("t", 1).unwrap();
    table.put(b"warm-up".to_vec(), vec![0; 8]).unwrap();
    table.flush().unwrap();
    for i in 0..rows {
        table
            .put(format!("row-{i:012}").into_bytes(), vec![i as u8; 80])
            .unwrap();
    }
    counted(|| table.flush().unwrap())
}

/// What opening the store under `dir` and its table allocates.
fn reopen(dir: &Path) -> (usize, usize) {
    counted(|| {
        let store = open_store(dir);
        store.open_table("t", 1).unwrap();
    })
}

#[test]
fn finishing_and_opening_a_table_allocate_the_same_whatever_its_blocks() {
    const ROWS: u32 = 4_000;
    let root = std::env::temp_dir().join(format!("just-kv-sst-alloc-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let (small, large) = (root.join("small"), root.join("large"));

    let (small_allocs, small_resizes) = flush(&small, ROWS);
    let (large_allocs, large_resizes) = flush(&large, 10 * ROWS);
    println!(
        "flush of {ROWS} rows: {small_allocs} allocations, {small_resizes} resizes; \
         of {} rows: {large_allocs}, {large_resizes}",
        10 * ROWS
    );
    assert_eq!(
        small_allocs, large_allocs,
        "a flush of ten times the blocks asked for more heap blocks"
    );
    // Ten times the blocks is at most four more doublings of the index
    // buffer.
    assert!(
        large_resizes <= small_resizes + 4,
        "a flush of ten times the blocks resized {large_resizes} times, \
         against {small_resizes}"
    );

    let small_open = reopen(&small);
    let large_open = reopen(&large);
    println!("reopen: {small_open:?} at {ROWS} rows, {large_open:?} at ten times");
    assert_eq!(
        small_open, large_open,
        "opening ten times the blocks allocated more often"
    );
    std::fs::remove_dir_all(&root).ok();
}
