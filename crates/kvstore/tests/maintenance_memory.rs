//! Two heap budgets, measured with a counting global allocator:
//!
//! * the write buffer is what the configuration says it is — a put
//!   allocates nothing in the steady state, the memtable grows in chunks
//!   of at most 64 KiB that never move, the bytes a region reports
//!   are the bytes its memtable holds, a flush gives them back, and ten
//!   times the rows need no more heap than the flush threshold allows;
//!   with background maintenance the region's memtables stay under twice
//!   the threshold while compactions run, because a flush never waits
//!   for a merge;
//! * a flush allocates its bloom filter once;
//! * maintenance memory is O(input tables × one block), not O(region):
//!   compaction, split and merge pull the read path's lazy merge straight
//!   into an SSTable builder, so rewriting a region never holds the
//!   region.
//!
//! The counting allocator is why this file has exactly one `#[test]` (a
//! second test thread would allocate into the same counters). Its
//! allocator phases open stores without background maintenance, so
//! flushes run inline and every count repeats exactly; the one phase
//! with workers reads the bytes the region reports, not the allocator,
//! and runs last.

use just_kvstore::{MaintenanceOptions, Store, StoreOptions, SyncPolicy, Table};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};

/// Live heap bytes, their high-water mark since the last reset, the
/// number of allocations made, and the largest block asked for and the
/// largest block resized since the last reset.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);
static LARGEST_RESIZE: AtomicUsize = AtomicUsize::new(0);
/// Blocks of at least [`AT_LEAST`] bytes asked for.
static AT_LEAST: AtomicUsize = AtomicUsize::new(usize::MAX);
static BLOCKS_AT_LEAST: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn grew(by: usize, size: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    LARGEST.fetch_max(size, Relaxed);
    if size >= AT_LEAST.load(Relaxed) {
        BLOCKS_AT_LEAST.fetch_add(1, Relaxed);
    }
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters only observe the layouts. A
// `realloc` counts as one allocation and one resize.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations for `alloc` are `System`'s.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size(), layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's obligations for `realloc` are `System`'s.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LARGEST_RESIZE.fetch_max(layout.size().max(new_size), Relaxed);
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size, new_size);
        }
        new
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

/// A WAL-less, uncached store whose flushes run inline on the writer.
fn open_store(dir: &Path, flush_threshold: usize) -> Store {
    open_store_with(dir, flush_threshold, 0, 0)
}

fn open_store_with(
    dir: &Path,
    flush_threshold: usize,
    workers: usize,
    compact_trigger: usize,
) -> Store {
    Store::open(
        dir,
        StoreOptions {
            flush_threshold,
            block_cache_bytes: 0,
            wal_sync: SyncPolicy::Off,
            maintenance: MaintenanceOptions {
                workers,
                compact_trigger,
                ..MaintenanceOptions::default()
            },
            ..StoreOptions::default()
        },
    )
    .unwrap()
}

const ROW_KEY_BYTES: usize = 24;
const ROW_VALUE_BYTES: usize = 60;

/// Row `i` of the benchmark's `ingest` shape — a 24-byte key in
/// scattered order, a 60-byte value, every tenth row an overwrite — in
/// exactly two allocations.
fn row(i: u64) -> (Vec<u8>, Vec<u8>) {
    let id = if i % 10 == 9 { i - 4 } else { i };
    let mut key = vec![b'k'; ROW_KEY_BYTES];
    key[16..].copy_from_slice(&id.wrapping_mul(0x9E37_79B9_7F4A_7C15).to_be_bytes());
    (key, vec![i as u8; ROW_VALUE_BYTES])
}

/// Puts `rows` rows, with exactly two allocations of the caller's own
/// per put.
fn put_rows(table: &Table, rows: u64) {
    for i in 0..rows {
        let (key, value) = row(i);
        table.put(key, value).unwrap();
    }
}

/// A table in its own store, after one put and one flush: what a store
/// sets up lazily on first use is outside the measurements.
fn warmed_table(dir: &Path, flush_threshold: usize) -> (Store, std::sync::Arc<Table>) {
    let store = open_store(dir, flush_threshold);
    let table = store.create_table("t", 1).unwrap();
    table.put(b"warm-up".to_vec(), vec![0; 8]).unwrap();
    table.flush().unwrap();
    (store, table)
}

/// 8 MiB of puts into one region: the memtable grows by whole chunks of
/// at most 64 KiB that never move, so a put asks for no block larger than
/// a chunk, and the only block resized is the list of chunks (24 bytes a
/// chunk, a few KiB here).
fn memtable_grows_in_chunks_that_never_move(dir: &Path) {
    const CHUNK_BYTES: usize = 64 << 10;
    let (_store, table) = warmed_table(dir, 64 << 20);
    let rows = (8 << 20) / (ROW_KEY_BYTES + ROW_VALUE_BYTES) as u64;
    LARGEST.store(0, Relaxed);
    LARGEST_RESIZE.store(0, Relaxed);
    put_rows(&table, rows);
    let (largest, resized) = (LARGEST.load(Relaxed), LARGEST_RESIZE.load(Relaxed));
    let reported = table.region_stats()[0].memtable_bytes;
    println!(
        "{rows} puts into a {reported}-byte memtable: largest block {largest}, \
         largest resize {resized}"
    );
    assert!(reported >= 8 << 20);
    assert!(
        largest <= CHUNK_BYTES,
        "a put asked for a {largest}-byte block"
    );
    assert!(resized <= 8 << 10, "a put resized a {resized}-byte block");
}

/// A flush fills its bloom filter once and hands it to the table it
/// opens, writing it to the file on the way: no other block the size of
/// the filter is asked for.
fn a_flush_allocates_its_filter_once(dir: &Path) {
    const KEYS: usize = 40_000;
    // Ten bits a key, in 64-byte blocks.
    let filter = (KEYS * 10).div_ceil(512) * 64;
    let (_store, table) = warmed_table(dir, 64 << 20);
    for i in 0..KEYS {
        table
            .put(format!("k{i:08}").into_bytes(), vec![1; 8])
            .unwrap();
    }
    AT_LEAST.store(filter, Relaxed);
    let before = BLOCKS_AT_LEAST.load(Relaxed);
    table.flush().unwrap();
    let blocks = BLOCKS_AT_LEAST.load(Relaxed) - before;
    AT_LEAST.store(usize::MAX, Relaxed);
    println!("flush of {KEYS} keys: {blocks} blocks of at least the {filter}-byte filter");
    assert_eq!(blocks, 1, "a flush asked for {blocks} filter-sized blocks");
}

fn write_buffer_is_an_arena_sized_by_configuration(dir: &Path) {
    const ROWS: u64 = 20_000;
    let payload = ROWS as usize * (ROW_KEY_BYTES + ROW_VALUE_BYTES);
    // Below the flush threshold: everything stays in the memtable.
    let (_store, table) = warmed_table(&dir.join("1x"), 64 << 20);
    let (live, allocs) = (LIVE.load(Relaxed), ALLOCS.load(Relaxed));
    let mut grew = 0;
    let peak = peak_growth(|| {
        put_rows(&table, ROWS);
        grew = LIVE.load(Relaxed) - live;
    });
    let allocs = ALLOCS.load(Relaxed) - allocs - 2 * ROWS as usize;
    let reported = table.region_stats()[0].memtable_bytes;
    println!(
        "{ROWS} puts, {payload} payload bytes: {allocs} allocations, heap +{grew} \
         (peak +{peak}), region reports {reported}"
    );
    assert!(allocs <= 500, "{ROWS} puts made {allocs} allocations");
    assert!(
        grew <= payload * 5 / 2,
        "{payload} payload bytes took {grew} bytes of heap"
    );
    assert!(
        reported.abs_diff(grew) <= grew / 10,
        "region reports {reported} memtable bytes, the heap grew by {grew}"
    );
    table.flush().unwrap();
    let after = LIVE.load(Relaxed);
    assert!(
        after.abs_diff(live) <= 1 << 20,
        "live heap {live} before the puts, {after} after the flush"
    );

    // Ten times the rows through a 1 MiB flush threshold: the heap is
    // set by the threshold, not by the volume.
    let (_store, table) = warmed_table(&dir.join("10x"), 1 << 20);
    let peak_10x = peak_growth(|| put_rows(&table, 10 * ROWS));
    println!("{} puts at 1 MiB: peak +{peak_10x}", 10 * ROWS);
    assert!(table.region_stats()[0].sstables >= 10);
    assert!(
        peak_10x < peak * 5 / 4,
        "{ROWS} rows peaked at {peak} bytes, ten times as many at {peak_10x}"
    );
}

/// Sustained batched ingest with background maintenance while the
/// region compacts: the worker cannot flush while it merges, so the
/// writer flushes at the cap, and the region's memtables never reserve
/// more than twice the threshold plus what one admitted batch grows
/// them by.
fn write_buffer_stays_under_twice_the_threshold_while_compactions_run(dir: &Path) {
    const THRESHOLD: usize = 128 << 10;
    const BATCH_ROWS: u64 = 100;
    let store = open_store_with(dir, THRESHOLD, 1, 4);
    let table = store.create_table("t", 1).unwrap();
    // Data for the merges to take a while over.
    for generation in 0..3 {
        load_generation(&table, generation);
    }
    let compactions = just_obs::global().counter("just_kvstore_compactions");
    let (merged_before, stop) = (compactions.get(), AtomicBool::new(false));
    let (peak, rows) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut peak = 0;
            while !stop.load(Relaxed) {
                peak = peak.max(table.region_stats()[0].memtable_bytes);
            }
            peak
        });
        let mut rows = 0;
        while compactions.get() < merged_before + 2 {
            let batch = (rows..rows + BATCH_ROWS).map(row);
            table
                .write_batch(batch.map(|(k, v)| (k, Some(v))).collect())
                .unwrap();
            rows += BATCH_ROWS;
        }
        stop.store(true, Relaxed);
        (sampler.join().unwrap(), rows)
    });
    // One batch grows the memtable by what it writes (`row` covers a
    // row's key, value, node and version), plus the unused room of the
    // last chunk it opened — an eighth of an arena no larger than the cap
    // — and the tail of the chunk it closed, shorter than one row.
    let row = 2 * (ROW_KEY_BYTES + ROW_VALUE_BYTES);
    let bound = 2 * THRESHOLD + BATCH_ROWS as usize * row + 2 * THRESHOLD / 8 + row;
    println!("{rows} rows across 2 compactions: memtables peaked at {peak} (bound {bound})");
    assert!(
        peak <= bound,
        "memtables reserved {peak} bytes at a {THRESHOLD}-byte threshold"
    );
    store.shutdown();
}

#[test]
fn heap_is_bounded_by_configuration_not_by_volume() {
    let dir = std::env::temp_dir().join(format!("just-kv-maint-mem-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    write_buffer_is_an_arena_sized_by_configuration(&dir);
    memtable_grows_in_chunks_that_never_move(&dir.join("chunks"));
    a_flush_allocates_its_filter_once(&dir.join("filter"));

    // Flushes are explicit, one per generation.
    let store = open_store(&dir.join("rewrite"), 64 << 20);
    let table = store.create_table("t", 1).unwrap();
    for generation in 0..5 {
        load_generation(&table, generation);
    }
    let region = &table.region_stats()[0];
    let disk = region.disk_bytes as usize;
    assert!(region.sstables >= 4 && disk >= 16 << 20, "{region:?}");
    let rows = table.snapshot().scan(b"", b"\xff").unwrap().len();

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
    assert_eq!(table.snapshot().scan(b"", b"\xff").unwrap().len(), rows);
    write_buffer_stays_under_twice_the_threshold_while_compactions_run(&dir.join("cap"));
    std::fs::remove_dir_all(&dir).ok();
}
