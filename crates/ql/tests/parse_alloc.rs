//! Parsing holds one token of lookahead, not the statement's tokens:
//! under a counting global allocator, parsing a 1 000-row INSERT shaped
//! like the benchmark's batches asks for no block above 64 KiB (the
//! token vector it replaced reached 1 MiB). Its own test binary because
//! the allocator is process-wide.

use just_ql::{parse, Statement};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The largest block asked for since the last reset.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter only observes the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Relaxed);
        // SAFETY: the caller's obligations for `alloc` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`; the caller's
        // obligations for `realloc` are `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn parsing_a_1000_row_insert_asks_for_no_block_above_64_kib() {
    let rows: Vec<String> = (0..1000)
        .map(|fid| {
            let (x, y) = (116.0 + fid as f64 * 1e-4, 39.5 + fid as f64 * 3e-4);
            format!(
                "({fid}, {}, st_makePoint({x}, {y}), {}.75, {})",
                1_600_000_000_000i64 + fid,
                fid % 311,
                fid % 16
            )
        })
        .collect();
    let sql = format!("INSERT INTO orders VALUES {}", rows.join(", "));
    LARGEST.store(0, Relaxed);
    let statement = parse(&sql).unwrap();
    let largest = LARGEST.load(Relaxed);
    println!("{}-byte INSERT: largest block {largest}", sql.len());
    let Statement::Insert { rows, .. } = statement else {
        panic!("not an INSERT");
    };
    assert_eq!(rows.len(), 1000);
    assert!(
        largest <= 64 << 10,
        "parsing asked for a {largest}-byte block"
    );
}
