//! A result frame is written and read per frame and per row, never per
//! cell: `Response::to_bytes` appends to one growing buffer, and
//! `Response::from_bytes` allocates one `Vec<Value>` per row and nothing
//! per number. Counted with a counting global allocator, which is why
//! this binary holds one `#[test]` (a second test thread would allocate
//! into the same counters).

use just_core::Dataset;
use just_ql::QueryResult;
use just_server::Response;
use just_storage::{Row, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters only observe the calls. `realloc`
// is forwarded too and counts as one allocation whose live size moves
// from the old size to the new one.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        grew(layout.size());
        // SAFETY: the caller's obligations for `alloc` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        LIVE.fetch_sub(layout.size(), Relaxed);
        grew(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; the caller's
        // obligations for `realloc` are `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f`; returns its output, the allocations it made, its peak live
/// heap above the start, and the heap it left live.
fn measure<T>(f: impl FnOnce() -> T) -> (T, usize, usize, usize) {
    let (allocs, live) = (ALLOCS.load(Relaxed), LIVE.load(Relaxed));
    PEAK.store(live, Relaxed);
    let out = f();
    let left = LIVE.load(Relaxed).saturating_sub(live);
    (
        out,
        ALLOCS.load(Relaxed) - allocs,
        PEAK.load(Relaxed) - live,
        left,
    )
}

const ROWS: i64 = 20_000;

#[test]
fn a_result_frame_is_written_and_read_per_row_not_per_cell() {
    let rows = (0..ROWS)
        .map(|i| {
            Row::new(vec![
                Value::Int(i),
                Value::Date(1_600_000_000_000 + i * 1_000),
                Value::Float(116.3 + i as f64 * 1e-5),
                Value::Int(i % 17),
            ])
        })
        .collect();
    let columns = ["fid", "time", "amount", "district"]
        .map(String::from)
        .to_vec();
    let data = Dataset::new(columns, rows);
    let reply = Response::Result(QueryResult::Data(data.clone()));

    let (bytes, allocs, peak, _) = measure(|| reply.to_bytes());
    println!(
        "to_bytes: {} bytes, {allocs} allocations, peak {peak} bytes",
        bytes.len()
    );
    assert!(allocs <= 40, "{allocs} allocations to write {ROWS} rows");
    assert!(
        peak <= 2 * bytes.len(),
        "peak {peak} for {} bytes",
        bytes.len()
    );

    let (decoded, allocs, peak, held) = measure(|| Response::from_bytes(&bytes).unwrap());
    println!("from_bytes: {allocs} allocations, peak {peak} bytes, dataset {held} bytes");
    assert!(
        allocs <= ROWS as usize + 64,
        "{allocs} allocations to read {ROWS} rows"
    );
    assert!(
        peak <= held + 2 * bytes.len(),
        "peak {peak} for a {held}-byte dataset from {} bytes",
        bytes.len()
    );
    match decoded {
        Response::Result(QueryResult::Data(d)) => assert_eq!(d, data),
        other => panic!("wrong shape {other:?}"),
    }
}
