//! A row a consumer's gate refuses costs one cursor step and one field
//! decode and allocates nothing: the scan lends each entry out of its
//! arena batch, and the stream decodes the gate's field into one reused
//! row. Counted with a counting global allocator over a TOP-K-shaped
//! stream — a cached spatio-temporal window whose gate, like a full heap
//! whose worst key beats every row still to come, refuses them all —
//! which is why this binary holds one `#[test]`.

use just_geo::{Geometry, Point, Rect};
use just_kvstore::{MaintenanceOptions, ScanOptions, Store, StoreOptions, SyncPolicy};
use just_obs::Rng;
use just_storage::{
    Field, FieldType, Row, RowGate, Schema, SpatialPredicate, StTable, StorageConfig, Value,
};
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

const ROWS: i64 = 20_000;
const HOUR_MS: i64 = 3_600_000;
/// A city-sized extent: min lng, min lat, width, height in degrees.
const CITY: (f64, f64, f64, f64) = (116.0, 39.6, 0.8, 0.6);

/// TOP-K's gate on `amount` once its heap is full: a row passes only by
/// beating the heap's worst amount, which no row here does.
struct HeapFull {
    fields: [usize; 1],
    worst: f64,
    asked: usize,
}

impl RowGate for HeapFull {
    fn fields(&self) -> &[usize] {
        &self.fields
    }

    fn pass(&mut self, row: &Row) -> bool {
        self.asked += 1;
        matches!(row.values[3], Value::Float(amount) if amount > self.worst)
    }
}

#[test]
fn refused_rows_allocate_nothing() {
    let dir = std::env::temp_dir().join(format!("just-storage-scan-alloc-{}", std::process::id()));
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
    let schema = Schema::new(vec![
        Field::new("fid", FieldType::Int).primary(),
        Field::new("time", FieldType::Date),
        Field::new("geom", FieldType::Point),
        Field::new("amount", FieldType::Float),
    ])
    .unwrap();
    let table = StTable::create(&store, "orders", schema, StorageConfig::default()).unwrap();
    let mut rng = Rng::seed_from_u64(0x70bc);
    for fid in 0..ROWS {
        let p = Point::new(
            CITY.0 + rng.gen_f64() * CITY.2,
            CITY.1 + rng.gen_f64() * CITY.3,
        );
        table
            .insert(&Row::new(vec![
                Value::Int(fid),
                Value::Date(rng.gen_range(0..20 * HOUR_MS)),
                Value::Geom(Geometry::Point(p)),
                Value::Float(rng.gen_f64() * 100.0),
            ]))
            .unwrap();
    }
    table.flush().unwrap();
    table.compact().unwrap();
    let window = Rect::new(CITY.0, CITY.1, CITY.0 + CITY.2, CITY.1 + CITY.3);
    // The first drain fills the block cache; the second is measured.
    let drain = || {
        let mut stream = table.query_stream(
            Some(&window),
            Some((0, 20 * HOUR_MS)),
            SpatialPredicate::Within,
            None,
            ScanOptions::default(),
        );
        let mut gate = HeapFull {
            fields: [3],
            worst: 100.0,
            asked: 0,
        };
        let before = ALLOCS.load(Relaxed);
        assert!(stream.next_batch_gated(Some(&mut gate)).unwrap().is_none());
        drop(stream);
        (gate.asked, ALLOCS.load(Relaxed) - before)
    };
    drain();
    let (refused, allocs) = drain();
    println!("{refused} rows refused: {allocs} allocations");
    assert_eq!(refused as i64, ROWS);
    assert!(
        allocs * 20 < refused,
        "{allocs} allocations for {refused} refused rows: not fewer than 0.05 per row"
    );
    drop((table, store));
    std::fs::remove_dir_all(&dir).ok();
}
