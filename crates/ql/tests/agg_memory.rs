//! Memory bound of aggregates over a stored table: `count(*)` and a
//! `GROUP BY` fold the scan's batches as they arrive, so the bytes live
//! at the peak of the query stay a few batches' worth whatever the table
//! holds. Its own test binary because the counting allocator is
//! process-wide.

use just_core::{Engine, EngineConfig, SessionManager};
use just_ql::{Client, QueryResult};
use just_storage::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

/// The system allocator, counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are statistics and guard no
// memory. (`realloc` takes the default path through `alloc` + `dealloc`.)
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout, passed through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Relaxed) + layout.size();
            PEAK.fetch_max(live, Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: `p` was returned by `alloc` above with this layout.
        unsafe { System.dealloc(p, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `sql` and returns its rows with the peak of live bytes above the
/// level at its start.
fn peak_of(client: &mut Client, sql: &str) -> (Vec<Vec<Value>>, usize) {
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let QueryResult::Data(data) = client.execute(sql).unwrap() else {
        panic!("{sql}: not a query");
    };
    let peak = PEAK.load(Relaxed).saturating_sub(before);
    (data.rows.into_iter().map(|r| r.values).collect(), peak)
}

fn insert(client: &mut Client, fids: std::ops::Range<i64>) {
    for chunk in fids.collect::<Vec<_>>().chunks(1_000) {
        let tuples: Vec<String> = chunk
            .iter()
            .map(|fid| {
                let (x, y) = (
                    116.0 + (fid % 800) as f64 / 1000.0,
                    39.6 + (fid % 600) as f64 / 1000.0,
                );
                format!(
                    "({fid}, {}, st_makePoint({x}, {y}), {}.5, {})",
                    fid * 1000,
                    fid % 97,
                    fid % 16
                )
            })
            .collect();
        client
            .execute(&format!("INSERT INTO orders VALUES {}", tuples.join(", ")))
            .unwrap();
    }
}

#[test]
fn aggregates_over_a_stored_table_do_not_hold_it() {
    const MIB: usize = 1 << 20;
    let dir = std::env::temp_dir().join(format!("just-ql-agg-memory-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut config = EngineConfig::default();
    // Blocks the scan loads stay in the cache past the query; keep that
    // out of the measurement.
    config.store.block_cache_bytes = 0;
    let engine = Arc::new(Engine::open(&dir, config).unwrap());
    let mut client = Client::new(SessionManager::new(engine.clone()).session("mem"));
    client
        .execute(
            "CREATE TABLE orders (fid integer:primary key, time date, geom point:srid=4326, \
             amount float, district integer)",
        )
        .unwrap();

    let count = "SELECT count(*) FROM orders";
    let grouped =
        "SELECT district, count(*) AS n, sum(amount) AS total FROM orders GROUP BY district";
    let mut peaks = Vec::new();
    for rows in [50_000i64, 200_000] {
        insert(&mut client, peaks.len() as i64 * 50_000..rows);
        // A scan copies the memtable range it reads; read from SSTables
        // so that what is measured is what the executor holds.
        engine.flush_all().unwrap();
        let (counted, count_peak) = peak_of(&mut client, count);
        assert_eq!(counted, vec![vec![Value::Int(rows)]]);
        let (groups, group_peak) = peak_of(&mut client, grouped);
        assert_eq!(groups.len(), 16);
        let n: i64 = groups.iter().map(|g| g[1].as_int().unwrap()).sum();
        assert_eq!(n, rows);
        peaks.push((count_peak, group_peak));
    }
    std::fs::remove_dir_all(&dir).ok();

    // 200 k rows held as `Vec<Row>` are over 50 MiB; folded batch by
    // batch both queries peak near 0.4 MiB at either size.
    let ((count_50k, group_50k), (count_200k, group_200k)) = (peaks[0], peaks[1]);
    assert!(
        count_200k < 2 * MIB && group_200k < 2 * MIB,
        "peak live bytes at 200 k rows: count(*) {count_200k}, GROUP BY {group_200k}"
    );
    assert!(
        count_200k < 2 * count_50k && group_200k < 2 * group_50k,
        "peak grows with the table: {peaks:?}"
    );
}
