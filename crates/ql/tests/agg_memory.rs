//! Memory bound of aggregates and TOP-K over a stored table: `count(*)`,
//! a `GROUP BY` and an `ORDER BY … LIMIT` take the scan's batches as they
//! arrive, so the bytes live at the peak of the query stay a few batches'
//! worth whatever the table holds; a join under the aggregate holds the
//! rows inside its input's pushed-down window, not the table, and streams
//! its probe side; a result past the spill threshold goes to chunk files
//! as it is produced. Its own test binary because the counting allocator
//! is process-wide.

use just_core::{Engine, EngineConfig, SessionManager};
use just_ql::{Client, QueryResult};
use just_storage::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

/// The system allocator, counting live bytes and their high-water mark,
/// and the largest single block asked for.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

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
            LARGEST.fetch_max(layout.size(), Relaxed);
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

/// Where order `fid` lies: the first 50 k in a 0.8 x 0.6 degree box, the
/// rest in the same box one degree east — outside [`WINDOW`].
fn position(fid: i64) -> (f64, f64) {
    let east = if fid < 50_000 { 0.0 } else { 1.0 };
    (
        116.0 + east + (fid % 800) as f64 / 1000.0,
        39.6 + (fid % 600) as f64 / 1000.0,
    )
}

/// A window inside the first 50 k orders' box, as `(min x, min y, max x,
/// max y)`.
const WINDOW: (f64, f64, f64, f64) = (115.9995, 39.5995, 116.1995, 39.7195);

fn insert(client: &mut Client, fids: std::ops::Range<i64>) {
    for chunk in fids.collect::<Vec<_>>().chunks(1_000) {
        let tuples: Vec<String> = chunk
            .iter()
            .map(|fid| {
                let (x, y) = position(*fid);
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
    // A result past 256 KiB goes to 4 096-row chunk files.
    config.spill_threshold = 256 << 10;
    config.spill_chunk_rows = 4_096;
    let engine = Arc::new(Engine::open(&dir, config).unwrap());
    let mut client = Client::new(SessionManager::new(engine.clone()).session("mem"));
    client
        .execute(
            "CREATE TABLE orders (fid integer:primary key, time date, geom point:srid=4326, \
             amount float, district integer)",
        )
        .unwrap();

    client
        .execute("CREATE TABLE districts (fid integer:primary key, name string)")
        .unwrap();
    let districts: Vec<String> = (0..16).map(|d| format!("({d}, 'district-{d}')")).collect();
    client
        .execute(&format!(
            "INSERT INTO districts VALUES {}",
            districts.join(", ")
        ))
        .unwrap();

    let count = "SELECT count(*) FROM orders";
    let grouped =
        "SELECT district, count(*) AS n, sum(amount) AS total FROM orders GROUP BY district";
    // The benchmark's `topk` shape, over the whole table.
    let top = "SELECT fid, amount FROM orders ORDER BY amount DESC LIMIT 10";
    // The benchmark's `join_agg` shape.
    let (x0, y0, x1, y1) = WINDOW;
    let joined = format!(
        "SELECT d.name, count(*) AS n, sum(o.amount) AS total FROM orders o \
         JOIN districts d ON o.district = d.fid \
         WHERE o.geom WITHIN st_makeMBR({x0}, {y0}, {x1}, {y1}) GROUP BY d.name"
    );
    let in_window = (0..50_000)
        .map(position)
        .filter(|(x, y)| (x0..x1).contains(x) && (y0..y1).contains(y))
        .count() as i64;
    assert!((2_000..3_000).contains(&in_window), "{in_window}");
    let mut peaks = Vec::new();
    let mut join_peaks = Vec::new();
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
        let (kept, top_peak) = peak_of(&mut client, top);
        assert_eq!(kept.len(), 10);
        assert!(kept.iter().all(|r| r[1] == Value::Float(96.5)), "{kept:?}");
        peaks.push((count_peak, group_peak, top_peak));
        let (groups, join_peak) = peak_of(&mut client, &joined);
        assert_eq!(groups.len(), 16);
        let n: i64 = groups.iter().map(|g| g[1].as_int().unwrap()).sum();
        assert_eq!(n, in_window);
        join_peaks.push(join_peak);
    }

    // Figure 2: `execute_query` hands the root's batches to the cursor as
    // they arrive, which writes them out chunk by chunk past the spill
    // threshold; reading the 200 k rows back loads one chunk at a time.
    // Built whole before spilling, the result alone is over 10 MiB.
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let mut cursor = client
        .execute_query("SELECT fid, amount FROM orders")
        .unwrap();
    let mut read = 0;
    while let Some(row) = cursor.next().unwrap() {
        assert_eq!(row.values.len(), 2);
        read += 1;
    }
    let spill_peak = PEAK.load(Relaxed).saturating_sub(before);
    assert_eq!((cursor.total_rows(), read), (200_000, 200_000));
    drop(cursor);
    println!("execute_query peak live bytes: {spill_peak}");
    assert!(spill_peak < 4 * MIB, "spilled result peak: {spill_peak}");

    // The join streams its probe side past its 16-row build side: over
    // all 200 k orders no block asked for is larger than 64 KiB. The
    // probe side held whole as `Vec<Row>` would be a 4.8 MB block.
    let probed = "SELECT d.name, count(*) AS n FROM orders o \
                  JOIN districts d ON o.district = d.fid GROUP BY d.name";
    LARGEST.store(0, Relaxed);
    let (groups, _) = peak_of(&mut client, probed);
    let largest = LARGEST.load(Relaxed);
    assert_eq!(groups.len(), 16);
    let n: i64 = groups.iter().map(|g| g[1].as_int().unwrap()).sum();
    assert_eq!(n, 200_000);
    println!("join_agg over the table: largest block {largest} bytes");
    assert!(largest <= 64 << 10, "largest block: {largest} bytes");
    std::fs::remove_dir_all(&dir).ok();

    // 200 k rows held as `Vec<Row>` are over 50 MiB; taken batch by
    // batch the three queries peak near 0.4 MiB at either size.
    let ((count_50k, group_50k, top_50k), (count_200k, group_200k, top_200k)) =
        (peaks[0], peaks[1]);
    println!("peak live bytes (count, GROUP BY, TOP-K): {peaks:?}");
    assert!(
        count_200k < 2 * MIB && group_200k < 2 * MIB && top_200k < 2 * MIB,
        "peak live bytes at 200 k rows: count(*) {count_200k}, GROUP BY {group_200k}, \
         TOP-K {top_200k}"
    );
    assert!(
        count_200k < 2 * count_50k && group_200k < 2 * group_50k && top_200k < 2 * top_50k,
        "peak grows with the table: {peaks:?}"
    );

    // The join's probe side is the window's ~2 500 rows at either size:
    // 1.08 MiB. With the filter above the join the table was held as
    // rows twice, scan output and combined rows: 28.3 MiB at 50 k rows
    // and 113.2 MiB at 200 k.
    let (join_50k, join_200k) = (join_peaks[0], join_peaks[1]);
    println!("join_agg peak live bytes: {join_50k} at 50 k rows, {join_200k} at 200 k");
    assert!(
        join_200k < 2 * MIB && join_200k < join_50k + join_50k / 4,
        "join peak follows the table, not the window: {join_peaks:?}"
    );
}
