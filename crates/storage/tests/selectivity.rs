//! Index selectivity at city scale, as counts that repeat exactly: the
//! paper's claim that Z2T's scanned key ranges hug an urban query window
//! (Section IV-B, Figures 10–12) where Z3's do not.

use just_geo::{Geometry, Point, Rect};
use just_kvstore::{ScanOptions, Store, StoreOptions};
use just_obs::Rng;
use just_storage::{
    Field, FieldType, IndexKind, Row, Schema, SpatialPredicate, StTable, StorageConfig, Value,
};

const HOUR_MS: i64 = 3_600_000;
const DAY_MS: i64 = 24 * HOUR_MS;
const ROWS: i64 = 50_000;
const DAYS: i64 = 30;
/// A Beijing-sized extent: min lng, min lat, width, height in degrees.
const CITY: (f64, f64, f64, f64) = (116.0, 39.6, 0.8, 0.6);

/// Keys scanned and rows returned over eight 3×3 km × 1-day windows.
fn scan_counts(kind: IndexKind) -> (usize, usize) {
    let dir = std::env::temp_dir().join(format!(
        "just-storage-selectivity-{kind}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let store = Store::open(&dir, StoreOptions::default()).unwrap();
    let schema = Schema::new(vec![
        Field::new("fid", FieldType::Int).primary(),
        Field::new("time", FieldType::Date),
        Field::new("geom", FieldType::Point),
    ])
    .unwrap();
    let config = StorageConfig {
        index: Some(kind),
        ..StorageConfig::default()
    };
    let table = StTable::create(&store, "orders", schema, config).unwrap();
    let mut rng = Rng::seed_from_u64(0x5e1e);
    for fid in 0..ROWS {
        let p = Point::new(
            CITY.0 + rng.gen_f64() * CITY.2,
            CITY.1 + rng.gen_f64() * CITY.3,
        );
        table
            .insert(&Row::new(vec![
                Value::Int(fid),
                Value::Date(rng.gen_range(0..DAYS * DAY_MS)),
                Value::Geom(Geometry::Point(p)),
            ]))
            .unwrap();
    }

    let (mut keys, mut rows) = (0, 0);
    for _ in 0..8 {
        let centre = Point::new(
            CITY.0 + rng.gen_f64() * CITY.2,
            CITY.1 + rng.gen_f64() * CITY.3,
        );
        let window = Rect::window_km(centre, 3.0);
        let start = rng.gen_range(0..(DAYS - 1) * 24) * HOUR_MS;
        let time = Some((start, start + DAY_MS));
        let mut raw = table.query_raw_stream(Some(&window), time, ScanOptions::default());
        while let Some(batch) = raw.next_batch().unwrap() {
            keys += batch.len();
        }
        let mut refined = table.query_stream(
            Some(&window),
            time,
            SpatialPredicate::Within,
            None,
            ScanOptions::default(),
        );
        while let Some(batch) = refined.next_batch().unwrap() {
            rows += batch.len();
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    (keys, rows)
}

#[test]
fn z2t_scans_few_keys_per_row_and_fewer_than_z3() {
    let (z2t_keys, z2t_rows) = scan_counts(IndexKind::Z2t);
    let (z3_keys, z3_rows) = scan_counts(IndexKind::Z3);
    assert!(z2t_rows > 0, "the windows hit data");
    assert_eq!(z2t_rows, z3_rows, "both indexes answer alike");
    assert!(
        z2t_keys <= 20 * z2t_rows,
        "z2t scanned {z2t_keys} keys for {z2t_rows} rows"
    );
    assert!(
        z2t_keys < z3_keys,
        "z2t scanned {z2t_keys} keys, z3 {z3_keys}"
    );
}
