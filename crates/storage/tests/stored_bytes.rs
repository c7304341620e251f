//! The stored size of a row, counted: 2 000 rows shaped like the
//! benchmark's `orders` table, flushed and compacted, must fit in a fixed
//! number of SSTable bytes per row. The bound sits below what the
//! self-describing row layout (a flag byte, a length varint and a value
//! tag per field) and full-data-key id entries took, so the saving of the
//! schema-typed layout cannot drift back unnoticed.

use just_geo::{Geometry, Point};
use just_kvstore::{Store, StoreOptions};
use just_obs::Rng;
use just_storage::{Field, FieldType, Row, Schema, StTable, StorageConfig, Value};

const ROWS: i64 = 2_000;
const DAY_MS: i64 = 86_400_000;
/// SSTable bytes per row, every family included: the previous layout
/// took 164.3, this one takes 124.0.
const MAX_BYTES_PER_ROW: f64 = 130.0;

#[test]
fn an_orders_row_fits_its_byte_budget_after_compaction() {
    let dir = std::env::temp_dir().join(format!("just-stored-bytes-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = Store::open(&dir, StoreOptions::default()).unwrap();
    let schema = Schema::new(vec![
        Field::new("fid", FieldType::Int).primary(),
        Field::new("time", FieldType::Date),
        Field::new("geom", FieldType::Point),
        Field::new("amount", FieldType::Float),
        Field::new("district", FieldType::Int),
    ])
    .unwrap();
    let table = StTable::create(&store, "orders", schema, StorageConfig::default()).unwrap();
    let mut rng = Rng::seed_from_u64(0x0b17e5);
    let rows: Vec<Row> = (0..ROWS)
        .map(|fid| {
            let p = Point::new(116.0 + rng.gen_f64() * 0.8, 39.6 + rng.gen_f64() * 0.6);
            Row::new(vec![
                Value::Int(fid),
                Value::Date(1_600_000_000_000 + rng.gen_range(0..30 * DAY_MS)),
                Value::Geom(Geometry::Point(p)),
                Value::Float((rng.gen_f64() * 20_000.0).round() / 100.0),
                Value::Int(rng.gen_range(0i64..16)),
            ])
        })
        .collect();
    for batch in rows.chunks(200) {
        table.insert_batch(batch).unwrap();
    }
    table.flush().unwrap();
    table.compact().unwrap();
    let per_row = table.disk_size() as f64 / ROWS as f64;
    println!("{per_row:.1} SSTable bytes per row");
    assert!(
        per_row <= MAX_BYTES_PER_ROW,
        "{per_row:.1} bytes per row, bound {MAX_BYTES_PER_ROW}"
    );
    assert_eq!(table.scan_all().unwrap().len(), ROWS as usize);
    drop(table);
    drop(store);
    std::fs::remove_dir_all(dir).ok();
}
