//! What one INSERT costs the WAL, counted: a 200-row statement into a
//! default temporal point table reaches the logs as a few `write(2)`s —
//! one batch to the table's one kv table, whose salted key families all
//! route to one region under the default map, one append per memtable
//! shard group to that region's log — not one `write(2)` per kv put.
//!
//! Its own test binary with one `#[test]`: the WAL counters are
//! process-wide, and the maintenance scheduler is off, so no tick, flush
//! or other test writes to the log while it is measured.

use just_core::{Engine, EngineConfig};
use just_geo::{Geometry, Point};
use just_kvstore::MaintenanceOptions;
use just_storage::{Field, FieldType, Row, Schema, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const ROWS: i64 = 200;

/// WAL bytes under `dir`, per directory holding WAL segments.
fn wal_bytes(dir: &Path, out: &mut BTreeMap<PathBuf, u64>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if path.is_dir() {
            assert!(
                !name.starts_with("wal_s"),
                "a WAL stream directory: {path:?}"
            );
            wal_bytes(&path, out);
        } else if name.starts_with("wal_") {
            let len = std::fs::metadata(&path).unwrap().len();
            *out.entry(dir.to_path_buf()).or_default() += len;
        }
    }
}

#[test]
fn a_200_row_insert_is_one_batch_in_one_region_log() {
    let dir = std::env::temp_dir().join(format!("just-insert-wal-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut config = EngineConfig::default();
    let mem_shards = config.store.mem_shards as u64;
    config.store.maintenance = MaintenanceOptions {
        enabled: false,
        ..MaintenanceOptions::default()
    };
    let engine = Engine::open(&dir, config).unwrap();
    let schema = Schema::new(vec![
        Field::new("fid", FieldType::Int).primary(),
        Field::new("time", FieldType::Date),
        Field::new("geom", FieldType::Point),
    ])
    .unwrap();
    engine.create_table("orders", schema, None, None).unwrap();
    let rows: Vec<Row> = (0..ROWS)
        .map(|i| {
            let p = Point::new(
                116.0 + (i % 20) as f64 * 0.01,
                39.0 + (i / 20) as f64 * 0.01,
            );
            Row::new(vec![
                Value::Int(i),
                Value::Date(i * 60_000),
                Value::Geom(Geometry::Point(p)),
            ])
        })
        .collect();

    let obs = just_obs::global();
    let (writes, appends) = (
        obs.counter("just_kvstore_wal_writes"),
        obs.counter("just_kvstore_wal_appends"),
    );
    let mut before = BTreeMap::new();
    wal_bytes(&dir, &mut before);
    let (writes_before, appends_before) = (writes.get(), appends.get());
    assert_eq!(engine.insert("orders", &rows).unwrap(), ROWS as usize);
    let (made, records) = (writes.get() - writes_before, appends.get() - appends_before);
    let mut after = BTreeMap::new();
    wal_bytes(&dir, &mut after);
    let touched: Vec<&PathBuf> = (after.iter())
        .filter(|(log, len)| before.get(*log).copied().unwrap_or(0) < **len)
        .map(|(log, _)| log)
        .collect();
    println!(
        "{ROWS} rows: {records} WAL records, {made} WAL writes, {} logs written",
        touched.len()
    );
    // Three records per row (id map, spatial index, data) and one for the
    // time bounds, widened once per statement (row by row, every row with
    // a later time widened them again).
    assert_eq!(records, 3 * ROWS as u64 + 1);
    // One batch of at most one group per memtable shard, plus the time
    // bounds' put.
    assert!(
        made <= mem_shards + 1,
        "{made} WAL writes for one statement"
    );
    // One region's log, in the region's own directory.
    assert_eq!(touched.len(), 1, "logs written: {touched:?}");
    let name = touched[0].file_name().unwrap().to_string_lossy();
    assert!(
        name.starts_with("region_"),
        "a WAL outside a region root: {touched:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
