//! Randomized equivalence tests: indexed queries return exactly what a
//! brute-force scan over the same data returns (no false negatives after
//! planning, no false positives after post-filtering), each record once,
//! whether rows arrive one by one or as [`StTable::insert_batch`]es that
//! repeat ids — and still after deletes, a reopen, and a region split
//! whose fence can part a row's key families across regions.
//! Deterministically seeded (the offline stand-in for proptest).

use just_geo::{Geometry, Point, Rect};
use just_kvstore::{Store, StoreOptions};
use just_obs::Rng;
use just_storage::{
    Field, FieldType, IndexKind, Row, Schema, SpatialPredicate, StTable, StorageConfig, Value,
};
use std::collections::BTreeMap;

const HOUR_MS: i64 = 3_600_000;
const CASES: u64 = 48;

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("fid", FieldType::Int).primary(),
        Field::new("time", FieldType::Date),
        Field::new("geom", FieldType::Point),
    ])
    .unwrap()
}

/// Small blocks, so a case's few rows span enough block fences for a
/// split to find a median.
fn store_options() -> StoreOptions {
    StoreOptions {
        block_size: 256,
        ..StoreOptions::default()
    }
}

fn place(row: &Row) -> (Point, i64) {
    match (&row.values[1], &row.values[2]) {
        (Value::Date(t), Value::Geom(Geometry::Point(p))) => (*p, *t),
        other => panic!("unexpected row shape {other:?}"),
    }
}

/// Sorted, not deduplicated: each record must come back once.
fn fids_of(rows: &[Row]) -> Vec<i64> {
    let mut fids: Vec<i64> = rows.iter().map(|r| r.values[0].as_int().unwrap()).collect();
    fids.sort_unstable();
    fids
}

/// Every read path against the model: point lookups (present and
/// absent), the full scan, and the ST and spatial-only queries, the ST
/// one also pulled in small batches.
fn check(
    table: &StTable,
    model: &BTreeMap<i64, Row>,
    fids: i64,
    window: &Rect,
    time: (i64, i64),
    what: &str,
) {
    for fid in 0..fids {
        let got = table.get(&Value::Int(fid)).unwrap();
        assert_eq!(got.as_ref(), model.get(&fid), "{what}: get({fid})");
    }
    let mut all = table.scan_all().unwrap();
    all.sort_by_key(|r| r.values[0].as_int().unwrap());
    assert_eq!(
        fids_of(&all),
        model.keys().copied().collect::<Vec<_>>(),
        "{what}: scan_all"
    );
    assert!(all.iter().eq(model.values()), "{what}: scan_all rows");

    let expected = |in_time: &dyn Fn(i64) -> bool| -> Vec<i64> {
        (model.iter())
            .filter(|(_, row)| {
                let (p, t) = place(row);
                window.contains_point(&p) && in_time(t)
            })
            .map(|(fid, _)| *fid)
            .collect()
    };
    let hits = table
        .query(Some(window), Some(time), SpatialPredicate::Within)
        .unwrap();
    let in_window = |t| (time.0..=time.1).contains(&t);
    assert_eq!(fids_of(&hits), expected(&in_window), "{what}: ST query");

    // Spatial-only: the secondary spatial family under a temporal
    // primary.
    let spatial = table
        .query(Some(window), None, SpatialPredicate::Within)
        .unwrap();
    assert_eq!(fids_of(&spatial), expected(&|_| true), "{what}: spatial");

    // Pulled in small batches the same query yields the same rows in
    // the same order, and never an empty batch.
    let mut stream = table.query_stream(
        Some(window),
        Some(time),
        SpatialPredicate::Within,
        None,
        just_kvstore::ScanOptions {
            batch_rows: 16,
            ..Default::default()
        },
    );
    let mut streamed = Vec::new();
    while let Some(batch) = stream.next_batch().unwrap() {
        assert!(!batch.is_empty(), "{what}: returned batches are non-empty");
        streamed.extend(batch);
    }
    assert_eq!(streamed, hits, "{what}: streamed");
}

#[test]
fn indexed_query_equals_brute_force() {
    let mut rng = Rng::seed_from_u64(0x5354_0001);
    let mut splits = 0;
    for case in 0..CASES {
        let dir = std::env::temp_dir().join(format!(
            "just-storage-prop-{case}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let mut store = Store::open(&dir, store_options()).unwrap();
        let kind = match rng.gen_range(0u32..3) {
            0 => IndexKind::Z2t,
            1 => IndexKind::Z3,
            _ => IndexKind::Z2,
        };
        let config = StorageConfig {
            index: Some(kind),
            ..StorageConfig::default()
        };
        let mut table = StTable::create(&store, "t", schema(), config).unwrap();

        // How rows arrive comes from a second stream: half the cases
        // insert in batches, some draw ids from a range small enough that
        // batches repeat them.
        let mut shape = Rng::seed_from_u64(0x5354_0002 ^ case);
        let batched = case % 4 >= 2;
        let fids = if shape.gen_range(0u32..3) == 0 {
            20
        } else {
            500
        };

        // Last write per fid wins (the paper's update semantics).
        let mut model = BTreeMap::new();
        let insert =
            |table: &StTable, model: &mut BTreeMap<_, _>, rng: &mut Rng, shape: &mut Rng| {
                let n = rng.gen_range(1usize..120);
                let mut rows = Vec::with_capacity(n);
                for _ in 0..n {
                    let fid = rng.gen_range(0i64..fids);
                    let lng = rng.gen_range(100.0f64..130.0);
                    let lat = rng.gen_range(20.0f64..50.0);
                    let t = rng.gen_range(0i64..72 * HOUR_MS);
                    let row = Row::new(vec![
                        Value::Int(fid),
                        Value::Date(t),
                        Value::Geom(Geometry::Point(Point::new(lng, lat))),
                    ]);
                    model.insert(fid, row.clone());
                    rows.push(row);
                }
                if batched {
                    let mut rest = &rows[..];
                    while !rest.is_empty() {
                        let (chunk, tail) =
                            rest.split_at(shape.gen_range(1usize..41).min(rest.len()));
                        table.insert_batch(chunk).unwrap();
                        rest = tail;
                    }
                } else {
                    for row in &rows {
                        table.insert(row).unwrap();
                    }
                }
            };
        insert(&table, &mut model, &mut rng, &mut shape);

        // Half the cases read from SSTables, half from memtables.
        if case % 2 == 1 {
            table.flush().unwrap();
        }

        let qx = rng.gen_range(100.0f64..129.0);
        let qy = rng.gen_range(20.0f64..49.0);
        let qw = rng.gen_range(0.1f64..10.0);
        let qt0 = rng.gen_range(0i64..48 * HOUR_MS);
        let qdt = rng.gen_range(1i64..24 * HOUR_MS);
        let window = Rect::new(qx, qy, qx + qw, qy + qw);
        let time = (qt0, qt0 + qdt);
        let what = format!("case {case}, index kind {kind:?}");
        check(
            &table,
            &model,
            fids,
            &window,
            time,
            &format!("{what}, inserted"),
        );

        // Deletes of present and absent ids: every family goes at once.
        for _ in 0..rng.gen_range(0usize..20) {
            let fid = rng.gen_range(0i64..fids);
            let existed = table.delete(&Value::Int(fid)).unwrap();
            assert_eq!(
                existed,
                model.remove(&fid).is_some(),
                "{what}: delete({fid})"
            );
        }
        check(
            &table,
            &model,
            fids,
            &window,
            time,
            &format!("{what}, deleted"),
        );

        // A reopen: what the WAL and the SSTables hold is the model.
        drop(table);
        drop(store);
        store = Store::open(&dir, store_options()).unwrap();
        table = StTable::open(&store, "t", schema(), config).unwrap();
        check(
            &table,
            &model,
            fids,
            &window,
            time,
            &format!("{what}, reopened"),
        );

        // A split at region 0's median block fence: every key lives
        // there, so the fence can land between a row's id, spatial and
        // data entries. Upserts afterwards write across the fence.
        let kv = store.get_table("t").expect("the table's kv table is open");
        if kv.split_region(0).unwrap().is_some() {
            splits += 1;
            assert_eq!(kv.num_regions(), config.regions + 1, "{what}");
        }
        check(
            &table,
            &model,
            fids,
            &window,
            time,
            &format!("{what}, split"),
        );
        insert(&table, &mut model, &mut rng, &mut shape);
        check(
            &table,
            &model,
            fids,
            &window,
            time,
            &format!("{what}, upserted"),
        );
        drop(table);
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }
    assert!(splits >= CASES / 2, "only {splits} of {CASES} cases split");
}
