//! Randomized equivalence tests: indexed queries return exactly what a
//! brute-force scan over the same data returns (no false negatives after
//! planning, no false positives after post-filtering), each record once,
//! whether rows arrive one by one or as [`StTable::insert_batch`]es that
//! repeat ids. Deterministically seeded (the offline stand-in for
//! proptest).

use just_geo::{Geometry, Point, Rect};
use just_kvstore::{Store, StoreOptions};
use just_obs::Rng;
use just_storage::{
    Field, FieldType, IndexKind, Row, Schema, SpatialPredicate, StTable, StorageConfig, Value,
};

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

#[test]
fn indexed_query_equals_brute_force() {
    let mut rng = Rng::seed_from_u64(0x5354_0001);
    for case in 0..CASES {
        let dir = std::env::temp_dir().join(format!(
            "just-storage-prop-{case}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        let kind = match rng.gen_range(0u32..3) {
            0 => IndexKind::Z2t,
            1 => IndexKind::Z3,
            _ => IndexKind::Z2,
        };
        let table = StTable::create(
            &store,
            "t",
            schema(),
            StorageConfig {
                index: Some(kind),
                ..StorageConfig::default()
            },
        )
        .unwrap();

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
        let n = rng.gen_range(1usize..120);
        let mut model = std::collections::BTreeMap::new();
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
                let (chunk, tail) = rest.split_at(shape.gen_range(1usize..41).min(rest.len()));
                table.insert_batch(chunk).unwrap();
                rest = tail;
            }
        } else {
            for row in &rows {
                table.insert(row).unwrap();
            }
        }
        let place = |row: &Row| match (&row.values[1], &row.values[2]) {
            (Value::Date(t), Value::Geom(Geometry::Point(p))) => (*p, *t),
            other => panic!("unexpected row shape {other:?}"),
        };

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
        let hits = table
            .query(Some(&window), Some(time), SpatialPredicate::Within)
            .unwrap();
        // Sorted, not deduplicated: each record must come back once.
        let fids_of = |rows: &[Row]| {
            let mut fids: Vec<i64> = rows.iter().map(|r| r.values[0].as_int().unwrap()).collect();
            fids.sort_unstable();
            fids
        };
        let expected = |in_time: &dyn Fn(i64) -> bool| -> Vec<i64> {
            (model.iter())
                .filter(|(_, row)| {
                    let (p, t) = place(row);
                    window.contains_point(&p) && in_time(t)
                })
                .map(|(fid, _)| *fid)
                .collect()
        };
        let st_expected = expected(&|t| (time.0..=time.1).contains(&t));
        assert_eq!(
            fids_of(&hits),
            st_expected,
            "case {case}, index kind {kind:?}"
        );

        // Spatial-only: the secondary `__sdata` index under a temporal
        // primary.
        let spatial = table
            .query(Some(&window), None, SpatialPredicate::Within)
            .unwrap();
        assert_eq!(
            fids_of(&spatial),
            expected(&|_| true),
            "case {case} spatial"
        );

        // Point lookups by id, present and absent.
        for fid in 0..fids {
            let got = table.get(&Value::Int(fid)).unwrap();
            assert_eq!(got.as_ref(), model.get(&fid), "case {case} get({fid})");
        }

        // Pulled in small batches the same query yields the same rows in
        // the same order, and never an empty batch.
        let mut stream = table.query_stream(
            Some(&window),
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
            assert!(!batch.is_empty(), "returned batches are non-empty");
            streamed.extend(batch);
        }
        assert_eq!(streamed, hits, "case {case}, index kind {kind:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
