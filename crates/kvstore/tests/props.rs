//! Randomized model tests: the store behaves exactly like a sorted map
//! with last-write-wins semantics, across write batches, flushes,
//! compactions, region splits/merges and a reopen that replays the WAL,
//! and a snapshot taken mid-history keeps reading the map as it was at
//! that point.
//!
//! Cases are generated from a seeded [`just_obs::Rng`], so every run
//! exercises the same deterministic op sequences.

use just_kvstore::{ScanOptions, Store, StoreOptions, TableSnapshot};
use just_obs::Rng;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Put(Vec<u8>, Vec<u8>),
    Delete(Vec<u8>),
    Flush,
    Compact,
    /// Split region `i` (modulo the current region count).
    Split(usize),
    /// Merge regions `i` and `i + 1` (modulo the current region count).
    Merge(usize),
    /// One [`just_kvstore::Table::write_batch`] of puts (`Some`) and
    /// deletes (`None`), keys repeating inside it.
    Batch(Vec<(Vec<u8>, Option<Vec<u8>>)>),
}

fn gen_key(rng: &mut Rng) -> Vec<u8> {
    let len = rng.gen_range(1usize..5);
    (0..len).map(|_| rng.gen_range(0u8..8)).collect()
}

fn gen_value(rng: &mut Rng) -> Vec<u8> {
    let vlen = rng.gen_range(0usize..20);
    (0..vlen).map(|_| rng.next_u64() as u8).collect()
}

fn gen_batch(rng: &mut Rng) -> Op {
    let mut ops: Vec<(Vec<u8>, Option<Vec<u8>>)> = Vec::new();
    for _ in 0..rng.gen_range(1usize..12) {
        // A third of the ops rewrite a key the batch already holds.
        let key = match ops.len() {
            n if n > 0 && rng.gen_range(0usize..3) == 0 => ops[rng.gen_range(0..n)].0.clone(),
            _ => gen_key(rng),
        };
        let value = (rng.gen_range(0usize..4) != 0).then(|| gen_value(rng));
        ops.push((key, value));
    }
    Op::Batch(ops)
}

fn gen_op(rng: &mut Rng) -> Op {
    // Weights 6:2:1:1 matching the original strategy.
    match rng.gen_range(0usize..10) {
        0..=5 => {
            let k = gen_key(rng);
            Op::Put(k, gen_value(rng))
        }
        6 | 7 => Op::Delete(gen_key(rng)),
        8 => Op::Flush,
        _ => Op::Compact,
    }
}

/// Streams `ranges` at `snapshot` in batches of `batch_rows`, so every
/// batch boundary lands mid-merge.
fn drain(
    snapshot: &TableSnapshot,
    ranges: Vec<(Vec<u8>, Vec<u8>)>,
    batch_rows: usize,
) -> Vec<(Vec<u8>, Vec<u8>)> {
    let opts = ScanOptions {
        batch_rows,
        ..Default::default()
    };
    let mut stream = snapshot.scan_ranges_stream(ranges, opts);
    let mut streamed = Vec::new();
    while let Some(batch) = stream.next_batch().unwrap() {
        assert!(batch.len() <= batch_rows, "oversized batch");
        streamed.extend(batch.into_iter().map(|e| (e.key, e.value)));
    }
    streamed
}

fn options() -> StoreOptions {
    StoreOptions {
        flush_threshold: 512, // tiny: force frequent flushes
        block_size: 128,
        block_cache_bytes: 1 << 20,
        ..StoreOptions::default()
    }
}

#[test]
fn store_matches_btreemap_model() {
    for case in 0u64..64 {
        let mut rng = Rng::seed_from_u64(0x6b76_7374 ^ case);
        let n_ops = rng.gen_range(1usize..120);
        let ops: Vec<Op> = (0..n_ops).map(|_| gen_op(&mut rng)).collect();
        let scan_a = gen_key(&mut rng);
        let scan_b = gen_key(&mut rng);
        // Lifecycle ops and the snapshot point come from a second
        // stream, spliced into the first: the put/delete/flush/compact
        // sequence of every case is what it was before they existed.
        let mut life = Rng::seed_from_u64(0x6c69_6665 ^ case);
        let mut ops = ops;
        for _ in 0..life.gen_range(0usize..5) {
            let at = life.gen_range(0usize..ops.len() + 1);
            // Keys lead with a byte below 8: the data sits at the low end
            // of the map, so that is where lifecycle ops find work.
            let i = life.gen_range(0usize..2);
            let op = if life.gen_range(0usize..3) == 0 {
                Op::Merge(i)
            } else {
                Op::Split(i)
            };
            ops.insert(at, op);
        }
        let mut snap_at = life.gen_range(0usize..ops.len() + 1);
        // Write batches come from a third stream, spliced in last; the
        // snapshot stays right before the op it preceded.
        let mut batches = Rng::seed_from_u64(0x6261_7463 ^ case);
        for _ in 0..batches.gen_range(0usize..5) {
            let at = batches.gen_range(0usize..ops.len() + 1);
            ops.insert(at, gen_batch(&mut batches));
            if at <= snap_at {
                snap_at += 1;
            }
        }

        let dir = std::env::temp_dir().join(format!("just-kv-prop-{}-{case}", std::process::id(),));
        std::fs::remove_dir_all(&dir).ok();
        let store = Store::open(&dir, options()).unwrap();
        let table = store.create_table("t", 4).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();

        let mut snapshot = None;
        for (at, op) in ops.iter().enumerate() {
            if at == snap_at {
                snapshot = Some((table.snapshot(), model.clone()));
            }
            match op {
                Op::Put(k, v) => {
                    table.put(k.clone(), v.clone()).unwrap();
                    model.insert(k.clone(), v.clone());
                }
                Op::Delete(k) => {
                    table.delete(k.clone()).unwrap();
                    model.remove(k);
                }
                Op::Batch(batch) => {
                    table.write_batch(batch.clone()).unwrap();
                    for (k, v) in batch {
                        match v {
                            Some(v) => model.insert(k.clone(), v.clone()),
                            None => model.remove(k),
                        };
                    }
                }
                Op::Flush => table.flush().unwrap(),
                Op::Compact => table.compact().unwrap(),
                // `None` (region too small to split) is fine.
                Op::Split(i) => drop(table.split_region(i % table.num_regions()).unwrap()),
                Op::Merge(i) => {
                    let n = table.num_regions();
                    if n >= 2 {
                        table.merge_regions(i % (n - 1)).unwrap();
                    }
                }
            }
        }
        let (snapshot, model_then) = snapshot.unwrap_or_else(|| (table.snapshot(), model.clone()));
        let now = table.snapshot();

        // Point lookups agree.
        for (k, v) in &model {
            let got = now.get(k).unwrap();
            assert_eq!(got.as_ref(), Some(v), "case {case} key {k:?}");
        }

        // Range scan agrees with the model.
        let (lo, hi) = if scan_a <= scan_b {
            (scan_a, scan_b)
        } else {
            (scan_b, scan_a)
        };
        let got = now.scan(&lo, &hi).unwrap();
        let in_range = |model: &BTreeMap<Vec<u8>, Vec<u8>>| -> Vec<(Vec<u8>, Vec<u8>)> {
            model
                .range::<Vec<u8>, _>(lo.clone()..=hi.clone())
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect()
        };
        let expected = in_range(&model);
        assert_eq!(got.len(), expected.len(), "case {case}");
        for (g, (k, v)) in got.iter().zip(&expected) {
            assert_eq!(&g.key, k, "case {case}");
            assert_eq!(&g.value, v, "case {case}");
        }

        // So does the scan pulled in tiny batches, where every batch
        // boundary lands mid-merge.
        for batch_rows in [1, 2, 7] {
            let streamed = drain(&now, vec![(lo.clone(), hi.clone())], batch_rows);
            assert_eq!(streamed, expected, "case {case} batch_rows {batch_rows}");
        }

        // The snapshot still reads the model as it was when it was taken,
        // whatever was rewritten, split or merged underneath it since.
        for k in model.keys().chain(model_then.keys()) {
            let got = snapshot.get(k).unwrap();
            assert_eq!(
                got.as_ref(),
                model_then.get(k),
                "case {case} snapshot key {k:?}"
            );
        }
        let then: Vec<(Vec<u8>, Vec<u8>)> = snapshot
            .scan(&lo, &hi)
            .unwrap()
            .into_iter()
            .map(|e| (e.key, e.value))
            .collect();
        assert_eq!(then, in_range(&model_then), "case {case} snapshot scan");
        // And through three ranges streamed row by row, which between
        // them cover every key the cases generate.
        let thirds = vec![
            (vec![], vec![2, 0xff]),
            (vec![3], vec![4, 0xff]),
            (vec![5], vec![0xff]),
        ];
        let mut want = Vec::new();
        for (lo, hi) in &thirds {
            let range = model_then.range::<Vec<u8>, _>(lo.clone()..=hi.clone());
            want.extend(range.map(|(k, v)| (k.clone(), v.clone())));
        }
        assert_eq!(want.len(), model_then.len(), "case {case}");
        let streamed = drain(&snapshot, thirds, 1);
        assert_eq!(streamed, want, "case {case} snapshot 3-range stream");

        // Reopened, the store replays its WAL to the same map.
        drop((now, snapshot, table, store));
        let store = Store::open(&dir, options()).unwrap();
        let table = store.open_table("t", 4).unwrap();
        let all = table.snapshot().scan(b"", &[0xff; 8]).unwrap().into_iter();
        let all: Vec<(Vec<u8>, Vec<u8>)> = all.map(|e| (e.key, e.value)).collect();
        let want: Vec<(Vec<u8>, Vec<u8>)> = model.into_iter().collect();
        assert_eq!(all, want, "case {case} after reopen");
        drop((table, store));
        std::fs::remove_dir_all(&dir).ok();
    }
}
