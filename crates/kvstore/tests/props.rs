//! Randomized model tests: the store behaves exactly like a sorted map
//! with last-write-wins semantics, across flushes and compactions.
//!
//! Cases are generated from a seeded [`just_obs::Rng`], so every run
//! exercises the same deterministic op sequences.

use just_kvstore::{ScanOptions, Store, StoreOptions};
use just_obs::Rng;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Put(Vec<u8>, Vec<u8>),
    Delete(Vec<u8>),
    Flush,
    Compact,
}

fn gen_key(rng: &mut Rng) -> Vec<u8> {
    let len = rng.gen_range(1usize..5);
    (0..len).map(|_| rng.gen_range(0u8..8)).collect()
}

fn gen_op(rng: &mut Rng) -> Op {
    // Weights 6:2:1:1 matching the original strategy.
    match rng.gen_range(0usize..10) {
        0..=5 => {
            let k = gen_key(rng);
            let vlen = rng.gen_range(0usize..20);
            let v = (0..vlen).map(|_| rng.next_u64() as u8).collect();
            Op::Put(k, v)
        }
        6 | 7 => Op::Delete(gen_key(rng)),
        8 => Op::Flush,
        _ => Op::Compact,
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

        let dir = std::env::temp_dir().join(format!("just-kv-prop-{}-{case}", std::process::id(),));
        std::fs::remove_dir_all(&dir).ok();
        let store = Store::open(
            &dir,
            StoreOptions {
                flush_threshold: 512, // tiny: force frequent flushes
                block_size: 128,
                block_cache_bytes: 1 << 20,
                ..StoreOptions::default()
            },
        )
        .unwrap();
        let table = store.create_table("t", 4).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();

        for op in &ops {
            match op {
                Op::Put(k, v) => {
                    table.put(k.clone(), v.clone()).unwrap();
                    model.insert(k.clone(), v.clone());
                }
                Op::Delete(k) => {
                    table.delete(k.clone()).unwrap();
                    model.remove(k);
                }
                Op::Flush => table.flush().unwrap(),
                Op::Compact => table.compact().unwrap(),
            }
        }

        // Point lookups agree.
        for (k, v) in &model {
            let got = table.get(k).unwrap();
            assert_eq!(got.as_ref(), Some(v), "case {case} key {k:?}");
        }

        // Range scan agrees with the model.
        let (lo, hi) = if scan_a <= scan_b {
            (scan_a, scan_b)
        } else {
            (scan_b, scan_a)
        };
        let got = table.scan(&lo, &hi).unwrap();
        let expected: Vec<(Vec<u8>, Vec<u8>)> = model
            .range::<Vec<u8>, _>(lo.clone()..=hi.clone())
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        assert_eq!(got.len(), expected.len(), "case {case}");
        for (g, (k, v)) in got.iter().zip(&expected) {
            assert_eq!(&g.key, k, "case {case}");
            assert_eq!(&g.value, v, "case {case}");
        }

        // So does the scan pulled in tiny batches, where every batch
        // boundary lands mid-merge.
        for batch_rows in [1, 2, 7] {
            let mut stream = table.scan_stream(
                &lo,
                &hi,
                ScanOptions {
                    batch_rows,
                    ..Default::default()
                },
            );
            let mut streamed = Vec::new();
            while let Some(batch) = stream.next_batch().unwrap() {
                assert!(batch.len() <= batch_rows, "case {case}: oversized batch");
                streamed.extend(batch.into_iter().map(|e| (e.key, e.value)));
            }
            assert_eq!(streamed, expected, "case {case} batch_rows {batch_rows}");
        }

        std::fs::remove_dir_all(&dir).ok();
    }
}
