//! A multi-range stream returns exactly the concatenation of one-range
//! scans at the same snapshot: ranges in any order — ascending,
//! descending, overlapping, empty, inverted — that cross region
//! boundaries, over flushed and unflushed layers with deletes shadowing
//! older puts, while a region split and more writes commit mid-stream.
//!
//! Cases come from a seeded [`just_obs::Rng`], so every run replays the
//! same histories.

use just_kvstore::{MaintenanceOptions, ScanOptions, Store, StoreOptions, SyncPolicy};
use just_obs::Rng;

/// Keys spread over the whole first byte, so they land in every region.
fn key(i: u64) -> Vec<u8> {
    ((i * 41) as u16).to_be_bytes().to_vec()
}

const KEYS: u64 = 1500;

#[test]
fn a_multi_range_stream_is_its_one_range_scans_concatenated() {
    for case in 0..6u64 {
        let mut rng = Rng::seed_from_u64(0x6d75_6c74 ^ case);
        let dir = std::env::temp_dir().join(format!("just-kv-multi-{}-{case}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let opts = StoreOptions {
            flush_threshold: 16 << 10,
            block_size: 256,
            block_cache_bytes: 1 << 20,
            wal_sync: SyncPolicy::Off,
            maintenance: MaintenanceOptions {
                workers: 0,
                ..MaintenanceOptions::default()
            },
        };
        let store = Store::open(&dir, opts).unwrap();
        let table = store.create_table("t", 4).unwrap();
        let write = |rng: &mut Rng, n: usize| {
            for _ in 0..n {
                let k = key(rng.gen_range(0..KEYS));
                if rng.gen_range(0u8..4) == 0 {
                    table.delete(k).unwrap();
                } else {
                    table.put(k, vec![rng.next_u64() as u8; 24]).unwrap();
                }
            }
        };
        for _ in 0..3 {
            write(&mut rng, 1200);
            table.flush().unwrap();
        }
        write(&mut rng, 400);

        let ranges: Vec<(Vec<u8>, Vec<u8>)> = (0..120)
            .map(|_| {
                let a = rng.gen_range(0..KEYS);
                match rng.gen_range(0u8..8) {
                    0 => (key(a), key(a)),
                    1 => (vec![0xff, 0xff, 0], vec![0xff, 0xff, 1]),
                    2 => (key(a + 1), key(a)),
                    // Up to the whole keyspace, across region bounds.
                    3 => (
                        vec![rng.gen_range(0u8..128)],
                        vec![rng.gen_range(128u8..255), 0xff],
                    ),
                    _ => {
                        let (s, e) = (key(a), key(a + rng.gen_range(0u64..40)));
                        (s.clone().min(e.clone()), s.max(e))
                    }
                }
            })
            .collect();
        let snap = table.snapshot();
        let batch_rows = rng.gen_range(1usize..64);
        let opts = ScanOptions {
            batch_rows,
            ..ScanOptions::default()
        };
        let mut stream = snap.scan_ranges_stream(ranges.clone(), opts);
        let mut streamed = Vec::new();
        let first = stream
            .next_batch()
            .unwrap()
            .expect("the ranges hold entries");
        streamed.extend(first);
        // A split and more writes commit while the stream is mid-way.
        let split = rng.gen_range(0..table.num_regions());
        table.split_region(split).unwrap();
        write(&mut rng, 600);
        while let Some(batch) = stream.next_batch().unwrap() {
            streamed.extend(batch);
        }
        let one_by_one: Vec<_> = ranges
            .iter()
            .flat_map(|(start, end)| snap.scan(start, end).unwrap())
            .collect();
        assert_eq!(streamed.len(), one_by_one.len(), "case {case}");
        assert!(streamed == one_by_one, "case {case}: the streams differ");
        drop((stream, snap));
        store.drop_table("t").unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
