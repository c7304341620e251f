//! Regression tests for the streaming read path's IO contract: a
//! consumer that stops early must actually stop the disk reads, and the
//! new counters must record it.

use just_kvstore::{ScanOptions, Store, StoreOptions};

fn store(name: &str) -> (Store, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("just-kv-stream-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let s = Store::open(
        &dir,
        StoreOptions {
            block_size: 256,
            // No cache: every block lookup is a counted disk read, so the
            // assertions below measure IO, not cache luck.
            block_cache_bytes: 0,
            ..StoreOptions::default()
        },
    )
    .unwrap();
    (s, dir)
}

#[test]
fn early_drop_stops_block_reads() {
    let (store, dir) = store("earlydrop");
    let table = store.create_table("t", 4).unwrap();
    for i in 0..5000u32 {
        table
            .put(
                format!("key-{i:06}").into_bytes(),
                format!("value-{i:06}-padding-padding").into_bytes(),
            )
            .unwrap();
    }
    table.flush().unwrap();

    // Baseline: the materializing scan reads the whole range.
    let before = store.metrics().snapshot();
    let all = table.snapshot().scan(b"key-", b"key-999999").unwrap();
    assert_eq!(all.len(), 5000);
    let full = store.metrics().snapshot().since(&before);
    assert!(full.blocks_read > 20, "expected many blocks: {full:?}");

    // Streaming consumer satisfied by one small batch.
    let before = store.metrics().snapshot();
    let mut stream = table.snapshot().scan_ranges_stream(
        vec![(b"key-".to_vec(), b"key-999999".to_vec())],
        ScanOptions {
            batch_rows: 10,
            ..Default::default()
        },
    );
    let batch = stream.next_batch().unwrap().unwrap();
    assert_eq!(batch.len(), 10);
    assert_eq!(batch.iter().next().unwrap().0, b"key-000000");
    drop(stream);
    let partial = store.metrics().snapshot().since(&before);

    assert!(
        partial.blocks_read * 5 < full.blocks_read,
        "early drop must read <20% of the blocks a full scan reads: \
         {} vs {}",
        partial.blocks_read,
        full.blocks_read
    );
    assert_eq!(partial.batches_emitted, 1);
    assert_eq!(partial.scan_early_terminations, 1);
    assert!(partial.batch_bytes_peak > 0);

    store.drop_table("t").unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cancelled_stream_reads_nothing_more() {
    let (store, dir) = store("cancel");
    let table = store.create_table("t", 4).unwrap();
    for i in 0..2000u32 {
        table
            .put(format!("k{i:05}").into_bytes(), b"v".to_vec())
            .unwrap();
    }
    table.flush().unwrap();

    let range = vec![(b"k".to_vec(), b"kz".to_vec())];
    let mut stream = table
        .snapshot()
        .scan_ranges_stream(range, ScanOptions::default());
    // Cancelling before the first pull: the stream never touches disk.
    let before = store.metrics().snapshot();
    stream.cancel_token().cancel();
    assert!(stream.next_batch().unwrap().is_none());
    let d = store.metrics().snapshot().since(&before);
    assert_eq!(d.blocks_read, 0, "cancelled stream must not read blocks");

    store.drop_table("t").unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stream_sees_unflushed_and_flushed_layers_merged() {
    let (store, dir) = store("layers");
    let table = store.create_table("t", 4).unwrap();
    // Old value flushed to an SSTable, newer value and a delete left in
    // the memtable: the stream must apply newest-wins shadowing.
    table.put(b"a".to_vec(), b"old".to_vec()).unwrap();
    table.put(b"b".to_vec(), b"keep".to_vec()).unwrap();
    table.put(b"c".to_vec(), b"dead".to_vec()).unwrap();
    table.flush().unwrap();
    table.put(b"a".to_vec(), b"new".to_vec()).unwrap();
    table.delete(b"c".to_vec()).unwrap();

    let range = vec![(b"a".to_vec(), b"z".to_vec())];
    let mut stream = table
        .snapshot()
        .scan_ranges_stream(range, ScanOptions::default());
    let batch = stream.next_batch().unwrap().unwrap();
    let got: Vec<(Vec<u8>, Vec<u8>)> = batch.into_iter().map(|e| (e.key, e.value)).collect();
    assert_eq!(
        got,
        vec![
            (b"a".to_vec(), b"new".to_vec()),
            (b"b".to_vec(), b"keep".to_vec()),
        ]
    );
    assert!(stream.next_batch().unwrap().is_none());

    store.drop_table("t").unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
