//! The store's format epoch: a new store records it in `FORMAT` before
//! any table exists, and a store of any other epoch — or one with
//! tables and no `FORMAT` — is refused with `KvError::Format` before a
//! single byte under it changes.

use just_compress::crc32::crc32;
use just_kvstore::{KvError, Store, StoreOptions};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const EPOCH_2: &str = "just-kvstore format 2\n";

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "just-epoch-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A closed store holding table `t`: one flushed SSTable and a WAL tail.
fn store_with_table(name: &str) -> PathBuf {
    let dir = tmpdir(name);
    let store = Store::open(&dir, StoreOptions::default()).unwrap();
    let t = store.create_table("t", 1).unwrap();
    for i in 0..100u32 {
        t.put(format!("k{i:03}").into_bytes(), b"v".to_vec())
            .unwrap();
    }
    t.flush().unwrap();
    t.put(b"tail".to_vec(), b"v".to_vec()).unwrap();
    drop(t);
    drop(store);
    dir
}

/// The refusal, with what it names.
fn refused(dir: &Path) -> (String, String) {
    match Store::open(dir, StoreOptions::default()) {
        Err(KvError::Format { found, expected }) => (found, expected),
        other => panic!("want KvError::Format, got {other:?}"),
    }
}

/// Every path under `dir` with its bytes (`None` for a directory).
fn tree(dir: &Path) -> BTreeMap<PathBuf, Option<Vec<u8>>> {
    let mut out = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path.clone());
                out.insert(path, None);
            } else {
                let bytes = std::fs::read(&path).unwrap();
                out.insert(path, Some(bytes));
            }
        }
    }
    out
}

#[test]
fn fresh_store_writes_format_and_reopens() {
    let dir = store_with_table("fresh");
    assert_eq!(
        std::fs::read_to_string(dir.join("FORMAT")).unwrap(),
        EPOCH_2
    );
    let store = Store::open(&dir, StoreOptions::default()).unwrap();
    let t = store.open_table("t", 1).unwrap();
    assert_eq!(t.scan(b"", b"\xff").unwrap().len(), 101);
    drop(t);
    drop(store);
    assert_eq!(
        std::fs::read_to_string(dir.join("FORMAT")).unwrap(),
        EPOCH_2
    );
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn leftover_format_tmp_from_a_crash_opens() {
    // A crash between writing `FORMAT.tmp` and renaming it: no table
    // exists yet, so the next open simply writes the file again.
    let dir = tmpdir("tmp-leftover");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("FORMAT.tmp"), b"just-kvst").unwrap();
    let store = Store::open(&dir, StoreOptions::default()).unwrap();
    store.create_table("t", 1).unwrap();
    drop(store);
    assert_eq!(
        std::fs::read_to_string(dir.join("FORMAT")).unwrap(),
        EPOCH_2
    );
    assert!(!dir.join("FORMAT.tmp").exists());
    Store::open(&dir, StoreOptions::default()).unwrap();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn other_epochs_and_missing_or_hostile_format_are_refused() {
    let dir = store_with_table("refused");
    let format = dir.join("FORMAT");
    let cases: [(&str, Option<Vec<u8>>, &str); 5] = [
        ("missing", None, "no FORMAT"),
        (
            "epoch 0",
            Some(b"just-kvstore format 0\n".to_vec()),
            "epoch 0",
        ),
        (
            "epoch 3",
            Some(b"just-kvstore format 3\n".to_vec()),
            "epoch 3",
        ),
        (
            "garbage",
            Some(b"\xff\x00not a format\n".to_vec()),
            "malformed",
        ),
        ("1 MiB", Some(vec![b'1'; 1 << 20]), "oversized"),
    ];
    for (what, content, named) in cases {
        match &content {
            Some(bytes) => std::fs::write(&format, bytes).unwrap(),
            None => std::fs::remove_file(&format).unwrap(),
        }
        let (found, expected) = refused(&dir);
        assert!(found.contains(named), "{what}: found {found:?}");
        assert_eq!(expected, "epoch 2", "{what}");
    }
    std::fs::write(&format, EPOCH_2).unwrap();
    Store::open(&dir, StoreOptions::default()).unwrap();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn a_closed_store_stamped_epoch_1_is_refused_on_reopen() {
    // Epoch 1 differs from epoch 2 only in the storage layer's key
    // layout, which no kvstore byte records: the stamp is all that
    // tells the two apart, so the stamp alone must refuse it.
    let dir = store_with_table("epoch-1");
    std::fs::write(dir.join("FORMAT"), b"just-kvstore format 1\n").unwrap();
    let before = tree(&dir);
    let (found, expected) = refused(&dir);
    assert!(found.contains("epoch 1"), "{found}");
    assert_eq!(expected, "epoch 2");
    assert!(tree(&dir) == before, "a refused reopen changed the store");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn refusal_touches_nothing() {
    // Everything an open could be tempted to repair: a WAL segment whose
    // op-1 record this build cannot replay (it would truncate it as a
    // torn tail) and a newest SSTable in the `JSSTBL02` layout (it
    // would drop it as a torn flush).
    let dir = store_with_table("untouched");
    let region = dir.join("t").join("region_000");
    std::fs::write(dir.join("FORMAT"), b"just-kvstore format 0\n").unwrap();
    let mut payload = vec![1u8];
    payload.extend_from_slice(&1u32.to_le_bytes());
    payload.extend_from_slice(b"kv");
    let mut record = (payload.len() as u32).to_le_bytes().to_vec();
    record.extend_from_slice(&crc32(&payload).to_le_bytes());
    record.extend_from_slice(&payload);
    std::fs::write(region.join("wal_0000009999.log"), &record).unwrap();
    let sst = std::fs::read_dir(&region)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "sst"))
        .expect("a flushed table");
    // footer := index_offset index_len bloom_len seq_limit codec magic;
    // the `JSSTBL02` footer is the same without `seq_limit`.
    let mut v2 = std::fs::read(&sst).unwrap();
    let seq_limit = v2.len() - 41 + 24;
    v2.drain(seq_limit..seq_limit + 8);
    let magic = v2.len() - 8;
    v2[magic..].copy_from_slice(b"JSSTBL02");
    std::fs::write(region.join("sst_9999999999.sst"), &v2).unwrap();

    let before = tree(&dir);
    let (found, expected) = refused(&dir);
    assert!(found.contains("epoch 0") && expected == "epoch 2");
    assert!(tree(&dir) == before, "a refused open changed the store");

    // With the epoch restored the store opens, and the region holding
    // the `JSSTBL02` file refuses it in turn, still touching nothing.
    std::fs::write(dir.join("FORMAT"), EPOCH_2).unwrap();
    let before = tree(&dir);
    let store = Store::open(&dir, StoreOptions::default()).unwrap();
    match store.open_table("t", 1) {
        Err(KvError::Format { found, expected }) => {
            assert!(found.contains("JSSTBL02"), "{found}");
            assert!(expected.contains("JSSTBL03"), "{expected}");
        }
        other => panic!("want KvError::Format, got {other:?}"),
    }
    drop(store);
    assert!(
        tree(&dir) == before,
        "a refused table open changed the store"
    );
    std::fs::remove_dir_all(dir).ok();
}
