//! On-disk format upgrade: a store whose SSTables are all in the legacy
//! v1 format (the pre-bloom, pre-prefix-compression layout) must open
//! under the current build and serve correct reads, and new flushes must
//! emit the current format while the old v1 tables keep serving side by
//! side.
//!
//! Nothing in the product writes v1 any more, so the "before the
//! upgrade" stores are made here: written by the product writer, then
//! every `.sst` re-encoded by [`downgrade_to_v1`] from the layout
//! documented in `sstable.rs` / `block.rs`.

use just_compress::crc32::crc32;
use just_compress::varint::{write_bytes, write_u64};
use just_compress::Codec;
use just_kvstore::{Block, BlockFormat, Store, StoreOptions, Table};
use std::path::{Path, PathBuf};

fn dir_for(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "just-upgrade-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn options(codec: Codec) -> StoreOptions {
    StoreOptions {
        flush_threshold: 1 << 20,
        block_size: 512,
        codec,
        ..StoreOptions::default()
    }
}

/// Every SSTable under `dir`, recursively.
fn sst_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "sst") {
                out.push(path);
            }
        }
    }
    out
}

/// Magic bytes of every SSTable under `dir`.
fn sst_magics(dir: &Path) -> Vec<String> {
    let mut out: Vec<String> = sst_files(dir)
        .iter()
        .map(|path| {
            let bytes = std::fs::read(path).unwrap();
            String::from_utf8_lossy(&bytes[bytes.len() - 8..]).into_owned()
        })
        .collect();
    out.sort();
    out
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

/// One uncompressed `data-block* index bloom footer41` file re-encoded
/// as `data-block* index footer24`: the same entries in the same blocks,
/// each block in the v1 entry encoding (`klen(varint) key vflag(varint)
/// [value]`), no bloom filter, no `seq_limit`.
fn v3_to_v1(src: &[u8]) -> Vec<u8> {
    let footer = src.len() - 41;
    assert_eq!(&src[footer + 33..], b"JSSTBL03");
    assert_eq!(src[footer + 32], Codec::None.code(), "v1 blocks are raw");
    let index_offset = u64_at(src, footer) as usize;
    let index = &src[index_offset..index_offset + u64_at(src, footer + 8) as usize];

    let mut blocks = Vec::new();
    let mut v1_index = index[..8].to_vec(); // block count
    let mut pos = 8;
    for _ in 0..u64_at(index, 0) {
        let meta = pos + 4 + u32_at(index, pos) as usize; // past klen + first_key
        let offset = u64_at(index, meta) as usize;
        let len = u32_at(index, meta + 8) as usize;
        let mut block = Vec::new();
        for e in Block::new(src[offset..offset + len].to_vec(), BlockFormat::V2).iter() {
            write_bytes(&mut block, &e.key);
            match e.value {
                None => write_u64(&mut block, 0),
                Some(v) => {
                    write_u64(&mut block, v.len() as u64 + 1);
                    block.extend_from_slice(&v);
                }
            }
        }
        v1_index.extend_from_slice(&index[pos..meta]);
        v1_index.extend_from_slice(&(blocks.len() as u64).to_le_bytes());
        v1_index.extend_from_slice(&(block.len() as u32).to_le_bytes());
        v1_index.extend_from_slice(&crc32(&block).to_le_bytes());
        blocks.extend_from_slice(&block);
        pos = meta + 16;
    }
    v1_index.extend_from_slice(&index[pos..]); // min key, max key, entry count

    let mut out = blocks;
    let v1_index_offset = out.len() as u64;
    out.extend_from_slice(&v1_index);
    out.extend_from_slice(&v1_index_offset.to_le_bytes());
    out.extend_from_slice(&(v1_index.len() as u64).to_le_bytes());
    out.extend_from_slice(b"JSSTBL01");
    out
}

/// Rewrites every SSTable of a closed store as v1.
fn downgrade_to_v1(dir: &Path) {
    for path in sst_files(dir) {
        let v1 = v3_to_v1(&std::fs::read(&path).unwrap());
        std::fs::write(&path, v1).unwrap();
    }
}

/// "Before the upgrade": a closed store at `dir` whose table `traj`
/// holds what `fill` wrote, flushed, every SSTable in the v1 format.
fn v1_store(dir: &Path, regions: usize, fill: impl FnOnce(&Table)) {
    {
        let store = Store::open(dir, options(Codec::None)).unwrap();
        let t = store.create_table("traj", regions).unwrap();
        fill(&t);
        t.flush().unwrap();
    }
    downgrade_to_v1(dir);
    let magics = sst_magics(dir);
    assert!(!magics.is_empty());
    assert!(
        magics.iter().all(|m| m == "JSSTBL01"),
        "seed store must be pure v1: {magics:?}"
    );
}

#[test]
fn v1_store_opens_and_serves_after_upgrade() {
    let dir = dir_for("serve");
    v1_store(&dir, 4, |t| {
        for i in 0..3000u32 {
            t.put(
                format!("k{i:06}").into_bytes(),
                format!("v1-{i}").into_bytes(),
            )
            .unwrap();
        }
    });

    // "After the upgrade": the same directory under current defaults.
    let store = Store::open(&dir, options(Codec::None)).unwrap();
    let t = store.open_table("traj", 4).unwrap();
    assert_eq!(t.get(b"k001234").unwrap(), Some(b"v1-1234".to_vec()));
    assert_eq!(t.get(b"k999999").unwrap(), None);
    assert_eq!(t.scan(b"", b"\xff").unwrap().len(), 3000);
    let hits = t.scan(b"k000100", b"k000199").unwrap();
    assert_eq!(hits.len(), 100);
    assert_eq!(hits[0].key, b"k000100");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn mixed_v1_v2_tables_serve_one_merged_view() {
    let dir = dir_for("mixed");
    v1_store(&dir, 2, |t| {
        for i in 0..1000u32 {
            t.put(
                format!("k{i:06}").into_bytes(),
                format!("old-{i}").into_bytes(),
            )
            .unwrap();
        }
    });
    // Reopen at v2 with compression; overwrite half the keys and add new
    // ones, then flush: the region now holds v1 and v2 tables together.
    let store = Store::open(&dir, options(Codec::Zip)).unwrap();
    let t = store.open_table("traj", 2).unwrap();
    for i in 0..500u32 {
        t.put(
            format!("k{i:06}").into_bytes(),
            format!("new-{i}").into_bytes(),
        )
        .unwrap();
    }
    for i in 1000..1200u32 {
        t.put(
            format!("k{i:06}").into_bytes(),
            format!("new-{i}").into_bytes(),
        )
        .unwrap();
    }
    t.delete(b"k000999".to_vec()).unwrap();
    t.flush().unwrap();

    let magics = sst_magics(&dir);
    assert!(
        magics.contains(&"JSSTBL01".to_string()) && magics.contains(&"JSSTBL03".to_string()),
        "store must hold both formats: {magics:?}"
    );

    // Newer v2 data shadows v1; untouched v1 rows still serve.
    assert_eq!(t.get(b"k000007").unwrap(), Some(b"new-7".to_vec()));
    assert_eq!(t.get(b"k000700").unwrap(), Some(b"old-700".to_vec()));
    assert_eq!(t.get(b"k001100").unwrap(), Some(b"new-1100".to_vec()));
    assert_eq!(t.get(b"k000999").unwrap(), None);
    assert_eq!(t.scan(b"", b"\xff").unwrap().len(), 1199);

    // Compaction rewrites everything into the current footer (v3, which
    // carries the commit-sequence limit) and the merged view is
    // unchanged.
    t.compact().unwrap();
    let magics = sst_magics(&dir);
    assert!(
        magics.iter().all(|m| m == "JSSTBL03"),
        "compaction must rewrite to the current footer: {magics:?}"
    );
    assert_eq!(t.get(b"k000700").unwrap(), Some(b"old-700".to_vec()));
    assert_eq!(t.scan(b"", b"\xff").unwrap().len(), 1199);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn v1_and_v2_store_identical_logical_content() {
    // The two formats are different encodings of the same data: byte-for
    // byte identical scan results, across codecs.
    let dir = dir_for("equiv");
    let mut reference: Option<Vec<(Vec<u8>, Vec<u8>)>> = None;
    let fill = |t: &Table| {
        for i in 0..2000u32 {
            let k = (i.wrapping_mul(0x9E37_79B9)).to_be_bytes().to_vec();
            t.put(k, format!("payload-{i}").into_bytes()).unwrap();
        }
    };
    for (sub, codec) in [
        ("v1", None),
        ("v2", Some(Codec::None)),
        ("v2zip", Some(Codec::Zip)),
        ("v2gzip", Some(Codec::Gzip)),
    ] {
        let d = dir.join(sub);
        match codec {
            None => v1_store(&d, 4, fill),
            Some(codec) => {
                let store = Store::open(&d, options(codec)).unwrap();
                let t = store.create_table("traj", 4).unwrap();
                fill(&t);
                t.flush().unwrap();
            }
        }
        let store = Store::open(&d, options(codec.unwrap_or(Codec::None))).unwrap();
        let t = store.open_table("traj", 4).unwrap();
        let got: Vec<(Vec<u8>, Vec<u8>)> = t
            .scan(b"", &[0xff; 8])
            .unwrap()
            .into_iter()
            .map(|e| (e.key, e.value))
            .collect();
        match &reference {
            None => reference = Some(got),
            Some(want) => assert_eq!(want, &got, "{sub} diverges from v1"),
        }
    }
    std::fs::remove_dir_all(dir).ok();
}
