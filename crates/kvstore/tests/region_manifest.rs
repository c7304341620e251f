//! A table's `REGIONS` manifest is bytes on disk the store did not
//! necessarily write: a seeded mutation of a golden manifest, opened
//! through `Store::open_table`, ends in `KvError::Corrupt` or a working
//! table — never a panic, and never a directory outside the table's.

use just_kvstore::{KvError, Store, StoreOptions};
use just_obs::rng::Rng;
use std::path::{Path, PathBuf};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "just-manifest-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let to = dst.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), to).unwrap();
        }
    }
}

/// Sorted entry names of `dir`.
fn entries(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// A closed store holding a 4-region table `t` with rows in every region.
fn golden_store(dir: &Path) {
    let store = Store::open(dir, StoreOptions::default()).unwrap();
    let t = store.create_table("t", 4).unwrap();
    for i in 0..=255u8 {
        t.put(vec![i, b'k'], vec![i; 8]).unwrap();
    }
    t.flush().unwrap();
}

/// One seeded edit of the manifest's lines (header first).
fn mutate(lines: &mut Vec<Vec<u8>>, rng: &mut Rng, outside: &Path) {
    let at = rng.gen_range(0..lines.len());
    let entry = rng.gen_range(1..lines.len().max(2)).min(lines.len() - 1);
    match rng.gen_range(0..6u32) {
        0 if !lines[at].is_empty() => {
            let i = rng.gen_range(0..lines[at].len());
            lines[at][i] ^= 1 << rng.gen_range(0..8u32);
        }
        1 => {
            let len = rng.gen_range(0..lines[at].len() + 1);
            lines[at].truncate(len);
        }
        2 => {
            let abs = outside.join("abs").to_string_lossy().into_owned();
            let names = [
                "../escape",
                "../../escape",
                abs.as_str(),
                "region_",
                "region_1x",
                "",
                "region_000/../../escape",
                "region_99999999999999999999999",
                "region_000",
                "region_18446744073709551615",
            ];
            let name = names[rng.gen_range(0..names.len())];
            let line = String::from_utf8_lossy(&lines[entry]).into_owned();
            let hex = line.split_once('\t').map_or("", |(_, h)| h);
            lines[entry] = format!("{name}\t{hex}").into_bytes();
        }
        3 => {
            let keys = ["aéb", "é", "zz", "0", "+f", "ff00", "40", "", "8g"];
            let key = keys[rng.gen_range(0..keys.len())];
            let line = String::from_utf8_lossy(&lines[entry]).into_owned();
            let name = line.split_once('\t').map_or(line.as_str(), |(n, _)| n);
            lines[entry] = format!("{name}\t{key}").into_bytes();
        }
        4 => {
            let other = rng.gen_range(0..lines.len());
            match rng.gen_range(0..3u32) {
                0 => lines.swap(at, other),
                1 => {
                    lines.remove(at);
                }
                _ => {
                    let copy = lines[at].clone();
                    lines.insert(other, copy);
                }
            }
        }
        _ => lines.insert(at, b"no tab on this line".to_vec()),
    }
    if lines.is_empty() {
        lines.push(Vec::new());
    }
}

#[test]
fn mutated_region_manifests_fail_typed_or_open() {
    let root = tmpdir("fuzz");
    let golden = root.join("golden");
    golden_store(&golden);
    let manifest = std::fs::read(golden.join("t").join("REGIONS")).unwrap();
    let case_dir = root.join("case");
    let (mut corrupt, mut opened) = (0, 0);
    for case in 0..200u64 {
        let seed = 0x4e61_0000 + case;
        let mut rng = Rng::seed_from_u64(seed);
        std::fs::remove_dir_all(&case_dir).ok();
        let store_dir = case_dir.join("store");
        copy_dir(&golden, &store_dir);
        let mut lines: Vec<Vec<u8>> = manifest
            .split(|&b| b == b'\n')
            .map(<[u8]>::to_vec)
            .collect();
        for _ in 0..rng.gen_range(1..4u32) {
            mutate(&mut lines, &mut rng, &case_dir);
        }
        std::fs::write(store_dir.join("t").join("REGIONS"), lines.join(&b'\n')).unwrap();
        let store_before = entries(&store_dir);
        let outcome = std::panic::catch_unwind(|| {
            let store = Store::open(&store_dir, StoreOptions::default())?;
            let t = store.open_table("t", 4)?;
            t.snapshot().scan(b"", b"\xff").map(|rows| rows.len())
        })
        .unwrap_or_else(|_| panic!("seed {seed:#x}: opening the table panicked"));
        match outcome {
            Ok(_) => opened += 1,
            Err(KvError::Corrupt(_)) => corrupt += 1,
            Err(e) => panic!("seed {seed:#x}: untyped end {e:?}"),
        }
        assert_eq!(entries(&case_dir), ["store"], "seed {seed:#x}");
        assert_eq!(entries(&store_dir), store_before, "seed {seed:#x}");
    }
    // Both ends were reached: the mutations are neither all harmless
    // nor all fatal.
    assert!(
        corrupt > 0 && opened > 0,
        "{corrupt} corrupt, {opened} opened"
    );
    std::fs::remove_dir_all(root).ok();
}
