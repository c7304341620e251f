//! `catalog.meta` is bytes on disk the engine did not necessarily
//! write: a seeded mutation of a golden catalog, opened through
//! `Engine::open` with one `SELECT` per table, ends in a typed error or
//! rows — never a panic.

use just_core::{Engine, EngineConfig, SessionManager};
use just_obs::rng::Rng;
use just_ql::Client;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "just-catalog-mutation-{name}-{}-{:?}",
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

const TABLES: [&str; 2] = ["orders", "tr"];

/// A closed engine with a common table and a plugin table, both holding
/// rows.
fn golden_engine(dir: &Path) {
    let engine = Arc::new(Engine::open(dir, EngineConfig::default()).unwrap());
    let mut c = Client::new(SessionManager::new(engine.clone()).session("fuzz"));
    c.execute(
        "CREATE TABLE orders (fid integer:primary key, name string, \
         time date, geom point:srid=4326)",
    )
    .unwrap();
    let rows: Vec<String> = (0..50i64)
        .map(|i| {
            let (lng, lat) = (116.0 + i as f64 * 0.01, 39.0 + i as f64 * 0.01);
            format!("({i}, 'o-{i}', {}, st_makePoint({lng}, {lat}))", i * 60_000)
        })
        .collect();
    c.execute(&format!("INSERT INTO orders VALUES {}", rows.join(", ")))
        .unwrap();
    c.execute("CREATE TABLE tr AS trajectory").unwrap();
    engine.shutdown();
}

/// Replacement tokens: valid values of other fields, out-of-range
/// counts, and garbage.
const TOKENS: [&str; 22] = [
    "0",
    "1",
    "4",
    "255",
    "256",
    "257",
    "-1",
    "99999999999999999999",
    "x",
    "",
    "TABLE",
    "END",
    "FIELD",
    "pk",
    "z2",
    "xz2t",
    "day",
    "common",
    "plugin:trajectory",
    "string",
    "point",
    "compress=gzip",
];

/// One seeded edit of the catalog's lines.
fn mutate(lines: &mut Vec<String>, rng: &mut Rng) {
    let at = rng.gen_range(0..lines.len());
    match rng.gen_range(0..6u32) {
        0 => {
            // A value of a TABLE line: name, kind, index, period, shards
            // or regions.
            let tables: Vec<usize> = (0..lines.len())
                .filter(|&i| lines[i].starts_with("TABLE "))
                .collect();
            if let Some(&t) = tables.get(rng.gen_range(0..tables.len().max(1))) {
                let mut tokens: Vec<&str> = lines[t].split_whitespace().collect();
                let i = 1 + 2 * rng.gen_range(0..6usize);
                if i < tokens.len() {
                    tokens[i] = TOKENS[rng.gen_range(0..8usize)];
                    lines[t] = tokens.join(" ");
                }
            }
        }
        1 => {
            let mut tokens: Vec<String> =
                lines[at].split_whitespace().map(str::to_string).collect();
            if !tokens.is_empty() {
                let i = rng.gen_range(0..tokens.len());
                tokens[i] = TOKENS[rng.gen_range(0..TOKENS.len())].to_string();
            }
            lines[at] = tokens.join(" ");
        }
        2 => {
            let len = rng.gen_range(0..lines[at].len() + 1);
            let mut cut = lines[at].as_bytes()[..len].to_vec();
            if let Some(b) = cut.last_mut() {
                *b ^= 1 << rng.gen_range(0..7u32);
            }
            lines[at] = String::from_utf8_lossy(&cut).into_owned();
        }
        3 => {
            lines.remove(at);
        }
        _ => {
            let other = rng.gen_range(0..lines.len());
            let copy = lines[at].clone();
            lines.insert(other, copy);
        }
    }
    if lines.is_empty() {
        lines.push(String::new());
    }
}

#[test]
fn mutated_catalogs_fail_typed_or_serve_rows() {
    let root = tmpdir("fuzz");
    let golden = root.join("golden");
    golden_engine(&golden);
    let catalog = std::fs::read_to_string(golden.join("catalog.meta")).unwrap();
    let case_dir = root.join("case");
    let (mut refused, mut served) = (0, 0);
    for case in 0..300u64 {
        let seed = 0xca7a_0000 + case;
        let mut rng = Rng::seed_from_u64(seed);
        std::fs::remove_dir_all(&case_dir).ok();
        copy_dir(&golden, &case_dir);
        let mut lines: Vec<String> = catalog.lines().map(str::to_string).collect();
        for _ in 0..rng.gen_range(1..4u32) {
            mutate(&mut lines, &mut rng);
        }
        std::fs::write(case_dir.join("catalog.meta"), lines.join("\n")).unwrap();
        let outcome = std::panic::catch_unwind(|| {
            let engine = Arc::new(Engine::open(&case_dir, EngineConfig::default())?);
            let mut c = Client::new(SessionManager::new(engine).session("fuzz"));
            let rows: Vec<Result<usize, String>> = TABLES
                .iter()
                .map(|t| {
                    let r = c.execute(&format!("SELECT * FROM {t}"));
                    r.map(|r| r.into_dataset().map_or(0, |d| d.len()))
                        .map_err(|e| e.to_string())
                })
                .collect();
            Ok::<_, just_core::CoreError>(rows)
        })
        .unwrap_or_else(|_| panic!("seed {seed:#x}: open or SELECT panicked"));
        match outcome {
            Ok(rows) => {
                served += rows.iter().filter(|r| r.is_ok()).count();
                refused += rows.iter().filter(|r| r.is_err()).count();
            }
            Err(_) => refused += 1,
        }
    }
    assert!(
        refused > 0 && served > 0,
        "{refused} refused, {served} served"
    );
    std::fs::remove_dir_all(root).ok();
}

#[test]
fn a_region_count_outside_1_to_256_is_a_typed_create_error() {
    for regions in [0, 257] {
        let dir = tmpdir(&format!("regions-{regions}"));
        let mut config = EngineConfig::default();
        config.storage.regions = regions;
        let engine = Arc::new(Engine::open(&dir, config).unwrap());
        let mut c = Client::new(SessionManager::new(engine).session("fuzz"));
        let err = c
            .execute("CREATE TABLE t (fid integer:primary key, geom point)")
            .unwrap_err();
        assert!(err.to_string().contains("1 to 256"), "{err}");
        // Nothing was catalogued.
        assert!(c.execute("DESC TABLE t").is_err());
        std::fs::remove_dir_all(dir).ok();
    }
}
