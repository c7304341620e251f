//! Seeded property test: the compiled, vectorized executor must agree
//! with the interpreted reference operators on randomly generated
//! queries — identical datasets on success, and an error on one side
//! implies an error on the other (NULL propagation, type-mismatch
//! errors, division by zero included). Error *messages* are not
//! compared: the vectorized VM evaluates op-major while the interpreter
//! evaluates row-major, so when several rows would error, which error
//! surfaces first may differ.
//!
//! The executor side is driven through the public SQL surface; the
//! oracle is `just_ql::reference::run` on the same optimized plan, so the
//! test also covers the scan residual and the vectorized hash aggregator.

use just_core::{Dataset, Engine, EngineConfig, SessionManager};
use just_obs::Rng;
use just_ql::{optimize, parse, reference, Client, LogicalPlan, Statement};
use std::sync::Arc;

const CASES: usize = 96;

fn client(name: &str) -> (Client, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "just-ql-parity-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let engine = Arc::new(Engine::open(&dir, EngineConfig::default()).unwrap());
    let sessions = SessionManager::new(engine);
    (Client::new(sessions.session("parity")), dir)
}

/// Random scalar expression over the test table's columns. Depth-bounded;
/// deliberately type-sloppy (strings flow into arithmetic, NULLs
/// everywhere) so both error parity and NULL parity get exercised.
fn gen_expr(rng: &mut Rng, depth: usize) -> String {
    if depth == 0 || rng.gen_bool(0.25) {
        return match rng.gen_range(0..8u32) {
            0 => "i".to_string(),
            1 => "j".to_string(),
            2 => "f".to_string(),
            3 => "s".to_string(),
            4 => format!("{}", rng.gen_range(0..9i64)),
            5 => format!("{}.5", rng.gen_range(0..5i64)),
            6 => "'abc'".to_string(),
            _ => "null".to_string(),
        };
    }
    match rng.gen_range(0..10u32) {
        0..=4 => {
            let op = ["+", "-", "*", "/", "%", "=", "!=", "<", "<=", ">", ">="]
                [rng.gen_range(0..11u32) as usize];
            format!(
                "({} {op} {})",
                gen_expr(rng, depth - 1),
                gen_expr(rng, depth - 1)
            )
        }
        5 => {
            let op = ["AND", "OR"][rng.gen_range(0..2u32) as usize];
            format!(
                "({} {op} {})",
                gen_expr(rng, depth - 1),
                gen_expr(rng, depth - 1)
            )
        }
        6 => format!(
            "({} BETWEEN {} AND {})",
            gen_expr(rng, depth - 1),
            gen_expr(rng, depth - 1),
            gen_expr(rng, depth - 1)
        ),
        7 => {
            let f = [
                "abs",
                "length",
                "upper",
                "lower",
                "to_int",
                "to_float",
                "to_string",
            ][rng.gen_range(0..7u32) as usize];
            format!("{f}({})", gen_expr(rng, depth - 1))
        }
        8 => format!(
            "coalesce({}, {})",
            gen_expr(rng, depth - 1),
            gen_expr(rng, depth - 1)
        ),
        _ => format!("(NOT {})", gen_expr(rng, depth - 1)),
    }
}

/// Runs `sql` on the interpreted reference operators.
fn interpret(c: &Client, sql: &str) -> just_ql::Result<Dataset> {
    let Statement::Query(q) = parse(sql)? else {
        panic!("not a SELECT: {sql}");
    };
    reference::run(c.session(), &optimize(LogicalPlan::from_select(&q)?)?)
}

/// Runs `sql` on the reference and on the executor and asserts parity.
fn check(c: &mut Client, sql: &str) {
    let interpreted = interpret(c, sql);
    let compiled = c.execute(sql).map(|r| r.into_dataset());
    match (interpreted, compiled) {
        (Ok(a), Ok(b)) => {
            let b = b.expect("query returns data");
            assert_eq!(a.columns, b.columns, "column mismatch for {sql}");
            assert_eq!(a.rows, b.rows, "row mismatch for {sql}");
        }
        (Err(_), Err(_)) => {}
        (Ok(_), Err(e)) => panic!("interpreted ok, compiled failed for {sql}: {e:?}"),
        (Err(e), Ok(_)) => panic!("compiled ok, interpreted failed for {sql}: {e:?}"),
    }
}

#[test]
fn compiled_and_interpreted_paths_agree() {
    let (mut c, dir) = client("prop");
    c.execute(
        "CREATE TABLE par (i integer:primary key, j integer, f float, \
         s string, time date, geom point:srid=4326)",
    )
    .unwrap();
    // Deterministic data with NULLs sprinkled into every nullable column
    // and a few strings that do/don't parse as numbers.
    let mut rng = Rng::seed_from_u64(0x4A55_5354_0001);
    for i in 0..48i64 {
        let j = if i % 7 == 3 {
            "null".to_string()
        } else {
            format!("{}", (i * 13) % 21 - 10)
        };
        let f = if i % 5 == 2 {
            "null".to_string()
        } else {
            format!("{}.25", (i % 9) - 4)
        };
        let s = match i % 6 {
            0 => "null".to_string(),
            1 => "'12'".to_string(),
            2 => "'abc'".to_string(),
            3 => "'ABC'".to_string(),
            4 => "''".to_string(),
            _ => format!("'v{i}'"),
        };
        let (lng, lat) = (116.0 + rng.gen_f64() * 0.5, 39.5 + rng.gen_f64() * 0.5);
        c.execute(&format!(
            "INSERT INTO par VALUES ({i}, {j}, {f}, {s}, {}, st_makePoint({lng:.4}, {lat:.4}))",
            1_000 + i * 37
        ))
        .unwrap();
    }

    let compiled_before = just_obs::global()
        .counter("just_exec_programs_compiled")
        .get();
    let mut rng = Rng::seed_from_u64(0x4A55_5354_C0DE);
    for case in 0..CASES {
        let pred = gen_expr(&mut rng, 3);
        let proj = gen_expr(&mut rng, 3);
        match case % 4 {
            // Filter + computed projection (scan residual + project).
            0 | 1 => check(
                &mut c,
                &format!("SELECT i, {proj} AS x FROM par WHERE {pred}"),
            ),
            // Grouped aggregation over a filtered scan.
            2 => check(
                &mut c,
                &format!(
                    "SELECT s, count(*) AS c, sum({proj}) AS sm, min({proj}) AS mn \
                     FROM par WHERE {pred} GROUP BY s"
                ),
            ),
            // Global aggregates (zero-row inputs must still emit a row).
            _ => check(
                &mut c,
                &format!(
                    "SELECT count({proj}) AS c, avg({proj}) AS av, max({proj}) AS mx \
                     FROM par WHERE {pred}"
                ),
            ),
        }
    }

    // The exercise must actually have taken the compiled path — a
    // regression that rejects everything would make parity vacuous.
    let compiled = just_obs::global()
        .counter("just_exec_programs_compiled")
        .get()
        - compiled_before;
    assert!(
        compiled >= CASES as u64,
        "only {compiled} programs compiled across {CASES} cases"
    );

    std::fs::remove_dir_all(&dir).ok();
}
