//! Seeded property test for the batch join/order operators: hash join,
//! key-normalized sort, and TOP-K must produce byte-identical results
//! to the interpreted reference's nested loop / comparator on randomly
//! generated datasets with NULLs, duplicate keys, and mixed-type key
//! expressions. Row *order* is compared too — the hash join contracts
//! to emit pairs in nested-loop order (left-major, right-minor) and
//! both sort paths are stable, so no normalizing ORDER BY is needed.
//!
//! The executor side runs through the public SQL surface; the oracle is
//! `just_ql::reference::run` on the same optimized plan, covering the
//! optimizer rewrites (`Join -> HashJoin`, `Sort+Limit -> TopK`), the
//! hashability gate, and the non-equi nested loop.

use just_core::{Dataset, Engine, EngineConfig, SessionManager};
use just_obs::Rng;
use just_ql::{optimize, parse, reference, Client, LogicalPlan, Statement};
use std::sync::Arc;

const CASES: usize = 72;

fn client(name: &str) -> (Client, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "just-ql-joinsort-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let engine = Arc::new(Engine::open(&dir, EngineConfig::default()).unwrap());
    let sessions = SessionManager::new(engine);
    (Client::new(sessions.session("joinsort")), dir)
}

/// Runs `sql` on the interpreted reference operators.
fn interpret(c: &Client, sql: &str) -> just_ql::Result<Dataset> {
    let Statement::Query(q) = parse(sql)? else {
        panic!("not a SELECT: {sql}");
    };
    reference::run(c.session(), &optimize(LogicalPlan::from_select(&q)?)?)
}

/// The executor's join/TOP-K counters: (hash-build rows, TOP-K queries,
/// nested-loop joins).
fn exec_counters() -> [u64; 3] {
    let obs = just_obs::global();
    [
        obs.counter("just_exec_join_build_rows").get(),
        obs.counter("just_exec_topk_queries").get(),
        obs.counter("just_exec_join_fallbacks").get(),
    ]
}

/// Runs `sql` on the reference and on the executor and asserts parity —
/// identical header and rows (in order) on success, errors on both
/// sides otherwise. `engaged` accumulates the counter movement of the
/// executor run alone (the reference's nested loops don't count).
fn check(c: &mut Client, sql: &str, engaged: &mut [u64; 3]) {
    let interpreted = interpret(c, sql);
    let before = exec_counters();
    let compiled = c.execute(sql).map(|r| r.into_dataset());
    for (total, (after, before)) in engaged.iter_mut().zip(exec_counters().iter().zip(before)) {
        *total += after - before;
    }
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

/// A random `k`-ish integer literal drawn from a small range so join
/// keys collide often, or NULL.
fn int_or_null(rng: &mut Rng) -> String {
    if rng.gen_bool(0.18) {
        "null".to_string()
    } else {
        format!("{}", rng.gen_range(0..7i64))
    }
}

fn str_or_null(rng: &mut Rng) -> String {
    // Includes numeric-looking strings: joining these against an int
    // column must take the nested-loop fallback (interpreted `=`
    // coerces '3' = 3 to true; encoded bytes would not).
    const VOCAB: [&str; 6] = ["'3'", "'12'", "'abc'", "'ABC'", "''", "'v'"];
    if rng.gen_bool(0.2) {
        "null".to_string()
    } else {
        VOCAB[rng.gen_range(0..VOCAB.len() as u32) as usize].to_string()
    }
}

fn float_or_null(rng: &mut Rng) -> String {
    if rng.gen_bool(0.2) {
        "null".to_string()
    } else {
        format!("{}.25", rng.gen_range(0..6i64) - 3)
    }
}

/// Random ORDER BY key list: 1-3 keys over plain columns and
/// expressions (including a mixed-type `coalesce(g, k)` that exercises
/// the cross-type rank ordering), each with a random direction.
fn gen_sort_keys(rng: &mut Rng) -> String {
    const KEYS: [&str; 6] = ["k", "g", "x", "k % 3", "x * 2", "coalesce(g, k)"];
    let n = rng.gen_range(1..4u32);
    let mut parts = Vec::new();
    for _ in 0..n {
        let key = KEYS[rng.gen_range(0..KEYS.len() as u32) as usize];
        let dir = if rng.gen_bool(0.5) { "ASC" } else { "DESC" };
        parts.push(format!("{key} {dir}"));
    }
    parts.join(", ")
}

#[test]
fn join_sort_topk_agree_with_interpreted_paths() {
    let (mut c, dir) = client("prop");
    c.execute("CREATE TABLE lhs (a integer:primary key, k integer, g string, x float)")
        .unwrap();
    c.execute("CREATE TABLE rhs (b integer:primary key, k integer, tag string, y float)")
        .unwrap();

    let mut rng = Rng::seed_from_u64(0x4A55_5354_1009);
    for a in 0..40i64 {
        let (k, g, x) = (
            int_or_null(&mut rng),
            str_or_null(&mut rng),
            float_or_null(&mut rng),
        );
        c.execute(&format!("INSERT INTO lhs VALUES ({a}, {k}, {g}, {x})"))
            .unwrap();
    }
    for b in 0..30i64 {
        let (k, t, y) = (
            int_or_null(&mut rng),
            str_or_null(&mut rng),
            float_or_null(&mut rng),
        );
        c.execute(&format!("INSERT INTO rhs VALUES ({b}, {k}, {t}, {y})"))
            .unwrap();
    }

    let mut engaged = [0u64; 3];
    let mut rng = Rng::seed_from_u64(0x4A55_5354_2009);
    for case in 0..CASES {
        match case % 8 {
            // Plain equi join on a dup-heavy NULL-bearing key.
            0 => check(
                &mut c,
                "SELECT l.a, r.b, l.g, r.y FROM lhs l JOIN rhs r ON l.k = r.k",
                &mut engaged,
            ),
            // Equi keys plus a non-equi residual.
            1 => check(
                &mut c,
                "SELECT l.a, r.b FROM lhs l JOIN rhs r ON l.k = r.k AND l.x < r.y",
                &mut engaged,
            ),
            // Multi-key equi join (numeric + string key columns).
            2 => check(
                &mut c,
                "SELECT l.a, r.b FROM lhs l JOIN rhs r ON l.k = r.k AND l.g = r.tag",
                &mut engaged,
            ),
            // Non-equi condition: stays a nested-loop join on both paths.
            3 => {
                let op = ["<", "<=", ">", "!="][rng.gen_range(0..4u32) as usize];
                check(
                    &mut c,
                    &format!("SELECT l.a, r.b FROM lhs l JOIN rhs r ON l.k {op} r.k"),
                    &mut engaged,
                )
            }
            // String-vs-int key classes: the hashability gate must fall
            // back so interpreted coercion ('3' = 3) is preserved.
            4 => check(
                &mut c,
                "SELECT l.a, r.b FROM lhs l JOIN rhs r ON l.g = r.k",
                &mut engaged,
            ),
            // Key-normalized full sort, random keys and directions.
            5 => check(
                &mut c,
                &format!(
                    "SELECT a, k, g, x FROM lhs ORDER BY {}",
                    gen_sort_keys(&mut rng)
                ),
                &mut engaged,
            ),
            // TOP-K: Sort+Limit fused to a bounded heap. k spans empty,
            // tiny, and larger-than-input.
            6 => {
                let k = [0, 1, 3, 10, 100][rng.gen_range(0..5u32) as usize];
                check(
                    &mut c,
                    &format!(
                        "SELECT a, k, x FROM lhs ORDER BY {} LIMIT {k}",
                        gen_sort_keys(&mut rng)
                    ),
                    &mut engaged,
                )
            }
            // Join feeding TOP-K.
            _ => {
                let k = rng.gen_range(1..12u32);
                check(
                    &mut c,
                    &format!(
                        "SELECT l.a, r.b, r.y FROM lhs l JOIN rhs r ON l.k = r.k \
                         ORDER BY r.y DESC, l.a LIMIT {k}"
                    ),
                    &mut engaged,
                )
            }
        }
    }

    // The executor must actually have engaged the hash join, the heap
    // and the nested loop: vacuous parity would hide a regression in any.
    let [built, topk, nested] = engaged;
    assert!(built > 0, "no hash join ever built a table");
    assert!(topk > 0, "no TOP-K query took the heap path");
    assert!(
        nested > 0,
        "non-equi / unhashable cases never ran the nested loop"
    );

    std::fs::remove_dir_all(&dir).ok();
}
