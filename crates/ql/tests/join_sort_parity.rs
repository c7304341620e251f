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
//! optimizer rewrites (a `Join`'s equi keys, `Sort`+`Limit` -> TOP-K), the
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

/// TOP-K straight off a spatially windowed stored scan, where the heap's
/// threshold gates the scan: the window holds ~3 scan batches of rows,
/// some flushed and some in the memtable, so the threshold moves
/// mid-scan. Keys tie often and are NULL a tenth of the time.
#[test]
fn windowed_topk_gates_the_scan_and_agrees_with_the_reference() {
    let dir = std::env::temp_dir().join(format!("just-ql-joinsort-gate-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let engine = Arc::new(Engine::open(&dir, EngineConfig::default()).unwrap());
    let mut c = Client::new(SessionManager::new(engine.clone()).session("gate"));
    c.execute(
        "CREATE TABLE pts (fid integer:primary key, time date, geom point, \
         v integer, w float, s string)",
    )
    .unwrap();
    let mut rng = Rng::seed_from_u64(0x4A55_5354_3009);
    let mut insert = |c: &mut Client, fids: std::ops::Range<i64>| {
        let tuples: Vec<String> = fids
            .map(|fid| {
                // One row in eight lies east of the window.
                let x = if fid % 8 == 0 { 117.5 } else { 116.0 };
                let (v, w) = (int_or_null(&mut rng), float_or_null(&mut rng));
                format!(
                    "({fid}, {}, st_makePoint({}, {}), {v}, {w}, {})",
                    fid * 1000,
                    x + (fid % 60) as f64 * 0.01,
                    39.0 + (fid / 60 % 60) as f64 * 0.01,
                    str_or_null(&mut rng)
                )
            })
            .collect();
        c.execute(&format!("INSERT INTO pts VALUES {}", tuples.join(", ")))
            .unwrap();
    };
    insert(&mut c, 0..1_800);
    engine.flush_all().unwrap();
    insert(&mut c, 1_800..3_600);

    const WINDOW: &str = "geom WITHIN st_makeMBR(115.99, 38.99, 116.6, 39.6)";
    let mut engaged = [0u64; 3];
    for (i, k) in [0usize, 1, 7, 5_000].into_iter().enumerate() {
        let (ord, flip) = if i % 2 == 0 {
            ("ASC", "DESC")
        } else {
            ("DESC", "ASC")
        };
        for sql in [
            // One key, ties and NULLs, both directions.
            format!("SELECT fid, v FROM pts WHERE {WINDOW} ORDER BY v {ord} LIMIT {k}"),
            format!("SELECT fid, v FROM pts WHERE {WINDOW} ORDER BY v {flip} LIMIT {k}"),
            // Two keys; a key the output drops (a Project between).
            format!("SELECT fid, s FROM pts WHERE {WINDOW} ORDER BY w {ord}, v {flip} LIMIT {k}"),
            format!("SELECT fid FROM pts WHERE {WINDOW} ORDER BY s {ord}, fid LIMIT {k}"),
            // A residual or a computed key keeps the gate off.
            format!(
                "SELECT fid, v FROM pts WHERE {WINDOW} AND fid % 3 = 0 ORDER BY v {ord} LIMIT {k}"
            ),
            format!("SELECT fid, w FROM pts WHERE {WINDOW} ORDER BY w * 2 {flip} LIMIT {k}"),
        ] {
            check(&mut c, &sql, &mut engaged);
        }
    }
    assert!(engaged[1] > 0, "no TOP-K query took the heap path");

    // The gate really refused rows before decode: of the window's ~3 150
    // rows only the first batch and the few that beat the heap pass. (A
    // per-operator delta of a process-wide counter, but nothing else in
    // this binary scans more than 40 rows.)
    let sql = format!("SELECT fid, v FROM pts WHERE {WINDOW} ORDER BY v DESC LIMIT 7");
    let (data, trace) = c.explain_analyze(&sql).unwrap();
    assert_eq!(data.rows.len(), 7);
    let mut scan = trace.root();
    while !trace.name(scan).starts_with("Scan [pts]") {
        scan = *trace.children(scan).last().expect("a scan under the plan");
    }
    let gated = trace.attr(scan, "rows_gated").unwrap_or(0);
    assert!(gated >= 1_000, "the heap's threshold gated {gated} rows");
    std::fs::remove_dir_all(&dir).ok();
}
