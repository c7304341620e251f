//! Soundness oracle for the optimizer: a query answers the same whether
//! or not its plan went through `optimize`.
//!
//! The parity suites (`compiled_parity.rs`, `join_sort_parity.rs`) hand
//! the interpreted reference the *optimized* plan, so they check the
//! executor and say nothing about an unsound rewrite. Here the
//! reference runs the plan exactly as analyzed — `LogicalPlan::
//! from_select`, every `WHERE` a `Filter` above its join — and
//! [`Client::execute`] runs the optimized one. Seeded queries over two
//! stored tables and a view cross every routing decision of the
//! join-aware pushdowns with every output form; the answers must agree
//! as multisets (exactly, when the query orders), and a query that is an
//! error must be the same kind of error on both sides.

use just_core::{Dataset, Engine, EngineConfig, SessionManager};
use just_obs::Rng;
use just_ql::{parse, reference, Client, LogicalPlan, Statement};
use std::sync::Arc;

const ORDERS: i64 = 160;
const DISTRICTS: i64 = 8;
/// Seeded constant draws per (shape, output form).
const ROUNDS: usize = 4;
const HOUR_MS: i64 = 3_600_000;

fn client() -> (Client, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("just-ql-opt-equiv-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let engine = Arc::new(Engine::open(&dir, EngineConfig::default()).unwrap());
    let mut c = Client::new(SessionManager::new(engine).session("equiv"));
    c.execute(
        "CREATE TABLE orders (fid integer:primary key, time date, geom point:srid=4326, \
         amount float, district integer)",
    )
    .unwrap();
    c.execute("CREATE TABLE districts (fid integer:primary key, name string, geom point)")
        .unwrap();
    let mut rng = Rng::seed_from_u64(20);
    let orders: Vec<String> = (0..ORDERS)
        .map(|fid| {
            // Amounts are binary fractions, so a sum is exact in any order.
            let amount = if rng.gen_bool(0.1) {
                "null".to_string()
            } else {
                format!("{}.5", rng.gen_range(0..100i64))
            };
            format!(
                "({fid}, {}, st_makePoint({}, {}), {amount}, {})",
                // Whole hours, so that range bounds fall on rows.
                rng.gen_range(0..240i64) * HOUR_MS,
                116.0 + rng.gen_f64(),
                39.0 + rng.gen_f64(),
                // Two districts no row of `districts` has.
                rng.gen_range(0..DISTRICTS + 2),
            )
        })
        .collect();
    c.execute(&format!("INSERT INTO orders VALUES {}", orders.join(", ")))
        .unwrap();
    let districts: Vec<String> = (0..DISTRICTS)
        .map(|fid| {
            format!(
                "({fid}, 'd{}', st_makePoint({}, {}))",
                fid % 5,
                116.0 + rng.gen_f64(),
                39.0 + rng.gen_f64()
            )
        })
        .collect();
    c.execute(&format!(
        "INSERT INTO districts VALUES {}",
        districts.join(", ")
    ))
    .unwrap();
    c.execute("CREATE VIEW big AS SELECT fid, amount, district FROM orders WHERE amount > 30")
        .unwrap();
    (c, dir)
}

/// The analyzed plan, untouched by the optimizer, on the reference.
fn unoptimized(c: &Client, sql: &str) -> just_ql::Result<Dataset> {
    let Statement::Query(q) = parse(sql)? else {
        panic!("not a SELECT: {sql}");
    };
    reference::run(c.session(), &LogicalPlan::from_select(&q)?)
}

fn sorted(data: &Dataset) -> Vec<String> {
    let mut rows: Vec<String> = data
        .rows
        .iter()
        .map(|r| format!("{:?}", r.values))
        .collect();
    rows.sort();
    rows
}

/// Asserts that `sql` answers alike on both sides and returns the row
/// count, `None` for an error (of the same variant on both).
fn check(c: &mut Client, sql: &str, ordered: bool) -> Option<usize> {
    let plain = unoptimized(c, sql);
    let optimized = c.execute(sql).map(|r| r.into_dataset().expect("a query"));
    match (plain, optimized) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.columns, b.columns, "header of {sql}");
            if ordered {
                assert_eq!(a.rows, b.rows, "rows of {sql}");
            } else {
                assert_eq!(sorted(&a), sorted(&b), "rows of {sql}");
            }
            Some(a.rows.len())
        }
        (Err(a), Err(b)) => {
            assert_eq!(
                std::mem::discriminant(&a),
                std::mem::discriminant(&b),
                "{sql}: unoptimized {a:?}, optimized {b:?}"
            );
            None
        }
        (a, b) => panic!("{sql}: unoptimized {a:?}, optimized {b:?}"),
    }
}

/// A random window covering roughly a third of the unit square the
/// points lie in.
fn rect(rng: &mut Rng) -> String {
    let (x, y) = (116.0 + rng.gen_f64() * 0.5, 39.0 + rng.gen_f64() * 0.5);
    let (w, h) = (0.3 + rng.gen_f64() * 0.4, 0.3 + rng.gen_f64() * 0.4);
    format!("st_makeMBR({x}, {y}, {}, {})", x + w, y + h)
}

fn time_range(rng: &mut Rng) -> (i64, i64) {
    let a = rng.gen_range(0..144i64);
    (a * HOUR_MS, (a + rng.gen_range(24..96i64)) * HOUR_MS)
}

/// A `FROM … [WHERE …]` over `orders o` and `districts d` (both visible
/// above as `o.*` / `d.*`) for each routing decision the join arms of
/// `sink_filter` and `prune` take.
fn join_shapes(rng: &mut Rng) -> Vec<(&'static str, String)> {
    const OD: &str = "FROM orders o JOIN districts d ON o.district = d.fid";
    let amount = rng.gen_range(10..80i64);
    let did = rng.gen_range(1..DISTRICTS);
    let (t0, t1) = time_range(rng);
    vec![
        (
            "left-only",
            format!(
                "{OD} WHERE o.geom WITHIN {} AND o.amount > {amount}",
                rect(rng)
            ),
        ),
        (
            "right-only",
            format!("{OD} WHERE d.fid < {did} AND d.name <> 'd1'"),
        ),
        (
            "both sides and cross-side",
            format!(
                "{OD} WHERE o.amount > d.fid * 10 AND st_within(o.geom, {}) AND d.fid <> {did}",
                rect(rng)
            ),
        ),
        (
            "bare names",
            format!("{OD} WHERE amount > {amount} AND name <> 'd2'"),
        ),
        (
            "ON conjuncts of one side",
            format!(
                "FROM orders o JOIN districts d ON o.amount > {amount} AND o.district = d.fid \
                 AND d.fid < {did} WHERE o.geom WITHIN {}",
                rect(rng)
            ),
        ),
        (
            "ON of one side only",
            format!("FROM orders o JOIN districts d ON d.fid = {did} WHERE o.amount > {amount}"),
        ),
        (
            "volatile stays above",
            format!("{OD} WHERE sleep_ms(0) = 0 AND o.amount > {amount}"),
        ),
        (
            "nested three-table",
            format!(
                "FROM (SELECT o.fid, o.time, o.amount, o.district, d.fid, d.name FROM orders o \
                 JOIN districts d ON o.district = d.fid WHERE o.time >= {t0}) s \
                 JOIN big v ON o.fid = v.fid \
                 WHERE d.name <> 'd3' AND o.amount > {amount} AND v.amount < 90 \
                 AND v.district = d.fid"
            ),
        ),
        (
            "nested, star subquery",
            format!(
                "FROM (SELECT * FROM orders o JOIN big v ON o.fid = v.fid) s \
                 JOIN districts d ON v.district = d.fid \
                 WHERE o.geom WITHIN {} AND v.amount > {amount} AND d.fid < {did}",
                rect(rng)
            ),
        ),
        (
            "temporal halves",
            format!(
                "{OD} WHERE o.geom WITHIN {} AND o.time >= {t0} AND {t1} > o.time",
                rect(rng)
            ),
        ),
        (
            "temporal halves in ON",
            format!(
                "FROM orders o JOIN districts d ON o.district = d.fid AND {t0} <= o.time \
                 AND o.time <= {t1}"
            ),
        ),
    ]
}

/// The select list and tail of each output form over `o.*` and the
/// district's `name` column, with whether the form orders its rows.
fn outputs(from: &str, name: &str, rng: &mut Rng) -> [(String, bool); 3] {
    let k = rng.gen_range(1..12u32);
    [
        (format!("SELECT o.fid, o.amount, {name} {from}"), false),
        (
            format!("SELECT {name}, count(*) AS n, sum(o.amount) AS total {from} GROUP BY {name}"),
            false,
        ),
        (
            format!("SELECT o.fid, {name} {from} ORDER BY o.amount DESC, o.fid LIMIT {k}"),
            true,
        ),
    ]
}

#[test]
fn optimized_and_unoptimized_plans_agree() {
    let (mut c, dir) = client();
    let mut rng = Rng::seed_from_u64(0x0a11_a5e5);
    let mut rows = 0;
    for _ in 0..ROUNDS {
        for (shape, from) in join_shapes(&mut rng) {
            for (sql, ordered) in outputs(&from, "d.name", &mut rng) {
                rows += check(&mut c, &sql, ordered)
                    .unwrap_or_else(|| panic!("{shape}: {sql} is an error"));
            }
        }

        // A subquery side re-using the alias: its name column is an
        // `o.name` too, and nothing may be routed by `o`.
        let from = format!(
            "FROM orders o JOIN (SELECT o.fid AS did, o.name FROM districts o) d \
             ON o.district = did WHERE o.amount > {} AND o.name <> 'd1'",
            rng.gen_range(10..80i64)
        );
        for (sql, ordered) in outputs(&from, "o.name", &mut rng) {
            rows += check(&mut c, &sql, ordered).expect("an alias re-used answers");
        }

        // A self-join routes each alias to its own scan of one table.
        let (r, amount) = (rect(&mut rng), rng.gen_range(10..80i64));
        let from = format!(
            "FROM orders a JOIN orders b ON a.district = b.district AND a.fid < b.fid \
             WHERE a.geom WITHIN {r} AND b.amount > {amount}"
        );
        for (sql, ordered) in [
            (format!("SELECT a.fid, b.fid, b.amount {from}"), false),
            (
                format!("SELECT a.district, count(*) AS n, sum(b.amount) AS total {from} GROUP BY a.district"),
                false,
            ),
            (
                format!("SELECT a.fid, b.fid {from} ORDER BY b.fid DESC, a.fid LIMIT 9"),
                true,
            ),
            // `*` above a join: both inputs stay whole, in schema order.
            (format!("SELECT * {from}"), false),
        ] {
            rows += check(&mut c, &sql, ordered).expect("a self-join answers");
        }

        // Temporal halves on one table, either operand order, strict
        // and not — equal to the BETWEEN spelling where that is exact.
        let (r, (t0, t1)) = (rect(&mut rng), time_range(&mut rng));
        for halves in [
            format!("time >= {t0} AND time <= {t1}"),
            format!("{t0} <= time AND {t1} >= time"),
            format!("time > {t0} AND amount > 5 AND time < {t1}"),
            format!("time >= {t1} AND time <= {t0}"),
        ] {
            let sql = format!("SELECT fid, time FROM orders WHERE geom WITHIN {r} AND {halves}");
            rows += check(&mut c, &sql, false).expect("a range scan answers");
        }
    }
    // The draws must not all select nothing.
    assert!(rows > 1_000, "only {rows} rows compared");

    // Errors stay errors of the same kind wherever the conjunct went.
    for sql in [
        // Unknown qualified column above a join: sunk to `o`'s scan.
        "SELECT o.fid FROM orders o JOIN districts d ON o.district = d.fid WHERE o.nope > 1",
        "SELECT o.fid FROM orders o JOIN districts d ON o.district = d.fid AND d.nope = 1",
        // Ambiguous bare name: stays above, both inputs have a `fid`.
        "SELECT o.fid FROM orders o JOIN districts d ON o.district = d.fid WHERE fid > 3",
        "SELECT d.name, count(*) AS n FROM orders o JOIN districts d ON o.district = d.fid \
         WHERE geom WITHIN st_makeMBR(116, 39, 117, 40) GROUP BY d.name",
        // An alias nothing carries.
        "SELECT o.fid FROM orders o JOIN districts d ON o.district = d.fid WHERE x.nope > 1",
    ] {
        assert_eq!(check(&mut c, sql, false), None, "{sql} must be an error");
    }
    std::fs::remove_dir_all(dir).ok();
}
