//! SQL edge cases: error paths, odd-but-legal statements, and semantics
//! corners that the happy-path e2e tests don't touch.

use just_core::{Engine, EngineConfig, SessionManager};
use just_ql::Client;
use just_storage::Value;
use std::sync::Arc;

fn client(name: &str) -> (Client, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "just-ql-edge-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let engine = Arc::new(Engine::open(&dir, EngineConfig::default()).unwrap());
    let sessions = SessionManager::new(engine);
    (Client::new(sessions.session("edge")), dir)
}

#[test]
fn select_without_from() {
    let (mut c, dir) = client("nofrom");
    let r = c
        .execute("SELECT 1 + 2 AS a, upper('just') AS b")
        .unwrap()
        .into_dataset()
        .unwrap();
    assert_eq!(r.rows[0].values[0], Value::Int(3));
    assert_eq!(r.rows[0].values[1].as_str(), Some("JUST"));
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn limit_zero_and_empty_results() {
    let (mut c, dir) = client("limit0");
    c.execute("CREATE TABLE t (fid integer:primary key, geom point)")
        .unwrap();
    c.execute("INSERT INTO t VALUES (1, st_makePoint(1, 2))")
        .unwrap();
    let r = c
        .execute("SELECT fid FROM t LIMIT 0")
        .unwrap()
        .into_dataset()
        .unwrap();
    assert!(r.is_empty());
    // Aggregate over an empty relation still yields one row.
    let agg = c
        .execute("SELECT count(*) AS n FROM t WHERE fid = 999")
        .unwrap()
        .into_dataset()
        .unwrap();
    assert_eq!(agg.rows[0].values[0], Value::Int(0));
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn between_is_inclusive_and_symmetric() {
    let (mut c, dir) = client("between");
    c.execute("CREATE TABLE t (fid integer:primary key, time date, geom point)")
        .unwrap();
    c.execute(
        "INSERT INTO t VALUES (1, 100, st_makePoint(1,1)), \
         (2, 200, st_makePoint(1,1)), (3, 300, st_makePoint(1,1))",
    )
    .unwrap();
    let r = c
        .execute("SELECT fid FROM t WHERE time BETWEEN 100 AND 200 ORDER BY fid")
        .unwrap()
        .into_dataset()
        .unwrap();
    assert_eq!(r.len(), 2, "BETWEEN includes both endpoints");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn not_and_comparison_operators() {
    let (mut c, dir) = client("not");
    c.execute("CREATE TABLE t (fid integer:primary key, name string)")
        .unwrap();
    c.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')")
        .unwrap();
    let r = c
        .execute("SELECT fid FROM t WHERE NOT name = 'b' AND fid <> 3 ORDER BY fid")
        .unwrap()
        .into_dataset()
        .unwrap();
    assert_eq!(r.len(), 1);
    assert_eq!(r.rows[0].values[0], Value::Int(1));
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn a_multi_row_insert_with_a_rejected_row_writes_nothing() {
    let (mut c, dir) = client("insert-all-or-nothing");
    c.execute("CREATE TABLE t (fid string:primary key, geom point)")
        .unwrap();
    c.execute("INSERT INTO t VALUES ('a', st_makePoint(1, 2))")
        .unwrap();
    let count = |c: &mut Client| {
        let r = c.execute("SELECT count(*) AS n FROM t").unwrap();
        r.into_dataset().unwrap().rows[0].values[0].clone()
    };
    // Storage refuses an empty id and one past 48 bytes, after the
    // statement's first rows were accepted.
    for bad in [String::new(), "x".repeat(49)] {
        let sql = format!(
            "INSERT INTO t VALUES ('b', st_makePoint(1, 2)), \
             ('c', st_makePoint(3, 4)), ('{bad}', st_makePoint(5, 6))"
        );
        assert!(c.execute(&sql).is_err(), "{sql}");
        assert_eq!(count(&mut c), Value::Int(1), "{sql}");
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn analyze_errors_are_reported_not_panicked() {
    let (mut c, dir) = client("errors");
    c.execute("CREATE TABLE t (fid integer:primary key, geom point)")
        .unwrap();
    // Unknown column.
    assert!(c.execute("SELECT missing FROM t").is_err());
    // Unknown table.
    assert!(c.execute("SELECT 1 FROM ghost").is_err());
    // Unknown function.
    assert!(c.execute("SELECT st_frobnicate(1) FROM t").is_err());
    // Arity mismatch on INSERT.
    assert!(c.execute("INSERT INTO t VALUES (1)").is_err());
    // Aggregate mixed with non-grouped column.
    assert!(c.execute("SELECT fid, count(*) FROM t").is_err());
    // Creating a duplicate table.
    assert!(c
        .execute("CREATE TABLE t (fid integer:primary key, geom point)")
        .is_err());
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn name_resolution_does_not_depend_on_row_count() {
    let (mut c, dir) = client("names");
    c.execute("CREATE TABLE e (fid integer:primary key, v integer)")
        .unwrap();
    let statements = [
        ("SELECT sum(nosuch) FROM e", "unknown column 'nosuch'"),
        (
            "SELECT fid FROM e WHERE nosuch > 1",
            "unknown column 'nosuch'",
        ),
        (
            "SELECT * FROM e a JOIN e b ON a.nosuch = b.fid",
            "unknown column 'a.nosuch'",
        ),
        (
            "SELECT nofunc(v) FROM e WHERE 1=0",
            "unknown function 'nofunc'",
        ),
        ("SELECT sum(*) FROM e", "sum(*) is not supported"),
        (
            "SELECT fid FROM e WHERE v + count(v) > 0",
            "aggregate 'count' is not allowed here",
        ),
        // Row functions analyze their arguments before the fused filter
        // (kept above the LIMIT) can raise a runtime error.
        (
            "SELECT st_trajStayPoint(nosuch) FROM (SELECT * FROM e LIMIT 5) t WHERE v / 0 > 1",
            "unknown column 'nosuch'",
        ),
        (
            "SELECT st_DBSCAN(nosuch, 2, 0.1) FROM (SELECT * FROM e LIMIT 5) t WHERE v / 0 > 1",
            "unknown column 'nosuch'",
        ),
    ];
    // Against the empty table, then again once it holds a row: the same
    // typed error both times.
    for populated in [false, true] {
        if populated {
            c.execute("INSERT INTO e VALUES (1, 10)").unwrap();
        }
        for (sql, message) in statements {
            match c.execute(sql) {
                Err(e) => {
                    assert_eq!(e.code(), "ANALYZE", "{sql} (populated={populated}): {e}");
                    assert_eq!(e.message(), message, "{sql} (populated={populated})");
                }
                Ok(r) => panic!("{sql} (populated={populated}) succeeded: {r:?}"),
            }
        }
    }
    // Runtime value errors stay row-dependent.
    c.execute("DROP TABLE e").unwrap();
    c.execute("CREATE TABLE e (fid integer:primary key, v integer)")
        .unwrap();
    assert!(c.execute("SELECT v / 0 FROM e").is_ok());
    c.execute("INSERT INTO e VALUES (1, 10)").unwrap();
    assert_eq!(c.execute("SELECT v / 0 FROM e").unwrap_err().code(), "EVAL");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn store_view_into_existing_table_appends() {
    let (mut c, dir) = client("storeview");
    c.execute("CREATE TABLE src (fid integer:primary key, geom point)")
        .unwrap();
    c.execute("INSERT INTO src VALUES (1, st_makePoint(1,1)), (2, st_makePoint(2,2))")
        .unwrap();
    c.execute("CREATE VIEW v AS SELECT * FROM src").unwrap();
    c.execute("STORE VIEW v TO TABLE dst").unwrap();
    // Second store into the now-existing table: same ids overwrite
    // (update semantics), so the count stays stable.
    c.execute("STORE VIEW v TO TABLE dst").unwrap();
    let n = c
        .execute("SELECT count(*) AS n FROM dst")
        .unwrap()
        .into_dataset()
        .unwrap();
    assert_eq!(n.rows[0].values[0], Value::Int(2));
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn order_by_desc_with_nulls() {
    let (mut c, dir) = client("nulls");
    c.execute("CREATE TABLE t (fid integer:primary key, name string)")
        .unwrap();
    c.execute("INSERT INTO t VALUES (1, 'x'), (2, null), (3, 'y')")
        .unwrap();
    let r = c
        .execute("SELECT fid, name FROM t ORDER BY name DESC")
        .unwrap()
        .into_dataset()
        .unwrap();
    // NULL sorts lowest; DESC puts it last.
    assert_eq!(r.rows[2].values[0], Value::Int(2));
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn stay_point_table_function_via_sql() {
    let (mut c, dir) = client("staypoints");
    c.execute("CREATE TABLE tr AS trajectory").unwrap();
    // Build a trajectory with a 30-minute stop via the API, then query the
    // stay points through SQL.
    let mut samples = Vec::new();
    for i in 0..40i64 {
        samples.push(just_compress::gps::GpsSample {
            lng: 116.30 + i as f64 * 2e-4,
            lat: 39.90,
            time_ms: i * 1000,
        });
    }
    for i in 0..30i64 {
        samples.push(just_compress::gps::GpsSample {
            lng: 116.308,
            lat: 39.9001,
            time_ms: 60_000 + i * 60_000,
        });
    }
    let mbr = just_geo::Rect::new(116.30, 39.90, 116.309, 39.9002);
    let row = just_storage::Row::new(vec![
        Value::Str("t1".into()),
        Value::Geom(just_geo::Geometry::Rect(mbr)),
        Value::Date(0),
        Value::Date(60_000 + 29 * 60_000),
        Value::Geom(just_geo::Geometry::Point(just_geo::Point::new(
            116.30, 39.90,
        ))),
        Value::Geom(just_geo::Geometry::Point(just_geo::Point::new(
            116.308, 39.9001,
        ))),
        Value::GpsList(samples),
    ]);
    c.session().insert("tr", &[row]).unwrap();
    let r = c
        .execute("SELECT st_trajStayPoint(gps_list) FROM tr")
        .unwrap()
        .into_dataset()
        .unwrap();
    assert_eq!(r.columns, vec!["stay_point", "t_arrive", "t_leave"]);
    assert_eq!(r.len(), 1, "one stay detected");
    std::fs::remove_dir_all(dir).ok();
}
