//! Operator labels are an interface: the benchmark's trace sorts operator
//! self-time into per-layer metrics by label prefix (`Scan`, `hash_join`,
//! `Join`, `Aggregate`, `topk`, `Sort`, `Knn`, the rest), and
//! `figures fig8` prints them. This pins, for one query of every operator
//! shape, the `EXPLAIN ANALYZE` span tree and the operator lines of plain
//! `EXPLAIN` — the same tree, since both come from the pipeline the
//! executor opens.

use just_core::{Engine, EngineConfig, SessionManager};
use just_ql::Client;
use std::sync::Arc;

/// `(query, operator tree)`, two spaces of indent per level.
const CASES: [(&str, &str); 14] = [
    // A windowed scan with a residual.
    (
        "SELECT fid, name FROM orders \
         WHERE geom WITHIN st_makeMBR(115.995, 38.995, 116.045, 39.045) AND fid % 2 = 1",
        r#"Project ["fid", "name"]
  Scan [orders] project=["fid", "geom", "name"] spatial=(geom within [115.995,38.995,116.045,39.045]) +residual"#,
    ),
    // A filter above an aggregate: it fuses into the projection there.
    (
        "SELECT * FROM (SELECT name, count(*) AS n FROM orders GROUP BY name) s WHERE n > 0",
        r#"FilterProject [Binary { op: Gt, lhs: Column("n"), rhs: Literal(Int(0)) }] ["name", "n"]
  Aggregate keys=["name"] aggs=["n"]
    Scan [orders] project=["name"]"#,
    ),
    // A projection.
    (
        "SELECT fid + 1 AS x FROM orders",
        r#"Project ["x"]
  Scan [orders] project=["fid"]"#,
    ),
    // Filter + project under a projection.
    (
        "SELECT name, n + 1 AS m FROM \
         (SELECT name, count(*) AS n FROM orders GROUP BY name) s WHERE n > 0",
        r#"Project ["name", "m"]
  FilterProject [Binary { op: Gt, lhs: Column("n"), rhs: Literal(Int(0)) }] ["name", "n"]
    Aggregate keys=["name"] aggs=["n"]
      Scan [orders] project=["name"]"#,
    ),
    // A full sort.
    (
        "SELECT fid, time FROM orders ORDER BY time DESC",
        r#"Sort [1 keys]
  Project ["fid", "time"]
    Scan [orders] project=["fid", "time"]"#,
    ),
    // TOP-K.
    (
        "SELECT fid FROM orders ORDER BY time DESC LIMIT 3",
        r#"Limit [3]
  Project ["fid"]
    topk [k=3, 1 keys]
      Project ["fid", "time"]
        Scan [orders] project=["fid", "time"]"#,
    ),
    // A hash join with a residual.
    (
        "SELECT o.fid, d.name FROM orders o JOIN districts d \
         ON o.fid = d.fid AND o.time > d.fid",
        r#"Project ["o.fid", "d.name"]
  hash_join [1 keys] +residual
    Scan [orders] project=["o.fid", "o.time"]
    Scan [districts] project=["d.fid", "d.name"]"#,
    ),
    // A nested-loop join.
    (
        "SELECT o.fid, d.name FROM orders o JOIN districts d ON o.fid < d.fid",
        r#"Project ["o.fid", "d.name"]
  Join [Binary { op: Lt, lhs: Column("o.fid"), rhs: Column("d.fid") }]
    Scan [orders] project=["o.fid"]
    Scan [districts] project=["d.fid", "d.name"]"#,
    ),
    // A cross join: the one-sided `ON` sinks into its scan.
    (
        "SELECT o.fid, d.name FROM orders o JOIN districts d ON o.fid < 3",
        r#"Project ["o.fid", "d.name"]
  Join [Literal(Bool(true))]
    Scan [orders] project=["o.fid"] +residual
    Scan [districts] project=["d.name"]"#,
    ),
    // k-NN.
    (
        "SELECT fid FROM orders WHERE geom IN st_KNN(st_makePoint(116.0, 39.0), 3)",
        r#"Project ["fid"]
  Knn [orders] q=(116,39) k=3"#,
    ),
    // A 1-N table function.
    (
        "SELECT st_trajSegmentation(gps_list) FROM tr",
        r#"Project ["st_trajsegmentation"]
  Scan [tr] project=["gps_list"]"#,
    ),
    // Clustering.
    (
        "SELECT st_DBSCAN(geom, 2, 0.02) FROM orders",
        r#"Project ["st_dbscan"]
  Scan [orders] project=["geom"]"#,
    ),
    // A filter no projection absorbs.
    (
        "SELECT * FROM (SELECT name FROM orders LIMIT 5) s WHERE name = 'n1'",
        r#"Filter [Binary { op: Eq, lhs: Column("name"), rhs: Literal(Str("n1")) }]
  Limit [5]
    Project ["name"]
      Scan [orders] project=["name"] limit=5"#,
    ),
    // Literal rows.
    (
        "SELECT 1 + 1 AS two",
        r#"Project ["two"]
  Values [1 rows]"#,
    ),
];

fn client() -> (Client, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("just-ql-labels-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let engine = Arc::new(Engine::open(&dir, EngineConfig::default()).unwrap());
    let mut c = Client::new(SessionManager::new(engine).session("labels"));
    c.execute("CREATE TABLE orders (fid integer:primary key, name string, time date, geom point)")
        .unwrap();
    let values: Vec<String> = (0..20)
        .map(|i| {
            let (lng, lat) = (116.0 + (i % 5) as f64 * 0.01, 39.0 + (i / 5) as f64 * 0.01);
            format!(
                "({i}, 'n{}', {}, st_makePoint({lng}, {lat}))",
                i % 3,
                i * 1000
            )
        })
        .collect();
    c.execute(&format!("INSERT INTO orders VALUES {}", values.join(", ")))
        .unwrap();
    c.execute("CREATE TABLE districts (fid integer:primary key, name string)")
        .unwrap();
    c.execute("INSERT INTO districts VALUES (1, 'a'), (2, 'b'), (3, 'c')")
        .unwrap();
    c.execute("CREATE TABLE tr AS trajectory").unwrap();
    (c, dir)
}

/// The operator spans under `EXPLAIN ANALYZE`'s `execute` span, as an
/// indented tree.
fn span_tree(c: &mut Client, sql: &str) -> String {
    let (_, trace) = c.explain_analyze(sql).unwrap();
    let execute = trace.children(trace.root());
    let execute = execute.into_iter().find(|&s| trace.name(s) == "execute");
    let mut stack = vec![(trace.children(execute.unwrap())[0], 0)];
    let mut lines = Vec::new();
    while let Some((span, depth)) = stack.pop() {
        lines.push(format!("{}{}", "  ".repeat(depth), trace.name(span)));
        let children = trace.children(span).into_iter().rev();
        stack.extend(children.map(|child| (child, depth + 1)));
    }
    lines.join("\n")
}

/// Plain `EXPLAIN`'s operator lines: every line but the `program` headers
/// and the listings indented under them.
fn explain_tree(c: &mut Client, sql: &str) -> String {
    let listing = c.execute(&format!("EXPLAIN {sql}")).unwrap();
    let mut program_indent = None;
    let mut lines = Vec::new();
    for row in listing.into_dataset().unwrap().rows {
        let line = row.values[0].as_str().unwrap().to_string();
        let indent = line.len() - line.trim_start().len();
        if line.trim_start().starts_with("program ") {
            program_indent = Some(indent);
        } else if program_indent.is_none_or(|p| indent <= p) {
            program_indent = None;
            lines.push(line);
        }
    }
    lines.join("\n")
}

#[test]
fn explain_and_explain_analyze_label_every_operator_as_pinned() {
    let (mut c, dir) = client();
    for (sql, want) in CASES {
        assert_eq!(span_tree(&mut c, sql), want, "EXPLAIN ANALYZE {sql}");
        assert_eq!(explain_tree(&mut c, sql), want, "EXPLAIN {sql}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
