//! End-to-end JustQL tests: every statement class from the paper, run
//! against a real engine instance.

use just_core::{Engine, EngineConfig, SessionManager};
use just_ql::{optimize, parse, reference, Client, LogicalPlan, Statement};
use just_storage::Value;
use std::sync::Arc;

const HOUR_MS: i64 = 3_600_000;

fn client(name: &str) -> (Client, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "just-ql-e2e-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let engine = Arc::new(Engine::open(&dir, EngineConfig::default()).unwrap());
    let sessions = SessionManager::new(engine);
    (Client::new(sessions.session("e2e")), dir)
}

fn setup_orders(c: &mut Client) {
    c.execute(
        "CREATE TABLE orders (fid integer:primary key, name string, \
         time date, geom point:srid=4326)",
    )
    .unwrap();
    // A 10x10 grid of orders over Beijing across 48 half-hours.
    let mut values = Vec::new();
    for i in 0..100i64 {
        let lng = 116.0 + (i % 10) as f64 * 0.01;
        let lat = 39.0 + (i / 10) as f64 * 0.01;
        let t = i * HOUR_MS / 2;
        values.push(format!(
            "({i}, 'order-{i}', {t}, st_makePoint({lng}, {lat}))"
        ));
    }
    c.execute(&format!("INSERT INTO orders VALUES {}", values.join(", ")))
        .unwrap();
}

#[test]
fn ddl_lifecycle() {
    let (mut c, dir) = client("ddl");
    c.execute("CREATE TABLE t1 (fid integer:primary key, geom point)")
        .unwrap();
    c.execute("CREATE TABLE tr AS trajectory").unwrap();
    let tables = c.execute("SHOW TABLES").unwrap();
    let names: Vec<String> = tables
        .dataset()
        .unwrap()
        .rows
        .iter()
        .map(|r| r.values[0].as_str().unwrap().to_string())
        .collect();
    assert_eq!(names, vec!["t1", "tr"]);
    let desc = c.execute("DESC TABLE tr").unwrap();
    let d = desc.dataset().unwrap();
    assert_eq!(d.columns, vec!["field", "type", "options"]);
    assert!(d
        .rows
        .iter()
        .any(|r| r.values[0].as_str() == Some("gps_list")
            && r.values[2].as_str().unwrap().contains("compress=gzip")));
    c.execute("DROP TABLE t1").unwrap();
    assert!(c.execute("DESC TABLE t1").is_err());
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn spatial_range_query_via_sql() {
    let (mut c, dir) = client("spatial");
    setup_orders(&mut c);
    let r = c
        .execute(
            "SELECT fid, name FROM orders WHERE geom WITHIN \
             st_makeMBR(115.995, 38.995, 116.025, 39.025)",
        )
        .unwrap();
    let d = r.into_dataset().unwrap();
    // 3x3 grid cells qualify.
    assert_eq!(d.len(), 9);
    assert_eq!(d.columns, vec!["fid", "name"]);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn st_range_query_via_sql() {
    let (mut c, dir) = client("strange");
    setup_orders(&mut c);
    let all = c
        .execute(
            "SELECT fid FROM orders WHERE geom WITHIN \
             st_makeMBR(115.9, 38.9, 116.2, 39.2)",
        )
        .unwrap()
        .into_dataset()
        .unwrap();
    let windowed = c
        .execute(&format!(
            "SELECT fid FROM orders WHERE geom WITHIN \
             st_makeMBR(115.9, 38.9, 116.2, 39.2) AND time BETWEEN 0 AND {}",
            10 * HOUR_MS
        ))
        .unwrap()
        .into_dataset()
        .unwrap();
    assert_eq!(all.len(), 100);
    assert!(windowed.len() < all.len());
    assert_eq!(windowed.len(), 21, "t in [0, 10h] at 30min spacing");

    // The comparison spelling of the same range, operands either way
    // round, plans the same time window and answers alike.
    for halves in [
        format!("time >= 0 AND time <= {}", 10 * HOUR_MS),
        format!("0 <= time AND {} >= time", 10 * HOUR_MS),
    ] {
        let sql = format!(
            "SELECT fid FROM orders WHERE geom WITHIN \
             st_makeMBR(115.9, 38.9, 116.2, 39.2) AND {halves}"
        );
        let (rows, trace) = c.explain_analyze(&sql).unwrap();
        assert_eq!(rows.rows, windowed.rows, "{sql}");
        let plan = trace.render();
        assert!(plan.contains("time=(time in [0,36000000])"), "{plan}");
        assert!(!plan.contains("+residual"), "{plan}");
    }
    // A strict bound drops the row on it.
    let strict = c
        .execute(&format!(
            "SELECT fid FROM orders WHERE geom WITHIN \
             st_makeMBR(115.9, 38.9, 116.2, 39.2) AND time > 0 AND time < {}",
            10 * HOUR_MS
        ))
        .unwrap()
        .into_dataset()
        .unwrap();
    assert_eq!(strict.len(), 19);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn knn_query_via_sql() {
    let (mut c, dir) = client("knn");
    setup_orders(&mut c);
    let r = c
        .execute(
            "SELECT fid, distance FROM orders \
             WHERE geom IN st_KNN(st_makePoint(116.0, 39.0), 5)",
        )
        .unwrap()
        .into_dataset()
        .unwrap();
    assert_eq!(r.len(), 5);
    // Nearest is order 0 at exactly the query point.
    assert_eq!(r.rows[0].values[0], Value::Int(0));
    assert_eq!(r.rows[0].values[1], Value::Float(0.0));
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn views_and_aggregates() {
    let (mut c, dir) = client("views");
    setup_orders(&mut c);
    c.execute(
        "CREATE VIEW beijing AS SELECT * FROM orders WHERE geom WITHIN \
         st_makeMBR(115.9, 38.9, 116.05, 39.2)",
    )
    .unwrap();
    let shown = c.execute("SHOW VIEWS").unwrap().into_dataset().unwrap();
    assert_eq!(shown.len(), 1);
    // Aggregate over the view ("one query, multiple usages").
    let agg = c
        .execute("SELECT count(*) AS n, min(fid) AS lo, max(fid) AS hi FROM beijing")
        .unwrap()
        .into_dataset()
        .unwrap();
    assert_eq!(agg.rows[0].values[0], Value::Int(60));
    assert_eq!(agg.rows[0].values[1], Value::Int(0));
    // Store the view into a new table and query it back.
    c.execute("STORE VIEW beijing TO TABLE beijing_orders")
        .unwrap();
    let back = c
        .execute("SELECT count(*) AS n FROM beijing_orders")
        .unwrap()
        .into_dataset()
        .unwrap();
    assert_eq!(back.rows[0].values[0], Value::Int(60));
    c.execute("DROP VIEW beijing").unwrap();
    assert!(c.execute("SELECT * FROM beijing").is_err());
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn group_by_order_limit() {
    let (mut c, dir) = client("groupby");
    setup_orders(&mut c);
    // Group by longitude column (10 groups of 10).
    let r = c
        .execute(
            "SELECT st_x(geom) AS lng, count(*) AS n FROM orders \
             GROUP BY st_x(geom) ORDER BY n DESC, lng LIMIT 3",
        )
        .unwrap()
        .into_dataset()
        .unwrap();
    assert_eq!(r.len(), 3);
    for row in &r.rows {
        assert_eq!(row.values[1], Value::Int(10));
    }
    // Ties broken ascending by lng.
    let lngs: Vec<f64> = r
        .rows
        .iter()
        .map(|r| r.values[0].as_float().unwrap())
        .collect();
    assert!(lngs.windows(2).all(|w| w[0] <= w[1]));
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn join_via_sql() {
    let (mut c, dir) = client("join");
    c.execute("CREATE TABLE a (k integer:primary key, x string)")
        .unwrap();
    c.execute("CREATE TABLE b (k integer:primary key, y string)")
        .unwrap();
    c.execute("INSERT INTO a VALUES (1, 'a1'), (2, 'a2'), (3, 'a3')")
        .unwrap();
    c.execute("INSERT INTO b VALUES (2, 'b2'), (3, 'b3'), (4, 'b4')")
        .unwrap();
    let r = c
        .execute("SELECT l.x, r.y FROM a l JOIN b r ON l.k = r.k ORDER BY x")
        .unwrap()
        .into_dataset()
        .unwrap();
    assert_eq!(r.len(), 2);
    assert_eq!(r.rows[0].values[0].as_str(), Some("a2"));
    assert_eq!(r.rows[0].values[1].as_str(), Some("b2"));
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn subquery_with_expression_order_by_hidden_column() {
    let (mut c, dir) = client("subq");
    setup_orders(&mut c);
    // The paper's Section VI statement shape.
    let r = c
        .execute(
            "SELECT name, geom FROM (SELECT * FROM orders) t \
             WHERE fid = 3 * 3 AND geom WITHIN st_makeMBR(115, 38, 117, 41) \
             ORDER BY time",
        )
        .unwrap()
        .into_dataset()
        .unwrap();
    assert_eq!(r.len(), 1);
    assert_eq!(r.columns, vec!["name", "geom"]);
    assert_eq!(r.rows[0].values[0].as_str(), Some("order-9"));
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn explain_shows_figure8_optimization() {
    let (mut c, dir) = client("explain");
    setup_orders(&mut c);
    let (analyzed, optimized) = c
        .explain(
            "SELECT name, geom FROM (SELECT * FROM orders) t \
             WHERE fid = 52 * 9 AND geom WITHIN st_makeMBR(1, 2, 3, 4) \
             ORDER BY time",
        )
        .unwrap();
    assert!(analyzed.contains("Filter"), "{analyzed}");
    assert!(analyzed.contains("52"), "{analyzed}");
    assert!(!optimized.contains("Filter"), "{optimized}");
    assert!(!optimized.contains("52"), "{optimized}");
    assert!(optimized.contains("spatial="), "{optimized}");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn load_csv_with_config_and_filter() {
    let (mut c, dir) = client("load");
    c.execute("CREATE TABLE pts (fid integer:primary key, time date, geom point)")
        .unwrap();
    let csv = dir.join("input.csv");
    std::fs::write(
        &csv,
        "id,ts,lng,lat,city\n\
         1,1000,116.40,39.90,beijing\n\
         2,2000,121.47,31.23,shanghai\n\
         3,3000,116.41,39.91,beijing\n",
    )
    .unwrap();
    let msg = c
        .execute(&format!(
            "LOAD csv:'{}' TO pts CONFIG {{
                'fid': 'to_int(id)',
                'time': 'long_to_date_ms(ts)',
                'geom': 'lng_lat_to_point(lng, lat)'
            }} FILTER 'city = ''beijing'''",
            csv.display()
        ))
        .unwrap();
    assert_eq!(msg.message(), Some("2 rows loaded"));
    let r = c
        .execute("SELECT fid FROM pts ORDER BY fid")
        .unwrap()
        .into_dataset()
        .unwrap();
    assert_eq!(r.len(), 2);
    assert_eq!(r.rows[1].values[0], Value::Int(3));
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn coordinate_transform_one_to_one() {
    let (mut c, dir) = client("transform");
    setup_orders(&mut c);
    let r = c
        .execute("SELECT st_x(st_WGS84ToGCJ02(geom)) - st_x(geom) AS dx FROM orders LIMIT 5")
        .unwrap()
        .into_dataset()
        .unwrap();
    assert_eq!(r.len(), 5);
    for row in &r.rows {
        let dx = row.values[0].as_float().unwrap().abs();
        assert!(dx > 1e-5 && dx < 0.02, "offset {dx} out of GCJ range");
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn dbscan_n_to_m() {
    let (mut c, dir) = client("dbscan");
    setup_orders(&mut c);
    // All 100 points form one dense cluster at eps=0.02.
    let r = c
        .execute("SELECT st_DBSCAN(geom, 4, 0.02) FROM orders")
        .unwrap()
        .into_dataset()
        .unwrap();
    assert_eq!(r.len(), 100);
    assert_eq!(r.columns, vec!["geom", "cluster"]);
    assert!(r.rows.iter().all(|row| row.values[1] == Value::Int(0)));
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn result_set_cursor_spills_large_results() {
    let (mut c, dir) = client("cursor");
    setup_orders(&mut c);
    // Force spilling with a tiny threshold by going through the engine
    // config default (8 MiB won't spill 100 rows) — use many duplicated
    // rows via a cross join to grow the result.
    let mut rs = c
        .execute_query("SELECT l.fid FROM orders l JOIN orders r ON 1 = 1")
        .unwrap();
    assert_eq!(rs.total_rows(), 10_000);
    let mut n = 0;
    while rs.next().unwrap().is_some() {
        n += 1;
    }
    assert_eq!(n, 10_000);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn historical_update_via_sql() {
    let (mut c, dir) = client("update");
    c.execute("CREATE TABLE t (fid integer:primary key, time date, geom point)")
        .unwrap();
    c.execute("INSERT INTO t VALUES (1, 1000, st_makePoint(116.4, 39.9))")
        .unwrap();
    // Same primary key, new location: an in-place historical update.
    c.execute("INSERT INTO t VALUES (1, 99000, st_makePoint(121.5, 31.2))")
        .unwrap();
    let bj = c
        .execute("SELECT fid FROM t WHERE geom WITHIN st_makeMBR(116, 39, 117, 40)")
        .unwrap()
        .into_dataset()
        .unwrap();
    assert!(bj.is_empty());
    let sh = c
        .execute("SELECT fid FROM t WHERE geom WITHIN st_makeMBR(121, 31, 122, 32)")
        .unwrap()
        .into_dataset()
        .unwrap();
    assert_eq!(sh.len(), 1);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn limit_pushdown_stops_block_reads_early() {
    // The streaming read path contract, end to end through SQL: a
    // `LIMIT k` over a large flushed table must satisfy the query from a
    // fraction of the block lookups the full scan needs, because the
    // executor cancels the scan stream after the k-th matching row.
    let dir = std::env::temp_dir().join(format!(
        "just-ql-e2e-limitio-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let engine = Arc::new(Engine::open(&dir, EngineConfig::default()).unwrap());
    let sessions = SessionManager::new(engine.clone());
    let mut c = Client::new(sessions.session("e2e"));

    c.execute("CREATE TABLE pts (fid integer:primary key, name string, geom point)")
        .unwrap();
    for chunk in 0..10i64 {
        let mut values = Vec::new();
        for j in 0..300i64 {
            let i = chunk * 300 + j;
            let lng = 116.0 + (i % 50) as f64 * 0.001;
            let lat = 39.0 + (i / 50) as f64 * 0.001;
            values.push(format!(
                "({i}, 'record-with-some-padding-{i}', st_makePoint({lng}, {lat}))"
            ));
        }
        c.execute(&format!("INSERT INTO pts VALUES {}", values.join(", ")))
            .unwrap();
    }
    engine.flush_all().unwrap();

    let before = engine.io_snapshot();
    let full = c.execute("SELECT fid FROM pts").unwrap();
    assert_eq!(full.dataset().unwrap().len(), 3000);
    let full_io = engine.io_snapshot().since(&before);

    let before = engine.io_snapshot();
    let limited = c.execute("SELECT fid FROM pts LIMIT 10").unwrap();
    assert_eq!(limited.dataset().unwrap().len(), 10);
    let lim_io = engine.io_snapshot().since(&before);

    // Compare *block lookups* (disk reads + cache hits) so the warm
    // cache can't flatter the limited run.
    let full_lookups = full_io.blocks_read + full_io.cache_hits;
    let lim_lookups = lim_io.blocks_read + lim_io.cache_hits;
    assert!(
        lim_lookups * 5 < full_lookups,
        "LIMIT 10 should need <20% of the full scan's block lookups: \
         {lim_lookups} vs {full_lookups}"
    );
    assert!(
        lim_io.scan_early_terminations >= 1,
        "cancelled scan must be counted: {lim_io:?}"
    );
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn explain_lists_compiled_programs() {
    let (mut c, dir) = client("explain-bytecode");
    setup_orders(&mut c);
    let text = |r: just_ql::QueryResult| {
        r.into_dataset()
            .unwrap()
            .rows
            .into_iter()
            .map(|row| row.values[0].as_str().unwrap().to_string())
            .collect::<Vec<_>>()
            .join("\n")
    };

    // The residual predicate compiles against the stored schema: the
    // listing shows resolved columns and the generic arithmetic and
    // comparison opcodes.
    let plan = text(
        c.execute("EXPLAIN SELECT name FROM orders WHERE fid % 2 = 1 AND fid > 10")
            .unwrap(),
    );
    assert!(plan.contains("program residual:"), "{plan}");
    assert!(plan.contains("(fid)"), "{plan}");
    assert!(plan.contains("= arith r0 % r1"), "{plan}");
    assert!(plan.contains("= cmp r2 = r3"), "{plan}");
    assert!(plan.contains("mask.and"), "{plan}");
    assert!(plan.contains("ret r"), "{plan}");

    // Aggregates list one program per key / argument.
    let plan = text(
        c.execute("EXPLAIN SELECT name, sum(fid + 1) AS s FROM orders GROUP BY name")
            .unwrap(),
    );
    assert!(plan.contains("program key name:"), "{plan}");
    assert!(plan.contains("program sum s:"), "{plan}");

    // EXPLAIN ANALYZE runs the same operators and reports their rows.
    let plan = text(
        c.execute("EXPLAIN ANALYZE SELECT fid + 1 AS x FROM orders WHERE fid > 10")
            .unwrap(),
    );
    assert!(plan.contains("Scan [orders]"), "{plan}");
    assert!(plan.contains("rows="), "{plan}");

    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn explain_analyze_shows_join_and_topk_operators() {
    let (mut c, dir) = client("explain-join");
    c.execute("CREATE TABLE ja (k integer:primary key, x integer)")
        .unwrap();
    c.execute("CREATE TABLE jb (k integer:primary key, y integer)")
        .unwrap();
    c.execute("INSERT INTO ja VALUES (1, 10), (2, 20), (3, 30)")
        .unwrap();
    c.execute("INSERT INTO jb VALUES (2, 7), (3, 8), (4, 9)")
        .unwrap();
    let text = |r: just_ql::QueryResult| {
        r.into_dataset()
            .unwrap()
            .rows
            .into_iter()
            .map(|row| row.values[0].as_str().unwrap().to_string())
            .collect::<Vec<_>>()
            .join("\n")
    };

    // Equi join + ORDER BY + LIMIT: the trace shows the hash join with
    // its build/probe row counts and the fused TOP-K with prune stats.
    let plan = text(
        c.execute(
            "EXPLAIN ANALYZE SELECT l.x, r.y FROM ja l JOIN jb r ON l.k = r.k \
             ORDER BY x DESC LIMIT 2",
        )
        .unwrap(),
    );
    assert!(plan.contains("hash_join"), "{plan}");
    assert!(plan.contains("build_rows="), "{plan}");
    assert!(plan.contains("probe_rows="), "{plan}");
    assert!(plan.contains("topk"), "{plan}");
    assert!(plan.contains("rows_pruned="), "{plan}");
    assert!(!plan.contains("nested_loop"), "{plan}");

    // Non-equi conditions keep the nested-loop join operator.
    let plan = text(
        c.execute("EXPLAIN ANALYZE SELECT l.x, r.y FROM ja l JOIN jb r ON l.k < r.k")
            .unwrap(),
    );
    assert!(plan.contains("Join ["), "{plan}");
    assert!(!plan.contains("hash_join"), "{plan}");

    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn aggregate_folding_a_stored_scan_keeps_both_spans() {
    let (mut c, dir) = client("explain-agg");
    c.execute("CREATE TABLE fa (k integer:primary key, g integer)")
        .unwrap();
    let tuples: Vec<String> = (0..2500).map(|k| format!("({k}, {})", k % 7)).collect();
    c.execute(&format!("INSERT INTO fa VALUES {}", tuples.join(", ")))
        .unwrap();
    // More than two scan batches fold into seven groups: the scan's span
    // still reports the rows it read and its IO, the aggregate's its
    // groups, and the answer is the reference operators' answer.
    let sql = "SELECT g, count(*) AS n FROM fa WHERE k >= 100 GROUP BY g";
    let (data, trace) = c.explain_analyze(sql).unwrap();
    let execute = trace
        .children(trace.root())
        .into_iter()
        .find(|&s| trace.name(s) == "execute")
        .unwrap();
    let mut aggregate = trace.children(execute)[0];
    while !trace.name(aggregate).starts_with("Aggregate") {
        aggregate = trace.children(aggregate)[0];
    }
    assert_eq!(trace.rows(aggregate), Some(7));
    let scan = trace.children(aggregate)[0];
    assert!(trace.name(scan).starts_with("Scan [fa]"));
    assert_eq!(trace.rows(scan), Some(2400));
    assert!(trace.attr(scan, "blocks_read").is_some());

    let Statement::Query(query) = parse(sql).unwrap() else {
        panic!("a query");
    };
    let plan = optimize(LogicalPlan::from_select(&query).unwrap()).unwrap();
    let mut want = reference::run(c.session(), &plan).unwrap().rows;
    let mut got = data.rows;
    want.sort_by_key(|r| r.values[0].as_int());
    got.sort_by_key(|r| r.values[0].as_int());
    assert_eq!(got, want);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn benchmark_topk_gates_its_scan_and_keeps_k_rows() {
    let (mut c, dir) = client("topk-gate");
    // The benchmark's `orders` and its `topk` statement, over a window
    // holding three scan batches' worth of rows.
    c.execute(
        "CREATE TABLE orders (fid integer:primary key, time date, geom point:srid=4326, \
         amount float, district integer)",
    )
    .unwrap();
    let tuples: Vec<String> = (0..3_000i64)
        .map(|i| {
            let (lng, lat) = (
                116.0 + (i % 60) as f64 * 0.005,
                39.0 + (i / 60) as f64 * 0.005,
            );
            let amount = (i * 7919) % 1000;
            format!(
                "({i}, {}, st_makePoint({lng}, {lat}), {amount}.5, {})",
                i * HOUR_MS,
                i % 16
            )
        })
        .collect();
    c.execute(&format!("INSERT INTO orders VALUES {}", tuples.join(", ")))
        .unwrap();
    let sql = "SELECT fid, amount FROM orders WHERE geom WITHIN \
               st_makeMBR(115.99, 38.99, 116.31, 39.26) ORDER BY amount DESC LIMIT 10";
    let (data, trace) = c.explain_analyze(sql).unwrap();

    // Limit → topk → Project → Scan, as `EXPLAIN ANALYZE` shows it.
    let execute = trace
        .children(trace.root())
        .into_iter()
        .find(|&s| trace.name(s) == "execute")
        .unwrap();
    let limit = trace.children(execute)[0];
    let topk = trace.children(limit)[0];
    let project = trace.children(topk)[0];
    let scan = trace.children(project)[0];
    let names = [limit, topk, project, scan].map(|s| trace.name(s).to_string());
    assert!(
        names[0].starts_with("Limit") && names[1].starts_with("topk"),
        "{names:?}"
    );
    assert!(
        names[2].starts_with("Project") && names[3].starts_with("Scan [orders]"),
        "{names:?}"
    );
    assert_eq!(trace.rows(topk), Some(10));
    let (gated, keys) = (
        trace.attr(scan, "rows_gated"),
        trace.attr(scan, "keys_scanned"),
    );
    assert!(
        gated > Some(0),
        "the heap's threshold gated nothing: {gated:?} of {keys:?}"
    );
    // Only gate survivors reach TOP-K.
    assert!(trace.rows(scan) < Some(3_000), "{:?}", trace.rows(scan));

    let Statement::Query(q) = parse(sql).unwrap() else {
        panic!("a query")
    };
    let plan = optimize(LogicalPlan::from_select(&q).unwrap()).unwrap();
    assert_eq!(data, reference::run(c.session(), &plan).unwrap());
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn explain_and_executor_agree_on_aliased_scan_headers() {
    use just_ql::{optimize, parse, LogicalPlan, Statement};
    let (mut c, dir) = client("scan-header");
    setup_orders(&mut c);

    // (query, the header of its aliased scan). A scan's projection is the
    // sorted list of names the operators above it mention; it is advisory.
    let cases: [(&str, &[&str]); 3] = [
        // Every name resolves: the header follows the projection, not the
        // schema (`geom` is the table's last field).
        (
            "SELECT st_x(o.geom) AS x, o.time + 0 AS t FROM orders o",
            &["o.geom", "o.time"],
        ),
        // `nope` does not resolve and is skipped.
        (
            "SELECT st_x(o.geom) AS x, nope + 0 AS n FROM orders o",
            &["o.geom"],
        ),
        // Nothing resolves: the scan keeps every column.
        (
            "SELECT nope + 0 AS n FROM orders o",
            &["o.fid", "o.name", "o.time", "o.geom"],
        ),
    ];
    for (sql, want) in cases {
        // The header the executed scan carries.
        let Statement::Query(q) = parse(sql).unwrap() else {
            panic!("{sql}")
        };
        let plan = optimize(LogicalPlan::from_select(&q).unwrap()).unwrap();
        let scan = plan.children()[0];
        assert!(
            matches!(
                scan,
                LogicalPlan::Scan {
                    projection: Some(_),
                    alias: Some(_),
                    ..
                }
            ),
            "{plan}"
        );
        let executed = just_ql::reference::run(c.session(), scan).unwrap();
        assert_eq!(executed.columns, want, "{sql}");

        // A name that does not resolve fails EXPLAIN's analysis with the
        // error running the query gives.
        if sql.contains("nope") {
            let analyze_error = |r: just_ql::Result<_>| match r {
                Err(just_ql::QlError::Analyze(m)) => m,
                Err(other) => panic!("{sql}: {other:?}"),
                Ok(_) => panic!("{sql} ran"),
            };
            let explained = analyze_error(c.execute(&format!("EXPLAIN {sql}")));
            assert!(explained.contains("unknown column 'nope'"), "{explained}");
            assert_eq!(explained, analyze_error(c.execute(sql)), "{sql}");
            continue;
        }

        // The header EXPLAIN compiled the projection's programs against:
        // every column operand is listed as `$<index> (<name>)`.
        let listing = c.execute(&format!("EXPLAIN {sql}")).unwrap();
        let mut operands = 0;
        for row in &listing.dataset().unwrap().rows {
            let line = row.values[0].as_str().unwrap();
            if let Some((_, operand)) = line.split_once('$') {
                let (index, name) = operand.split_once(" (").unwrap();
                let index: usize = index.parse().unwrap();
                assert_eq!(name.trim_end_matches(')'), executed.columns[index], "{sql}");
                operands += 1;
            }
        }
        // One operand per `o.<column>` the query mentions: nothing that
        // resolves was skipped.
        assert_eq!(operands, sql.matches("o.").count(), "{sql}");
    }
    std::fs::remove_dir_all(dir).ok();
}

const JOIN_AGG: &str = "SELECT d.name, count(*) AS n, sum(o.amount) AS total FROM jorders o \
     JOIN districts d ON o.district = d.fid \
     WHERE o.geom WITHIN st_makeMBR(115.995, 38.995, 116.045, 39.095) GROUP BY d.name";

/// 100 orders on the 10x10 grid of [`setup_orders`] with an amount and
/// one of 4 districts each, and the 4 districts.
fn setup_join_agg(c: &mut Client) {
    c.execute(
        "CREATE TABLE jorders (fid integer:primary key, time date, geom point:srid=4326, \
         amount float, district integer)",
    )
    .unwrap();
    c.execute("CREATE TABLE districts (fid integer:primary key, name string, geom point)")
        .unwrap();
    let orders: Vec<String> = (0..100i64)
        .map(|i| {
            let (lng, lat) = (
                116.0 + (i % 10) as f64 * 0.01,
                39.0 + (i / 10) as f64 * 0.01,
            );
            format!(
                "({i}, {}, st_makePoint({lng}, {lat}), {i}.5, {})",
                i * HOUR_MS,
                i % 4
            )
        })
        .collect();
    c.execute(&format!("INSERT INTO jorders VALUES {}", orders.join(", ")))
        .unwrap();
    c.execute(
        "INSERT INTO districts VALUES (0, 'north', st_makePoint(116, 39)), \
         (1, 'east', st_makePoint(116, 39)), (2, 'south', st_makePoint(116, 39)), \
         (3, 'west', st_makePoint(116, 39))",
    )
    .unwrap();
}

#[test]
fn join_agg_filters_and_prunes_below_the_join() {
    let (mut c, dir) = client("join-agg");
    setup_join_agg(&mut c);
    let (data, trace) = c.explain_analyze(JOIN_AGG).unwrap();

    // The window holds columns 0..=4 of the grid: 50 orders, and district
    // `i % 4` of order `i` with amount `i + 0.5`.
    let inside = |i: &i64| i % 10 <= 4;
    let mut want: Vec<(String, i64, f64)> = ["north", "east", "south", "west"]
        .iter()
        .enumerate()
        .map(|(d, name)| {
            let of_d = |i: &i64| inside(i) && i % 4 == d as i64;
            let n = (0..100).filter(of_d).count() as i64;
            let total: f64 = (0..100).filter(of_d).map(|i| i as f64 + 0.5).sum();
            (name.to_string(), n, total)
        })
        .collect();
    let mut got: Vec<(String, i64, f64)> = data
        .rows
        .iter()
        .map(|r| {
            let v = &r.values;
            (
                v[0].as_str().unwrap().to_string(),
                v[1].as_int().unwrap(),
                v[2].as_float().unwrap(),
            )
        })
        .collect();
    want.sort_by(|a, b| a.0.cmp(&b.0));
    got.sort_by(|a, b| a.0.cmp(&b.0));
    assert_eq!(got, want);

    // No filter is left above the join: the spans from `execute` down are
    // Project, Aggregate, hash_join.
    let execute = trace
        .children(trace.root())
        .into_iter()
        .find(|&s| trace.name(s) == "execute")
        .unwrap();
    let mut join = trace.children(execute)[0];
    while !trace.name(join).starts_with("hash_join") {
        assert!(
            !trace.name(join).starts_with("Filter"),
            "{}",
            trace.name(join)
        );
        join = trace.children(join)[0];
    }
    // The probe side is the window's rows, not the table's.
    assert_eq!(trace.attr(join, "build_rows"), Some(4));
    assert_eq!(trace.attr(join, "probe_rows"), Some(50));
    assert_eq!(trace.attr(join, "nested_loop"), None);

    // `o`'s scan carries the window as index key ranges and decodes the
    // three columns the join, the aggregate and the window read.
    let scans = trace.children(join);
    let orders = trace.name(scans[0]);
    assert!(orders.starts_with("Scan [jorders]"), "{orders}");
    assert!(orders.contains("spatial=(o.geom within"), "{orders}");
    assert!(
        orders.contains(r#"project=["o.amount", "o.district", "o.geom"]"#),
        "{orders}"
    );
    assert_eq!(trace.rows(scans[0]), Some(50));
    assert!(trace.attr(scans[0], "key_ranges") > Some(0));
    let districts = trace.name(scans[1]);
    assert!(
        districts.starts_with(r#"Scan [districts] project=["d.fid", "d.name"]"#),
        "{districts}"
    );

    // EXPLAIN's programs are compiled against the headers the pruned
    // inputs execute with: each `$<index> (<name>)` operand of the join's
    // key programs indexes its own input, the aggregate's the two
    // combined.
    let Statement::Query(q) = parse(JOIN_AGG).unwrap() else {
        panic!("a query")
    };
    let plan = optimize(LogicalPlan::from_select(&q).unwrap()).unwrap();
    let mut node = &plan;
    while !matches!(node, LogicalPlan::Join { .. }) {
        node = node.children()[0];
    }
    let inputs: Vec<Vec<String>> = node
        .children()
        .into_iter()
        .map(|scan| reference::run(c.session(), scan).unwrap().columns)
        .collect();
    assert_eq!(inputs[0], ["o.amount", "o.district", "o.geom"]);
    assert_eq!(inputs[1], ["d.fid", "d.name"]);
    let combined = inputs.concat();
    let listing = c.execute(&format!("EXPLAIN {JOIN_AGG}")).unwrap();
    let listing = listing.dataset().unwrap();
    let lines = listing.rows.iter().map(|r| r.values[0].as_str().unwrap());
    let (mut header, mut operands) = (&combined, 0);
    // The projection on top reads the aggregate's output; skip it.
    for line in lines.skip_while(|l| !l.contains("Aggregate")) {
        if line.contains("program key 0 left:") {
            header = &inputs[0];
        } else if line.contains("program key 0 right:") {
            header = &inputs[1];
        } else if line.contains("program ") {
            header = &combined;
        }
        if let Some((_, operand)) = line.split_once('$') {
            let (index, name) = operand.split_once(" (").unwrap();
            let index: usize = index.parse().unwrap();
            assert_eq!(name.trim_end_matches(')'), header[index], "{line}");
            operands += 1;
        }
    }
    // d.name, o.amount, o.district, d.fid.
    assert_eq!(operands, 4);
    std::fs::remove_dir_all(dir).ok();
}

/// The span of the first operator under `execute` whose name starts with
/// `prefix`, following first inputs down.
fn first_span(trace: &just_obs::Trace, prefix: &str) -> just_obs::SpanId {
    let execute = trace
        .children(trace.root())
        .into_iter()
        .find(|&s| trace.name(s) == "execute")
        .unwrap();
    let mut span = trace.children(execute)[0];
    while !trace.name(span).starts_with(prefix) {
        span = trace.children(span)[0];
    }
    span
}

#[test]
fn limit_above_a_join_stops_the_streamed_scan() {
    let dir = std::env::temp_dir().join(format!(
        "just-ql-e2e-joinlimit-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    // Every block comes from disk, so each run counts its own reads.
    let mut config = EngineConfig::default();
    config.store.block_cache_bytes = 0;
    let engine = Arc::new(Engine::open(&dir, config).unwrap());
    let mut c = Client::new(SessionManager::new(engine.clone()).session("e2e"));
    c.execute("CREATE TABLE a (fid integer:primary key, k integer, pad string)")
        .unwrap();
    c.execute("CREATE TABLE b (fid integer:primary key, name string)")
        .unwrap();
    // Five scan batches' worth of probe rows, each matching one of 16.
    for chunk in 0..5i64 {
        let rows: Vec<String> = (chunk * 1000..(chunk + 1) * 1000)
            .map(|i| format!("({i}, {}, 'padding-of-row-{i}')", i % 16))
            .collect();
        c.execute(&format!("INSERT INTO a VALUES {}", rows.join(", ")))
            .unwrap();
    }
    let districts: Vec<String> = (0..16).map(|d| format!("({d}, 'b-{d}')")).collect();
    c.execute(&format!("INSERT INTO b VALUES {}", districts.join(", ")))
        .unwrap();
    engine.flush_all().unwrap();

    // (rows, the probe side's blocks read, its early terminations).
    let mut probe = |sql: &str| {
        let (data, trace) = c.explain_analyze(sql).unwrap();
        let join = first_span(&trace, "hash_join");
        let scan = trace.children(join)[0];
        assert!(
            trace.name(scan).starts_with("Scan [a]"),
            "{}",
            trace.render()
        );
        let attr = |name| trace.attr(scan, name).unwrap_or(0);
        (
            data.len(),
            attr("blocks_read"),
            attr("scan_early_terminations"),
        )
    };
    let join = "SELECT l.fid, r.name FROM a l JOIN b r ON l.k = r.fid";
    let (rows, full_blocks, full_early) = probe(join);
    assert_eq!((rows, full_early), (5_000, 0));
    let (rows, blocks, early) = probe(&format!("{join} LIMIT 5"));
    assert_eq!(rows, 5);
    assert!(early >= 1, "the satisfied LIMIT must stop the probe scan");
    assert!(
        blocks < full_blocks,
        "LIMIT 5 read {blocks} probe blocks, the whole join {full_blocks}"
    );
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn hash_join_decides_hashability_per_probe_batch() {
    let (mut c, dir) = client("mixed-keys");
    c.execute("CREATE TABLE lk (fid integer:primary key, ki integer, ks string)")
        .unwrap();
    c.execute("CREATE TABLE rk (fid integer:primary key, name string)")
        .unwrap();
    // Probe keys 0..8: integers in the first 1 024 rows, numeric strings
    // after, so the view's first scan batch is hashable and its second
    // is not; the nested loop's comparator coerces `'3' = 3`.
    let rows: Vec<String> = (0..2048i64)
        .map(|i| match i < 1024 {
            true => format!("({i}, {}, null)", i % 8),
            false => format!("({i}, null, '{}')", i % 8),
        })
        .collect();
    c.execute(&format!("INSERT INTO lk VALUES {}", rows.join(", ")))
        .unwrap();
    let names: Vec<String> = (0..6).map(|i| format!("({i}, 'r-{i}')")).collect();
    c.execute(&format!("INSERT INTO rk VALUES {}", names.join(", ")))
        .unwrap();
    c.execute("CREATE VIEW lv AS SELECT fid, coalesce(ki, ks) AS k FROM lk ORDER BY fid")
        .unwrap();

    let sql = "SELECT l.fid, l.k, r.name FROM lv l JOIN rk r ON l.k = r.fid";
    let (data, trace) = c.explain_analyze(sql).unwrap();
    let Statement::Query(q) = parse(sql).unwrap() else {
        panic!("a query")
    };
    let plan = optimize(LogicalPlan::from_select(&q).unwrap()).unwrap();
    let want = reference::run(c.session(), &plan).unwrap();
    // Rows 0..6 of every 8, in both halves, in the nested loop's order.
    assert_eq!(data.len(), 2048 / 8 * 6);
    assert_eq!(data, want);
    assert_eq!(data.rows[0].values[1], Value::Int(0));
    assert_eq!(data.rows[1000].values[1], Value::Str("4".into()));
    // The first batch probed the hash table; the second ran the loop.
    let join = first_span(&trace, "hash_join");
    assert_eq!(trace.attr(join, "probe_rows"), Some(1024));
    assert_eq!(trace.attr(join, "nested_loop"), Some(1));
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn unaliased_join_binds_qualified_names_to_their_own_table() {
    let (mut c, dir) = client("unaliased-join");
    c.execute("CREATE TABLE a (fid integer:primary key, k integer)")
        .unwrap();
    c.execute("CREATE TABLE b (fid integer:primary key, name string)")
        .unwrap();
    let rows: Vec<String> = (0..5000i64).map(|i| format!("({i}, {})", i % 16)).collect();
    c.execute(&format!("INSERT INTO a VALUES {}", rows.join(", ")))
        .unwrap();
    let names: Vec<String> = (0..16).map(|i| format!("({i}, 'b-{i}')")).collect();
    c.execute(&format!("INSERT INTO b VALUES {}", names.join(", ")))
        .unwrap();

    // `b.fid` is b's key, not a's `fid`: every row of `a` matches one.
    let sql = "SELECT a.fid, b.name FROM a JOIN b ON a.k = b.fid";
    let data = c.execute(sql).unwrap().into_dataset().unwrap();
    let Statement::Query(q) = parse(sql).unwrap() else {
        panic!("a query")
    };
    let plan = optimize(LogicalPlan::from_select(&q).unwrap()).unwrap();
    assert_eq!(data.len(), 5_000);
    assert_eq!(data, reference::run(c.session(), &plan).unwrap());
    assert!(data
        .rows
        .iter()
        .all(|r| r.values[1] == Value::Str(format!("b-{}", r.values[0].as_int().unwrap() % 16))));
    // A bare name both sides carry no longer silently picks the left.
    let err = c
        .execute("SELECT fid FROM a JOIN b ON a.k = b.fid")
        .unwrap_err();
    assert!(err.to_string().contains("ambiguous"), "{err}");
    std::fs::remove_dir_all(dir).ok();
}
