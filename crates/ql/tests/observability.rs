//! Observability e2e tests: the `SHOW`/`KILL` surface, the live query
//! registry and the slow-query log — for every statement kind that runs
//! a SELECT plan (plain queries, `EXPLAIN ANALYZE`, `CREATE VIEW ... AS`).

use just_core::{Engine, EngineConfig, SessionManager};
use just_ql::{Client, QlError};
use just_storage::Value;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn engine_with(name: &str, cfg: EngineConfig) -> (Arc<Engine>, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "just-ql-obs-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let engine = Arc::new(Engine::open(&dir, cfg).unwrap());
    (engine, dir)
}

fn client_for(engine: &Arc<Engine>, user: &str) -> Client {
    Client::new(SessionManager::new(engine.clone()).session(user))
}

fn setup_points(c: &mut Client, n: i64) {
    c.execute(
        "CREATE TABLE pts (fid integer:primary key, time date, \
         geom point:srid=4326)",
    )
    .unwrap();
    let mut values = Vec::new();
    for i in 0..n {
        let lng = 116.0 + (i % 100) as f64 * 0.001;
        let lat = 39.0 + (i / 100) as f64 * 0.001;
        values.push(format!("({i}, {}, st_makePoint({lng}, {lat}))", i * 1000));
    }
    c.execute(&format!("INSERT INTO pts VALUES {}", values.join(", ")))
        .unwrap();
}

#[test]
fn show_statements_return_structured_datasets() {
    let (engine, dir) = engine_with("show", EngineConfig::default());
    let mut c = client_for(&engine, "obs");
    setup_points(&mut c, 50);
    c.execute("SELECT count(*) FROM pts").unwrap();

    // SHOW METRICS: counters/gauges/histogram percentiles as rows.
    let m = c.execute("SHOW METRICS").unwrap();
    let m = m.dataset().unwrap();
    assert_eq!(m.columns, vec!["metric", "kind", "value"]);
    let names: Vec<&str> = m
        .rows
        .iter()
        .map(|r| r.values[0].as_str().unwrap())
        .collect();
    assert!(
        names.iter().any(|n| n.ends_with("_p99")),
        "histograms expand to percentile rows: {names:?}"
    );

    // SHOW QUERIES: empty when nothing runs (our own SHOW is not a
    // SELECT, so it never registers).
    let q = c.execute("SHOW QUERIES").unwrap();
    let q = q.dataset().unwrap();
    assert_eq!(q.columns[0], "id");
    assert!(q.rows.is_empty(), "no live SELECTs expected");

    // SHOW REGIONS: one row per region of this user's tables, logical
    // names, with write traffic from the INSERT above. A table is one
    // keyspace: its rows are its regions, and nothing else.
    let r = c.execute("SHOW REGIONS").unwrap();
    let r = r.dataset().unwrap();
    assert_eq!(r.columns[..2], ["table", "region"]);
    assert_eq!(r.rows.len(), EngineConfig::default().storage.regions);
    assert!(r
        .rows
        .iter()
        .all(|row| row.values[0].as_str() == Some("pts")));
    let writes_col = r.columns.iter().position(|c| c == "writes").unwrap();
    let writes: i64 = r
        .rows
        .iter()
        .map(|row| match row.values[writes_col] {
            Value::Int(v) => v,
            _ => 0,
        })
        .sum();
    assert!(writes >= 50, "insert traffic must show up, got {writes}");

    // Another user sees none of our regions.
    let mut other = client_for(&engine, "stranger");
    let r2 = other.execute("SHOW REGIONS").unwrap();
    assert!(r2.dataset().unwrap().rows.is_empty());

    // SHOW EVENTS honours LIMIT and returns newest-first sequences.
    let e = c.execute("SHOW EVENTS LIMIT 5").unwrap();
    let e = e.dataset().unwrap();
    assert_eq!(e.columns, vec!["seq", "ts_ms", "kind", "detail"]);
    assert!(e.rows.len() <= 5);

    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn select_records_scan_latency_and_region_bytes_read() {
    let (engine, dir) = engine_with("scanmetrics", EngineConfig::default());
    let mut c = client_for(&engine, "obs");
    setup_points(&mut c, 50);

    let metric = |c: &mut Client, name: &str| -> i64 {
        let m = c.execute("SHOW METRICS").unwrap().into_dataset().unwrap();
        m.rows
            .iter()
            .find(|r| r.values[0].as_str() == Some(name))
            .map_or(0, |r| r.values[2].as_int().unwrap())
    };
    let region_bytes_read = |c: &mut Client| -> i64 {
        let r = c.execute("SHOW REGIONS").unwrap().into_dataset().unwrap();
        let col = r.columns.iter().position(|c| c == "bytes_read").unwrap();
        r.rows
            .iter()
            .map(|row| row.values[col].as_int().unwrap())
            .sum()
    };

    let scans_before = metric(&mut c, "just_kvstore_scan_latency_us_count");
    let bytes_before = region_bytes_read(&mut c);
    let n = c.execute("SELECT count(*) FROM pts").unwrap();
    assert_eq!(n.dataset().unwrap().rows[0].values[0], Value::Int(50));
    assert!(
        metric(&mut c, "just_kvstore_scan_latency_us_count") > scans_before,
        "a SELECT's scan must land in the scan latency histogram"
    );
    assert!(
        region_bytes_read(&mut c) > bytes_before,
        "the scanned entries must count as region read traffic"
    );
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn show_queries_lists_a_live_select_with_io_delta() {
    let (engine, dir) = engine_with("live", EngineConfig::default());
    let mut c = client_for(&engine, "obs");
    setup_points(&mut c, 1500);

    let worker_engine = engine.clone();
    let worker = std::thread::spawn(move || {
        let mut wc = client_for(&worker_engine, "obs");
        // Volatile predicate: runs per row inside the scan, never folded.
        wc.execute("SELECT fid FROM pts WHERE sleep_ms(2) >= 0")
    });

    // Poll the registry until the worker's query shows up.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut seen = None;
    while Instant::now() < deadline {
        let q = c.execute("SHOW QUERIES").unwrap();
        let q = q.dataset().unwrap();
        if let Some(row) = q.rows.first() {
            seen = Some((
                row.values[0].clone(),
                row.values[1].clone(),
                row.values[8].clone(),
            ));
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let (id, user, sql) = seen.expect("live query never appeared in SHOW QUERIES");
    assert!(matches!(id, Value::Int(n) if n > 0));
    assert_eq!(user.as_str(), Some("obs"));
    assert!(sql.as_str().unwrap().contains("sleep_ms"));

    // Kill it so the test does not wait out the full sleep.
    if let Value::Int(n) = id {
        assert!(engine.kill_query(n as u64));
    }
    let _ = worker.join().unwrap();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn kill_query_cancels_a_scan_mid_stream() {
    let (engine, dir) = engine_with("kill", EngineConfig::default());
    let mut c = client_for(&engine, "obs");
    // More rows than one 1024-row batch so the per-batch kill check runs
    // at a real batch boundary while the volatile predicate is sleeping.
    setup_points(&mut c, 2100);

    let before = engine.io_snapshot();
    let worker_engine = engine.clone();
    let worker = std::thread::spawn(move || {
        let mut wc = client_for(&worker_engine, "obs");
        wc.execute("SELECT fid FROM pts WHERE sleep_ms(1) >= 0")
    });

    // Wait for the query to register, then kill it via SQL.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut id = None;
    while Instant::now() < deadline {
        if let Some(q) = engine.queries().list().first() {
            id = Some(q.id());
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let id = id.expect("query never registered");
    // Let the scan pull its first batch, so the kill lands mid-stream and
    // not between registration and the scan's start.
    while Instant::now() < deadline && engine.io_snapshot().since(&before).batches_emitted == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let msg = c.execute(&format!("KILL QUERY {id}")).unwrap();
    assert!(msg.message().unwrap().contains(&id.to_string()));

    // The scan must come back as a typed CANCELLED error...
    let err = worker.join().unwrap().expect_err("query must be killed");
    assert_eq!(err.code(), "CANCELLED");

    // ...having stopped the stream early (the drop is counted).
    let after = engine.io_snapshot().since(&before);
    assert!(
        after.scan_early_terminations >= 1,
        "killed scan must terminate its stream early: {after:?}"
    );

    // The registry forgets the query once its guard drops.
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline && !engine.queries().list().is_empty() {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(engine.queries().list().is_empty());

    // The killed scan released its snapshot: a leaked pin would keep
    // every flushed generation of the region in memory and block its
    // compaction.
    let regions = SessionManager::new(engine.clone())
        .session("obs")
        .region_stats();
    assert!(!regions.is_empty());
    for (table, stats) in &regions {
        assert_eq!(
            stats.open_snapshots, 0,
            "{table} region {} still pinned after the kill",
            stats.index
        );
    }

    // Killing a finished query is a client-visible error.
    assert!(c.execute(&format!("KILL QUERY {id}")).is_err());
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn kill_query_cancels_a_sink_fed_by_a_stored_scan() {
    let (engine, dir) = engine_with("killsink", EngineConfig::default());
    let mut c = client_for(&engine, "obs");
    setup_points(&mut c, 2100);
    // A TOP-K and a GROUP BY straight off the scan, their volatile key or
    // argument sleeping per row inside the sink: a computed key keeps
    // TOP-K's gate off, but the batches still go through the sink driver.
    for sql in [
        "SELECT fid FROM pts ORDER BY sleep_ms(1) + fid LIMIT 3",
        "SELECT count(*) AS n, sum(sleep_ms(1)) AS s FROM pts GROUP BY time",
    ] {
        let before = engine.io_snapshot();
        let worker_engine = engine.clone();
        let worker = std::thread::spawn(move || client_for(&worker_engine, "obs").execute(sql));
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut id = None;
        while id.is_none() && Instant::now() < deadline {
            id = engine.queries().list().first().map(|q| q.id());
            std::thread::sleep(Duration::from_millis(5));
        }
        let id = id.expect("query never registered");
        while Instant::now() < deadline && engine.io_snapshot().since(&before).batches_emitted == 0
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        c.execute(&format!("KILL QUERY {id}")).unwrap();
        let err = worker.join().unwrap().expect_err("query must be killed");
        assert_eq!(err.code(), "CANCELLED", "{sql}");
        let after = engine.io_snapshot().since(&before);
        assert!(after.scan_early_terminations >= 1, "{sql}: {after:?}");
        while Instant::now() < deadline && !engine.queries().list().is_empty() {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn explain_analyze_is_listed_and_killable() {
    let (engine, dir) = engine_with("killexplain", EngineConfig::default());
    let mut c = client_for(&engine, "obs");
    setup_points(&mut c, 2100);

    let worker_engine = engine.clone();
    let worker = std::thread::spawn(move || {
        let mut wc = client_for(&worker_engine, "obs");
        wc.execute("EXPLAIN ANALYZE SELECT fid FROM pts WHERE sleep_ms(1) >= 0")
    });

    // A second client sees the statement live, as typed.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut seen = None;
    while Instant::now() < deadline && seen.is_none() {
        let q = c.execute("SHOW QUERIES").unwrap().into_dataset().unwrap();
        seen = q
            .rows
            .first()
            .map(|row| (row.values[0].as_int().unwrap(), row.values[8].clone()));
        std::thread::sleep(Duration::from_millis(5));
    }
    let (id, sql) = seen.expect("EXPLAIN ANALYZE never appeared in SHOW QUERIES");
    assert!(
        sql.as_str().unwrap().starts_with("EXPLAIN ANALYZE"),
        "{sql:?}"
    );

    c.execute(&format!("KILL QUERY {id}")).unwrap();
    let err = worker.join().unwrap().expect_err("query must be killed");
    assert!(matches!(err, QlError::Cancelled(_)), "{err:?}");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn slow_queries_emit_a_breakdown_event() {
    let cfg = EngineConfig {
        slow_query_ms: 10,
        ..EngineConfig::default()
    };
    let (engine, dir) = engine_with("slowlog", cfg);
    let mut c = client_for(&engine, "obs");
    setup_points(&mut c, 20);

    // The window goes to the index, so the scan has key ranges to report.
    c.execute(
        "SELECT fid FROM pts WHERE geom WITHIN st_makeMBR(115, 38, 117, 40) \
         AND sleep_ms(2) >= 0",
    )
    .unwrap();

    let events = engine.events().recent(50);
    let slow = events
        .iter()
        .find(|e| e.kind == "query.slow")
        .expect("slow query must be logged");
    assert!(slow.detail.contains("user=obs"), "{}", slow.detail);
    assert!(slow.detail.contains("ok=true"), "{}", slow.detail);
    assert!(slow.detail.contains("sleep_ms"), "{}", slow.detail);
    // One entry per operator, `label:rows:us`, the stored-table scan's
    // followed by its IO and index-selectivity attrs.
    assert!(slow.detail.contains("ops=[Scan [pts]"), "{}", slow.detail);
    assert!(slow.detail.contains(":20rows:"), "{}", slow.detail);
    assert!(slow.detail.contains("us:blocks_read="), "{}", slow.detail);
    assert!(slow.detail.contains(":keys_scanned="), "{}", slow.detail);

    // Fast queries below the threshold stay out of the log.
    let before = engine
        .events()
        .recent(100)
        .iter()
        .filter(|e| e.kind == "query.slow")
        .count();
    c.execute("SELECT count(*) FROM pts").unwrap();
    let after = engine
        .events()
        .recent(100)
        .iter()
        .filter(|e| e.kind == "query.slow")
        .count();
    assert_eq!(before, after, "fast query must not hit the slow log");

    // Every statement kind that runs a SELECT plan is slow-logged.
    for sql in [
        "EXPLAIN ANALYZE SELECT fid FROM pts WHERE sleep_ms(2) >= 0",
        "CREATE VIEW slowv AS SELECT fid FROM pts WHERE sleep_ms(2) >= 0",
    ] {
        c.execute(sql).unwrap();
        let events = engine.events().recent(50);
        let logged = events
            .iter()
            .any(|e| e.kind == "query.slow" && e.detail.ends_with(&format!("sql={sql}")));
        assert!(logged, "no query.slow for {sql}: {events:?}");
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn query_tracking_can_be_disabled() {
    let cfg = EngineConfig {
        query_tracking: false,
        ..EngineConfig::default()
    };
    let (engine, dir) = engine_with("notrack", cfg);
    let mut c = client_for(&engine, "obs");
    setup_points(&mut c, 1500);

    let worker_engine = engine.clone();
    let worker = std::thread::spawn(move || {
        let mut wc = client_for(&worker_engine, "obs");
        wc.execute("SELECT fid FROM pts WHERE sleep_ms(1) >= 0 LIMIT 5")
    });
    // With tracking off the registry stays empty even while running.
    std::thread::sleep(Duration::from_millis(50));
    assert!(engine.queries().list().is_empty());
    worker.join().unwrap().unwrap();

    // The other statement kinds that run a SELECT plan work untracked too.
    let plan = c.execute("EXPLAIN ANALYZE SELECT fid FROM pts LIMIT 5");
    let plan = plan.unwrap().into_dataset().unwrap();
    let has_scan = |r: &just_storage::Row| r.values[0].as_str().unwrap().contains("Scan [pts]");
    assert!(plan.rows.iter().any(has_scan), "{plan:?}");
    let msg = c.execute("CREATE VIEW v AS SELECT fid FROM pts LIMIT 5");
    assert!(msg.unwrap().message().unwrap().contains("5 rows cached"));
    std::fs::remove_dir_all(dir).ok();
}
