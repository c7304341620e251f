//! Observability integration tests: EXPLAIN ANALYZE agrees with plain
//! execution, leaf spans report real kvstore IO, and the process-wide
//! metrics registry exposes the engine's internal counters.

use just::engine::{Engine, EngineConfig, SessionManager};
use just::obs::SpanId;
use just::sql::Client;
use just_bench::workload::{order_rows, OrderDataset};
use std::sync::Arc;

const HOUR_MS: i64 = 3_600_000;

fn fresh(name: &str) -> (Arc<Engine>, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "just-obs-it-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    // No block cache: scan IO must show up as real block reads.
    let mut config = EngineConfig::default();
    config.store.block_cache_bytes = 0;
    (Arc::new(Engine::open(&dir, config).unwrap()), dir)
}

fn populated_client(name: &str, n: usize) -> (Client, Arc<Engine>, std::path::PathBuf) {
    let (engine, dir) = fresh(name);
    let sessions = SessionManager::new(engine.clone());
    let mut client = Client::new(sessions.session("obs"));
    client
        .execute("CREATE TABLE orders (fid integer:primary key, time date, geom point)")
        .unwrap();
    let data = OrderDataset::generate(n, 7);
    client
        .session()
        .insert("orders", &order_rows(&data.orders))
        .unwrap();
    // Flush the memtable so scans hit SST blocks on disk.
    engine.flush_all().unwrap();
    (client, engine, dir)
}

#[test]
fn explain_analyze_matches_execute_and_reports_io() {
    let (mut client, _engine, dir) = populated_client("explain", 3000);
    let sql = format!(
        "SELECT fid FROM orders WHERE time BETWEEN {} AND {} ORDER BY fid",
        0,
        365 * 24 * HOUR_MS
    );

    let plain = client.execute(&sql).unwrap().into_dataset().unwrap();
    assert!(!plain.rows.is_empty(), "query should match rows");

    let (data, trace) = client.explain_analyze(&sql).unwrap();
    // Same cardinality as plain execution.
    assert_eq!(data.rows.len(), plain.rows.len());

    // Find the scan leaf in the span tree.
    fn find_scan(trace: &just::obs::Trace, span: SpanId) -> Option<SpanId> {
        if trace.name(span).starts_with("Scan") {
            return Some(span);
        }
        trace
            .children(span)
            .into_iter()
            .find_map(|c| find_scan(trace, c))
    }
    let scan = find_scan(&trace, trace.root()).expect("plan should contain a Scan span");
    assert!(
        trace.attr(scan, "blocks_read").unwrap_or(0) > 0,
        "scan must read SST blocks with the cache disabled:\n{}",
        trace.render()
    );
    assert_eq!(
        trace.rows(scan),
        Some(plain.rows.len() as u64),
        "scan output rows must equal actual cardinality:\n{}",
        trace.render()
    );

    // Rendered tree carries the per-operator annotations.
    let rendered = trace.render();
    assert!(rendered.contains("Scan"), "{rendered}");
    assert!(rendered.contains("blocks_read="), "{rendered}");
    assert!(rendered.contains("rows="), "{rendered}");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn repeated_query_shows_cache_hits_in_explain_analyze() {
    // Cache enabled: the first run faults blocks in from disk, the
    // second run's EXPLAIN ANALYZE must attribute cache hits (and a
    // nonzero hit percentage) to the scan operator.
    let dir = std::env::temp_dir().join(format!(
        "just-obs-it-cachehits-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let mut config = EngineConfig::default();
    config.store.block_cache_bytes = 32 << 20;
    let engine = Arc::new(Engine::open(&dir, config).unwrap());
    let sessions = SessionManager::new(engine.clone());
    let mut client = Client::new(sessions.session("obs"));
    client
        .execute("CREATE TABLE orders (fid integer:primary key, time date, geom point)")
        .unwrap();
    let data = OrderDataset::generate(2000, 7);
    client
        .session()
        .insert("orders", &order_rows(&data.orders))
        .unwrap();
    engine.flush_all().unwrap();

    // An indexed window: a query with none scans the whole family, which
    // reads around the block cache.
    let sql = format!(
        "SELECT fid FROM orders WHERE time BETWEEN 0 AND {}",
        365 * 24 * HOUR_MS
    );
    let (first_data, first) = client.explain_analyze(&sql).unwrap();
    let (second_data, second) = client.explain_analyze(&sql).unwrap();
    assert_eq!(first_data.rows.len(), second_data.rows.len());

    fn find_scan(trace: &just::obs::Trace, span: SpanId) -> Option<SpanId> {
        if trace.name(span).starts_with("Scan") {
            return Some(span);
        }
        trace
            .children(span)
            .into_iter()
            .find_map(|c| find_scan(trace, c))
    }
    let scan1 = find_scan(&first, first.root()).expect("first plan has a Scan span");
    let scan2 = find_scan(&second, second.root()).expect("second plan has a Scan span");
    assert!(
        first.attr(scan1, "blocks_read").unwrap_or(0) > 0,
        "first run must fault blocks in from disk:\n{}",
        first.render()
    );
    assert!(
        second.attr(scan2, "cache_hits").unwrap_or(0) > 0,
        "second run must be served by the block cache:\n{}",
        second.render()
    );
    assert_eq!(
        second.attr(scan2, "blocks_read"),
        Some(0),
        "second run should touch no disk blocks:\n{}",
        second.render()
    );
    assert_eq!(
        second.attr(scan2, "cache_hit_pct"),
        Some(100),
        "all lookups cached on the second run:\n{}",
        second.render()
    );
    assert!(
        second.render().contains("cache_hit_pct="),
        "{}",
        second.render()
    );
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn explain_statement_returns_plan_dataset() {
    let (mut client, _engine, dir) = populated_client("stmt", 500);
    let plan = client
        .execute("EXPLAIN SELECT fid FROM orders")
        .unwrap()
        .into_dataset()
        .unwrap();
    assert_eq!(plan.columns, vec!["plan".to_string()]);
    assert!(!plan.rows.is_empty());

    let analyzed = client
        .execute("EXPLAIN ANALYZE SELECT fid FROM orders")
        .unwrap()
        .into_dataset()
        .unwrap();
    assert_eq!(analyzed.columns, vec!["plan".to_string()]);
    let text: Vec<String> = analyzed
        .rows
        .iter()
        .map(|r| r.values[0].as_str().unwrap().to_string())
        .collect();
    let text = text.join("\n");
    assert!(text.contains("execute"), "{text}");
    assert!(text.contains("rows="), "{text}");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn metrics_registry_exposes_engine_counters() {
    let (mut client, engine, dir) = populated_client("metrics", 2000);
    let data = client
        .execute("SELECT fid FROM orders")
        .unwrap()
        .into_dataset()
        .unwrap();
    assert!(!data.rows.is_empty());

    let text = engine.metrics_text();
    for name in [
        "just_kvstore_scan_latency_us",
        "just_kvstore_blocks_read",
        "just_kvstore_cache_hits",
        "just_kvstore_memtable_flushes",
        "just_index_ranges_generated",
        "just_index_keys_scanned",
    ] {
        assert!(text.contains(name), "missing {name} in:\n{text}");
    }
    // The flush in setup and the scan above must have moved the counters.
    let registry = engine.metrics();
    assert!(
        registry
            .get_counter("just_kvstore_memtable_flushes")
            .map(|c| c.get())
            .unwrap_or(0)
            > 0
    );
    assert!(
        registry
            .get_counter("just_kvstore_blocks_read")
            .map(|c| c.get())
            .unwrap_or(0)
            > 0
    );
    std::fs::remove_dir_all(dir).ok();
}
