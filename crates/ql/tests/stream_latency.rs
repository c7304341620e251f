//! `just_storage_query_latency_us` is "end-to-end table query latency":
//! every stream that was pulled records one sample, including one a
//! satisfied `LIMIT` stops early; one never pulled — opened by a plain
//! `EXPLAIN` or under `LIMIT 0` — records none. Its own test binary
//! because the histogram is process-wide and concurrent tests would add
//! samples of their own.

use just_core::{Engine, EngineConfig, SessionManager};
use just_ql::Client;
use std::sync::Arc;

#[test]
fn an_early_stopped_scan_records_one_latency_sample() {
    let dir = std::env::temp_dir().join(format!("just-ql-stream-latency-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let engine = Arc::new(Engine::open(&dir, EngineConfig::default()).unwrap());
    let mut c = Client::new(SessionManager::new(engine.clone()).session("latency"));
    c.execute("CREATE TABLE pts (fid integer:primary key, geom point)")
        .unwrap();
    // More rows than one 1024-row scan batch, so `LIMIT 1` stops the
    // stream long before it runs dry.
    let values: Vec<String> = (0..2500)
        .map(|i| format!("({i}, st_makePoint({}, 39.9))", 116.0 + i as f64 * 1e-4))
        .collect();
    c.execute(&format!("INSERT INTO pts VALUES {}", values.join(", ")))
        .unwrap();
    // On disk, so a scan that runs reads blocks.
    engine.flush_all().unwrap();

    let samples = || {
        just_obs::global()
            .histogram("just_storage_query_latency_us")
            .count()
    };
    for sql in [
        "SELECT fid FROM pts LIMIT 1",
        "SELECT fid FROM pts WHERE geom WITHIN st_makeMBR(115, 39, 117, 40) LIMIT 1",
        "SELECT count(*) FROM pts",
    ] {
        // Plain EXPLAIN opens the pipeline and reads nothing.
        let (before, io) = (samples(), engine.io_snapshot());
        c.execute(&format!("EXPLAIN {sql}")).unwrap();
        assert_eq!(samples(), before, "EXPLAIN {sql}");
        assert_eq!(engine.io_snapshot(), io, "EXPLAIN {sql}");

        let rows = c.execute(sql).unwrap().into_dataset().unwrap().rows;
        assert_eq!(rows.len(), 1, "{sql}");
        assert_eq!(samples(), before + 1, "{sql}");
        assert_ne!(engine.io_snapshot(), io, "{sql}");
    }

    // Nor does it run a k-NN.
    let knn = "SELECT fid FROM pts WHERE geom IN st_KNN(st_makePoint(116.1, 39.9), 3)";
    let (before, io) = (samples(), engine.io_snapshot());
    c.execute(&format!("EXPLAIN {knn}")).unwrap();
    assert_eq!(
        (samples(), engine.io_snapshot()),
        (before, io),
        "EXPLAIN {knn}"
    );
    let rows = c.execute(knn).unwrap().into_dataset().unwrap().rows;
    assert_eq!(rows.len(), 3, "{knn}");
    assert_ne!(engine.io_snapshot(), io, "{knn}");

    // `LIMIT 0` never pulls its scan.
    let before = samples();
    let rows = c.execute("SELECT fid FROM pts LIMIT 0").unwrap();
    assert!(rows.into_dataset().unwrap().rows.is_empty());
    assert_eq!(samples(), before, "LIMIT 0");
    std::fs::remove_dir_all(&dir).ok();
}
