//! `just_storage_query_latency_us` is "end-to-end table query latency":
//! every stream records one sample, including one a satisfied `LIMIT`
//! stops early. Its own test binary because the histogram is
//! process-wide and concurrent tests would add samples of their own.

use just_core::{Engine, EngineConfig, SessionManager};
use just_ql::Client;
use std::sync::Arc;

#[test]
fn an_early_stopped_scan_records_one_latency_sample() {
    let dir = std::env::temp_dir().join(format!("just-ql-stream-latency-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let engine = Arc::new(Engine::open(&dir, EngineConfig::default()).unwrap());
    let mut c = Client::new(SessionManager::new(engine).session("latency"));
    c.execute("CREATE TABLE pts (fid integer:primary key, geom point)")
        .unwrap();
    // More rows than one 1024-row scan batch, so `LIMIT 1` stops the
    // stream long before it runs dry.
    let values: Vec<String> = (0..2500)
        .map(|i| format!("({i}, st_makePoint({}, 39.9))", 116.0 + i as f64 * 1e-4))
        .collect();
    c.execute(&format!("INSERT INTO pts VALUES {}", values.join(", ")))
        .unwrap();

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
        let before = samples();
        let rows = c.execute(sql).unwrap().into_dataset().unwrap().rows;
        assert_eq!(rows.len(), 1, "{sql}");
        assert_eq!(samples(), before + 1, "{sql}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
