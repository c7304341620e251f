//! Observability overhead: the always-on query registry versus the same
//! engine with tracking disabled.
//!
//! Two identical engines are built from the same Order workload — one
//! with `query_tracking: true` (the default: every SELECT registers in
//! the live registry and carries a kill token the executor checks
//! between operators and scan batches) and one with
//! `query_tracking: false`. Both record one span per operator: there is
//! one plan walker, so that cost is on both sides of this comparison and
//! is measured across commits by the repo benchmark instead (`point_hot`
//! `cpu_ms_per_op`, where per-request fixed cost is the whole request).
//! The same scan query runs against both as tightly interleaved *pairs*
//! (A/B, B/A, A/B, ...), and the guard is computed from the median of
//! the per-pair time differences: adjacent-in-time pairs see the same
//! machine state, so scheduler spikes and clock drift cancel instead of
//! masquerading as instrumentation cost.
//!
//! One functional guard (re-checked by `ci.sh`): the median per-pair
//! slowdown must be within **5 %** of the untracked median query — the
//! "always-on" in always-on observability is only honest if nobody is
//! tempted to turn it off.

use crate::config::BenchConfig;
use crate::harness::{time_once, Report, Table};
use crate::workload::OrderDataset;
use just_core::{Engine, EngineConfig};
use just_ql::Client;

/// Interleaved measurement pairs (odd, so the median is one sample).
const PAIRS: usize = 121;

fn build(tag: &str, cfg: &BenchConfig, tracking: bool) -> (Client, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "just-fig-obs-{tag}-{}-{}",
        std::process::id(),
        tracking
    ));
    std::fs::remove_dir_all(&dir).ok();
    let engine_cfg = EngineConfig {
        query_tracking: tracking,
        // The slow-query log is part of the measured pipeline; leave it
        // on at its default threshold (these queries stay far below it).
        ..EngineConfig::default()
    };
    let engine = std::sync::Arc::new(Engine::open(&dir, engine_cfg).expect("engine open"));
    let mut client = Client::new(just_core::SessionManager::new(engine).session("bench"));
    client
        .execute(
            "CREATE TABLE orders (fid integer:primary key, time date, \
             geom point:srid=4326)",
        )
        .expect("create orders");
    let orders = OrderDataset::generate(cfg.orders, cfg.seed).orders;
    for chunk in orders.chunks(500) {
        let values: Vec<String> = chunk
            .iter()
            .map(|o| {
                format!(
                    "({}, {}, st_makePoint({}, {}))",
                    o.fid, o.time_ms, o.point.x, o.point.y
                )
            })
            .collect();
        client
            .execute(&format!("INSERT INTO orders VALUES {}", values.join(", ")))
            .expect("insert orders");
    }
    (client, dir)
}

/// One measured query: scan-heavy, touching the streaming read path,
/// the spatial filter, and aggregation.
fn query(client: &mut Client) {
    client
        .execute(
            "SELECT count(*) FROM orders WHERE geom WITHIN \
             st_makeMBR(116.0, 39.6, 116.5, 40.1)",
        )
        .expect("range count");
}

fn median_f64(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

/// Runs the observability-overhead comparison. Returns `true` when the
/// tracked engine stays within the 5 % guard.
pub fn run(cfg: &BenchConfig, out: &mut impl std::io::Write, report: &mut Report) -> bool {
    report.phase("build");
    let (mut tracked, dir_on) = build("on", cfg, true);
    let (mut untracked, dir_off) = build("off", cfg, false);

    // Warm both sides (page cache, block cache, lazily-opened regions)
    // before anything is timed.
    report.phase("warmup");
    for _ in 0..5 {
        query(&mut tracked);
        query(&mut untracked);
    }

    report.phase("measure");
    let mut on_times = Vec::with_capacity(PAIRS);
    let mut off_times = Vec::with_capacity(PAIRS);
    let mut diffs = Vec::with_capacity(PAIRS);
    for i in 0..PAIRS {
        // Alternate which side goes first inside each pair: whoever runs
        // first systematically sees slightly different cache/clock
        // state, and that bias must not masquerade as overhead.
        let (t_on, t_off) = if i % 2 == 0 {
            let on = time_once(|| query(&mut tracked)).1;
            let off = time_once(|| query(&mut untracked)).1;
            (on, off)
        } else {
            let off = time_once(|| query(&mut untracked)).1;
            let on = time_once(|| query(&mut tracked)).1;
            (on, off)
        };
        on_times.push(t_on.as_secs_f64());
        off_times.push(t_off.as_secs_f64());
        diffs.push(t_on.as_secs_f64() - t_off.as_secs_f64());
    }
    let med_on = median_f64(on_times.clone());
    let med_off = median_f64(off_times.clone());
    let med_diff = median_f64(diffs);

    let mut table = Table::new(&["engine", "median query us", "min us", "max us"]);
    for (name, times) in [("tracked", &on_times), ("untracked", &off_times)] {
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = times.iter().cloned().fold(0.0f64, f64::max);
        table.row(vec![
            name.into(),
            format!("{:.1}", median_f64(times.clone()) * 1e6),
            format!("{:.1}", min * 1e6),
            format!("{:.1}", max * 1e6),
        ]);
    }
    writeln!(
        out,
        "== Observability overhead: query registry + kill token, \
         {PAIRS} interleaved query pairs =="
    )
    .unwrap();
    writeln!(out, "{}", table.render()).unwrap();

    // The guard uses the median of *per-pair* differences: adjacent
    // measurements share machine state, so ambient noise cancels inside
    // each pair and the median discards the spiky tail.
    let overhead_pct = 100.0 * med_diff / med_off.max(f64::MIN_POSITIVE);
    let ok = overhead_pct <= 5.0;
    report.meta_raw("host_cpus", crate::harness::host_cpus().to_string());
    report.meta_raw("pairs", PAIRS.to_string());
    report.meta_raw("untracked_median_us", format!("{:.1}", med_off * 1e6));
    report.meta_raw(
        "median_paired_slowdown_us",
        format!("{:.1}", med_diff * 1e6),
    );
    report.meta_raw("median_paired_slowdown_pct", format!("{overhead_pct:.2}"));
    writeln!(
        out,
        "overhead guard: {} (median paired slowdown {:+.1}us on a {:.1}us query: \
         {overhead_pct:+.1}%, need <= +5%; medians {:.1}us tracked / {:.1}us untracked)",
        if ok { "PASS" } else { "FAIL" },
        med_diff * 1e6,
        med_off * 1e6,
        med_on * 1e6,
        med_off * 1e6,
    )
    .unwrap();

    drop(tracked);
    drop(untracked);
    std::fs::remove_dir_all(dir_on).ok();
    std::fs::remove_dir_all(dir_off).ok();
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The verdict is a wall-clock ratio, so it is not asserted here,
    /// under the parallel test runner: `ci.sh` runs the figure alone and
    /// requires `overhead guard: PASS`.
    #[test]
    fn obs_overhead_figure_runs_and_prints_its_guard_line() {
        let cfg = BenchConfig {
            orders: 2000,
            ..BenchConfig::default()
        };
        let mut buf = Vec::new();
        let ok = run(&cfg, &mut buf, &mut Report::new("obs_overhead"));
        let text = String::from_utf8(buf).unwrap();
        let verdict = if ok { "PASS" } else { "FAIL" };
        assert!(
            text.contains(&format!("overhead guard: {verdict} (")),
            "{text}"
        );
    }
}
