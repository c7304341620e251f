//! Compiled vs interpreted expression execution: the `just-exec` payoff.
//!
//! A ≥100k-row in-memory view (so storage decode cost can't dilute the
//! comparison — this measures the executor, not the kvstore) runs two
//! query shapes on the executor and on the interpreted reference
//! operators ([`just_ql::reference::run`], the parity suites' oracle):
//!
//! - **filter-heavy scan**: a five-conjunct arithmetic predicate over
//!   every row, counting survivors (~12% pass);
//! - **group-aggregate**: the same style of heavy predicate (~40% pass)
//!   feeding a `GROUP BY` on a computed key with four aggregates over
//!   computed integer arguments.
//!
//! The conjuncts are mostly-true on purpose: a selective first conjunct
//! would let the row interpreter short-circuit the rest and hide the
//! evaluation cost being compared.
//!
//! Two functional guards (re-checked by `ci.sh`):
//!
//! - **speedup**: the executor must be at least **3×** faster than the
//!   reference on both shapes (median of interleaved runs; the ratios
//!   are written to the report's `meta` as `filter_speedup` /
//!   `aggregate_speedup`);
//! - **parity**: both must return byte-identical datasets for both
//!   queries (same rows, same order, same float bits — the accumulators
//!   fold in the same row order).

use crate::config::BenchConfig;
use crate::harness::{reference_query, time_once, Report, Table};
use just_core::{Dataset, Engine, EngineConfig, SessionManager};
use just_obs::Rng;
use just_ql::Client;
use just_storage::{Row, Value};

/// Timed runs per (query, path); odd so the median is one sample.
const RUNS: usize = 7;

/// Rows in the view at `--scale 1` (the ISSUE floor is 100k).
const ROWS_FULL_SCALE: usize = 120_000;

const FILTER_SQL: &str = "SELECT count(*) AS survivors FROM v \
     WHERE a * 3 + b * 2 - qty > -3000000 \
     AND f * 1.5 + a * 0.25 - b * 0.5 < 1000000.0 \
     AND (a + b) * (qty - b + 5) > -9000000 \
     AND (b * 7 - a) * (qty + 3) > -9000000 \
     AND a * 2 + b * 3 < 1200";

const AGG_SQL: &str = "SELECT grp % 32 AS g, count(*) AS c, \
     sum(a * 2 + b - qty) AS sm, min(a * 3 - b * 2 + qty) AS mn, \
     max((a - b) * (a + b)) AS mx FROM v \
     WHERE a * 3 + b * 2 - qty > -3000000 \
     AND (a + b) * (qty - b + 5) > -9000000 \
     AND (b * 7 - a) * (qty + 3) > -9000000 \
     AND a * 2 + b * 3 < 2200 \
     GROUP BY grp % 32";

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

fn run_query(client: &mut Client, sql: &str) -> Dataset {
    client
        .execute(sql)
        .expect("query")
        .into_dataset()
        .expect("dataset")
}

/// Runs the compiled-execution comparison. Returns `true` when both the
/// speedup and parity guards hold.
pub fn run(cfg: &BenchConfig, out: &mut impl std::io::Write, report: &mut Report) -> bool {
    report.phase("build");
    let dir = std::env::temp_dir().join(format!("just-fig-exec-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let engine = std::sync::Arc::new(Engine::open(&dir, EngineConfig::default()).expect("engine"));
    let sessions = SessionManager::new(engine);

    // Scale rows with --scale (via the orders knob) but keep the full
    // default at the 100k+ floor the comparison is specified against.
    let n = (ROWS_FULL_SCALE as f64 * cfg.orders as f64 / 20_000.0).max(2_000.0) as usize;
    let mut rng = Rng::seed_from_u64(cfg.seed ^ 0x6578_6563);
    let mut rows = Vec::with_capacity(n);
    for i in 0..n {
        rows.push(Row::new(vec![
            Value::Int(i as i64),
            Value::Int((rng.next_u64() % 64) as i64),
            Value::Int((rng.next_u64() % 1000) as i64),
            Value::Int((rng.next_u64() % 1000) as i64),
            Value::Float((rng.next_u64() % 10_000) as f64 / 10.0),
            Value::Int((rng.next_u64() % 100) as i64),
        ]));
    }
    let columns = ["oid", "grp", "a", "b", "f", "qty"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    sessions
        .session("bench")
        .create_view("v", Dataset::new(columns, rows))
        .expect("create view");
    let mut client = Client::new(sessions.session("bench"));

    // Parity first: both queries, identical datasets.
    report.phase("parity");
    let filter_interp = reference_query(&client, FILTER_SQL);
    let agg_interp = reference_query(&client, AGG_SQL);
    let filter_comp = run_query(&mut client, FILTER_SQL);
    let agg_comp = run_query(&mut client, AGG_SQL);
    let parity_ok = filter_interp.columns == filter_comp.columns
        && filter_interp.rows == filter_comp.rows
        && agg_interp.columns == agg_comp.columns
        && agg_interp.rows == agg_comp.rows;

    report.phase("measure");
    let mut results = Vec::new();
    for (name, sql) in [("filter scan", FILTER_SQL), ("group aggregate", AGG_SQL)] {
        // Interleave the two so both see the same machine state.
        let mut interp = Vec::with_capacity(RUNS);
        let mut comp = Vec::with_capacity(RUNS);
        for _ in 0..RUNS {
            interp.push(time_once(|| reference_query(&client, sql)).1.as_secs_f64());
            comp.push(time_once(|| run_query(&mut client, sql)).1.as_secs_f64());
        }
        results.push((name, median(interp), median(comp)));
    }

    let mut table = Table::new(&["query", "interpreted ms", "compiled ms", "speedup"]);
    for (name, ti, tc) in &results {
        table.row(vec![
            name.to_string(),
            format!("{:.2}", ti * 1e3),
            format!("{:.2}", tc * 1e3),
            format!("{:.1}x", ti / tc.max(f64::MIN_POSITIVE)),
        ]);
    }
    writeln!(
        out,
        "== Compiled expression execution: {n} rows, median of {RUNS} interleaved runs =="
    )
    .unwrap();
    writeln!(out, "{}", table.render()).unwrap();

    let speedups: Vec<f64> = results
        .iter()
        .map(|(_, ti, tc)| ti / tc.max(f64::MIN_POSITIVE))
        .collect();
    report.meta_raw("filter_speedup", format!("{:.2}", speedups[0]));
    report.meta_raw("aggregate_speedup", format!("{:.2}", speedups[1]));
    let min_speedup = speedups.iter().copied().fold(f64::INFINITY, f64::min);
    let speedup_ok = min_speedup >= 3.0;
    writeln!(
        out,
        "speedup guard: {} (min {min_speedup:.1}x across shapes, need >= 3x)",
        if speedup_ok { "PASS" } else { "FAIL" }
    )
    .unwrap();
    writeln!(
        out,
        "parity guard: {} (compiled and interpreted datasets {})",
        if parity_ok { "PASS" } else { "FAIL" },
        if parity_ok { "identical" } else { "DIFFER" }
    )
    .unwrap();

    std::fs::remove_dir_all(&dir).ok();
    parity_ok && speedup_ok
}
