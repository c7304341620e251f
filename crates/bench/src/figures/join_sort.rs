//! Vectorized hash join and TOP-K vs the interpreted reference.
//!
//! Two in-memory views (so storage decode can't dilute the comparison —
//! this measures the executor) drive three query shapes on the executor
//! and on the interpreted reference operators
//! ([`just_ql::reference::run`], the parity suites' oracle):
//!
//! - **hash join**: an equi-join whose key domain gives ~1 match per
//!   probe row, aggregated so timing stays on the join itself. The
//!   reference runs the O(n·m) nested loop; the executor builds a hash
//!   table over the smaller side's encoded keys.
//! - **full sort**: a two-key `ORDER BY` over a 100k+-row view —
//!   key-normalized byte sort vs the interpreted comparator
//!   (informational row, no guard: both are O(n log n)).
//! - **TOP-K**: the same `ORDER BY` with `LIMIT 10` — a bounded heap
//!   over normalized keys vs the interpreted full-sort-then-truncate.
//!
//! Three functional guards (re-checked by `ci.sh`; the two ratios are
//! written to the report's `meta` as `join_speedup` / `topk_speedup`):
//!
//! - **join speedup**: hash join ≥ **3×** faster than the nested loop;
//! - **topk speedup**: the bounded heap ≥ **5×** faster than the full
//!   sort it replaces;
//! - **parity**: both paths return byte-identical datasets (same rows,
//!   same order) for all three shapes.

use crate::config::BenchConfig;
use crate::harness::{reference_query, time_once, Report, Table};
use just_core::{Dataset, Engine, EngineConfig, SessionManager};
use just_obs::Rng;
use just_ql::Client;
use just_storage::{Row, Value};

/// Timed runs per (query, path); odd so the median is one sample.
const RUNS: usize = 7;

/// Probe-side join rows at `--scale 1`; the build side stays 1/30th of
/// it, so the interpreted nested loop evaluates ~n²/30 pairs.
const JOIN_ROWS_FULL_SCALE: usize = 12_000;

/// Sort/TOP-K view rows at `--scale 1` (past the 100k mark so the
/// heap's O(n log k) vs O(n log n) gap is visible; the floor keeps
/// smoke runs big enough that scan cost doesn't dilute the ratio).
const SORT_ROWS_FULL_SCALE: usize = 120_000;

const JOIN_SQL: &str = "SELECT count(*) AS pairs, sum(la + rb) AS s FROM lv JOIN rv ON lk = rk";
const SORT_SQL: &str = "SELECT a, g, x FROM sv ORDER BY x DESC, g, a";
const TOPK_SQL: &str = "SELECT a, g, x FROM sv ORDER BY x DESC, g, a LIMIT 10";

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

/// Runs the join/sort/TOP-K comparison. Returns `true` when the two
/// speedup guards and the parity guard all hold.
pub fn run(cfg: &BenchConfig, out: &mut impl std::io::Write, report: &mut Report) -> bool {
    report.phase("build");
    let dir = std::env::temp_dir().join(format!("just-fig-joinsort-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let engine = std::sync::Arc::new(Engine::open(&dir, EngineConfig::default()).expect("engine"));
    let sessions = SessionManager::new(engine);
    let session = sessions.session("bench");

    let scale = cfg.orders as f64 / 20_000.0;
    let join_n = ((JOIN_ROWS_FULL_SCALE as f64 * scale) as usize).max(1_200);
    let join_m = (join_n / 30).max(40);
    let sort_n = ((SORT_ROWS_FULL_SCALE as f64 * scale) as usize).max(100_000);
    let mut rng = Rng::seed_from_u64(cfg.seed ^ 0x6A6F_696E);

    // Probe side: keys uniform over the build side's key domain, with a
    // sprinkle of NULLs (which never join) for realism.
    let mut lrows = Vec::with_capacity(join_n);
    for i in 0..join_n {
        let k = if i % 17 == 5 {
            Value::Null
        } else {
            Value::Int((rng.next_u64() % join_m as u64) as i64)
        };
        lrows.push(Row::new(vec![
            Value::Int(i as i64),
            k,
            Value::Float((rng.next_u64() % 10_000) as f64 / 10.0),
        ]));
    }
    let mut rrows = Vec::with_capacity(join_m);
    for b in 0..join_m {
        rrows.push(Row::new(vec![
            Value::Int(b as i64),
            Value::Int(b as i64),
            Value::Float((rng.next_u64() % 10_000) as f64 / 10.0),
        ]));
    }
    let lcols = ["la", "lk", "lx"].iter().map(|s| s.to_string()).collect();
    let rcols = ["rb", "rk", "ry"].iter().map(|s| s.to_string()).collect();
    session
        .create_view("lv", Dataset::new(lcols, lrows))
        .expect("create lv");
    session
        .create_view("rv", Dataset::new(rcols, rrows))
        .expect("create rv");

    // Sort view: a duplicate-heavy float key, then a small group key,
    // then a unique id — ties force the interpreted comparator through
    // several dispatches per comparison while the normalized path
    // encodes each row once.
    let mut srows = Vec::with_capacity(sort_n);
    for a in 0..sort_n {
        srows.push(Row::new(vec![
            Value::Int(a as i64),
            Value::Int((rng.next_u64() % 16) as i64),
            Value::Float((rng.next_u64() % 512) as f64 / 7.0),
        ]));
    }
    let scols = ["a", "g", "x"].iter().map(|s| s.to_string()).collect();
    session
        .create_view("sv", Dataset::new(scols, srows))
        .expect("create sv");
    let mut client = Client::new(sessions.session("bench"));
    report.meta_raw("join_rows", format!("[{join_n},{join_m}]"));
    report.meta_raw("sort_rows", format!("{sort_n}"));

    // Parity first: all shapes, byte-identical datasets.
    report.phase("parity");
    let mut parity_ok = true;
    for sql in [JOIN_SQL, SORT_SQL, TOPK_SQL] {
        let interp = reference_query(&client, sql);
        let comp = run_query(&mut client, sql);
        parity_ok &= interp.columns == comp.columns && interp.rows == comp.rows;
    }

    report.phase("measure");
    let mut results = Vec::new();
    for (name, sql) in [
        ("hash join", JOIN_SQL),
        ("full sort", SORT_SQL),
        ("top-k (k=10)", TOPK_SQL),
    ] {
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
        "== Hash join / TOP-K: {join_n}x{join_m} join, {sort_n}-row sort, \
         median of {RUNS} interleaved runs =="
    )
    .unwrap();
    writeln!(out, "{}", table.render()).unwrap();

    let speedup = |name: &str| {
        results
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, ti, tc)| ti / tc.max(f64::MIN_POSITIVE))
            .unwrap_or(0.0)
    };
    let join_speedup = speedup("hash join");
    let topk_speedup = speedup("top-k (k=10)");
    report.meta_raw("join_speedup", format!("{join_speedup:.2}"));
    report.meta_raw("topk_speedup", format!("{topk_speedup:.2}"));
    let join_ok = join_speedup >= 3.0;
    let topk_ok = topk_speedup >= 5.0;
    writeln!(
        out,
        "join speedup guard: {} ({join_speedup:.1}x over nested loop, need >= 3x)",
        if join_ok { "PASS" } else { "FAIL" }
    )
    .unwrap();
    writeln!(
        out,
        "topk speedup guard: {} ({topk_speedup:.1}x over full sort, need >= 5x)",
        if topk_ok { "PASS" } else { "FAIL" }
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
    join_ok && topk_ok && parity_ok
}
