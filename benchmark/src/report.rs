//! One benchmark run: set up, time, verify, trace, print.

use crate::gen::{Check, Class, Table, CLASSES};
use crate::metrics::{
    client_metric, closure_metric, per_layer_catalogue, END_TO_END, TRACE_OVERHEAD,
};
use crate::oracle::Observed;
use crate::oracle::Oracle;
use crate::run::{self, Env, OpRecord, Timed, CLIENTS};
use crate::stats::{median, percentile, sorted, supports};
use crate::trace::{self, Samples, Traced, BUDGET};
use crate::{sys, Args};
use just_ql::JsonValue;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

type Values = BTreeMap<String, f64>;

/// Data directories and traces go here (git-ignored; the driver's
/// checkout allows writes only inside itself).
const OUT_DIR: &str = "benchmark/out";

fn latencies_ms(records: &[Vec<OpRecord>], class: Option<Class>) -> Vec<f64> {
    sorted(
        records
            .iter()
            .flatten()
            .filter(|r| class.is_none_or(|c| r.class == c))
            .map(|r| r.latency_us / 1e3)
            .collect(),
    )
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Runs the workload and prints its metrics; the last line of standard
/// output is the result object the driver reads.
pub fn run_and_report(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let out_dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(out_dir).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let oracle = Oracle::new(
        args.seed,
        w.preloaded(Table::Orders),
        w.preloaded(Table::Routes),
    );

    // The traced run does not report `setup_s`, so it sets up once.
    let repeats = if args.trace { 1 } else { run::SETUP_REPEATS };
    let (mut env, setup_times) = run::set_up(w, args.seed, out_dir, repeats);
    let data_bytes = env.disk_bytes();
    eprintln!("{}: {}", w.name, w.why);
    eprintln!(
        "{}: data {:.1} MiB on disk, block cache {:.1} MiB ({:.1}x), {} clients, closed loop, {} s",
        w.name,
        data_bytes as f64 / (1 << 20) as f64,
        w.block_cache_bytes as f64 / (1 << 20) as f64,
        data_bytes as f64 / w.block_cache_bytes as f64,
        CLIENTS,
        args.seconds
    );

    let timed = run::timed_phase(&mut env, args.seconds);
    let traced = args.trace.then(|| trace::traced_run(&mut env));

    // Correctness, outside every timed section.
    let mut failures = run::verify(&env, &oracle, &timed.records);
    let mut attempted: usize = timed.records.iter().map(Vec::len).sum();
    let timed_failed = failures.len();
    if let Some(t) = &traced {
        attempted += t.records.len();
        failures.extend(run::verify(&env, &oracle, std::slice::from_ref(&t.records)));
    }
    attempted += 2;
    failures.extend(run::verify_row_counts(&env));
    for f in failures.iter().take(10) {
        eprintln!("FAILED {f}");
    }

    let ops = timed.records.iter().map(Vec::len).sum::<usize>() - timed_failed;
    let all = latencies_ms(&timed.records, None);
    // The median needs twenty samples (ten beyond it) to mean anything.
    let valid = supports(50.0, all.len());
    if !valid {
        eprintln!("invalid run: {} samples, p50 needs at least 20", all.len());
    }

    let values = if let Some(traced) = &traced {
        let path = out_dir.join(format!("trace-{}.jsonl", w.name));
        traced
            .recorder
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        print_budget(w.name, &traced.samples);
        per_layer(&env, &timed, traced, ops)
    } else {
        env.compact_all();
        let disk_bytes = env.disk_bytes();
        Values::from([
            ("setup_s".to_string(), median(&setup_times)),
            ("throughput_ops_s".to_string(), ops as f64 / timed.wall_s),
            ("latency_p50_ms".to_string(), percentile(&all, 50.0)),
            (
                "cpu_ms_per_op".to_string(),
                ratio(timed.cpu_s * 1e3, ops as f64),
            ),
            ("peak_rss_mb".to_string(), sys::peak_rss_mib()),
            (
                "disk_bytes_per_user_byte".to_string(),
                ratio(disk_bytes as f64, env.user_bytes() as f64),
            ),
        ])
    };
    env.teardown();

    let units: Vec<(String, &str)> = if args.trace {
        per_layer_catalogue()
            .into_iter()
            .map(|(n, u, _)| (n, u))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit))
            .collect()
    };
    let mut metrics = JsonValue::object();
    for (name, unit) in &units {
        let value = values[name];
        println!("{} {name} {value} {unit}", w.name);
        metrics = metrics.with(
            name,
            JsonValue::object()
                .with("value", JsonValue::Float(value))
                .with("unit", JsonValue::Str(unit.to_string())),
        );
    }
    println!(
        "{} samples {} failed_ops_ratio {}",
        w.name,
        all.len(),
        ratio(failures.len() as f64, attempted as f64)
    );
    let result = JsonValue::object()
        .with("correct", JsonValue::Bool(failures.is_empty() && valid))
        .with("attempted", JsonValue::Int(attempted as i64))
        .with("failed", JsonValue::Int(failures.len() as i64))
        .with("metrics", metrics);

    if let Some(path) = &args.results {
        let stamped = result
            .clone()
            .with("workload", JsonValue::Str(w.name.to_string()))
            .with("trace", JsonValue::Bool(args.trace))
            .with("seed", JsonValue::Int(args.seed as i64))
            .with("seconds", JsonValue::Int(args.seconds as i64))
            .with("clients", JsonValue::Int(CLIENTS as i64))
            .with("nproc", JsonValue::Int(sys::nproc() as i64))
            .with("commit", JsonValue::Str(sys::stamp("JUST_BENCH_COMMIT")))
            .with("rustc", JsonValue::Str(sys::stamp("JUST_BENCH_RUSTC")));
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("open {}: {e}", path.display()))?;
        writeln!(file, "{}", stamped.render()).map_err(|e| format!("write results: {e}"))?;
    }
    println!("{}", result.render());
    Ok(true)
}

/// Prints the per-class layer budget of the traced run.
fn print_budget(workload: &str, samples: &Samples) {
    for class in CLASSES {
        if samples.count(class) == 0 {
            continue;
        }
        let remote = samples.median(class, "remote_us");
        eprintln!(
            "{workload} budget {} ({} statements, remote wall {:.1} us)",
            class.name(),
            samples.count(class),
            remote
        );
        for line in BUDGET {
            let us = samples.median(class, line);
            eprintln!(
                "    {line:<28} {us:>12.1} us {:>6.1} %",
                100.0 * us / remote
            );
        }
        // Negative when the replays ran slower than the request itself.
        eprintln!(
            "    {:<28} {:>12} {:>+9.1} %",
            "unexplained",
            "",
            100.0 * samples.median(class, "unexplained_share")
        );
    }
}

/// Every per-layer metric: counters are deltas of the `just-obs`
/// registry across the timed phase, timings come from the traced run.
fn per_layer(env: &Env, timed: &Timed, traced: &Traced, ops: usize) -> Values {
    let w = env.workload;
    let m = &timed.metrics;
    let ops = ops as f64;
    let mut v = Values::new();
    let mut set = |name: &str, value: f64| {
        v.insert(name.to_string(), value);
    };

    // Mix-weighted mean of per-class medians, over the classes that
    // sampled the quantity at all.
    let weighted = |name: &'static str| {
        let (mut sum, mut weight) = (0.0, 0.0);
        for class in CLASSES {
            if traced.samples.has(class, name) {
                sum += w.share(class) * traced.samples.median(class, name);
                weight += w.share(class);
            }
        }
        ratio(sum, weight)
    };
    for name in [
        "server.wire_overhead_us",
        "server.ping_rtt_us",
        "server.request_bytes",
        "server.response_bytes",
        "ql.parse_us",
        "ql.plan_us",
        "ql.optimize_us",
        "ql.execute_us",
        "ql.result_encode_us",
        "ql.result_decode_us",
        "ql.result_bytes_per_row",
        "ql.op.scan_us",
        "ql.op.join_us",
        "ql.op.aggregate_us",
        "ql.op.topk_us",
        "ql.op.filter_project_us",
        "exec.join_probe_rows_per_result",
        "exec.topk_rows_pruned_share",
        "core.knn_us",
        "core.knn_keys_scanned_per_result",
        "core.knn_key_ranges",
        "storage.plan_us",
        "storage.key_ranges_per_query",
        "storage.refine_decode_us",
        "storage.insert_us_per_row",
        "storage.row_encode_us",
        "storage.key_encode_us",
        "curves.decompose_us",
        "curves.z2t_ranges_per_query",
        "curves.xz2t_ranges_per_query",
        "kvstore.raw_scan_us",
        "kvstore.put_us",
    ] {
        set(name, weighted(name));
    }
    set(
        "server.frame_codec_us",
        weighted("server.request_encode_us")
            + weighted("server.request_decode_us")
            + weighted("server.response_frame_us"),
    );

    // Counter deltas over the timed phase.
    let (mut rows_inserted, mut user_bytes_inserted) = (0.0, 0.0);
    for r in timed.records.iter().flatten() {
        if let (Check::Insert { table, .. }, Observed::Inserted(n)) = (&r.check, &r.observed) {
            rows_inserted += *n as f64;
            user_bytes_inserted += (*n as u64 * table.row_user_bytes()) as f64;
        }
    }
    let keys_scanned = m.get("just_index_keys_scanned");
    set("server.busy_rejects", m.get("just_server_rejected_busy"));
    set(
        "server.request_latency_us_p50",
        timed
            .metrics_after
            .get("just_server_request_latency_us_p50"),
    );
    set(
        "exec.fallbacks",
        m.get("just_exec_fallbacks") + m.get("just_exec_join_fallbacks"),
    );
    set(
        "storage.keys_scanned_per_row_returned",
        ratio(keys_scanned, m.get("just_index_rows_matched")),
    );
    set(
        "storage.rows_pruned_pushdown_share",
        ratio(m.get("just_storage_rows_pruned_pushdown"), keys_scanned),
    );
    let (blocks, hits) = (timed.io.blocks_read as f64, timed.io.cache_hits as f64);
    set("kvstore.blocks_read_per_op", ratio(blocks, ops));
    set(
        "kvstore.bytes_read_per_op",
        ratio(timed.io.bytes_read as f64, ops),
    );
    set("kvstore.cache_hit_ratio", ratio(hits, hits + blocks));
    set(
        "kvstore.bloom_skips_per_op",
        ratio(timed.io.bloom_skips as f64, ops),
    );
    set(
        "kvstore.wal_appends_per_row",
        ratio(m.get("just_kvstore_wal_appends"), rows_inserted),
    );
    set(
        "kvstore.wal_bytes_per_user_byte",
        ratio(m.get("just_kvstore_wal_bytes"), user_bytes_inserted),
    );
    set(
        "kvstore.wal_syncs_per_op",
        ratio(m.get("just_kvstore_wal_syncs"), ops),
    );
    set(
        "kvstore.group_commit_records_p50",
        timed
            .metrics_after
            .get("just_kvstore_wal_group_commit_records_p50"),
    );
    set("kvstore.flushes", m.get("just_kvstore_memtable_flushes"));
    set("kvstore.compactions", m.get("just_kvstore_compactions"));
    set(
        "kvstore.backpressure_stalls",
        m.get("just_kvstore_backpressure_stalls"),
    );
    set(
        "kvstore.backpressure_wait_us",
        m.get("just_kvstore_backpressure_wait_us_sum"),
    );

    // Reading aids: which class moved an end-to-end number.
    let all = latencies_ms(&timed.records, None);
    // A percentile is reported only with ten samples beyond it.
    for (name, p) in [
        ("client.latency_p95_ms", 95.0),
        ("client.latency_p99_ms", 99.0),
    ] {
        let value = if supports(p, all.len()) {
            percentile(&all, p)
        } else {
            0.0
        };
        set(name, value);
    }
    let (mut traced_wall, mut timed_wall) = (0.0, 0.0);
    for class in CLASSES {
        let lat = latencies_ms(&timed.records, Some(class));
        let p = |p: f64| {
            if lat.is_empty() {
                0.0
            } else {
                percentile(&lat, p) * 1e3
            }
        };
        set(&client_metric(class, "p50_us"), p(50.0));
        set(&client_metric(class, "p95_us"), p(95.0));
        set(&client_metric(class, "count"), lat.len() as f64);
        set(
            &closure_metric(class),
            traced.samples.median(class, "unexplained_share").abs(),
        );
        if !lat.is_empty() {
            traced_wall += w.share(class) * traced.samples.median(class, "remote_us");
            timed_wall += w.share(class) * p(50.0);
        }
    }
    // The traced run (one client, idle server, spans recorded) against
    // the timed run (two clients, no spans), class by class.
    set(TRACE_OVERHEAD, ratio(traced_wall, timed_wall) - 1.0);
    v
}
