//! The metric catalogue: names, units, directions and regression bounds.
//! `BENCHMARK.json` at the repository root lists the same (a unit test
//! keeps the two in step).

use crate::gen::{Class, CLASSES};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen.
    pub bound: f64,
}

/// `latency_p95_ms` is a layer metric (`client.latency_p95_ms`), not an
/// end-to-end one: it did not hold a bound from run to run. CPU time and
/// peak memory vary by 5-15 % between runs of one commit on this
/// sandbox, so their bound is the widest allowed; `analytic`'s median
/// moves in steps of the kernel's 4 ms timer tick around 60 ms, and its
/// throughput spreads 7 % across seeds, so those two get 20 %.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_ops_s",
        unit: "ops/s",
        better: Better::Higher,
        bound: 0.20,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "cpu_ms_per_op",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "disk_bytes_per_user_byte",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.10,
    },
];

/// Layer metrics that are not per class: name, unit, better.
pub const PER_LAYER: [(&str, &str, Better); 52] = [
    ("server.wire_overhead_us", "us", Better::Lower),
    ("server.ping_rtt_us", "us", Better::Lower),
    ("server.frame_codec_us", "us", Better::Lower),
    ("server.request_bytes", "bytes", Better::Lower),
    ("server.response_bytes", "bytes", Better::Lower),
    ("server.busy_rejects", "count", Better::Lower),
    ("server.request_latency_us_p50", "us", Better::Lower),
    ("ql.parse_us", "us", Better::Lower),
    ("ql.plan_us", "us", Better::Lower),
    ("ql.optimize_us", "us", Better::Lower),
    ("ql.execute_us", "us", Better::Lower),
    ("ql.result_encode_us", "us", Better::Lower),
    ("ql.result_decode_us", "us", Better::Lower),
    ("ql.result_bytes_per_row", "bytes", Better::Lower),
    ("ql.op.scan_us", "us", Better::Lower),
    ("ql.op.join_us", "us", Better::Lower),
    ("ql.op.aggregate_us", "us", Better::Lower),
    ("ql.op.topk_us", "us", Better::Lower),
    ("ql.op.filter_project_us", "us", Better::Lower),
    ("exec.fallbacks", "count", Better::Lower),
    ("exec.join_probe_rows_per_result", "ratio", Better::Lower),
    ("exec.topk_rows_pruned_share", "ratio", Better::Higher),
    ("core.knn_us", "us", Better::Lower),
    ("core.knn_keys_scanned_per_result", "ratio", Better::Lower),
    ("core.knn_key_ranges", "count", Better::Lower),
    ("storage.plan_us", "us", Better::Lower),
    ("storage.key_ranges_per_query", "count", Better::Lower),
    ("storage.refine_decode_us", "us", Better::Lower),
    (
        "storage.keys_scanned_per_row_returned",
        "ratio",
        Better::Lower,
    ),
    ("storage.rows_pruned_pushdown_share", "ratio", Better::Lower),
    ("storage.insert_us_per_row", "us", Better::Lower),
    ("storage.row_encode_us", "us", Better::Lower),
    ("storage.key_encode_us", "us", Better::Lower),
    ("curves.decompose_us", "us", Better::Lower),
    ("curves.z2t_ranges_per_query", "count", Better::Lower),
    ("curves.xz2t_ranges_per_query", "count", Better::Lower),
    ("kvstore.raw_scan_us", "us", Better::Lower),
    ("kvstore.blocks_read_per_op", "count", Better::Lower),
    ("kvstore.bytes_read_per_op", "bytes", Better::Lower),
    ("kvstore.cache_hit_ratio", "ratio", Better::Higher),
    ("kvstore.bloom_skips_per_op", "count", Better::Higher),
    ("kvstore.put_us", "us", Better::Lower),
    ("kvstore.wal_appends_per_row", "count", Better::Lower),
    ("kvstore.wal_bytes_per_user_byte", "ratio", Better::Lower),
    ("kvstore.wal_syncs_per_op", "count", Better::Lower),
    ("kvstore.group_commit_records_p50", "count", Better::Higher),
    ("kvstore.flushes", "count", Better::Lower),
    ("kvstore.compactions", "count", Better::Lower),
    ("kvstore.backpressure_stalls", "count", Better::Lower),
    ("kvstore.backpressure_wait_us", "us", Better::Lower),
    ("client.latency_p95_ms", "ms", Better::Lower),
    ("client.latency_p99_ms", "ms", Better::Lower),
];

/// Per-class reading aids: `client.<class>.<suffix>`.
pub const CLIENT_SUFFIXES: [(&str, &str, Better); 3] = [
    ("p50_us", "us", Better::Lower),
    ("p95_us", "us", Better::Lower),
    ("count", "count", Better::Higher),
];

pub fn client_metric(class: Class, suffix: &str) -> String {
    format!("client.{}.{suffix}", class.name())
}

pub fn closure_metric(class: Class) -> String {
    format!("trace.closure_unexplained_share.{}", class.name())
}

pub const TRACE_OVERHEAD: &str = "trace.overhead_share";

/// Every per-layer metric name with unit and direction, in print order.
pub fn per_layer_catalogue() -> Vec<(String, &'static str, Better)> {
    let mut out: Vec<(String, &'static str, Better)> = PER_LAYER
        .iter()
        .map(|(n, u, b)| (n.to_string(), *u, *b))
        .collect();
    for class in CLASSES {
        for (suffix, unit, better) in CLIENT_SUFFIXES {
            out.push((client_metric(class, suffix), unit, better));
        }
    }
    for class in CLASSES {
        out.push((closure_metric(class), "ratio", Better::Lower));
    }
    out.push((TRACE_OVERHEAD.to_string(), "ratio", Better::Lower));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use just_ql::JsonValue;

    /// `BENCHMARK.json` must list exactly this catalogue and the
    /// generator's workloads.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = JsonValue::parse(&text).expect("valid JSON");
        let list = |key: &str| json.get(key).and_then(|v| v.as_array()).expect("array");
        let text_of = |j: &JsonValue, key: &str| {
            j.get(key)
                .and_then(|v| v.as_str())
                .expect("string")
                .to_string()
        };

        let e2e: Vec<(String, String, String)> = list("end_to_end")
            .iter()
            .map(|m| (text_of(m, "name"), text_of(m, "unit"), text_of(m, "better")))
            .collect();
        let want: Vec<(String, String, String)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.name().into(),
                )
            })
            .collect();
        assert_eq!(e2e, want);
        for (m, def) in list("end_to_end").iter().zip(&END_TO_END) {
            let bound = match m.get("bound").expect("bound") {
                JsonValue::Float(f) => *f,
                JsonValue::Int(i) => *i as f64,
                other => panic!("bound {other:?}"),
            };
            assert_eq!(bound, def.bound, "{}", def.name);
        }

        let layers: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| (text_of(m, "name"), text_of(m, "unit"), text_of(m, "better")))
            .collect();
        let want: Vec<(String, String, String)> = per_layer_catalogue()
            .into_iter()
            .map(|(n, u, b)| (n, u.to_string(), b.name().to_string()))
            .collect();
        assert_eq!(layers, want);
        assert!(layers.len() <= 128);

        let workloads: Vec<String> = list("workloads")
            .iter()
            .map(|w| text_of(w, "name"))
            .collect();
        let want: Vec<&str> = crate::gen::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, want);
    }
}
