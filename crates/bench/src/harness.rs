//! Measurement and reporting helpers for the figure harness.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Times one closure invocation.
pub(crate) fn time_once<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Runs `f` over each query input, returning the median latency — the
/// paper's methodology ("perform each query only once, and take the
/// median response time").
pub(crate) fn median_latency<Q>(queries: &[Q], mut f: impl FnMut(&Q)) -> Duration {
    let mut samples: Vec<Duration> = queries
        .iter()
        .map(|q| {
            let t0 = Instant::now();
            f(q);
            t0.elapsed()
        })
        .collect();
    samples.sort();
    samples.get(samples.len() / 2).copied().unwrap_or_default()
}

/// Cores available to this process — stamped into every report whose
/// numbers depend on them.
pub(crate) fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Pretty milliseconds.
pub(crate) fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1000.0)
}

/// A simple aligned text table for figure output.
pub(crate) struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a header row.
    pub(crate) fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a data row.
    pub(crate) fn row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
    }

    /// Renders with aligned columns.
    pub(crate) fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// A hand-rolled micro-benchmark runner (the criterion replacement — the
/// repo builds fully offline). Warms up for ~50 ms to size a batch, then
/// times batches of calls for ~300 ms and prints the mean ns/op plus
/// p50/p95/p99 of the per-batch rates from a log-scale histogram.
pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) {
    let warm_end = Instant::now() + Duration::from_millis(50);
    let mut warm_iters: u64 = 0;
    while Instant::now() < warm_end {
        std::hint::black_box(f());
        warm_iters += 1;
    }
    // Aim for ~1 ms per batch so Instant granularity is negligible.
    let batch = (warm_iters / 50).max(1);
    let hist = just_obs::Histogram::detached();
    let measure_end = Instant::now() + Duration::from_millis(300);
    let mut total_ns: u128 = 0;
    let mut total_iters: u64 = 0;
    while Instant::now() < measure_end {
        let t0 = Instant::now();
        for _ in 0..batch {
            std::hint::black_box(f());
        }
        let ns = t0.elapsed().as_nanos();
        total_ns += ns;
        total_iters += batch;
        hist.record((ns as u64) / batch);
    }
    let s = hist.summary();
    println!(
        "{name:<42} {:>12.0} ns/op   p50={} p95={} p99={}   ({} iters)",
        total_ns as f64 / total_iters as f64,
        s.p50,
        s.p95,
        s.p99,
        total_iters
    );
}

/// A snapshot of the process-wide kvstore IO counters from the
/// [`just_obs::global`] registry.
///
/// Figure runners open many throwaway engines per phase, so per-engine
/// [`just_kvstore::IoSnapshot`]s would miss work; these counters aggregate
/// every engine in the process. Field names mirror `IoSnapshot`.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ObsIoSnapshot {
    /// Data blocks fetched from disk.
    pub blocks_read: u64,
    /// Block reads served from the block cache.
    pub cache_hits: u64,
    /// Point reads answered by a memtable.
    pub memtable_hits: u64,
    /// SSTables pruned by their key fence without any block read.
    pub index_skips: u64,
    /// Point-get misses answered by a bloom filter without any block read.
    pub bloom_skips: u64,
    /// Memtable flushes.
    pub memtable_flushes: u64,
    /// Compactions.
    pub compactions: u64,
}

impl ObsIoSnapshot {
    /// Reads the current counter values.
    pub(crate) fn capture() -> Self {
        let obs = just_obs::global();
        let get = |name: &str| obs.counter(name).get();
        ObsIoSnapshot {
            blocks_read: get("just_kvstore_blocks_read"),
            cache_hits: get("just_kvstore_cache_hits"),
            memtable_hits: get("just_kvstore_memtable_hits"),
            index_skips: get("just_kvstore_index_skips"),
            bloom_skips: get("just_kvstore_bloom_skips"),
            memtable_flushes: get("just_kvstore_memtable_flushes"),
            compactions: get("just_kvstore_compactions"),
        }
    }

    /// Counter-wise difference `self - earlier`.
    pub(crate) fn since(&self, earlier: &ObsIoSnapshot) -> ObsIoSnapshot {
        ObsIoSnapshot {
            blocks_read: self.blocks_read - earlier.blocks_read,
            cache_hits: self.cache_hits - earlier.cache_hits,
            memtable_hits: self.memtable_hits - earlier.memtable_hits,
            index_skips: self.index_skips - earlier.index_skips,
            bloom_skips: self.bloom_skips - earlier.bloom_skips,
            memtable_flushes: self.memtable_flushes - earlier.memtable_flushes,
            compactions: self.compactions - earlier.compactions,
        }
    }

    fn to_json(self) -> String {
        format!(
            "{{\"blocks_read\":{},\"cache_hits\":{},\"memtable_hits\":{},\
             \"index_skips\":{},\"bloom_skips\":{},\"memtable_flushes\":{},\
             \"compactions\":{}}}",
            self.blocks_read,
            self.cache_hits,
            self.memtable_hits,
            self.index_skips,
            self.bloom_skips,
            self.memtable_flushes,
            self.compactions
        )
    }
}

/// One completed report phase.
struct Phase {
    name: String,
    elapsed: Duration,
    io: ObsIoSnapshot,
}

/// A per-figure machine-readable report: named phases (wall time + IO
/// counter delta) plus, at serialization time, the summaries of every
/// latency histogram in the global registry.
///
/// Usage: call `phase` at each section boundary; the previous phase is
/// closed automatically. `render_json` / [`Report::write_to`] close the
/// last phase and serialize.
pub struct Report {
    figure: String,
    phases: Vec<Phase>,
    open: Option<(String, Instant, ObsIoSnapshot)>,
    meta: Vec<(String, String)>,
}

impl Report {
    /// An empty report for one figure.
    pub fn new(figure: &str) -> Self {
        Report {
            figure: figure.to_string(),
            phases: Vec::new(),
            open: None,
            meta: Vec::new(),
        }
    }

    /// Attaches a machine-readable fact about the run (host shape, sweep
    /// parameters) so a later regression is attributable to a config or
    /// hardware change, not guessed at. `value` is raw JSON — pass
    /// `"4"`, `"[1,2,4]"` or a pre-quoted string.
    pub(crate) fn meta_raw(&mut self, key: &str, value: impl Into<String>) {
        self.meta.push((key.to_string(), value.into()));
    }

    /// String-valued [`Report::meta_raw`] (quotes for you).
    pub(crate) fn meta_str(&mut self, key: &str, value: &str) {
        self.meta.push((key.to_string(), json_str(value)));
    }

    /// Starts a phase named `name`, ending the previous one (if any).
    pub(crate) fn phase(&mut self, name: &str) {
        self.close_open();
        self.open = Some((name.to_string(), Instant::now(), ObsIoSnapshot::capture()));
    }

    fn close_open(&mut self) {
        if let Some((name, started, before)) = self.open.take() {
            self.phases.push(Phase {
                name,
                elapsed: started.elapsed(),
                io: ObsIoSnapshot::capture().since(&before),
            });
        }
    }

    /// Serializes the report: figure name, phases with seconds and IO
    /// deltas, and current global histogram summaries.
    pub(crate) fn render_json(&mut self) -> String {
        self.close_open();
        let phases = self
            .phases
            .iter()
            .map(|p| {
                format!(
                    "{{\"name\":{},\"secs\":{:.6},\"io\":{}}}",
                    json_str(&p.name),
                    p.elapsed.as_secs_f64(),
                    p.io.to_json()
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let histograms = just_obs::global()
            .histogram_summaries()
            .into_iter()
            .map(|(name, s)| format!("{}:{}", json_str(&name), s.to_json()))
            .collect::<Vec<_>>()
            .join(",");
        let meta = self
            .meta
            .iter()
            .map(|(k, v)| format!("{}:{}", json_str(k), v))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"figure\":{},\"meta\":{{{}}},\"phases\":[{}],\"histograms\":{{{}}}}}",
            json_str(&self.figure),
            meta,
            phases,
            histograms
        )
    }

    /// Writes the JSON report to `dir/<figure>.json`, creating `dir`.
    pub fn write_to(&mut self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.figure));
        std::fs::write(&path, self.render_json())?;
        Ok(path)
    }
}

/// Minimal JSON string quoting (metric and phase names are ASCII).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_samples() {
        let queries = [1, 2, 3];
        let d = median_latency(&queries, |q| {
            std::thread::sleep(Duration::from_micros(*q * 10));
        });
        assert!(d >= Duration::from_micros(10));
    }

    #[test]
    fn report_serializes_phases_and_histograms() {
        let mut r = Report::new("figX");
        r.phase("build");
        just_obs::global()
            .counter("just_kvstore_blocks_read")
            .add(3);
        just_obs::global()
            .histogram("just_bench_report_test_us")
            .record(42);
        r.phase("query");
        let json = r.render_json();
        assert!(json.contains("\"figure\":\"figX\""));
        assert!(json.contains("\"name\":\"build\""));
        assert!(json.contains("\"name\":\"query\""));
        assert!(json.contains("\"blocks_read\":"));
        assert!(json.contains("\"just_bench_report_test_us\":{\"count\":"));
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "ms"]);
        t.row(vec!["just".into(), "1.25".into()]);
        t.row(vec!["geospark-like".into(), "10.00".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[3].ends_with("10.00"));
    }
}
