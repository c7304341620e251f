//! Process-wide metrics: named counters and log-scale histograms with a
//! Prometheus-style text exposition.
//!
//! Handles ([`Counter`], [`Histogram`]) are cheap `Arc` clones; recording
//! is lock-free (relaxed atomics). The registry itself is only locked when
//! registering a new name or rendering, never on the record path.
//!
//! Naming convention used across the workspace (see the README
//! "Observability" section for the full table): `just_<area>_<what>[_unit]`,
//! e.g. `just_kvstore_scan_latency_us`, `just_index_rows_matched`.

use crate::sync::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// A monotonically increasing counter handle.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter not attached to any registry (useful in tests).
    pub(crate) fn detached() -> Self {
        Counter(Arc::new(AtomicU64::new(0)))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle: a value that can move both up and down (active
/// connections, live queries, memtable bytes). Same lock-free recording
/// discipline as [`Counter`]; the only difference is semantics — a gauge
/// is a level, not an accumulation — and the `# TYPE` line it gets in
/// the text exposition.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A gauge not attached to any registry (useful in tests).
    pub(crate) fn detached() -> Self {
        Gauge(Arc::new(AtomicU64::new(0)))
    }

    /// Raises the level by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Lowers the level by one (saturating at zero).
    pub fn dec(&self) {
        self.sub(1);
    }

    /// Raises the level by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Lowers the level by `n`, saturating at zero: a racy extra
    /// decrement must not wrap a "live things" gauge to 2^64.
    pub fn sub(&self, n: u64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    /// Current level.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of log-scale buckets: one per possible bit width of a `u64`
/// sample, plus bucket 0 for the value zero.
const BUCKETS: usize = 65;

/// A log-scale (base-2) histogram handle.
///
/// A sample `v` lands in bucket `bit_width(v)` — i.e. bucket `i` covers
/// `[2^(i-1), 2^i)` — so recording is a `leading_zeros` plus one relaxed
/// atomic add. Percentiles are estimated by walking the cumulative bucket
/// counts and interpolating inside the winning bucket, which keeps the
/// estimate within a factor of 2 of the true order statistic: plenty for
/// latency reporting across six decades.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    /// A histogram not attached to any registry (useful in tests).
    pub fn detached() -> Self {
        Histogram(Arc::new(HistogramInner {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        let bucket = (64 - value.leading_zeros()) as usize;
        self.0.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Records a duration in microseconds (the workspace's latency unit).
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_micros() as u64);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Estimated value at quantile `q` in `[0, 1]`, or 0 with no samples.
    ///
    /// Interpolates linearly inside the winning log-scale bucket.
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * (total.saturating_sub(1)) as f64).round() as u64;
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c > rank {
                // Bucket i covers [lo, hi): interpolate by rank position.
                let lo = if i == 0 { 0 } else { 1u64 << (i - 1) };
                let hi = match i {
                    0 => 1,
                    64 => u64::MAX,
                    _ => 1u64 << i,
                };
                let frac = (rank - seen) as f64 / c as f64;
                return lo + ((hi - lo) as f64 * frac) as u64;
            }
            seen += c;
        }
        u64::MAX
    }

    /// A point-in-time p50/p90/p95/p99 summary.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            sum: self.sum(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

/// A snapshot of a histogram's headline statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Estimated median.
    pub p50: u64,
    /// Estimated 90th percentile.
    pub p90: u64,
    /// Estimated 95th percentile.
    pub p95: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
}

impl HistogramSummary {
    /// Renders as a compact JSON object (`{"count":..,"sum":..,...}`).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\":{},\"sum\":{},\"p50\":{},\"p90\":{},\"p95\":{},\"p99\":{}}}",
            self.count, self.sum, self.p50, self.p90, self.p95, self.p99
        )
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A point-in-time reading of one registered metric, tagged with its
/// kind (the structured counterpart of [`Registry::render_text`], used
/// by `SHOW METRICS` to build a result set).
#[derive(Debug, Clone)]
pub enum MetricValue {
    /// A counter's accumulated total.
    Counter(u64),
    /// A gauge's current level.
    Gauge(u64),
    /// A histogram's headline statistics.
    Histogram(HistogramSummary),
}

/// A named collection of counters and histograms.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Returns the counter registered under `name`, creating it on first
    /// use. Panics if `name` is already a histogram.
    pub fn counter(&self, name: &str) -> Counter {
        let mut m = self.metrics.lock();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::detached()))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name} is not a counter"),
        }
    }

    /// Returns the gauge registered under `name`, creating it on first
    /// use. Panics if `name` is already a counter or histogram.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut m = self.metrics.lock();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::detached()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name} is not a gauge"),
        }
    }

    /// Returns the histogram registered under `name`, creating it on first
    /// use. Panics if `name` is already a counter or gauge.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut m = self.metrics.lock();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::detached()))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name} is not a histogram"),
        }
    }

    /// Looks up an existing counter without creating one.
    pub fn get_counter(&self, name: &str) -> Option<Counter> {
        match self.metrics.lock().get(name) {
            Some(Metric::Counter(c)) => Some(c.clone()),
            _ => None,
        }
    }

    /// A point-in-time reading of every registered metric, sorted by
    /// name. This is the structured accessor behind `SHOW METRICS`;
    /// [`Registry::render_text`] is the scrape-format rendering of the
    /// same data.
    pub fn snapshot(&self) -> Vec<(String, MetricValue)> {
        self.metrics
            .lock()
            .iter()
            .map(|(name, m)| {
                let value = match m {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.summary()),
                };
                (name.clone(), value)
            })
            .collect()
    }

    /// Summaries of every registered histogram, sorted by name (used by
    /// the bench harness to serialize latency distributions).
    pub fn histogram_summaries(&self) -> Vec<(String, HistogramSummary)> {
        self.metrics
            .lock()
            .iter()
            .filter_map(|(name, m)| match m {
                Metric::Histogram(h) => Some((name.clone(), h.summary())),
                Metric::Counter(_) | Metric::Gauge(_) => None,
            })
            .collect()
    }

    /// Renders every metric in Prometheus text exposition style: counters
    /// and gauges as `name value`, histograms as quantile-labelled
    /// summaries plus `_sum`/`_count` and synthetic `_p50`/`_p90`/`_p99`
    /// lines (flat series are directly plottable by tools that don't
    /// parse quantile labels). Names are emitted in sorted order so
    /// output is stable for tests and diffing.
    pub fn render_text(&self) -> String {
        let metrics = self.metrics.lock().clone();
        let mut out = String::new();
        for (name, metric) in &metrics {
            match metric {
                Metric::Counter(c) => {
                    out.push_str(&format!("# TYPE {name} counter\n{name} {}\n", c.get()));
                }
                Metric::Gauge(g) => {
                    out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", g.get()));
                }
                Metric::Histogram(h) => {
                    let s = h.summary();
                    out.push_str(&format!(
                        "# TYPE {name} summary\n\
                         {name}{{quantile=\"0.5\"}} {}\n\
                         {name}{{quantile=\"0.95\"}} {}\n\
                         {name}{{quantile=\"0.99\"}} {}\n\
                         {name}_sum {}\n\
                         {name}_count {}\n\
                         {name}_p50 {}\n\
                         {name}_p90 {}\n\
                         {name}_p99 {}\n",
                        s.p50, s.p95, s.p99, s.sum, s.count, s.p50, s.p90, s.p99
                    ));
                }
            }
        }
        out
    }
}

/// The process-global registry. All engine instrumentation records here;
/// `Engine::metrics_text()` and the bench harness read from it.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let r = Registry::new();
        let c = r.counter("hits");
        c.inc();
        c.add(4);
        assert_eq!(r.counter("hits").get(), 5);
    }

    #[test]
    fn histogram_bucketing_covers_value_edges() {
        let h = Histogram::detached();
        // 0 lands in bucket 0, 1 in bucket 1, 2..3 in bucket 2, etc.
        let values = [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX];
        for v in values {
            h.record(v);
        }
        assert_eq!(h.count(), 10);
        // The atomic sum wraps on overflow, as does this fold.
        let expected = values.iter().fold(0u64, |a, &v| a.wrapping_add(v));
        assert_eq!(h.sum(), expected);
    }

    #[test]
    fn quantiles_are_order_of_magnitude_accurate() {
        let h = Histogram::detached();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        // Log-bucket estimates: within 2x of the true order statistic.
        assert!((250..=1000).contains(&p50), "p50 {p50}");
        assert!((512..=2000).contains(&p99), "p99 {p99}");
        assert!(p50 <= p99);
    }

    #[test]
    fn quantile_on_empty_is_zero() {
        let h = Histogram::detached();
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.summary().p50, 0);
    }

    #[test]
    fn quantile_single_bucket_is_tight() {
        let h = Histogram::detached();
        for _ in 0..100 {
            h.record(5); // all in bucket [4, 8)
        }
        let p50 = h.quantile(0.5);
        assert!((4..8).contains(&p50), "p50 {p50}");
    }

    #[test]
    fn render_text_is_prometheus_like_and_sorted() {
        let r = Registry::new();
        r.counter("zeta").add(3);
        let h = r.histogram("alpha_latency_us");
        h.record(100);
        h.record(200);
        let text = r.render_text();
        let alpha = text.find("alpha_latency_us").unwrap();
        let zeta = text.find("zeta").unwrap();
        assert!(alpha < zeta, "sorted order");
        assert!(text.contains("# TYPE zeta counter\nzeta 3\n"));
        assert!(text.contains("alpha_latency_us{quantile=\"0.5\"}"));
        assert!(text.contains("alpha_latency_us_count 2"));
        assert!(text.contains("alpha_latency_us_sum 300"));
    }

    #[test]
    fn summary_json_shape() {
        let h = Histogram::detached();
        h.record(10);
        let js = h.summary().to_json();
        assert!(js.starts_with("{\"count\":1,"));
        assert!(js.contains("\"p99\":"));
    }

    #[test]
    fn global_registry_is_shared() {
        global().counter("obs_test_global").add(2);
        assert_eq!(global().counter("obs_test_global").get(), 2);
    }

    #[test]
    fn gauge_moves_both_ways_and_saturates() {
        let r = Registry::new();
        let g = r.gauge("live");
        g.add(3);
        g.dec();
        assert_eq!(r.gauge("live").get(), 2);
        g.sub(10); // below zero: clamps, never wraps
        assert_eq!(g.get(), 0);
        g.add(7);
        assert_eq!(g.get(), 7);
        assert!(r.render_text().contains("# TYPE live gauge\nlive 7\n"));
        assert!(r.get_counter("live").is_none());
    }

    #[test]
    fn render_text_has_synthetic_percentile_lines() {
        let r = Registry::new();
        let h = r.histogram("lat_us");
        for v in 1..=100u64 {
            h.record(v);
        }
        let text = r.render_text();
        assert!(text.contains("lat_us_p50 "));
        assert!(text.contains("lat_us_p90 "));
        assert!(text.contains("lat_us_p99 "));
        // The synthetic lines agree with the quantile-labelled ones.
        let s = h.summary();
        assert!(text.contains(&format!("lat_us_p50 {}\n", s.p50)));
        assert!(text.contains(&format!("lat_us_p99 {}\n", s.p99)));
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99);
    }

    #[test]
    fn snapshot_reads_every_kind() {
        let r = Registry::new();
        r.counter("c").add(1);
        r.gauge("g").add(2);
        r.histogram("h").record(3);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 3);
        assert!(matches!(snap[0], (ref n, MetricValue::Counter(1)) if n == "c"));
        assert!(matches!(snap[1], (ref n, MetricValue::Gauge(2)) if n == "g"));
        assert!(matches!(
            snap[2],
            (ref n, MetricValue::Histogram(HistogramSummary { count: 1, .. })) if n == "h"
        ));
    }
}
