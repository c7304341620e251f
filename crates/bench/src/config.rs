//! Benchmark configuration: the laptop-scale equivalents of Table II-IV.

use std::time::Duration;

/// Scaled-down dataset sizes and query settings.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Number of purchase orders at 100 % (paper: 71 M).
    pub orders: usize,
    /// Number of trajectories at 100 % (paper: 314 K records).
    pub trajectories: usize,
    /// GPS samples per trajectory (paper: ~2.8 K points/record).
    pub points_per_trajectory: usize,
    /// Synthetic = Traj copied-and-sampled this many times (paper: 10×).
    pub synthetic_copies: usize,
    /// Data-size sweep in percent (Table IV).
    pub data_sizes_pct: Vec<u32>,
    /// Spatial windows in km (Table IV; default bold 3×3).
    pub spatial_windows_km: Vec<f64>,
    /// Time windows in hours (Table IV: 1h, 6h, 1d, 1w, 1m).
    pub time_windows_h: Vec<i64>,
    /// k values (Table IV; default bold 150).
    pub k_values: Vec<usize>,
    /// Queries per measurement (paper: 100; median reported).
    pub queries_per_point: usize,
    /// Simulated MapReduce job startup (the Hadoop-family handicap the
    /// paper observes; measured, not asserted).
    pub hadoop_job_overhead: Duration,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            orders: 20_000,
            trajectories: 150,
            points_per_trajectory: 400,
            synthetic_copies: 3,
            data_sizes_pct: vec![20, 40, 60, 80, 100],
            spatial_windows_km: vec![1.0, 2.0, 3.0, 4.0, 5.0],
            time_windows_h: vec![1, 6, 24, 7 * 24, 30 * 24],
            k_values: vec![50, 100, 150, 200, 250],
            queries_per_point: 12,
            hadoop_job_overhead: Duration::from_millis(40),
            seed: 0x4A55_5354, // "JUST"
        }
    }
}

impl BenchConfig {
    /// Scales record counts by `factor` (the `--scale` CLI flag).
    pub fn scaled(mut self, factor: f64) -> Self {
        let f = factor.max(0.01);
        self.orders = ((self.orders as f64) * f).max(100.0) as usize;
        self.trajectories = ((self.trajectories as f64) * f).max(5.0) as usize;
        self
    }

    /// The default query window (Table IV bold): 3×3 km.
    pub(crate) fn default_window_km(&self) -> f64 {
        3.0
    }

    /// The default k (Table IV bold: 150) — the middle of the configured
    /// sweep, so scaled-down runs use proportionate values.
    pub(crate) fn default_k(&self) -> usize {
        self.k_values
            .get(self.k_values.len() / 2)
            .copied()
            .unwrap_or(150)
    }

    /// The default time window (Table IV bold): 1 day.
    pub(crate) fn default_time_window_h(&self) -> i64 {
        24
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_respects_floors() {
        let c = BenchConfig::default().scaled(0.0001);
        assert!(c.orders >= 100);
        assert!(c.trajectories >= 5);
        let big = BenchConfig::default().scaled(2.0);
        assert_eq!(big.orders, 40_000);
    }
}
