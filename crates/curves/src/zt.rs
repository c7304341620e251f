//! The paper's novel indexing strategies: **Z2T** (Section IV-B) and
//! **XZ2T** (Section IV-C).
//!
//! Both split the time dimension into disjoint periods and build an
//! *independent spatial* index (Z2 or XZ2) inside each period:
//!
//! ```text
//! Z2T  key:  Num(t)      :: Z2(lng, lat)            (Equation 2)
//! XZ2T key:  Num(t_min)  :: XZ2(mbr)                (Equation 3)
//! ```
//!
//! Because the temporal and spatial codes are *concatenated* rather than
//! interleaved, temporal filtering happens entirely on the period prefix
//! and the spatial code keeps full selectivity — fixing the scale-mismatch
//! problem that makes Z3/XZ3 degenerate for typical urban queries.

use crate::range::{z_period_floor, KeyRange, PeriodRange, RangeOptions, XZ_PERIOD_FLOOR};
use crate::xz3::StMbr;
use crate::{TimePeriod, Xz2, Z2};
use just_geo::Rect;
use std::ops::RangeInclusive;

/// The Z2T strategy for point data.
#[derive(Debug, Clone, Copy)]
pub struct Z2t {
    z2: Z2,
    period: TimePeriod,
}

impl Z2t {
    /// Creates a Z2T index with the paper's defaults (day periods,
    /// 30-bit Z2).
    pub fn new(period: TimePeriod) -> Self {
        Z2t {
            z2: Z2::default(),
            period,
        }
    }

    /// The inner spatial curve.
    pub fn z2(&self) -> &Z2 {
        &self.z2
    }

    /// Equation (2): `Num(t) :: Z2(lng, lat)`.
    pub fn index(&self, lng: f64, lat: f64, t_ms: i64) -> (i32, u64) {
        (self.period.period_of(t_ms), self.z2.index(lng, lat))
    }

    /// Query planning, Section IV-B: find the qualified periods, compute
    /// the *single* set of Z2 ranges for the window, and replicate it per
    /// period. (Step 3 scans the per-period ranges.)
    pub fn ranges(
        &self,
        query: &Rect,
        t_min: i64,
        t_max: i64,
        opts: &RangeOptions,
    ) -> Vec<PeriodRange> {
        if t_min > t_max {
            return Vec::new();
        }
        let periods = self.period.periods_covering(t_min, t_max);
        let target_ranges = opts.per_period(periods.clone().count(), z_period_floor(2));
        replicate(
            periods,
            self.z2.ranges(query, &RangeOptions { target_ranges }),
        )
    }
}

/// Replicates the one set of spatial ranges under every period.
fn replicate(periods: RangeInclusive<i32>, spatial: Vec<KeyRange>) -> Vec<PeriodRange> {
    periods
        .flat_map(|period| {
            spatial
                .iter()
                .map(move |&range| PeriodRange { period, range })
        })
        .collect()
}

/// The XZ2T strategy for non-point data.
#[derive(Debug, Clone, Copy)]
pub struct Xz2t {
    xz2: Xz2,
    period: TimePeriod,
}

impl Xz2t {
    /// Creates an XZ2T index with day periods by default resolution.
    pub fn new(period: TimePeriod) -> Self {
        Xz2t {
            xz2: Xz2::default(),
            period,
        }
    }

    /// The inner spatial curve.
    pub fn xz2(&self) -> &Xz2 {
        &self.xz2
    }

    /// Equation (3): `Num(t_min) :: XZ2(mbr)`.
    pub fn index(&self, mbr: &StMbr) -> (i32, u64) {
        (self.period.period_of(mbr.t_min), self.xz2.index(&mbr.rect))
    }

    /// Query planning — "the process to answer a spatio-temporal range
    /// query using XZ2T is similar to that of Z2T". Because objects are
    /// filed under the period of their `t_min`, the scan includes one
    /// look-back period so objects starting just before the window are
    /// still found (they are post-filtered exactly afterwards).
    pub fn ranges(
        &self,
        query: &Rect,
        t_min: i64,
        t_max: i64,
        opts: &RangeOptions,
    ) -> Vec<PeriodRange> {
        if t_min > t_max {
            return Vec::new();
        }
        let periods = self.period.period_of(t_min) - 1..=self.period.period_of(t_max);
        let target_ranges = opts.per_period(periods.clone().count(), XZ_PERIOD_FLOOR);
        replicate(
            periods,
            self.xz2.ranges(query, &RangeOptions { target_ranges }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::range::RangeOptions;

    const HOUR_MS: i64 = 3_600_000;
    const DAY_MS: i64 = 24 * HOUR_MS;

    #[test]
    fn z2t_key_structure_matches_equation_2() {
        let z2t = Z2t::new(TimePeriod::Day);
        let (period, code) = z2t.index(116.4, 39.9, 3 * DAY_MS + 5 * HOUR_MS);
        assert_eq!(period, 3);
        assert_eq!(code, Z2::default().index(116.4, 39.9));
    }

    #[test]
    fn z2t_ranges_replicate_spatial_ranges_per_period() {
        let z2t = Z2t::new(TimePeriod::Day);
        let window = Rect::new(116.0, 39.0, 116.2, 39.2);
        let opts = RangeOptions { target_ranges: 60 };
        let spatial = z2t
            .z2()
            .ranges(&window, &RangeOptions { target_ranges: 20 });
        let ranges = z2t.ranges(&window, HOUR_MS, 2 * DAY_MS + HOUR_MS, &opts);
        // Three periods (0, 1, 2), each carrying the spatial set a third
        // of the budget buys.
        assert_eq!(ranges.len(), 3 * spatial.len());
        assert!(ranges.len() <= 60);
    }

    #[test]
    fn z2t_finds_points_and_prunes_time() {
        let z2t = Z2t::new(TimePeriod::Day);
        let window = Rect::new(116.0, 39.0, 116.2, 39.2);
        let opts = RangeOptions::default();
        let ranges = z2t.ranges(&window, HOUR_MS, 13 * HOUR_MS, &opts);
        // A point inside the window during the window.
        let (p, c) = z2t.index(116.1, 39.1, 6 * HOUR_MS);
        assert!(ranges.iter().any(|r| r.period == p && r.range.contains(c)));
        // Same place, next day: pruned by the period prefix alone.
        let (p2, c2) = z2t.index(116.1, 39.1, DAY_MS + 6 * HOUR_MS);
        assert_eq!(c, c2);
        assert!(!ranges
            .iter()
            .any(|r| r.period == p2 && r.range.contains(c2)));
    }

    #[test]
    fn z2t_spatial_selectivity_is_independent_of_time_window() {
        // The fix for the Section IV-B motivation: the covered fraction of
        // each period's code space depends only on the spatial window.
        let z2t = Z2t::new(TimePeriod::Day);
        let window = Rect::window_km(just_geo::Point::new(116.4, 39.9), 1.0);
        let opts = RangeOptions::default();
        let narrow = z2t.ranges(&window, HOUR_MS, 2 * HOUR_MS, &opts);
        let wide = z2t.ranges(&window, HOUR_MS, 13 * HOUR_MS, &opts);
        let per_period = |rs: &[PeriodRange]| -> u128 {
            rs.iter()
                .filter(|r| r.period == 0)
                .map(|r| r.range.len() as u128)
                .sum()
        };
        assert_eq!(per_period(&narrow), per_period(&wide));
    }

    #[test]
    fn xz2t_key_structure_matches_equation_3() {
        let xz2t = Xz2t::new(TimePeriod::Day);
        let mbr = StMbr::new(
            Rect::new(116.0, 39.0, 116.3, 39.2),
            DAY_MS - HOUR_MS,
            DAY_MS + HOUR_MS,
        );
        let (period, code) = xz2t.index(&mbr);
        assert_eq!(period, 0, "period comes from t_min");
        assert_eq!(code, Xz2::default().index(&mbr.rect));
    }

    #[test]
    fn xz2t_lookback_finds_straddling_trajectories() {
        let xz2t = Xz2t::new(TimePeriod::Day);
        let mbr = StMbr::new(
            Rect::new(116.0, 39.0, 116.1, 39.1),
            DAY_MS - HOUR_MS,
            DAY_MS + HOUR_MS,
        );
        let (p, c) = xz2t.index(&mbr);
        let ranges = xz2t.ranges(
            &Rect::new(115.9, 38.9, 116.2, 39.2),
            DAY_MS,
            DAY_MS + 3 * HOUR_MS,
            &RangeOptions::default(),
        );
        assert!(ranges.iter().any(|r| r.period == p && r.range.contains(c)));
    }

    #[test]
    fn xz2t_prunes_spatially() {
        let xz2t = Xz2t::new(TimePeriod::Day);
        let far = StMbr::new(
            Rect::new(-120.0, -40.0, -119.9, -39.9),
            HOUR_MS,
            2 * HOUR_MS,
        );
        let (p, c) = xz2t.index(&far);
        let ranges = xz2t.ranges(
            &Rect::new(116.0, 39.0, 116.5, 39.5),
            0,
            DAY_MS,
            &RangeOptions::default(),
        );
        assert!(!ranges.iter().any(|r| r.period == p && r.range.contains(c)));
    }

    #[test]
    fn empty_windows() {
        let z2t = Z2t::new(TimePeriod::Day);
        let xz2t = Xz2t::new(TimePeriod::Day);
        let w = Rect::new(0.0, 0.0, 1.0, 1.0);
        assert!(z2t.ranges(&w, 10, 5, &RangeOptions::default()).is_empty());
        assert!(xz2t.ranges(&w, 10, 5, &RangeOptions::default()).is_empty());
    }
}
