//! The Z3 index: Morton order over (longitude, latitude, time-in-period),
//! bucketed by time period — GeoMesa's native spatio-temporal point index
//! (Figure 3c–3e of the paper).
//!
//! Z3 is the baseline the paper's Z2T improves on: because the temporal
//! bits are interleaved with the spatial bits *within* a period, a query
//! whose time window is a large fraction of the period degrades the
//! spatial filtering (Section IV-B's motivation).

use crate::morton::{interleave3, ZCells};
use crate::range::{decompose, z_period_floor, PeriodRange, RangeOptions};
use crate::z2::cell_window;
use crate::{discretize, norm_lat, norm_lng, TimePeriod};
use just_geo::Rect;

/// Z-order curve over (lng, lat, t) with per-period bucketing.
#[derive(Debug, Clone, Copy)]
pub struct Z3 {
    bits: u32,
    period: TimePeriod,
}

impl Z3 {
    /// Creates a Z3 curve with `bits` per dimension (1..=21) and the given
    /// time period.
    pub fn new(bits: u32, period: TimePeriod) -> Self {
        assert!((1..=21).contains(&bits), "bits must be in 1..=21");
        Z3 { bits, period }
    }

    /// GeoMesa-like default: 21 bits per dimension, weekly periods.
    pub fn with_period(period: TimePeriod) -> Self {
        Z3::new(21, period)
    }

    /// Encodes a spatio-temporal point as `(period number, z3 code)`.
    pub fn index(&self, lng: f64, lat: f64, t_ms: i64) -> (i32, u64) {
        let x = discretize(norm_lng(lng), self.bits);
        let y = discretize(norm_lat(lat), self.bits);
        let t = discretize(self.period.fraction(t_ms), self.bits);
        (self.period.period_of(t_ms), interleave3(x, y, t))
    }

    /// The (cell rectangle, time-fraction bounds) of a code: the oracle
    /// for [`Z3::index`].
    #[cfg(test)]
    fn invert(&self, z: u64) -> (Rect, (f64, f64)) {
        let (x, y, t) = crate::morton::deinterleave3(z);
        let cells = (1u64 << self.bits) as f64;
        let w = 360.0 / cells;
        let h = 180.0 / cells;
        let min_x = -180.0 + x as f64 * w;
        let min_y = -90.0 + y as f64 * h;
        let t_lo = t as f64 / cells;
        (
            Rect::new(min_x, min_y, min_x + w, min_y + h),
            (t_lo, t_lo + 1.0 / cells),
        )
    }

    /// Decomposes a spatio-temporal window into per-period code ranges;
    /// the periods it touches share the range budget equally, down to
    /// eight ranges each (the cells that meet at a corner of the octree).
    pub fn ranges(
        &self,
        query: &Rect,
        t_min: i64,
        t_max: i64,
        opts: &RangeOptions,
    ) -> Vec<PeriodRange> {
        let Some((lo, hi)) = cell_window(query, self.bits) else {
            return Vec::new();
        };
        if t_min > t_max {
            return Vec::new();
        }
        let periods = self.period.periods_covering(t_min, t_max);
        let budget = opts.per_period(periods.clone().count(), z_period_floor(3));
        let mut out = Vec::new();
        for period in periods {
            // Clamp the time window to this period and normalise.
            let lo_ms = t_min.max(self.period.start_of(period));
            let hi_ms = t_max.min(self.period.end_of(period) - 1);
            let cells = ZCells {
                bits: self.bits,
                lo: [
                    lo[0],
                    lo[1],
                    discretize(self.period.fraction(lo_ms), self.bits),
                ],
                hi: [
                    hi[0],
                    hi[1],
                    discretize(self.period.fraction(hi_ms), self.bits),
                ],
            };
            out.extend(
                decompose(&cells, budget)
                    .into_iter()
                    .map(|range| PeriodRange { period, range }),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DAY_MS: i64 = 86_400_000;

    #[test]
    fn index_assigns_periods() {
        let z3 = Z3::new(10, TimePeriod::Day);
        let (p0, _) = z3.index(116.0, 39.0, 0);
        let (p1, _) = z3.index(116.0, 39.0, DAY_MS + 5);
        assert_eq!(p0, 0);
        assert_eq!(p1, 1);
    }

    #[test]
    fn ranges_cover_points_in_window() {
        let z3 = Z3::new(12, TimePeriod::Day);
        let window = Rect::new(116.0, 39.0, 116.5, 39.5);
        let (t_min, t_max) = (3_600_000i64, 13 * 3_600_000); // 01:00-13:00
        let ranges = z3.ranges(&window, t_min, t_max, &RangeOptions::default());
        assert!(!ranges.is_empty());
        for i in 0..10 {
            let lng = 116.0 + 0.5 * i as f64 / 9.0;
            let lat = 39.0 + 0.5 * i as f64 / 9.0;
            let t = t_min + (t_max - t_min) * i as i64 / 9;
            let (p, code) = z3.index(lng, lat, t);
            assert!(
                ranges
                    .iter()
                    .any(|pr| pr.period == p && pr.range.contains(code)),
                "({lng},{lat},{t}) escaped"
            );
        }
    }

    #[test]
    fn multi_period_queries_span_periods() {
        let z3 = Z3::new(10, TimePeriod::Day);
        let window = Rect::new(0.0, 0.0, 1.0, 1.0);
        let ranges = z3.ranges(&window, 0, 3 * DAY_MS, &RangeOptions::default());
        let mut periods: Vec<i32> = ranges.iter().map(|r| r.period).collect();
        periods.dedup();
        assert_eq!(periods, vec![0, 1, 2, 3]);
    }

    #[test]
    fn paper_motivation_wide_time_window_weakens_spatial_filter() {
        // Section IV-B: with a 12h window in a 1-day period, Z3's covered
        // code span is a large fraction of the period even for a tiny
        // spatial window — much larger than the spatial selectivity alone
        // would suggest.
        // Both planners get the same scan budget (a real system issues a
        // bounded number of SCANs). Z3 must burn its budget subdividing the
        // wide time dimension, so its covered code fraction stays enormous;
        // Z2 (what Z2T uses inside a period) nails the window in a handful
        // of ranges.
        let opts = RangeOptions { target_ranges: 32 };
        let z3 = Z3::new(16, TimePeriod::Day);
        let tiny = Rect::window_km(just_geo::Point::new(116.4, 39.9), 1.0);
        let ranges = z3.ranges(&tiny, 3_600_000, 13 * 3_600_000, &opts);
        let covered: u128 = ranges.iter().map(|r| r.range.len() as u128).sum();
        let period_space = 1u128 << (3 * z3.bits);
        let z3_selectivity = covered as f64 / period_space as f64;

        let z2 = crate::Z2::new(16);
        let z2_ranges = z2.ranges(&tiny, &opts);
        let z2_covered: u128 = z2_ranges.iter().map(|r| r.len() as u128).sum();
        let z2_selectivity = z2_covered as f64 / (1u128 << (2 * z2.bits())) as f64;

        // Measured: z3 ≈ 1.5e-4 of the period space vs z2 ≈ 3.7e-9.
        assert!(
            z3_selectivity > 1e4 * z2_selectivity,
            "z3 {z3_selectivity:e} vs z2 {z2_selectivity:e}"
        );
    }

    #[test]
    fn invert_is_consistent() {
        let z3 = Z3::new(16, TimePeriod::Day);
        let (_, code) = z3.index(116.4, 39.9, 12 * 3_600_000);
        let (cell, (t_lo, t_hi)) = z3.invert(code);
        assert!(cell.contains_point(&just_geo::Point::new(116.4, 39.9)));
        let frac = TimePeriod::Day.fraction(12 * 3_600_000);
        assert!(t_lo <= frac && frac < t_hi);
    }

    #[test]
    fn empty_time_window() {
        let z3 = Z3::new(10, TimePeriod::Day);
        let window = Rect::new(0.0, 0.0, 1.0, 1.0);
        assert!(z3
            .ranges(&window, 100, 50, &RangeOptions::default())
            .is_empty());
    }
}
