//! The XZ3 index: the octree extension of XZ-ordering with a time
//! dimension, bucketed by time period — GeoMesa's native spatio-temporal
//! index for extended objects.
//!
//! Like Z3 vs Z2T, XZ3 is the baseline that the paper's XZ2T improves on:
//! a trajectory's temporal extent is usually a far larger fraction of its
//! period than its spatial extent is of the Earth, which forces XZ3 to
//! assign very shallow octree cells and destroys spatial selectivity
//! (Section IV-C and Figure 5a).

use crate::range::{decompose, PeriodRange, RangeOptions, XZ_PERIOD_FLOOR};
use crate::xz2::{norm_window, subtree_size, XzCells};
use crate::{norm_lat, norm_lng, TimePeriod};
use just_geo::Rect;

/// A spatio-temporal MBR: the input to XZ3 indexing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StMbr {
    /// Spatial bounds.
    pub rect: Rect,
    /// Earliest timestamp (ms since epoch).
    pub t_min: i64,
    /// Latest timestamp (ms since epoch).
    pub t_max: i64,
}

impl StMbr {
    /// Creates a spatio-temporal MBR.
    pub fn new(rect: Rect, t_min: i64, t_max: i64) -> Self {
        debug_assert!(t_min <= t_max);
        StMbr { rect, t_min, t_max }
    }
}

/// XZ-ordering over (lng, lat, time-in-period).
#[derive(Debug, Clone, Copy)]
pub struct Xz3 {
    g: u32,
    period: TimePeriod,
}

impl Xz3 {
    /// Creates the curve with maximum octree depth `g` (1..=20) and the
    /// given time period.
    pub fn new(g: u32, period: TimePeriod) -> Self {
        assert!((1..=20).contains(&g), "g must be in 1..=20");
        Xz3 { g, period }
    }

    /// GeoMesa-like default resolution with a custom period.
    pub fn with_period(period: TimePeriod) -> Self {
        Xz3::new(12, period)
    }

    /// Encodes a spatio-temporal MBR as `(period, sequence code)`. The
    /// period is taken from `t_min`, exactly as Equation (3) does for
    /// XZ2T — an object belongs to the period its lifetime starts in.
    pub fn index(&self, mbr: &StMbr) -> (i32, u64) {
        let period = self.period.period_of(mbr.t_min);
        let x_min = norm_lng(mbr.rect.min_x);
        let y_min = norm_lat(mbr.rect.min_y);
        let x_max = norm_lng(mbr.rect.max_x);
        let y_max = norm_lat(mbr.rect.max_y);
        let t_lo = self.period.fraction(mbr.t_min);
        // Temporal extent relative to the period, clamped: objects longer
        // than their period behave as full-period extents.
        let t_len = ((mbr.t_max - mbr.t_min) as f64 / self.period.len_ms() as f64).min(1.0);
        let t_hi = (t_lo + t_len).min(1.0);

        let l = self.element_level(
            x_max - x_min,
            y_max - y_min,
            t_hi - t_lo,
            x_min,
            y_min,
            t_lo,
        );
        (period, self.sequence_code(x_min, y_min, t_lo, l))
    }

    fn element_level(&self, w: f64, h: f64, d: f64, x: f64, y: f64, t: f64) -> u32 {
        let max_dim = w.max(h).max(d);
        let l1 = if max_dim <= 0.0 {
            self.g
        } else {
            (-max_dim.log2()).floor().max(0.0).min(self.g as f64) as u32
        };
        if l1 == 0 {
            return 0;
        }
        let cell = 2f64.powi(-(l1 as i32));
        let bx = (x / cell).floor() * cell;
        let by = (y / cell).floor() * cell;
        let bt = (t / cell).floor() * cell;
        if x + w <= bx + 2.0 * cell && y + h <= by + 2.0 * cell && t + d <= bt + 2.0 * cell {
            l1
        } else {
            l1 - 1
        }
    }

    fn sequence_code(&self, x: f64, y: f64, t: f64, l: u32) -> u64 {
        let mut code = 0u64;
        let (mut cx, mut cy, mut ct, mut w) = (0.0f64, 0.0f64, 0.0f64, 1.0f64);
        for i in 1..=l {
            w /= 2.0;
            let qx = if x >= cx + w { 1u64 } else { 0 };
            let qy = if y >= cy + w { 1u64 } else { 0 };
            let qt = if t >= ct + w { 1u64 } else { 0 };
            let octant = qx | (qy << 1) | (qt << 2);
            code += 1 + octant * subtree_size::<3>(self.g, i);
            cx += qx as f64 * w;
            cy += qy as f64 * w;
            ct += qt as f64 * w;
        }
        code
    }

    /// Decomposes a spatio-temporal window into per-period code ranges;
    /// the periods it scans share the range budget equally, down to
    /// 64 ranges each (what an XZ curve needs to select at all).
    pub fn ranges(
        &self,
        query: &Rect,
        t_min: i64,
        t_max: i64,
        opts: &RangeOptions,
    ) -> Vec<PeriodRange> {
        let Some((lo, hi)) = norm_window(query) else {
            return Vec::new();
        };
        if t_min > t_max {
            return Vec::new();
        }
        // Objects are stored in the period of their t_min, but an object
        // starting in an earlier period can extend into the query window;
        // scanning one extra period backwards bounds the miss to objects
        // longer than a whole period (the same trade-off the paper's
        // day-period configuration makes for multi-day trajectories).
        let periods = self.period.period_of(t_min) - 1..=self.period.period_of(t_max);
        let budget = opts.per_period(periods.clone().count(), XZ_PERIOD_FLOOR);
        let p_len = self.period.len_ms() as f64;
        let mut out = Vec::new();
        for period in periods {
            let p_start = self.period.start_of(period);
            // Query time window normalised to this period. It may extend
            // past the period's end, which the enlarged-cell intersection
            // handles naturally; but an object's extent is indexed clamped
            // to its period, so a window that *starts* past the end must
            // still reach every object touching the end.
            let cells = XzCells {
                g: self.g,
                lo: [
                    lo[0],
                    lo[1],
                    ((t_min - p_start) as f64 / p_len).clamp(0.0, 1.0),
                ],
                hi: [hi[0], hi[1], ((t_max - p_start) as f64 / p_len).min(2.0)],
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

    const HOUR_MS: i64 = 3_600_000;

    fn traj_mbr(lng: f64, lat: f64, t0: i64) -> StMbr {
        StMbr::new(
            Rect::new(lng, lat, lng + 0.02, lat + 0.02),
            t0,
            t0 + 2 * HOUR_MS,
        )
    }

    #[test]
    fn subtree_sizes() {
        assert_eq!(subtree_size::<3>(1, 1), 1);
        assert_eq!(subtree_size::<3>(1, 0), 9); // root + 8 children
    }

    #[test]
    fn index_assigns_period_of_t_min() {
        let xz3 = Xz3::new(10, TimePeriod::Day);
        let day = 24 * HOUR_MS;
        // Starts late on day 0, ends on day 1: stored under day 0.
        let m = StMbr::new(Rect::new(0.0, 0.0, 0.1, 0.1), day - HOUR_MS, day + HOUR_MS);
        let (p, _) = xz3.index(&m);
        assert_eq!(p, 0);
    }

    #[test]
    fn ranges_cover_indexed_trajectories() {
        let xz3 = Xz3::new(12, TimePeriod::Day);
        let window = Rect::new(116.0, 39.0, 116.5, 39.5);
        let (t0, t1) = (HOUR_MS, 13 * HOUR_MS);
        let ranges = xz3.ranges(&window, t0, t1, &RangeOptions::default());
        assert!(!ranges.is_empty());
        for i in 0..10 {
            let f = i as f64 / 9.0;
            let m = traj_mbr(
                116.0 + 0.45 * f,
                39.0 + 0.45 * f,
                t0 + (t1 - t0 - 2 * HOUR_MS).max(0) * i / 9,
            );
            let (p, code) = xz3.index(&m);
            assert!(
                ranges
                    .iter()
                    .any(|pr| pr.period == p && pr.range.contains(code)),
                "{m:?} escaped"
            );
        }
    }

    #[test]
    fn cross_period_objects_found_via_lookback() {
        let xz3 = Xz3::new(12, TimePeriod::Day);
        let day = 24 * HOUR_MS;
        // Trajectory starts 1h before midnight, ends 1h after.
        let m = StMbr::new(
            Rect::new(116.0, 39.0, 116.1, 39.1),
            day - HOUR_MS,
            day + HOUR_MS,
        );
        let (p, code) = xz3.index(&m);
        assert_eq!(p, 0);
        // Query only the second day.
        let ranges = xz3.ranges(
            &Rect::new(115.9, 38.9, 116.2, 39.2),
            day,
            day + 2 * HOUR_MS,
            &RangeOptions::default(),
        );
        assert!(
            ranges
                .iter()
                .any(|pr| pr.period == p && pr.range.contains(code)),
            "cross-period object missed"
        );
    }

    #[test]
    fn spatially_far_objects_not_covered() {
        let xz3 = Xz3::new(12, TimePeriod::Day);
        let window = Rect::new(116.0, 39.0, 116.5, 39.5);
        let ranges = xz3.ranges(&window, 0, 4 * HOUR_MS, &RangeOptions::default());
        let far = traj_mbr(-120.0, -40.0, HOUR_MS);
        let (p, code) = xz3.index(&far);
        assert!(!ranges
            .iter()
            .any(|pr| pr.period == p && pr.range.contains(code)));
    }

    #[test]
    fn long_time_extent_forces_shallow_cells() {
        // Section IV-C: an object alive for half its period gets level <= 1
        // no matter how small its spatial footprint — spatial filtering is
        // lost.
        let xz3 = Xz3::new(12, TimePeriod::Day);
        let m = StMbr::new(
            Rect::new(116.0, 39.0, 116.0001, 39.0001), // metres across
            0,
            13 * HOUR_MS, // 13/24 of the period
        );
        let (_, code) = xz3.index(&m);
        // Level <= 1 codes are tiny (at most 1 + 3*subtree(1)).
        assert!(code <= 1 + 7 * subtree_size::<3>(12, 1), "code {code}");
    }
}
