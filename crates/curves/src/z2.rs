//! The Z2 index: Morton order over (longitude, latitude) for point data.

use crate::morton::{deinterleave2, interleave2, ZCells};
use crate::range::{decompose, KeyRange, RangeOptions};
use crate::{discretize, norm_lat, norm_lng};
use just_geo::Rect;

/// Z-order curve over the longitude/latitude plane.
#[derive(Debug, Clone, Copy)]
pub struct Z2 {
    bits: u32,
}

impl Default for Z2 {
    fn default() -> Self {
        // 30 bits per dimension = 60-bit codes: ~1 cm cells at the equator,
        // comfortably finer than GPS accuracy.
        Z2::new(30)
    }
}

impl Z2 {
    /// Creates a curve with `bits` of resolution per dimension (1..=31).
    pub(crate) fn new(bits: u32) -> Self {
        assert!((1..=31).contains(&bits), "bits must be in 1..=31");
        Z2 { bits }
    }

    /// Resolution in bits per dimension.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Encodes a point into its Z2 code.
    pub fn index(&self, lng: f64, lat: f64) -> u64 {
        let x = discretize(norm_lng(lng), self.bits);
        let y = discretize(norm_lat(lat), self.bits);
        interleave2(x, y)
    }

    /// The cell rectangle whose Z2 code is `z`.
    pub fn invert(&self, z: u64) -> Rect {
        let (x, y) = deinterleave2(z);
        let cells = (1u64 << self.bits) as f64;
        let w = 360.0 / cells;
        let h = 180.0 / cells;
        let min_x = -180.0 + x as f64 * w;
        let min_y = -90.0 + y as f64 * h;
        Rect::new(min_x, min_y, min_x + w, min_y + h)
    }

    /// Decomposes a query window into merged inclusive code ranges (the
    /// GeoMesa approach): a quadrant wholly inside the
    /// window contributes its whole code subtree; partially-covered
    /// quadrants are split, worst first, while the range budget lasts,
    /// and then contribute their covering range.
    pub fn ranges(&self, query: &Rect, opts: &RangeOptions) -> Vec<KeyRange> {
        match cell_window(query, self.bits) {
            Some((lo, hi)) => decompose(
                &ZCells {
                    bits: self.bits,
                    lo,
                    hi,
                },
                opts.target_ranges,
            ),
            None => Vec::new(),
        }
    }
}

/// The part of `query` inside the world as inclusive `[lng, lat]` bounds
/// in the discrete cell space of `bits` per dimension.
pub(crate) fn cell_window(query: &Rect, bits: u32) -> Option<([u64; 2], [u64; 2])> {
    let q = query.intersection(&just_geo::WORLD)?;
    Some((
        [
            discretize(norm_lng(q.min_x), bits),
            discretize(norm_lat(q.min_y), bits),
        ],
        [
            discretize(norm_lng(q.max_x), bits),
            discretize(norm_lat(q.max_y), bits),
        ],
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use just_geo::Point;

    #[test]
    fn paper_figure3_example() {
        // Figure 3a/3b: lat 40.78, lng -73.97 at 3 bits per dimension
        // encodes lat -> 101, lng -> 010, crosswise combined 011001
        // (reading lng/lat alternately starting with... the paper shows
        // "0 1 01 0 1"). With our convention (x even bits, y odd bits):
        let z2 = Z2::new(3);
        let code = z2.index(-73.97, 40.78);
        // lng -73.97 -> norm 0.2945 -> cell floor(0.2945*8)=2 = 0b010
        // lat  40.78 -> norm 0.7265 -> cell floor(0.7265*8)=5 = 0b101
        assert_eq!(code, interleave2(0b010, 0b101));
    }

    #[test]
    fn index_is_monotone_in_quadrants() {
        let z2 = Z2::default();
        // Points in the SW hemisphere-quadrant sort before NE ones.
        assert!(z2.index(-90.0, -45.0) < z2.index(90.0, 45.0));
    }

    #[test]
    fn invert_contains_original_point() {
        let z2 = Z2::default();
        for &(lng, lat) in &[
            (0.0, 0.0),
            (116.397, 39.916),
            (-73.97, 40.78),
            (-179.99, -89.99),
            (179.99, 89.99),
        ] {
            let cell = z2.invert(z2.index(lng, lat));
            assert!(
                cell.contains_point(&Point::new(lng, lat)),
                "({lng},{lat}) not in {cell:?}"
            );
        }
    }

    #[test]
    fn ranges_cover_indexed_points_inside_window() {
        let z2 = Z2::default();
        let window = Rect::new(116.0, 39.0, 117.0, 40.0);
        let ranges = z2.ranges(&window, &RangeOptions::default());
        assert!(!ranges.is_empty());
        // Every point inside the window must fall into some range.
        for i in 0..50 {
            for j in 0..50 {
                let lng = 116.0 + i as f64 / 49.0;
                let lat = 39.0 + j as f64 / 49.0;
                let code = z2.index(lng, lat);
                assert!(
                    ranges.iter().any(|r| r.contains(code)),
                    "({lng},{lat}) escaped the ranges"
                );
            }
        }
    }

    #[test]
    fn ranges_exclude_far_away_points() {
        let z2 = Z2::default();
        let window = Rect::new(116.0, 39.0, 117.0, 40.0);
        let ranges = z2.ranges(&window, &RangeOptions::default());
        // A point on the other side of the planet must not be covered
        // (Z-order has false positives near the window, not globally).
        let code = z2.index(-120.0, -40.0);
        assert!(!ranges.iter().any(|r| r.contains(code)));
    }

    #[test]
    fn larger_budget_tightens_selectivity() {
        let z2 = Z2::default();
        let window = Rect::new(116.0, 39.0, 116.2, 39.2);
        let span = |opts: &RangeOptions| -> u128 {
            z2.ranges(&window, opts)
                .iter()
                .map(|r| r.len() as u128)
                .sum()
        };
        let coarse = span(&RangeOptions { target_ranges: 4 });
        let fine = span(&RangeOptions { target_ranges: 64 });
        assert!(fine < coarse, "fine {fine} !< coarse {coarse}");
    }

    #[test]
    fn budget_is_spent_evenly_around_a_quadrant_corner() {
        // A window straddling the world's centre — the corner of the four
        // top-level quadrants — off-centre, and its three mirror images.
        // A depth-first walk spends its whole range budget inside the
        // first quadrant in Morton order and emits the other three whole
        // (3/4 of the key space, whichever placement); best-first
        // refinement must hug all four placements alike.
        let z2 = Z2::default();
        let (near, far) = (0.3, 1.1);
        let ratios: Vec<f64> = [(1.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)]
            .iter()
            .map(|&(sx, sy)| {
                let (x0, x1) = if sx > 0.0 { (-near, far) } else { (-far, near) };
                let (y0, y1) = if sy > 0.0 { (-near, far) } else { (-far, near) };
                let window = Rect::new(x0, y0, x1, y1);
                let (lo, hi) = cell_window(&window, z2.bits()).unwrap();
                let query = ((hi[0] - lo[0] + 1) as u128 * (hi[1] - lo[1] + 1) as u128) as f64;
                let ranges = z2.ranges(&window, &RangeOptions::default());
                let covered: u128 = ranges.iter().map(|r| r.len() as u128).sum();
                covered as f64 / query
            })
            .collect();
        let (min, max) = ratios
            .iter()
            .fold((f64::MAX, 0.0f64), |(lo, hi), &r| (lo.min(r), hi.max(r)));
        assert!(
            min >= 1.0 && max < 2.0,
            "covered/query per placement: {ratios:?}"
        );
        assert!(max <= 2.0 * min, "placement bias: {ratios:?}");
    }

    #[test]
    fn whole_world_is_one_range() {
        let z2 = Z2::default();
        let ranges = z2.ranges(&just_geo::WORLD, &RangeOptions::default());
        assert_eq!(ranges.len(), 1);
        assert_eq!(ranges[0].lo, 0);
        assert_eq!(ranges[0].hi, (1u64 << (2 * z2.bits())) - 1);
    }

    #[test]
    fn empty_intersection_gives_no_ranges() {
        let z2 = Z2::default();
        let offworld = Rect::new(500.0, 500.0, 600.0, 600.0);
        assert!(z2.ranges(&offworld, &RangeOptions::default()).is_empty());
    }
}
