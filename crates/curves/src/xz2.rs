//! The XZ2 index: XZ-ordering for spatially extended objects
//! (Böhm, Klump & Kriegel, SSD'99), as used by GeoMesa for lines and
//! polygons.
//!
//! Each object is assigned the largest quadtree cell whose *enlarged*
//! (doubled width/height) version still contains the object's MBR
//! (Figure 3f of the paper). Cells are numbered by a depth-first sequence
//! code so that every subtree occupies a contiguous code interval, which
//! makes "everything under this cell" a single key range.

use crate::range::{decompose, CellTree, KeyRange, RangeOptions, Relation};
use crate::{norm_lat, norm_lng};
use just_geo::Rect;

/// XZ-ordering over the longitude/latitude plane.
#[derive(Debug, Clone, Copy)]
pub struct Xz2 {
    g: u32,
}

impl Default for Xz2 {
    fn default() -> Self {
        // Cells at level 16 are ~600 m on a side at the equator: fine
        // enough that urban query windows keep their spatial selectivity.
        Xz2::new(16)
    }
}

impl Xz2 {
    /// Creates the curve with maximum resolution `g` (1..=30).
    pub(crate) fn new(g: u32) -> Self {
        assert!((1..=30).contains(&g), "g must be in 1..=30");
        Xz2 { g }
    }

    /// Total number of sequence codes (exclusive upper bound): the size of
    /// the subtree rooted at the whole space.
    pub fn code_space(&self) -> u64 {
        subtree_size::<2>(self.g, 0)
    }

    /// Encodes an MBR (in degrees) into its XZ2 sequence code.
    pub fn index(&self, mbr: &Rect) -> u64 {
        let (x_min, y_min) = (norm_lng(mbr.min_x), norm_lat(mbr.min_y));
        let (x_max, y_max) = (norm_lng(mbr.max_x), norm_lat(mbr.max_y));
        let l = self.element_level(x_max - x_min, y_max - y_min, x_min, y_min);
        self.sequence_code(x_min, y_min, l)
    }

    /// The largest level whose enlarged cell contains the object.
    fn element_level(&self, w: f64, h: f64, x_min: f64, y_min: f64) -> u32 {
        let max_dim = w.max(h);
        let l1 = if max_dim <= 0.0 {
            self.g
        } else {
            // floor(log2(1/max_dim)) without overflow for tiny dims.
            (-max_dim.log2()).floor().max(0.0).min(self.g as f64) as u32
        };
        if l1 == 0 {
            return 0;
        }
        // Check the object fits in the enlarged cell at l1; if not, the
        // parent level always fits (Böhm's Lemma).
        let cell = 2f64.powi(-(l1 as i32));
        let bx = (x_min / cell).floor() * cell;
        let by = (y_min / cell).floor() * cell;
        if x_min + w <= bx + 2.0 * cell && y_min + h <= by + 2.0 * cell {
            l1
        } else {
            l1 - 1
        }
    }

    /// Depth-first sequence code of the level-`l` cell containing
    /// `(x, y)` (normalised coordinates).
    fn sequence_code(&self, x: f64, y: f64, l: u32) -> u64 {
        let mut code = 0u64;
        let (mut cx, mut cy, mut w) = (0.0f64, 0.0f64, 1.0f64);
        for i in 1..=l {
            w /= 2.0;
            let qx = if x >= cx + w { 1u64 } else { 0 };
            let qy = if y >= cy + w { 1u64 } else { 0 };
            let quadrant = qx | (qy << 1);
            code += 1 + quadrant * subtree_size::<2>(self.g, i);
            cx += qx as f64 * w;
            cy += qy as f64 * w;
        }
        code
    }

    /// Decomposes a query window into merged code ranges: a node whose
    /// enlarged cell the window contains contributes its whole subtree;
    /// nodes it only intersects are split, worst first, while the range
    /// budget lasts, each contributing its own code.
    pub fn ranges(&self, query: &Rect, opts: &RangeOptions) -> Vec<KeyRange> {
        match norm_window(query) {
            Some((lo, hi)) => decompose(&XzCells { g: self.g, lo, hi }, opts.target_ranges),
            None => Vec::new(),
        }
    }
}

/// The part of `query` inside the world as normalised `[lng, lat]` bounds.
pub(crate) fn norm_window(query: &Rect) -> Option<([f64; 2], [f64; 2])> {
    let q = query.intersection(&just_geo::WORLD)?;
    Some((
        [norm_lng(q.min_x), norm_lat(q.min_y)],
        [norm_lng(q.max_x), norm_lat(q.max_y)],
    ))
}

/// Number of sequence codes in a subtree rooted at a level-`level` cell
/// of a `2^D`-ary tree of depth `g` (the cell itself plus all
/// descendants): `((2^D)^(g-level+1) - 1) / (2^D - 1)`.
pub(crate) fn subtree_size<const D: usize>(g: u32, level: u32) -> u64 {
    ((1u64 << (D as u32 * (g - level + 1))) - 1) / ((1u64 << D) - 1)
}

/// The quadtree (`D` = 2) or octree (`D` = 3) an XZ curve of depth `g`
/// numbers, with the query window in normalised coordinates.
///
/// A node's *enlarged* cell (doubled in every dimension) bounds every
/// object stored at or below it, so: window ⊇ enlarged cell ⟹ the whole
/// subtree matches; window ∩ enlarged cell ≠ ∅ ⟹ the objects stored at
/// the node itself may match (its own code) and so may its children;
/// otherwise the subtree is pruned.
pub(crate) struct XzCells<const D: usize> {
    pub g: u32,
    pub lo: [f64; D],
    pub hi: [f64; D],
}

/// A node of [`XzCells`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct XzCell<const D: usize> {
    code: u64,
    level: u32,
    origin: [f64; D],
    w: f64,
}

impl<const D: usize> CellTree for XzCells<D> {
    type Cell = XzCell<D>;

    fn root(&self) -> XzCell<D> {
        XzCell {
            code: 0,
            level: 0,
            origin: [0.0; D],
            w: 1.0,
        }
    }

    fn relation(&self, cell: &XzCell<D>) -> Relation {
        let ext = 2.0 * cell.w;
        // Share of the enlarged cell's volume inside the window.
        let mut share = 1.0;
        let mut contained = true;
        for d in 0..D {
            let lo = self.lo[d].max(cell.origin[d]);
            let hi = self.hi[d].min(cell.origin[d] + ext);
            if lo > hi {
                return Relation::Disjoint;
            }
            contained &= self.lo[d] <= cell.origin[d] && self.hi[d] >= cell.origin[d] + ext;
            share *= (hi - lo) / ext;
        }
        if contained || cell.level == self.g {
            return Relation::Contained;
        }
        let codes = subtree_size::<D>(self.g, cell.level);
        Relation::Overlaps(codes.saturating_sub((codes as f64 * share) as u64))
    }

    fn range(&self, cell: &XzCell<D>) -> KeyRange {
        KeyRange::new(
            cell.code,
            cell.code + subtree_size::<D>(self.g, cell.level) - 1,
        )
    }

    fn own_code(&self, cell: &XzCell<D>) -> Option<u64> {
        Some(cell.code)
    }

    fn children(&self, cell: &XzCell<D>) -> impl Iterator<Item = XzCell<D>> {
        let cell = *cell;
        let half = cell.w / 2.0;
        let codes = subtree_size::<D>(self.g, cell.level + 1);
        (0..1u64 << D).map(move |i| {
            let mut origin = cell.origin;
            for (d, o) in origin.iter_mut().enumerate() {
                *o += ((i >> d) & 1) as f64 * half;
            }
            XzCell {
                code: cell.code + 1 + i * codes,
                level: cell.level + 1,
                origin,
                w: half,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subtree_sizes() {
        // g = 2: leaf subtree = 1 cell... level 2 cell has d = 1 -> 1 code.
        assert_eq!(subtree_size::<2>(2, 2), 1);
        // level-1 cell: itself + 4 leaves = 5.
        assert_eq!(subtree_size::<2>(2, 1), 5);
        // root: itself + 4 * 5 = 21.
        assert_eq!(subtree_size::<2>(2, 0), 21);
    }

    #[test]
    fn codes_are_unique_per_cell() {
        let xz = Xz2::new(6);
        let mut seen = std::collections::HashSet::new();
        // Enumerate small MBRs on a grid; distinct cells must not collide.
        for i in 0..32 {
            for j in 0..32 {
                let x = -180.0 + 360.0 * (i as f64 + 0.25) / 32.0;
                let y = -90.0 + 180.0 * (j as f64 + 0.25) / 32.0;
                let mbr = Rect::new(x, y, x + 0.01, y + 0.01);
                seen.insert(xz.index(&mbr));
            }
        }
        // 32x32 sub-cell MBRs at g=6 land in at least the 2^6-level cells.
        assert!(seen.len() >= 900, "only {} distinct codes", seen.len());
    }

    #[test]
    fn code_space_bound() {
        let xz = Xz2::new(16);
        let big = Rect::new(-179.0, -89.0, 179.0, 89.0);
        let small = Rect::new(116.40, 39.90, 116.41, 39.91);
        assert!(xz.index(&big) < xz.code_space());
        assert!(xz.index(&small) < xz.code_space());
    }

    #[test]
    fn larger_objects_get_shallower_cells() {
        let xz = Xz2::default();
        // A world-spanning object cannot fit any enlarged sub-cell: it is
        // stored at the root, which by DFS numbering is code 0.
        let world = Rect::new(-179.0, -89.0, 179.0, 89.0);
        assert_eq!(xz.index(&world), 0);
        // At the SW corner, codes count the levels descended: a
        // quarter-of-the-world object stops at level 2 (code 2), while a
        // tiny object descends all g levels (code g).
        let big_sw = Rect::new(-180.0, -90.0, -90.0, -45.0);
        let tiny_sw = Rect::new(-180.0, -90.0, -180.0, -90.0);
        assert_eq!(xz.index(&big_sw), 2);
        assert_eq!(xz.index(&tiny_sw), u64::from(xz.g));
    }

    #[test]
    fn ranges_cover_indexed_objects() {
        let xz = Xz2::default();
        let window = Rect::new(116.0, 39.0, 117.0, 40.0);
        let opts = RangeOptions::default();
        let ranges = xz.ranges(&window, &opts);
        assert!(!ranges.is_empty());
        // Objects overlapping the window must be covered.
        for i in 0..20 {
            let f = i as f64 / 19.0;
            let mbr = Rect::new(
                115.9 + f * 1.0,
                38.9 + f * 1.0,
                115.9 + f * 1.0 + 0.15,
                38.9 + f * 1.0 + 0.15,
            );
            if mbr.intersects(&window) {
                let code = xz.index(&mbr);
                assert!(
                    ranges.iter().any(|r| r.contains(code)),
                    "mbr {mbr:?} (code {code}) escaped"
                );
            }
        }
    }

    #[test]
    fn ranges_cover_objects_straddling_the_window_edge() {
        // An object much bigger than the window, overlapping it, must be
        // found via its shallow cell's single-code range.
        let xz = Xz2::default();
        let window = Rect::new(116.0, 39.0, 116.1, 39.1);
        let ranges = xz.ranges(&window, &RangeOptions::default());
        let giant = Rect::new(100.0, 20.0, 130.0, 50.0);
        let code = xz.index(&giant);
        assert!(ranges.iter().any(|r| r.contains(code)));
    }

    #[test]
    fn far_objects_not_covered() {
        let xz = Xz2::default();
        let window = Rect::new(116.0, 39.0, 117.0, 40.0);
        let ranges = xz.ranges(&window, &RangeOptions::default());
        let far = Rect::new(-120.0, -40.0, -119.9, -39.9);
        let code = xz.index(&far);
        assert!(!ranges.iter().any(|r| r.contains(code)));
    }

    #[test]
    fn point_like_mbr_gets_max_level() {
        let xz = Xz2::new(8);
        let p = Rect::new(10.0, 10.0, 10.0, 10.0);
        let code = xz.index(&p);
        // Max-level codes are large: they sit at the bottom of the tree.
        assert!(code >= 8); // at least one step per level
    }
}
