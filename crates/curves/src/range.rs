//! Key ranges produced by query planning, and the one routine that
//! decomposes a query window into them.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An inclusive range `[lo, hi]` of curve codes, to be executed as one
/// `SCAN` over the ordered key-value store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KeyRange {
    /// First code covered.
    pub lo: u64,
    /// Last code covered (inclusive).
    pub hi: u64,
}

impl KeyRange {
    /// Creates a range, asserting `lo <= hi` in debug builds.
    pub(crate) fn new(lo: u64, hi: u64) -> Self {
        debug_assert!(lo <= hi);
        KeyRange { lo, hi }
    }

    /// A single-code range.
    pub(crate) fn point(v: u64) -> Self {
        KeyRange { lo: v, hi: v }
    }

    /// Whether `v` is inside the range.
    pub fn contains(&self, v: u64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Number of codes covered (saturating).
    pub fn len(&self) -> u64 {
        (self.hi - self.lo).saturating_add(1)
    }

    /// Ranges are never empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// A key range qualified by a time-period number — the planning output of
/// the Z3/XZ3/Z2T/XZ2T strategies, whose keys are `period :: code`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PeriodRange {
    /// Time-period number from Equation (1) of the paper.
    pub period: i32,
    /// The spatial (or spatio-temporal) code range within the period.
    pub range: KeyRange,
}

/// The budget bounding query decomposition.
#[derive(Debug, Clone, Copy)]
pub struct RangeOptions {
    /// Target number of key ranges per query, counted before the storage
    /// layer's shard fan-out. More ranges hug the window tighter (fewer
    /// keys scanned and post-filtered) but cost one seek each. A window
    /// touching several time periods splits the budget between them, down
    /// to a per-period floor.
    pub target_ranges: usize,
}

impl Default for RangeOptions {
    fn default() -> Self {
        // The measured knee of keys scanned against seeks for city-scale
        // windows (EXPERIMENTS.md, "Range budget crossover").
        RangeOptions { target_ranges: 64 }
    }
}

/// Fewest ranges a time period of a `dims`-dimensional Z-curve window
/// gets however many periods share the budget: the 2^dims cells that meet
/// at a corner of the tree, so a window straddling one is not answered
/// with their common ancestor.
pub(crate) const fn z_period_floor(dims: u32) -> usize {
    1 << dims
}

/// The same for the XZ curves, which spend 4-9 single-code ranges per tree
/// level on the objects stored *at* the cells they descend through; below
/// this they cover a constant share of the period (EXPERIMENTS.md, "Range
/// budget crossover").
pub(crate) const XZ_PERIOD_FLOOR: usize = 64;

impl RangeOptions {
    /// The budget each of `periods` time periods gets: an equal share of
    /// the target, but at least `floor` (or the whole target, if that is
    /// smaller). Below the floor a period is scanned nearly whole, which
    /// costs more than the seeks saved, and a window over many periods
    /// returns that many times the rows anyway.
    pub(crate) fn per_period(&self, periods: usize, floor: usize) -> usize {
        (self.target_ranges / periods.max(1))
            .max(floor.min(self.target_ranges))
            .max(1)
    }
}

/// How a cell of a [`CellTree`] relates to the query window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Relation {
    /// Nothing stored at or below the cell can match.
    Disjoint,
    /// Everything stored at or below the cell is a candidate, or the cell
    /// cannot be refined further: its range is final.
    Contained,
    /// Some of it may match. Carries the cell's over-coverage: the number
    /// of keys in its range that cannot.
    Overlaps(u64),
}

/// The quadtree/octree a curve numbers, seen from one query window.
pub(crate) trait CellTree {
    /// One node of the tree.
    type Cell: Copy;
    /// The cell covering the whole space.
    fn root(&self) -> Self::Cell;
    /// Relation of the cell to the query; never [`Relation::Overlaps`]
    /// for a cell without children.
    fn relation(&self, cell: &Self::Cell) -> Relation;
    /// Key range of everything stored at or below the cell.
    fn range(&self, cell: &Self::Cell) -> KeyRange;
    /// The key of records stored *at* the cell rather than below it (XZ
    /// curves); it must be scanned whenever the cell is split.
    fn own_code(&self, _cell: &Self::Cell) -> Option<u64> {
        None
    }
    /// The children, in key order, of a cell that overlaps the query.
    fn children(&self, cell: &Self::Cell) -> impl Iterator<Item = Self::Cell>;
}

/// Decomposes the tree's query window into at most `budget` sorted,
/// coalesced key ranges covering every key that can match.
///
/// Best-first refinement: of the cells that straddle the window's
/// boundary, the one with the most over-coverage is split next, wherever
/// on the curve it lies, until every cell is inside the window or the
/// next split would take emitted + pending ranges past the budget.
/// Stopping at the first split that does not fit (instead of trying a
/// cheaper one) makes the splits done under a budget a prefix of those
/// done under any larger one, so a larger budget never covers more keys.
pub(crate) fn decompose<T: CellTree>(tree: &T, budget: usize) -> Vec<KeyRange> {
    // Pre-sized for any sane budget; the budget itself is not a bound on
    // memory a caller can be trusted with.
    let room = budget.min(1024);
    let mut done = Vec::with_capacity(room);
    // Cells straddling the window's boundary: (over-coverage, lowest key
    // first so the order is total, index into `cells`).
    let mut pending = BinaryHeap::with_capacity(room);
    let mut cells = Vec::with_capacity(room);
    let root = tree.root();
    let mut fresh = vec![(root, tree.relation(&root))];
    loop {
        for (cell, relation) in fresh.drain(..) {
            match relation {
                Relation::Disjoint => {}
                Relation::Contained => done.push(tree.range(&cell)),
                Relation::Overlaps(excess) => {
                    pending.push((excess, Reverse(tree.range(&cell).lo), cells.len()));
                    cells.push(cell);
                }
            }
        }
        let Some(&(_, _, top)) = pending.peek() else {
            break;
        };
        fresh.extend(
            tree.children(&cells[top])
                .map(|kid| (kid, tree.relation(&kid)))
                .filter(|(_, relation)| *relation != Relation::Disjoint),
        );
        let own = tree.own_code(&cells[top]);
        if done.len() + pending.len() - 1 + fresh.len() + usize::from(own.is_some()) > budget {
            break;
        }
        done.extend(own.map(KeyRange::point));
        pending.pop();
    }
    done.extend(pending.iter().map(|&(_, _, i)| tree.range(&cells[i])));
    merge_ranges(done)
}

/// Sorts and merges overlapping or adjacent ranges.
pub(crate) fn merge_ranges(mut ranges: Vec<KeyRange>) -> Vec<KeyRange> {
    if ranges.len() <= 1 {
        return ranges;
    }
    ranges.sort_unstable();
    let mut out = Vec::with_capacity(ranges.len());
    let mut cur = ranges[0];
    for r in ranges.into_iter().skip(1) {
        // Adjacent (hi + 1 == lo) or overlapping ranges coalesce.
        if r.lo <= cur.hi.saturating_add(1) {
            cur.hi = cur.hi.max(r.hi);
        } else {
            out.push(cur);
            cur = r;
        }
    }
    out.push(cur);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_overlapping_and_adjacent() {
        let merged = merge_ranges(vec![
            KeyRange::new(10, 20),
            KeyRange::new(0, 5),
            KeyRange::new(21, 30),
            KeyRange::new(15, 25),
            KeyRange::new(40, 50),
        ]);
        assert_eq!(
            merged,
            vec![
                KeyRange::new(0, 5),
                KeyRange::new(10, 30),
                KeyRange::new(40, 50)
            ]
        );
    }

    #[test]
    fn merge_handles_extremes() {
        let merged = merge_ranges(vec![
            KeyRange::new(u64::MAX - 1, u64::MAX),
            KeyRange::new(0, 0),
            KeyRange::new(1, 1),
        ]);
        assert_eq!(
            merged,
            vec![KeyRange::new(0, 1), KeyRange::new(u64::MAX - 1, u64::MAX)]
        );
    }

    #[test]
    fn merge_empty_and_single() {
        assert!(merge_ranges(vec![]).is_empty());
        assert_eq!(
            merge_ranges(vec![KeyRange::point(7)]),
            vec![KeyRange::point(7)]
        );
    }

    #[test]
    fn range_len() {
        assert_eq!(KeyRange::new(3, 3).len(), 1);
        assert_eq!(KeyRange::new(0, u64::MAX).len(), u64::MAX);
    }
}
