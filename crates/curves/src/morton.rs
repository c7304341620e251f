//! Morton (Z-order) bit interleaving, and the cell tree a Morton curve
//! numbers.
//!
//! Figure 3 of the paper: coordinates are binary-searched into bit strings
//! and interleaved crosswise into a single code. The magic-number spread
//! implementations below are the branch-free equivalent.

use crate::range::{CellTree, KeyRange, Relation};

/// Spreads the low 32 bits of `v` so bit `i` lands at position `2i`.
#[inline]
pub(crate) fn spread2(v: u64) -> u64 {
    let mut x = v & 0xFFFF_FFFF;
    x = (x | (x << 16)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x << 8)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    x = (x | (x << 1)) & 0x5555_5555_5555_5555;
    x
}

/// Inverse of [`spread2`]: gathers every second bit.
#[inline]
pub(crate) fn squash2(v: u64) -> u64 {
    let mut x = v & 0x5555_5555_5555_5555;
    x = (x | (x >> 1)) & 0x3333_3333_3333_3333;
    x = (x | (x >> 2)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x >> 4)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x >> 8)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x >> 16)) & 0x0000_0000_FFFF_FFFF;
    x
}

/// Interleaves two coordinates: `x` occupies even bits, `y` odd bits.
#[inline]
pub(crate) fn interleave2(x: u64, y: u64) -> u64 {
    spread2(x) | (spread2(y) << 1)
}

/// Inverse of [`interleave2`].
#[inline]
pub(crate) fn deinterleave2(z: u64) -> (u64, u64) {
    (squash2(z), squash2(z >> 1))
}

/// Spreads the low 21 bits of `v` so bit `i` lands at position `3i`.
#[inline]
pub(crate) fn spread3(v: u64) -> u64 {
    let mut x = v & 0x1F_FFFF;
    x = (x | (x << 32)) & 0x001F_0000_0000_FFFF;
    x = (x | (x << 16)) & 0x001F_0000_FF00_00FF;
    x = (x | (x << 8)) & 0x100F_00F0_0F00_F00F;
    x = (x | (x << 4)) & 0x10C3_0C30_C30C_30C3;
    x = (x | (x << 2)) & 0x1249_2492_4924_9249;
    x
}

/// Inverse of [`spread3`].
#[cfg(test)]
fn squash3(v: u64) -> u64 {
    let mut x = v & 0x1249_2492_4924_9249;
    x = (x | (x >> 2)) & 0x10C3_0C30_C30C_30C3;
    x = (x | (x >> 4)) & 0x100F_00F0_0F00_F00F;
    x = (x | (x >> 8)) & 0x001F_0000_FF00_00FF;
    x = (x | (x >> 16)) & 0x001F_0000_0000_FFFF;
    x = (x | (x >> 32)) & 0x001F_FFFF;
    x
}

/// Interleaves three 21-bit coordinates into a 63-bit code.
#[inline]
pub(crate) fn interleave3(x: u64, y: u64, z: u64) -> u64 {
    spread3(x) | (spread3(y) << 1) | (spread3(z) << 2)
}

/// Inverse of [`interleave3`]: the oracle for it and for `Z3::index`.
#[cfg(test)]
pub(crate) fn deinterleave3(m: u64) -> (u64, u64, u64) {
    (squash3(m), squash3(m >> 1), squash3(m >> 2))
}

/// The quadtree (`D` = 2) or octree (`D` = 3) under a Morton curve of
/// `bits` per dimension, with the query window as inclusive bounds in
/// discrete cell space (which sidesteps floating-point edge cases).
pub(crate) struct ZCells<const D: usize> {
    pub bits: u32,
    pub lo: [u64; D],
    pub hi: [u64; D],
}

/// A node of [`ZCells`]: the cells whose codes start with `prefix`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ZCell<const D: usize> {
    prefix: u64,
    level: u32,
    origin: [u64; D],
}

impl<const D: usize> CellTree for ZCells<D> {
    type Cell = ZCell<D>;

    fn root(&self) -> ZCell<D> {
        ZCell {
            prefix: 0,
            level: 0,
            origin: [0; D],
        }
    }

    fn relation(&self, cell: &ZCell<D>) -> Relation {
        let side = 1u64 << (self.bits - cell.level);
        // Full-resolution cells of this node inside the window.
        let mut inside = 1u64;
        for d in 0..D {
            let lo = cell.origin[d].max(self.lo[d]);
            let hi = (cell.origin[d] + side - 1).min(self.hi[d]);
            if lo > hi {
                return Relation::Disjoint;
            }
            inside *= hi - lo + 1;
        }
        match self.range(cell).len() - inside {
            0 => Relation::Contained,
            excess => Relation::Overlaps(excess),
        }
    }

    fn range(&self, cell: &ZCell<D>) -> KeyRange {
        let shift = D as u32 * (self.bits - cell.level);
        let lo = cell.prefix << shift;
        KeyRange::new(lo, lo + ((1u64 << shift) - 1))
    }

    fn children(&self, cell: &ZCell<D>) -> impl Iterator<Item = ZCell<D>> {
        let cell = *cell;
        let half = 1u64 << (self.bits - cell.level - 1);
        (0..1u64 << D).map(move |i| {
            let mut origin = cell.origin;
            for (d, o) in origin.iter_mut().enumerate() {
                *o += ((i >> d) & 1) * half;
            }
            ZCell {
                prefix: (cell.prefix << D) | i,
                level: cell.level + 1,
                origin,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleave2_known_pattern() {
        // x = 0b101, y = 0b011 -> z bits: y2 x2 y1 x1 y0 x0 = 0 1 1 0 1 1
        assert_eq!(interleave2(0b101, 0b011), 0b011011);
        assert_eq!(interleave2(0, 0), 0);
        assert_eq!(interleave2(u32::MAX as u64, 0), 0x5555_5555_5555_5555);
        assert_eq!(interleave2(0, u32::MAX as u64), 0xAAAA_AAAA_AAAA_AAAA);
    }

    #[test]
    fn interleave2_roundtrip() {
        for &(x, y) in &[
            (0u64, 0u64),
            (1, 2),
            (12345, 67890),
            (0xFFFF_FFFF, 0xFFFF_FFFF),
            (0x1234_5678, 0x9ABC_DEF0 & 0xFFFF_FFFF),
        ] {
            assert_eq!(deinterleave2(interleave2(x, y)), (x, y));
        }
    }

    #[test]
    fn interleave3_roundtrip() {
        for &(x, y, z) in &[
            (0u64, 0u64, 0u64),
            (1, 2, 3),
            (0x1F_FFFF, 0, 0x15_5555),
            (0x1F_FFFF, 0x1F_FFFF, 0x1F_FFFF),
            (123_456, 654_321, 111_111),
        ] {
            assert_eq!(deinterleave3(interleave3(x, y, z)), (x, y, z));
        }
    }

    #[test]
    fn morton_order_preserves_quadrants() {
        // All codes of the SW quadrant sort before any code of the NE
        // quadrant at the same top level.
        let sw = interleave2(0, 0);
        let ne = interleave2(1 << 31, 1 << 31);
        assert!(sw < ne);
        // Quadrant numbering matches Figure 3b: (x-high, y-high) pairs
        // produce codes 0..=3 at the top 2 bits.
        let q = |xb: u64, yb: u64| interleave2(xb << 31, yb << 31) >> 62;
        assert_eq!(q(0, 0), 0);
        assert_eq!(q(0, 1), 2); // y occupies the higher interleaved bit
        assert_eq!(q(1, 0), 1);
        assert_eq!(q(1, 1), 3);
    }
}
