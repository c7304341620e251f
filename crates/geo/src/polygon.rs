//! Simple polygons (one exterior ring).

use crate::line::segment_intersects_rect;
use crate::{Point, Rect};

/// A simple polygon described by its exterior ring.
///
/// The ring is stored *unclosed* (the closing edge from the last vertex back
/// to the first is implicit). Holes are not modelled — the paper's non-point
/// data (delivery zones, urban grid cells, trajectory MBRs) are simple
/// regions, and the XZ2/XZ2T indexes only consume the MBR anyway.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Polygon {
    /// Exterior ring vertices (unclosed).
    pub exterior: Vec<Point>,
}

impl Polygon {
    /// Creates a polygon from an exterior ring. A trailing vertex equal to
    /// the first is dropped so both closed and unclosed inputs work.
    pub fn new(mut exterior: Vec<Point>) -> Self {
        if exterior.len() >= 2 && exterior.first() == exterior.last() {
            exterior.pop();
        }
        Polygon { exterior }
    }

    /// Axis-aligned rectangle as a polygon (counter-clockwise ring).
    pub(crate) fn from_rect(r: &Rect) -> Self {
        Polygon {
            exterior: vec![
                Point::new(r.min_x, r.min_y),
                Point::new(r.max_x, r.min_y),
                Point::new(r.max_x, r.max_y),
                Point::new(r.min_x, r.max_y),
            ],
        }
    }

    /// Number of ring vertices.
    pub(crate) fn len(&self) -> usize {
        self.exterior.len()
    }

    /// Whether the ring has no vertices.
    pub(crate) fn is_empty(&self) -> bool {
        self.exterior.is_empty()
    }

    /// Minimum bounding rectangle.
    pub(crate) fn mbr(&self) -> Rect {
        let mut r = Rect::empty();
        for p in &self.exterior {
            r.expand_point(p);
        }
        r
    }

    /// Even-odd point-in-polygon test (boundary points count as inside for
    /// the horizontal-edge cases handled by the half-open rule).
    pub(crate) fn contains_point(&self, p: &Point) -> bool {
        let n = self.exterior.len();
        if n < 3 {
            return false;
        }
        let mut inside = false;
        let mut j = n - 1;
        for i in 0..n {
            let a = &self.exterior[i];
            let b = &self.exterior[j];
            if (a.y > p.y) != (b.y > p.y) {
                let x_cross = (b.x - a.x) * (p.y - a.y) / (b.y - a.y) + a.x;
                if p.x < x_cross {
                    inside = !inside;
                }
            }
            j = i;
        }
        inside
    }

    /// Whether the polygon and the rectangle share any area (vertex inside,
    /// rect corner inside, or edge crossing).
    pub(crate) fn intersects_rect(&self, r: &Rect) -> bool {
        if self.is_empty() {
            return false;
        }
        if self.exterior.iter().any(|p| r.contains_point(p)) {
            return true;
        }
        // Any rect corner inside the polygon (covers rect-inside-polygon).
        let corners = [
            Point::new(r.min_x, r.min_y),
            Point::new(r.max_x, r.min_y),
            Point::new(r.max_x, r.max_y),
            Point::new(r.min_x, r.max_y),
        ];
        if corners.iter().any(|c| self.contains_point(c)) {
            return true;
        }
        // Edge crossings.
        let n = self.exterior.len();
        (0..n).any(|i| segment_intersects_rect(&self.exterior[i], &self.exterior[(i + 1) % n], r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Polygon {
        Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(0.0, 4.0),
        ])
    }

    #[test]
    fn closed_ring_is_normalised() {
        let p = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 0.0),
        ]);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn area_and_mbr() {
        let t = triangle();
        assert_eq!(t.mbr(), Rect::new(0.0, 0.0, 4.0, 4.0));
    }

    #[test]
    fn point_in_polygon() {
        let t = triangle();
        assert!(t.contains_point(&Point::new(1.0, 1.0)));
        assert!(!t.contains_point(&Point::new(3.0, 3.0)));
        assert!(!t.contains_point(&Point::new(-0.1, 0.0)));
    }

    #[test]
    fn rect_overlap_cases() {
        let t = triangle();
        // Rect fully inside polygon (no polygon vertex in rect).
        assert!(t.intersects_rect(&Rect::new(0.5, 0.5, 1.0, 1.0)));
        // Polygon vertex inside rect.
        assert!(t.intersects_rect(&Rect::new(-0.5, -0.5, 0.5, 0.5)));
        // Edge passes through rect, no vertices inside either way.
        assert!(t.intersects_rect(&Rect::new(1.5, 1.5, 3.0, 3.0)));
        // Disjoint.
        assert!(!t.intersects_rect(&Rect::new(5.0, 5.0, 6.0, 6.0)));
    }

    #[test]
    fn polygon_containing_rect() {
        let big = Polygon::from_rect(&Rect::new(0.0, 0.0, 10.0, 10.0));
        assert!(big.intersects_rect(&Rect::new(4.0, 4.0, 5.0, 5.0)));
    }
}
