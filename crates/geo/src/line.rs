//! Polylines.

use crate::{point_segment_distance, Point, Rect};

/// An ordered sequence of at least two points, e.g. a road segment or the
/// spatial footprint of a trajectory.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LineString {
    /// The vertices, in order.
    pub points: Vec<Point>,
}

impl LineString {
    /// Creates a polyline from vertices.
    pub fn new(points: Vec<Point>) -> Self {
        LineString { points }
    }

    /// Minimum bounding rectangle of all vertices.
    pub fn mbr(&self) -> Rect {
        let mut r = Rect::empty();
        for p in &self.points {
            r.expand_point(p);
        }
        r
    }

    /// Total length in metres (haversine).
    pub fn length_m(&self) -> f64 {
        self.points
            .windows(2)
            .map(|w| crate::haversine_m(&w[0], &w[1]))
            .sum()
    }

    /// Minimum Euclidean distance (degrees) from `p` to the polyline.
    pub(crate) fn distance_to_point(&self, p: &Point) -> f64 {
        if self.points.len() == 1 {
            return crate::euclidean(p, &self.points[0]);
        }
        self.points
            .windows(2)
            .map(|w| point_segment_distance(p, &w[0], &w[1]))
            .fold(f64::INFINITY, f64::min)
    }

    /// Whether any segment of the polyline intersects `rect` (vertex inside,
    /// or an edge crossing the rectangle).
    pub(crate) fn intersects_rect(&self, rect: &Rect) -> bool {
        if self.points.iter().any(|p| rect.contains_point(p)) {
            return true;
        }
        self.points
            .windows(2)
            .any(|w| segment_intersects_rect(&w[0], &w[1], rect))
    }
}

/// Liang–Barsky style segment/rect overlap test.
pub(crate) fn segment_intersects_rect(a: &Point, b: &Point, r: &Rect) -> bool {
    // Quick accept / reject via MBRs.
    let seg_mbr = Rect::new(a.x, a.y, b.x, b.y);
    if !seg_mbr.intersects(r) {
        return false;
    }
    if r.contains_point(a) || r.contains_point(b) {
        return true;
    }
    // Clip the parametric segment against each slab.
    let (dx, dy) = (b.x - a.x, b.y - a.y);
    let mut t0 = 0.0f64;
    let mut t1 = 1.0f64;
    let clips = [
        (-dx, a.x - r.min_x),
        (dx, r.max_x - a.x),
        (-dy, a.y - r.min_y),
        (dy, r.max_y - a.y),
    ];
    for (p, q) in clips {
        if p == 0.0 {
            if q < 0.0 {
                return false;
            }
        } else {
            let t = q / p;
            if p < 0.0 {
                t0 = t0.max(t);
            } else {
                t1 = t1.min(t);
            }
            if t0 > t1 {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line() -> LineString {
        LineString::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 3.0),
        ])
    }

    #[test]
    fn mbr_and_length() {
        let l = line();
        assert_eq!(l.mbr(), Rect::new(0.0, 0.0, 4.0, 3.0));
        // Along the equator and a meridian a degree is the same arc.
        assert!((l.length_m() - 7.0 * crate::METERS_PER_DEGREE_LAT).abs() < 1e-6);
    }

    #[test]
    fn distance_to_point() {
        let l = line();
        assert_eq!(l.distance_to_point(&Point::new(2.0, 1.0)), 1.0);
        assert_eq!(l.distance_to_point(&Point::new(5.0, 3.0)), 1.0);
    }

    #[test]
    fn rect_intersection_pass_through() {
        // Segment passes through the rect without a vertex inside.
        let l = LineString::new(vec![Point::new(-1.0, 0.5), Point::new(2.0, 0.5)]);
        let r = Rect::new(0.0, 0.0, 1.0, 1.0);
        assert!(l.intersects_rect(&r));
        // Diagonal crossing a corner region but missing the rect.
        let miss = LineString::new(vec![Point::new(1.5, 0.0), Point::new(3.0, 2.0)]);
        assert!(!miss.intersects_rect(&r));
    }

    #[test]
    fn rect_intersection_vertex_inside() {
        let l = line();
        assert!(l.intersects_rect(&Rect::new(3.5, -0.5, 4.5, 0.5)));
        assert!(!l.intersects_rect(&Rect::new(10.0, 10.0, 11.0, 11.0)));
    }
}
