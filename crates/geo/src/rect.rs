//! Axis-aligned minimum bounding rectangles (MBRs).

use crate::{Point, METERS_PER_DEGREE_LAT};

/// An axis-aligned rectangle in longitude/latitude space.
///
/// `Rect` is the MBR type used by the XZ2/XZ2T indexes, spatial range
/// queries and the k-NN area expansion (Algorithm 1 in the paper). A rect
/// is *closed*: points on the boundary are contained.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// West edge (minimum longitude).
    pub min_x: f64,
    /// South edge (minimum latitude).
    pub min_y: f64,
    /// East edge (maximum longitude).
    pub max_x: f64,
    /// North edge (maximum latitude).
    pub max_y: f64,
}

impl Rect {
    /// Creates a rectangle; the coordinate pairs are normalised so that
    /// `min_* <= max_*` regardless of argument order.
    pub fn new(x0: f64, y0: f64, x1: f64, y1: f64) -> Self {
        Rect {
            min_x: x0.min(x1),
            min_y: y0.min(y1),
            max_x: x0.max(x1),
            max_y: y0.max(y1),
        }
    }

    /// The empty rectangle: an identity element for [`Rect::union`].
    pub fn empty() -> Self {
        Rect {
            min_x: f64::INFINITY,
            min_y: f64::INFINITY,
            max_x: f64::NEG_INFINITY,
            max_y: f64::NEG_INFINITY,
        }
    }

    /// Whether this is the (inverted) empty rectangle.
    pub fn is_empty(&self) -> bool {
        self.min_x > self.max_x || self.min_y > self.max_y
    }

    /// Width in degrees of longitude.
    pub fn width(&self) -> f64 {
        (self.max_x - self.min_x).max(0.0)
    }

    /// Height in degrees of latitude.
    pub fn height(&self) -> f64 {
        (self.max_y - self.min_y).max(0.0)
    }

    /// Centre point.
    pub fn center(&self) -> Point {
        Point::new(
            (self.min_x + self.max_x) / 2.0,
            (self.min_y + self.max_y) / 2.0,
        )
    }

    /// Whether `p` lies inside or on the boundary.
    pub fn contains_point(&self, p: &Point) -> bool {
        p.x >= self.min_x && p.x <= self.max_x && p.y >= self.min_y && p.y <= self.max_y
    }

    /// Whether `other` lies entirely inside (or equals) this rectangle.
    pub fn contains_rect(&self, other: &Rect) -> bool {
        !other.is_empty()
            && other.min_x >= self.min_x
            && other.max_x <= self.max_x
            && other.min_y >= self.min_y
            && other.max_y <= self.max_y
    }

    /// Whether the two rectangles share at least one point.
    pub fn intersects(&self, other: &Rect) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.min_x <= other.max_x
            && self.max_x >= other.min_x
            && self.min_y <= other.max_y
            && self.max_y >= other.min_y
    }

    /// The smallest rectangle covering both inputs.
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            min_x: self.min_x.min(other.min_x),
            min_y: self.min_y.min(other.min_y),
            max_x: self.max_x.max(other.max_x),
            max_y: self.max_y.max(other.max_y),
        }
    }

    /// The overlapping region, or `None` when disjoint.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.intersects(other) {
            return None;
        }
        Some(Rect {
            min_x: self.min_x.max(other.min_x),
            min_y: self.min_y.max(other.min_y),
            max_x: self.max_x.min(other.max_x),
            max_y: self.max_y.min(other.max_y),
        })
    }

    /// Grows the rectangle to cover `p`.
    pub fn expand_point(&mut self, p: &Point) {
        self.min_x = self.min_x.min(p.x);
        self.min_y = self.min_y.min(p.y);
        self.max_x = self.max_x.max(p.x);
        self.max_y = self.max_y.max(p.y);
    }

    /// Minimum Euclidean distance (degrees) from `p` to any point of the
    /// rectangle; zero when `p` is inside. This is the `d_A(q, a)` function
    /// of Equation (4) in the paper, used by the k-NN area pruning lemma.
    pub fn min_distance(&self, p: &Point) -> f64 {
        let dx = (self.min_x - p.x).max(p.x - self.max_x).max(0.0);
        let dy = (self.min_y - p.y).max(p.y - self.max_y).max(0.0);
        (dx * dx + dy * dy).sqrt()
    }

    /// Splits into the four equal quadrants, in quadtree order
    /// `[SW, NW, SE, NE]` (matching the Z-order quadrant numbering
    /// 0..=3 used by Figure 7 of the paper).
    pub fn quadrants(&self) -> [Rect; 4] {
        let cx = (self.min_x + self.max_x) / 2.0;
        let cy = (self.min_y + self.max_y) / 2.0;
        [
            Rect::new(self.min_x, self.min_y, cx, cy),
            Rect::new(self.min_x, cy, cx, self.max_y),
            Rect::new(cx, self.min_y, self.max_x, cy),
            Rect::new(cx, cy, self.max_x, self.max_y),
        ]
    }

    /// Builds a square query window of `side_km` kilometres centred on `c`,
    /// the shape used by the paper's "spatial window" experiments
    /// (1×1 km … 5×5 km).
    pub fn window_km(c: Point, side_km: f64) -> Rect {
        let half_m = side_km * 1000.0 / 2.0;
        let dy = half_m / METERS_PER_DEGREE_LAT;
        let cos_lat = c.y.to_radians().cos().max(1e-9);
        let dx = half_m / (METERS_PER_DEGREE_LAT * cos_lat);
        Rect::new(c.x - dx, c.y - dy, c.x + dx, c.y + dy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Approximate area in km²: the oracle for `window_km`.
    fn area_km2(r: &Rect) -> f64 {
        let h_km = r.height() * METERS_PER_DEGREE_LAT / 1000.0;
        let cos_lat = r.center().y.to_radians().cos().max(1e-9);
        let w_km = r.width() * METERS_PER_DEGREE_LAT * cos_lat / 1000.0;
        h_km * w_km
    }

    #[test]
    fn normalisation() {
        let r = Rect::new(5.0, 6.0, 1.0, 2.0);
        assert_eq!(r.min_x, 1.0);
        assert_eq!(r.max_y, 6.0);
    }

    #[test]
    fn containment_and_intersection() {
        let a = Rect::new(0.0, 0.0, 10.0, 10.0);
        let b = Rect::new(2.0, 2.0, 4.0, 4.0);
        let c = Rect::new(9.0, 9.0, 12.0, 12.0);
        let d = Rect::new(11.0, 11.0, 12.0, 12.0);
        assert!(a.contains_rect(&b));
        assert!(!b.contains_rect(&a));
        assert!(a.intersects(&c));
        assert!(!a.intersects(&d));
        let i = a.intersection(&c).unwrap();
        assert_eq!(i, Rect::new(9.0, 9.0, 10.0, 10.0));
        assert_eq!(a.intersection(&d), None);
    }

    #[test]
    fn boundary_points_are_contained() {
        let a = Rect::new(0.0, 0.0, 1.0, 1.0);
        assert!(a.contains_point(&Point::new(0.0, 0.0)));
        assert!(a.contains_point(&Point::new(1.0, 1.0)));
        assert!(a.contains_point(&Point::new(0.5, 1.0)));
        assert!(!a.contains_point(&Point::new(1.0001, 1.0)));
    }

    #[test]
    fn empty_behaviour() {
        let e = Rect::empty();
        assert!(e.is_empty());
        let a = Rect::new(0.0, 0.0, 1.0, 1.0);
        assert!(!a.intersects(&e));
        assert!(!a.contains_rect(&e));
        assert_eq!(e.union(&a), a);
    }

    #[test]
    fn min_distance_inside_and_outside() {
        let a = Rect::new(0.0, 0.0, 2.0, 2.0);
        assert_eq!(a.min_distance(&Point::new(1.0, 1.0)), 0.0);
        assert_eq!(a.min_distance(&Point::new(5.0, 1.0)), 3.0);
        let d = a.min_distance(&Point::new(5.0, 6.0));
        assert!((d - 5.0).abs() < 1e-12); // 3-4-5 triangle
    }

    #[test]
    fn quadrants_partition() {
        let a = Rect::new(0.0, 0.0, 4.0, 4.0);
        let q = a.quadrants();
        // quadrant order: SW, NW, SE, NE
        assert_eq!(q[0], Rect::new(0.0, 0.0, 2.0, 2.0));
        assert_eq!(q[1], Rect::new(0.0, 2.0, 2.0, 4.0));
        assert_eq!(q[2], Rect::new(2.0, 0.0, 4.0, 2.0));
        assert_eq!(q[3], Rect::new(2.0, 2.0, 4.0, 4.0));
        let total: f64 = q.iter().map(|r| r.width() * r.height()).sum();
        assert!((total - 16.0).abs() < 1e-12);
    }

    #[test]
    fn km_window_size() {
        let w = Rect::window_km(Point::new(116.4, 39.9), 3.0);
        let area = area_km2(&w);
        assert!((area - 9.0).abs() < 0.1, "area was {area}");
    }

    #[test]
    fn expand_point_grows() {
        let mut r = Rect::empty();
        r.expand_point(&Point::new(1.0, 2.0));
        r.expand_point(&Point::new(-1.0, 5.0));
        assert_eq!(r, Rect::new(-1.0, 2.0, 1.0, 5.0));
    }
}
