//! The [`Geometry`] sum type shared by tables, indexes and queries.

use crate::{LineString, Point, Polygon, Rect};

/// Tag identifying the concrete variant of a [`Geometry`]; also used by the
/// binary row codec in the storage layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GeometryType {
    /// A single point.
    Point,
    /// A polyline.
    LineString,
    /// A simple polygon.
    Polygon,
    /// An axis-aligned rectangle.
    Rect,
}

impl GeometryType {
    /// Stable one-byte code for serialisation.
    pub fn code(self) -> u8 {
        match self {
            GeometryType::Point => 1,
            GeometryType::LineString => 2,
            GeometryType::Polygon => 3,
            GeometryType::Rect => 4,
        }
    }

    /// Inverse of [`GeometryType::code`].
    pub fn from_code(c: u8) -> Option<Self> {
        Some(match c {
            1 => GeometryType::Point,
            2 => GeometryType::LineString,
            3 => GeometryType::Polygon,
            4 => GeometryType::Rect,
            _ => return None,
        })
    }
}

/// Any geometry JUST can store: the point data indexed by Z2/Z2T and the
/// non-point data (lines, polygons) indexed by XZ2/XZ2T.
#[derive(Debug, Clone, PartialEq)]
pub enum Geometry {
    /// A single point.
    Point(Point),
    /// A polyline.
    LineString(LineString),
    /// A simple polygon.
    Polygon(Polygon),
    /// An axis-aligned rectangle.
    Rect(Rect),
}

impl Geometry {
    /// The variant tag.
    pub fn geometry_type(&self) -> GeometryType {
        match self {
            Geometry::Point(_) => GeometryType::Point,
            Geometry::LineString(_) => GeometryType::LineString,
            Geometry::Polygon(_) => GeometryType::Polygon,
            Geometry::Rect(_) => GeometryType::Rect,
        }
    }

    /// Minimum bounding rectangle.
    pub fn mbr(&self) -> Rect {
        match self {
            Geometry::Point(p) => p.mbr(),
            Geometry::LineString(l) => l.mbr(),
            Geometry::Polygon(p) => p.mbr(),
            Geometry::Rect(r) => *r,
        }
    }

    /// A representative point (centroid of the MBR); used for k-NN over
    /// non-point data and for grid assignment.
    pub fn representative_point(&self) -> Point {
        match self {
            Geometry::Point(p) => *p,
            other => other.mbr().center(),
        }
    }

    /// Exact test: does the geometry intersect the rectangle? This is the
    /// post-filter applied after the coarse key-range scan (XZ codes over-
    /// approximate, so candidates must be re-checked).
    pub fn intersects_rect(&self, r: &Rect) -> bool {
        match self {
            Geometry::Point(p) => r.contains_point(p),
            Geometry::LineString(l) => l.intersects_rect(r),
            Geometry::Polygon(p) => p.intersects_rect(r),
            Geometry::Rect(g) => g.intersects(r),
        }
    }

    /// Exact test: is the geometry entirely within the rectangle? Backs the
    /// `geom WITHIN st_makeMBR(...)` predicate of JustQL.
    pub fn within_rect(&self, r: &Rect) -> bool {
        match self {
            Geometry::Point(p) => r.contains_point(p),
            other => r.contains_rect(&other.mbr()),
        }
    }

    /// Minimum Euclidean distance (degrees) from a query point.
    pub fn distance_to_point(&self, q: &Point) -> f64 {
        match self {
            Geometry::Point(p) => crate::euclidean(p, q),
            Geometry::LineString(l) => l.distance_to_point(q),
            Geometry::Polygon(p) => {
                if p.contains_point(q) {
                    0.0
                } else {
                    let ring = LineString::new({
                        let mut v = p.exterior.clone();
                        if let Some(first) = v.first().copied() {
                            v.push(first);
                        }
                        v
                    });
                    ring.distance_to_point(q)
                }
            }
            Geometry::Rect(r) => r.min_distance(q),
        }
    }

    /// WKT rendering, e.g. `POINT (116.4 39.9)`.
    pub fn to_wkt(&self) -> String {
        fn coords(points: &[Point]) -> String {
            points
                .iter()
                .map(|p| format!("{} {}", p.x, p.y))
                .collect::<Vec<_>>()
                .join(", ")
        }
        match self {
            Geometry::Point(p) => format!("POINT ({} {})", p.x, p.y),
            Geometry::LineString(l) => format!("LINESTRING ({})", coords(&l.points)),
            Geometry::Polygon(p) => {
                let mut ring = p.exterior.clone();
                if let Some(first) = ring.first().copied() {
                    ring.push(first);
                }
                format!("POLYGON (({}))", coords(&ring))
            }
            Geometry::Rect(r) => {
                let p = Polygon::from_rect(r);
                Geometry::Polygon(p).to_wkt()
            }
        }
    }
}

impl From<Point> for Geometry {
    fn from(p: Point) -> Self {
        Geometry::Point(p)
    }
}

impl From<LineString> for Geometry {
    fn from(l: LineString) -> Self {
        Geometry::LineString(l)
    }
}

impl From<Polygon> for Geometry {
    fn from(p: Polygon) -> Self {
        Geometry::Polygon(p)
    }
}

impl From<Rect> for Geometry {
    fn from(r: Rect) -> Self {
        Geometry::Rect(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_codes_roundtrip() {
        for t in [
            GeometryType::Point,
            GeometryType::LineString,
            GeometryType::Polygon,
            GeometryType::Rect,
        ] {
            assert_eq!(GeometryType::from_code(t.code()), Some(t));
        }
        assert_eq!(GeometryType::from_code(0), None);
        assert_eq!(GeometryType::from_code(99), None);
    }

    #[test]
    fn within_vs_intersects() {
        let r = Rect::new(0.0, 0.0, 10.0, 10.0);
        let line = Geometry::LineString(LineString::new(vec![
            Point::new(5.0, 5.0),
            Point::new(15.0, 5.0),
        ]));
        assert!(line.intersects_rect(&r));
        assert!(!line.within_rect(&r));
        let inside = Geometry::LineString(LineString::new(vec![
            Point::new(1.0, 1.0),
            Point::new(2.0, 2.0),
        ]));
        assert!(inside.within_rect(&r));
    }

    #[test]
    fn distance_to_polygon_interior_is_zero() {
        let poly = Geometry::Polygon(Polygon::from_rect(&Rect::new(0.0, 0.0, 2.0, 2.0)));
        assert_eq!(poly.distance_to_point(&Point::new(1.0, 1.0)), 0.0);
        assert_eq!(poly.distance_to_point(&Point::new(4.0, 1.0)), 2.0);
    }

    #[test]
    fn wkt_rendering() {
        assert_eq!(
            Geometry::Point(Point::new(116.4, 39.9)).to_wkt(),
            "POINT (116.4 39.9)"
        );
        let l = Geometry::LineString(LineString::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 1.0),
        ]));
        assert_eq!(l.to_wkt(), "LINESTRING (0 0, 1 1)");
    }
}
