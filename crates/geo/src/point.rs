//! Point types: plain 2-D points and timestamped spatio-temporal points.

use crate::Rect;

/// A 2-D point in longitude/latitude order (`x` = longitude, `y` = latitude).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Longitude in degrees, `[-180, 180]`.
    pub x: f64,
    /// Latitude in degrees, `[-90, 90]`.
    pub y: f64,
}

impl Point {
    /// Creates a point from longitude and latitude.
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Returns the degenerate MBR covering exactly this point.
    pub fn mbr(&self) -> Rect {
        Rect::new(self.x, self.y, self.x, self.y)
    }

    /// Euclidean distance (in degrees) to another point.
    pub fn distance(&self, other: &Point) -> f64 {
        crate::euclidean(self, other)
    }

    /// Great-circle distance in metres to another point.
    pub fn distance_m(&self, other: &Point) -> f64 {
        crate::haversine_m(self, other)
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

/// A spatio-temporal point: a [`Point`] plus a timestamp in milliseconds
/// since the Unix epoch (the paper's reference time, 1970-01-01T00:00:00Z).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StPoint {
    /// Spatial position.
    pub point: Point,
    /// Timestamp, milliseconds since the Unix epoch.
    pub time_ms: i64,
}

impl StPoint {
    /// Creates a spatio-temporal point.
    pub const fn new(x: f64, y: f64, time_ms: i64) -> Self {
        StPoint {
            point: Point::new(x, y),
            time_ms,
        }
    }

    /// Average speed in metres/second travelling from `self` to `next`.
    ///
    /// Returns `f64::INFINITY` when the two samples carry the same
    /// timestamp but different positions (an impossible move — the noise
    /// filter treats it as an outlier) and `0.0` for identical samples.
    pub fn speed_to(&self, next: &StPoint) -> f64 {
        let d = self.point.distance_m(&next.point);
        let dt = (next.time_ms - self.time_ms).abs() as f64 / 1000.0;
        if dt == 0.0 {
            if d == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            d / dt
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_mbr_is_degenerate() {
        let p = Point::new(116.3, 39.9);
        let r = p.mbr();
        assert_eq!(r.min_x, r.max_x);
        assert_eq!(r.min_y, r.max_y);
        assert!(r.contains_point(&p));
    }

    #[test]
    fn speed_between_samples() {
        // ~111 km apart along a meridian, one hour apart => ~30.8 m/s.
        let a = StPoint::new(116.0, 39.0, 0);
        let b = StPoint::new(116.0, 40.0, 3_600_000);
        let v = a.speed_to(&b);
        assert!((v - 30.87).abs() < 0.5, "speed was {v}");
    }

    #[test]
    fn speed_zero_dt() {
        let a = StPoint::new(116.0, 39.0, 1000);
        let same = StPoint::new(116.0, 39.0, 1000);
        let moved = StPoint::new(117.0, 39.0, 1000);
        assert_eq!(a.speed_to(&same), 0.0);
        assert!(a.speed_to(&moved).is_infinite());
    }
}
