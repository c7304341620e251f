//! Distance functions.

use crate::Point;

/// Mean Earth radius in metres (IUGG value).
const EARTH_RADIUS_M: f64 = 6_371_008.8;

/// Metres per degree of latitude (and of longitude at the equator).
pub const METERS_PER_DEGREE_LAT: f64 = EARTH_RADIUS_M * std::f64::consts::PI / 180.0;

/// Euclidean distance in coordinate degrees.
///
/// The paper "adopt\[s\] Euclidean distance for simplicity" for k-NN, so this
/// is the distance used by Algorithm 1; [`haversine_m`] is used where real
/// metres matter (noise filtering, stay points, map matching).
pub fn euclidean(a: &Point, b: &Point) -> f64 {
    let dx = a.x - b.x;
    let dy = a.y - b.y;
    (dx * dx + dy * dy).sqrt()
}

/// Great-circle (haversine) distance in metres.
pub fn haversine_m(a: &Point, b: &Point) -> f64 {
    let (lat1, lat2) = (a.y.to_radians(), b.y.to_radians());
    let dlat = lat2 - lat1;
    let dlng = (b.x - a.x).to_radians();
    let h = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlng / 2.0).sin().powi(2);
    2.0 * EARTH_RADIUS_M * h.sqrt().min(1.0).asin()
}

/// Minimum Euclidean distance (degrees) from point `p` to segment `a`–`b`.
pub fn point_segment_distance(p: &Point, a: &Point, b: &Point) -> f64 {
    euclidean(p, &project_onto_segment(p, a, b))
}

/// Minimum distance in metres from `p` to the segment `a`–`b`, using a local
/// equirectangular approximation (accurate for the sub-kilometre segments of
/// a road network).
pub fn point_segment_distance_m(p: &Point, a: &Point, b: &Point) -> f64 {
    haversine_m(p, &project_onto_segment(p, a, b))
}

/// The closest point on segment `a`–`b` to `p` (in coordinate space).
pub(crate) fn project_onto_segment(p: &Point, a: &Point, b: &Point) -> Point {
    let (vx, vy) = (b.x - a.x, b.y - a.y);
    let len2 = vx * vx + vy * vy;
    if len2 == 0.0 {
        return *a;
    }
    let t = (((p.x - a.x) * vx + (p.y - a.y) * vy) / len2).clamp(0.0, 1.0);
    Point::new(a.x + t * vx, a.y + t * vy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_basics() {
        assert_eq!(euclidean(&Point::new(0.0, 0.0), &Point::new(3.0, 4.0)), 5.0);
    }

    #[test]
    fn haversine_known_values() {
        // One degree of latitude is ~111.2 km.
        let d = haversine_m(&Point::new(0.0, 0.0), &Point::new(0.0, 1.0));
        assert!((d - 111_195.0).abs() < 100.0, "d = {d}");
        // Symmetry and identity.
        let a = Point::new(116.4, 39.9);
        let b = Point::new(121.5, 31.2);
        assert!((haversine_m(&a, &b) - haversine_m(&b, &a)).abs() < 1e-6);
        assert_eq!(haversine_m(&a, &a), 0.0);
        // Beijing -> Shanghai is roughly 1070 km.
        let d = haversine_m(&a, &b);
        assert!((d - 1_070_000.0).abs() < 30_000.0, "d = {d}");
    }

    #[test]
    fn segment_distance_projection_cases() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 0.0);
        // Perpendicular foot inside the segment.
        assert_eq!(point_segment_distance(&Point::new(5.0, 3.0), &a, &b), 3.0);
        // Beyond endpoint: distance to the endpoint.
        assert_eq!(point_segment_distance(&Point::new(13.0, 4.0), &a, &b), 5.0);
        // Degenerate segment.
        assert_eq!(point_segment_distance(&Point::new(3.0, 4.0), &a, &a), 5.0);
    }
}
