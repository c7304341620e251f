//! The trajectory type shared by all 1-N operations.

use just_geo::{Rect, StPoint};

/// A moving object's sampled path: the in-memory form of the trajectory
/// plugin table's `item` field.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trajectory {
    /// Moving-object id.
    pub oid: String,
    /// Time-ordered samples.
    pub points: Vec<StPoint>,
}

impl Trajectory {
    /// Creates a trajectory, sorting samples by time.
    pub fn new(oid: impl Into<String>, mut points: Vec<StPoint>) -> Self {
        points.sort_by_key(|p| p.time_ms);
        Trajectory {
            oid: oid.into(),
            points,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether there are no samples.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Spatial MBR of all samples.
    pub fn mbr(&self) -> Rect {
        let mut r = Rect::empty();
        for p in &self.points {
            r.expand_point(&p.point);
        }
        r
    }

    /// `(first, last)` sample times, or `None` when empty.
    pub fn time_span(&self) -> Option<(i64, i64)> {
        Some((self.points.first()?.time_ms, self.points.last()?.time_ms))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_sorts_by_time() {
        let t = Trajectory::new(
            "t1",
            vec![
                StPoint::new(116.2, 39.2, 2000),
                StPoint::new(116.0, 39.0, 0),
                StPoint::new(116.1, 39.1, 1000),
            ],
        );
        assert_eq!(t.points[0].time_ms, 0);
        assert_eq!(t.points[2].time_ms, 2000);
        assert_eq!(t.time_span(), Some((0, 2000)));
    }

    #[test]
    fn geometry_summaries() {
        let t = Trajectory::new(
            "t1",
            vec![
                StPoint::new(116.0, 39.0, 0),
                StPoint::new(116.0, 40.0, 3_600_000),
            ],
        );
        assert_eq!(t.mbr(), Rect::new(116.0, 39.0, 116.0, 40.0));
    }

    #[test]
    fn empty_trajectory() {
        let t = Trajectory::new("x", vec![]);
        assert!(t.is_empty());
        assert_eq!(t.time_span(), None);
    }
}
