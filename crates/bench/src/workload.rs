//! Synthetic workload generators standing in for the JD datasets
//! (Table II): `Order` (many small point records), `Traj` (fewer fat
//! trajectory records with long GPS lists) and `Synthetic` (Traj copied &
//! sampled).

use just_compress::gps::GpsSample;
use just_geo::{Point, Rect};
use just_obs::Rng;
use just_storage::{Row, Value};

/// Beijing-metro-like bounding box all workloads live in.
pub(crate) const CITY: Rect = Rect {
    min_x: 115.8,
    min_y: 39.4,
    max_x: 117.0,
    max_y: 40.6,
};

/// One day in ms.
pub(crate) const DAY_MS: i64 = 86_400_000;

/// A purchase order: id, biased delivery point, order time.
#[derive(Debug, Clone)]
pub struct Order {
    /// Order id.
    pub fid: i64,
    /// Delivery point.
    pub point: Point,
    /// Order time (ms since epoch, relative to the dataset's day 0).
    pub time_ms: i64,
}

/// The Order dataset (spans 61 days like the paper's two months).
#[derive(Debug, Clone)]
pub struct OrderDataset {
    /// The orders.
    pub orders: Vec<Order>,
}

impl OrderDataset {
    /// Generates `n` orders: a handful of hot districts plus uniform
    /// background, over 61 days with a daily demand curve.
    pub fn generate(n: usize, seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        // Hot districts (cluster centres).
        let hubs: Vec<Point> = (0..8)
            .map(|_| {
                Point::new(
                    rng.gen_range(CITY.min_x + 0.1..CITY.max_x - 0.1),
                    rng.gen_range(CITY.min_y + 0.1..CITY.max_y - 0.1),
                )
            })
            .collect();
        let mut orders = Vec::with_capacity(n);
        for fid in 0..n {
            let point = if rng.gen_bool(0.7) {
                let hub = hubs[rng.gen_range(0..hubs.len())];
                Point::new(
                    (hub.x + rng.gen_range(-0.03..0.03)).clamp(CITY.min_x, CITY.max_x),
                    (hub.y + rng.gen_range(-0.03..0.03)).clamp(CITY.min_y, CITY.max_y),
                )
            } else {
                Point::new(
                    rng.gen_range(CITY.min_x..CITY.max_x),
                    rng.gen_range(CITY.min_y..CITY.max_y),
                )
            };
            let day = rng.gen_range(0..61i64);
            // Orders cluster in daytime hours.
            let hour = (8.0 + 12.0 * rng.gen_range(0.0f64..1.0).powf(0.7)) as i64;
            let time_ms = day * DAY_MS + hour * 3_600_000 + rng.gen_range(0..3_600_000i64);
            orders.push(Order {
                fid: fid as i64,
                point,
                time_ms,
            });
        }
        OrderDataset { orders }
    }

    /// The first `pct` percent of the dataset (the paper's data-size
    /// sweep).
    pub(crate) fn fraction(&self, pct: u32) -> Vec<Order> {
        let n = self.orders.len() * pct as usize / 100;
        self.orders[..n].to_vec()
    }
}

/// Converts orders to engine rows (`fid integer, time date, geom point`).
pub fn order_rows(orders: &[Order]) -> Vec<Row> {
    orders
        .iter()
        .map(|o| {
            Row::new(vec![
                Value::Int(o.fid),
                Value::Date(o.time_ms),
                Value::Geom(just_geo::Geometry::Point(o.point)),
            ])
        })
        .collect()
}

/// Converts orders to baseline records.
pub(crate) fn order_records(orders: &[Order]) -> Vec<just_baselines::StRecord> {
    orders
        .iter()
        .map(|o| just_baselines::StRecord::point(o.fid as u64, o.point, o.time_ms, 40))
        .collect()
}

/// One lorry trajectory.
#[derive(Debug, Clone)]
pub struct TrajRecord {
    /// Lorry id + day.
    pub oid: String,
    /// The GPS list (the big compressible field).
    pub samples: Vec<GpsSample>,
}

impl TrajRecord {
    /// Spatial MBR of the samples.
    pub(crate) fn mbr(&self) -> Rect {
        let mut r = Rect::empty();
        for s in &self.samples {
            r.expand_point(&Point::new(s.lng, s.lat));
        }
        r
    }

    /// `(first, last)` timestamps.
    pub(crate) fn time_span(&self) -> (i64, i64) {
        (
            self.samples.first().map(|s| s.time_ms).unwrap_or(0),
            self.samples.last().map(|s| s.time_ms).unwrap_or(0),
        )
    }
}

/// The Traj dataset (31 days like the paper's March window).
#[derive(Debug, Clone)]
pub struct TrajDataset {
    /// The trajectories.
    pub trajectories: Vec<TrajRecord>,
}

impl TrajDataset {
    /// Generates `n` lorry random walks of `points_each` samples.
    pub fn generate(n: usize, points_each: usize, seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed ^ 0x7261_6a54);
        let mut trajectories = Vec::with_capacity(n);
        for i in 0..n {
            let day = rng.gen_range(0..31i64);
            let mut t = day * DAY_MS + rng.gen_range(6..10i64) * 3_600_000;
            let mut lng = rng.gen_range(CITY.min_x + 0.05..CITY.max_x - 0.05);
            let mut lat = rng.gen_range(CITY.min_y + 0.05..CITY.max_y - 0.05);
            // Persistent heading with drift: city-delivery random walk.
            let mut heading: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
            let mut samples = Vec::with_capacity(points_each);
            for _ in 0..points_each {
                samples.push(GpsSample {
                    lng,
                    lat,
                    time_ms: t,
                });
                heading += rng.gen_range(-0.4..0.4);
                let speed_deg = rng.gen_range(0.00002..0.00012); // ~2-13 m/s
                lng = (lng + heading.cos() * speed_deg).clamp(CITY.min_x, CITY.max_x);
                lat = (lat + heading.sin() * speed_deg).clamp(CITY.min_y, CITY.max_y);
                t += rng.gen_range(800..1500i64);
            }
            trajectories.push(TrajRecord {
                oid: format!("lorry-{i:06}"),
                samples,
            });
        }
        TrajDataset { trajectories }
    }

    /// The first `pct` percent of the trajectories.
    pub(crate) fn fraction(&self, pct: u32) -> Vec<TrajRecord> {
        let n = self.trajectories.len() * pct as usize / 100;
        self.trajectories[..n].to_vec()
    }

    /// The Synthetic dataset: this dataset copied `copies` times with
    /// per-copy day offsets (the paper's "copying & sampling ... up to
    /// 1T"), preserving record shape while multiplying volume.
    pub(crate) fn synthesize(&self, copies: usize, seed: u64) -> TrajDataset {
        let mut rng = Rng::seed_from_u64(seed ^ 0x5359_4e54);
        let mut out = Vec::with_capacity(self.trajectories.len() * copies);
        for c in 0..copies {
            let day_shift = (c as i64) * 31 * DAY_MS;
            for t in &self.trajectories {
                let jitter_lng = rng.gen_range(-0.01..0.01);
                let jitter_lat = rng.gen_range(-0.01..0.01);
                out.push(TrajRecord {
                    oid: format!("{}-c{c}", t.oid),
                    samples: t
                        .samples
                        .iter()
                        .map(|s| GpsSample {
                            lng: (s.lng + jitter_lng).clamp(CITY.min_x, CITY.max_x),
                            lat: (s.lat + jitter_lat).clamp(CITY.min_y, CITY.max_y),
                            time_ms: s.time_ms + day_shift,
                        })
                        .collect(),
                });
            }
        }
        TrajDataset { trajectories: out }
    }

    /// Total GPS points.
    pub(crate) fn total_points(&self) -> usize {
        self.trajectories.iter().map(|t| t.samples.len()).sum()
    }
}

/// Converts trajectories into trajectory-plugin-table rows (Figure 6).
pub fn traj_rows(trajs: &[TrajRecord]) -> Vec<Row> {
    trajs
        .iter()
        .map(|t| {
            let mbr = t.mbr();
            let (t0, t1) = t.time_span();
            let first = t.samples.first().expect("non-empty trajectory");
            let last = t.samples.last().expect("non-empty trajectory");
            Row::new(vec![
                Value::Str(t.oid.clone()),
                Value::Geom(just_geo::Geometry::Rect(mbr)),
                Value::Date(t0),
                Value::Date(t1),
                Value::Geom(just_geo::Geometry::Point(Point::new(first.lng, first.lat))),
                Value::Geom(just_geo::Geometry::Point(Point::new(last.lng, last.lat))),
                Value::GpsList(t.samples.clone()),
            ])
        })
        .collect()
}

/// Converts trajectories to baseline records (payload = raw GPS bytes, so
/// memory budgets see the real weight).
pub(crate) fn traj_records(trajs: &[TrajRecord]) -> Vec<just_baselines::StRecord> {
    trajs
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let (t0, t1) = t.time_span();
            just_baselines::StRecord::extent(
                i as u64,
                t.mbr(),
                t0,
                t1,
                (t.samples.len() * 24) as u32,
            )
        })
        .collect()
}

/// Deterministic query windows inside the data extent.
pub fn query_windows(n: usize, side_km: f64, seed: u64) -> Vec<Rect> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x7177_696e);
    (0..n)
        .map(|_| {
            let c = Point::new(
                rng.gen_range(CITY.min_x + 0.1..CITY.max_x - 0.1),
                rng.gen_range(CITY.min_y + 0.1..CITY.max_y - 0.1),
            );
            Rect::window_km(c, side_km)
        })
        .collect()
}

/// Deterministic query points.
pub fn query_points(n: usize, seed: u64) -> Vec<Point> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x7170_7473);
    (0..n)
        .map(|_| {
            Point::new(
                rng.gen_range(CITY.min_x + 0.1..CITY.max_x - 0.1),
                rng.gen_range(CITY.min_y + 0.1..CITY.max_y - 0.1),
            )
        })
        .collect()
}

/// Deterministic time windows of `hours` length within the Order span.
pub(crate) fn query_time_windows(n: usize, hours: i64, seed: u64) -> Vec<(i64, i64)> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x7174_696d);
    let span = 61 * DAY_MS;
    let len = hours * 3_600_000;
    (0..n)
        .map(|_| {
            let start = rng.gen_range(0..(span - len).max(1));
            (start, start + len)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_are_deterministic_and_in_bounds() {
        let a = OrderDataset::generate(500, 42);
        let b = OrderDataset::generate(500, 42);
        assert_eq!(a.orders.len(), 500);
        assert_eq!(a.orders[17].point, b.orders[17].point);
        for o in &a.orders {
            assert!(CITY.contains_point(&o.point));
            assert!((0..61 * DAY_MS).contains(&o.time_ms));
        }
    }

    #[test]
    fn fraction_scales() {
        let d = OrderDataset::generate(1000, 1);
        assert_eq!(d.fraction(20).len(), 200);
        assert_eq!(d.fraction(100).len(), 1000);
    }

    #[test]
    fn trajectories_walk_smoothly() {
        let d = TrajDataset::generate(10, 200, 7);
        assert_eq!(d.total_points(), 2000);
        for t in &d.trajectories {
            // Samples are time-ordered and hops are bounded.
            for w in t.samples.windows(2) {
                assert!(w[1].time_ms > w[0].time_ms);
                let d_deg = ((w[1].lng - w[0].lng).powi(2) + (w[1].lat - w[0].lat).powi(2)).sqrt();
                assert!(d_deg < 0.001, "hop too large: {d_deg}");
            }
            // The MBR is much smaller than the city: spatial locality.
            assert!(t.mbr().width() < 0.3);
        }
    }

    #[test]
    fn synthetic_multiplies_volume() {
        let d = TrajDataset::generate(10, 50, 3);
        let s = d.synthesize(3, 3);
        assert_eq!(s.trajectories.len(), 30);
        assert_eq!(s.total_points(), 3 * d.total_points());
    }

    #[test]
    fn row_conversions_roundtrip_shapes() {
        let d = TrajDataset::generate(3, 50, 5);
        let rows = traj_rows(&d.trajectories);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].values.len(), 7);
        let recs = traj_records(&d.trajectories);
        assert_eq!(recs[0].payload_bytes, 50 * 24);
        let o = OrderDataset::generate(10, 9);
        assert_eq!(order_rows(&o.orders).len(), 10);
        assert_eq!(order_records(&o.orders).len(), 10);
    }

    #[test]
    fn query_generators_are_deterministic() {
        assert_eq!(query_windows(5, 3.0, 1), query_windows(5, 3.0, 1));
        assert_eq!(query_points(5, 1), query_points(5, 1));
        assert_eq!(query_time_windows(5, 24, 1), query_time_windows(5, 24, 1));
        for (a, b) in query_time_windows(20, 6, 2) {
            assert_eq!(b - a, 6 * 3_600_000);
        }
    }
}
