//! Index strategies: from records to byte keys, and from query windows to
//! byte-key scan ranges.
//!
//! Key layouts (all integers big-endian so byte order = numeric order):
//!
//! ```text
//! Z2 / XZ2    : [shard u8][code u64][fid bytes]
//! Z3 / XZ3   /
//! Z2T / XZ2T  : [shard u8][period u32 (sign-flipped)][code u64][fid bytes]
//! ```
//!
//! The shard byte reproduces GeoMesa's salted-key load balancing: records
//! spread over `shards` buckets (= region servers), and every logical
//! curve range fans out into one byte range per shard.

use crate::sttable::RecordMeta;
use just_curves::xz3::StMbr;
use just_curves::{RangeOptions, TimePeriod, Xz2, Xz2t, Xz3, Z2t, Z2, Z3};
use just_geo::Rect;

/// Which index to build — the `geomesa.indices.enabled` hint of the
/// paper's `USERDATA` example.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexKind {
    /// Z-order over points (spatial only).
    Z2,
    /// Z-order over points + time (GeoMesa native).
    Z3,
    /// XZ-order over extents (spatial only).
    Xz2,
    /// XZ-order over extents + time (GeoMesa native).
    Xz3,
    /// The paper's Z2T (Section IV-B).
    Z2t,
    /// The paper's XZ2T (Section IV-C).
    Xz2t,
    /// Record-id (attribute) index for non-spatial tables — the
    /// "Attribute Indexing" box of the paper's Figure 1. Keys carry only
    /// the shard and the record id; queries scan.
    Id,
}

impl IndexKind {
    /// Parses the `USERDATA` names (`z2`, `z3`, `xz2`, `xz3`, `z2t`,
    /// `xz2t`).
    pub fn parse(name: &str) -> Option<Self> {
        Some(match name.to_ascii_lowercase().as_str() {
            "z2" => IndexKind::Z2,
            "z3" => IndexKind::Z3,
            "xz2" => IndexKind::Xz2,
            "xz3" => IndexKind::Xz3,
            "z2t" => IndexKind::Z2t,
            "xz2t" => IndexKind::Xz2t,
            "id" | "attribute" => IndexKind::Id,
            _ => return None,
        })
    }

    /// Whether keys carry a time-period prefix.
    pub fn is_temporal(self) -> bool {
        !matches!(self, IndexKind::Z2 | IndexKind::Xz2 | IndexKind::Id)
    }

    /// The default index for a table: Z2/XZ2 for spatial-only data,
    /// Z2T/XZ2T when a time field exists (Section V-C: "JUST builds a Z2T
    /// index (for point-based data) or XZ2T index (for non-point-based
    /// data) ... by default").
    pub fn default_for(point_data: bool, temporal: bool) -> IndexKind {
        match (point_data, temporal) {
            (true, false) => IndexKind::Z2,
            (false, false) => IndexKind::Xz2,
            (true, true) => IndexKind::Z2t,
            (false, true) => IndexKind::Xz2t,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            IndexKind::Z2 => "z2",
            IndexKind::Z3 => "z3",
            IndexKind::Xz2 => "xz2",
            IndexKind::Xz3 => "xz3",
            IndexKind::Z2t => "z2t",
            IndexKind::Xz2t => "xz2t",
            IndexKind::Id => "id",
        }
    }
}

impl std::fmt::Display for IndexKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The scan plan for one query: byte ranges over the key-value table.
#[derive(Debug, Clone)]
pub struct ShardedPlan {
    /// Inclusive byte ranges, one per (curve range × shard).
    pub ranges: Vec<(Vec<u8>, Vec<u8>)>,
    /// Logical curve ranges before shard fan-out.
    pub curve_ranges: usize,
}

/// A fully configured index: kind + period + resolution + sharding.
#[derive(Debug, Clone, Copy)]
pub struct IndexStrategy {
    kind: IndexKind,
    period: TimePeriod,
    shards: u8,
}

/// Maximum record-id length embeddable in keys; bounded so range end keys
/// (padded with `0xff`) always compare greater than any real key.
pub(crate) const MAX_FID_BYTES: usize = 48;
const END_PAD: [u8; 64] = [0xff; 64];

impl IndexStrategy {
    /// Creates a strategy. `shards` must be at least 1.
    pub fn new(kind: IndexKind, period: TimePeriod, shards: u8) -> Self {
        IndexStrategy {
            kind,
            period,
            shards: shards.max(1),
        }
    }

    /// The index kind.
    pub fn kind(&self) -> IndexKind {
        self.kind
    }

    /// The time period for temporal kinds.
    pub fn period(&self) -> TimePeriod {
        self.period
    }

    /// Number of salt shards.
    pub fn shards(&self) -> u8 {
        self.shards
    }

    fn shard_of(&self, fid: &[u8]) -> u8 {
        // FNV-1a over the record id: stable and uniform enough for salting.
        let mut h = 0xcbf29ce484222325u64;
        for &b in fid {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
        (h % u64::from(self.shards)) as u8
    }

    /// Sign-flipped period so negative periods sort before positive ones.
    fn period_bytes(period: i32) -> [u8; 4] {
        ((period as u32) ^ 0x8000_0000).to_be_bytes()
    }

    /// Builds the storage key for a record. Spatial kinds require the
    /// record to carry a geometry.
    pub fn key(&self, meta: &RecordMeta) -> Vec<u8> {
        if self.kind == IndexKind::Id {
            let mut key = Vec::with_capacity(1 + meta.fid.len());
            key.push(self.shard_of(&meta.fid));
            key.extend_from_slice(&meta.fid);
            return key;
        }
        let geom = meta
            .geom
            .as_ref()
            .expect("spatial index over a record without geometry");
        let mbr = geom.mbr();
        let rep = geom.representative_point();
        let (period, code): (Option<i32>, u64) = match self.kind {
            IndexKind::Z2 => (None, Z2::default().index(rep.x, rep.y)),
            IndexKind::Xz2 => (None, Xz2::default().index(&mbr)),
            IndexKind::Z3 => {
                let (p, c) = Z3::with_period(self.period).index(rep.x, rep.y, meta.t_min);
                (Some(p), c)
            }
            IndexKind::Xz3 => {
                let (p, c) =
                    Xz3::with_period(self.period).index(&StMbr::new(mbr, meta.t_min, meta.t_max));
                (Some(p), c)
            }
            IndexKind::Z2t => {
                let (p, c) = Z2t::new(self.period).index(rep.x, rep.y, meta.t_min);
                (Some(p), c)
            }
            IndexKind::Xz2t => {
                let (p, c) = Xz2t::new(self.period).index(&StMbr::new(mbr, meta.t_min, meta.t_max));
                (Some(p), c)
            }
            IndexKind::Id => unreachable!("handled above"),
        };
        let mut key = Vec::with_capacity(13 + meta.fid.len());
        key.push(self.shard_of(&meta.fid));
        if let Some(p) = period {
            key.extend_from_slice(&Self::period_bytes(p));
        }
        key.extend_from_slice(&code.to_be_bytes());
        key.extend_from_slice(&meta.fid);
        key
    }

    /// Plans the byte-key scan ranges for a query window. `spatial` =
    /// `None` means "everywhere"; `time` = `None` means "any time".
    pub fn plan(&self, spatial: Option<&Rect>, time: Option<(i64, i64)>) -> ShardedPlan {
        let world = just_geo::WORLD;
        let rect = spatial.unwrap_or(&world);
        // Temporal indexes need a time window; an open one spans every
        // period seen in practice (clamped to ±50 years around epoch for
        // planning purposes).
        const FIFTY_YEARS_MS: i64 = 50 * 365 * 86_400_000;
        let (t_min, t_max) = time.unwrap_or((-FIFTY_YEARS_MS, FIFTY_YEARS_MS));

        if self.kind == IndexKind::Id {
            // One full-shard scan per shard; filtering happens on decode.
            let mut ranges = Vec::with_capacity(self.shards as usize);
            for shard in 0..self.shards {
                let start = vec![shard];
                let mut end = vec![shard];
                end.extend_from_slice(&END_PAD);
                ranges.push((start, end));
            }
            return ShardedPlan {
                ranges,
                curve_ranges: 1,
            };
        }
        // One range budget per query; every curve range then fans out
        // into one byte range per shard.
        let opts = RangeOptions::default();
        let mut curve: Vec<(Option<i32>, u64, u64)> = Vec::new();
        match self.kind {
            IndexKind::Z2 => {
                for r in Z2::default().ranges(rect, &opts) {
                    curve.push((None, r.lo, r.hi));
                }
            }
            IndexKind::Xz2 => {
                for r in Xz2::default().ranges(rect, &opts) {
                    curve.push((None, r.lo, r.hi));
                }
            }
            IndexKind::Z3 => {
                for pr in Z3::with_period(self.period).ranges(rect, t_min, t_max, &opts) {
                    curve.push((Some(pr.period), pr.range.lo, pr.range.hi));
                }
            }
            IndexKind::Xz3 => {
                for pr in Xz3::with_period(self.period).ranges(rect, t_min, t_max, &opts) {
                    curve.push((Some(pr.period), pr.range.lo, pr.range.hi));
                }
            }
            IndexKind::Z2t => {
                for pr in Z2t::new(self.period).ranges(rect, t_min, t_max, &opts) {
                    curve.push((Some(pr.period), pr.range.lo, pr.range.hi));
                }
            }
            IndexKind::Xz2t => {
                for pr in Xz2t::new(self.period).ranges(rect, t_min, t_max, &opts) {
                    curve.push((Some(pr.period), pr.range.lo, pr.range.hi));
                }
            }
            IndexKind::Id => unreachable!("handled above"),
        }

        let mut ranges = Vec::with_capacity(curve.len() * self.shards as usize);
        for shard in 0..self.shards {
            for (period, lo, hi) in &curve {
                let mut start = Vec::with_capacity(13);
                let mut end = Vec::with_capacity(13 + END_PAD.len());
                start.push(shard);
                end.push(shard);
                if let Some(p) = period {
                    let pb = Self::period_bytes(*p);
                    start.extend_from_slice(&pb);
                    end.extend_from_slice(&pb);
                }
                start.extend_from_slice(&lo.to_be_bytes());
                end.extend_from_slice(&hi.to_be_bytes());
                end.extend_from_slice(&END_PAD);
                ranges.push((start, end));
            }
        }
        ShardedPlan {
            ranges,
            curve_ranges: curve.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use just_geo::{Geometry, Point};

    const HOUR_MS: i64 = 3_600_000;
    const DAY_MS: i64 = 24 * HOUR_MS;

    fn meta(fid: &str, lng: f64, lat: f64, t: i64) -> RecordMeta {
        RecordMeta {
            fid: fid.as_bytes().to_vec(),
            geom: Some(Geometry::Point(Point::new(lng, lat))),
            t_min: t,
            t_max: t,
        }
    }

    fn covered(plan: &ShardedPlan, key: &[u8]) -> bool {
        plan.ranges
            .iter()
            .any(|(s, e)| s.as_slice() <= key && key <= e.as_slice())
    }

    #[test]
    fn kind_parsing_and_defaults() {
        assert_eq!(IndexKind::parse("Z2T"), Some(IndexKind::Z2t));
        assert_eq!(IndexKind::parse("bogus"), None);
        assert_eq!(IndexKind::default_for(true, true), IndexKind::Z2t);
        assert_eq!(IndexKind::default_for(false, true), IndexKind::Xz2t);
        assert_eq!(IndexKind::default_for(true, false), IndexKind::Z2);
        assert_eq!(IndexKind::default_for(false, false), IndexKind::Xz2);
    }

    #[test]
    fn keys_are_found_by_plans_for_every_kind() {
        for kind in [
            IndexKind::Z2,
            IndexKind::Z3,
            IndexKind::Xz2,
            IndexKind::Xz3,
            IndexKind::Z2t,
            IndexKind::Xz2t,
        ] {
            let idx = IndexStrategy::new(kind, TimePeriod::Day, 4);
            let m = meta("traj-42", 116.4, 39.9, 5 * HOUR_MS);
            let key = idx.key(&m);
            let window = Rect::new(116.3, 39.8, 116.5, 40.0);
            let plan = idx.plan(Some(&window), Some((4 * HOUR_MS, 6 * HOUR_MS)));
            assert!(covered(&plan, &key), "{kind}: key escaped plan");
        }
    }

    #[test]
    fn temporal_kinds_prune_other_days() {
        for kind in [IndexKind::Z3, IndexKind::Z2t] {
            let idx = IndexStrategy::new(kind, TimePeriod::Day, 4);
            let m = meta("id", 116.4, 39.9, 3 * DAY_MS + 5 * HOUR_MS);
            let key = idx.key(&m);
            let window = Rect::new(116.3, 39.8, 116.5, 40.0);
            let plan = idx.plan(Some(&window), Some((4 * HOUR_MS, 6 * HOUR_MS)));
            assert!(!covered(&plan, &key), "{kind}: wrong-day key matched");
        }
    }

    #[test]
    fn spatial_kinds_prune_far_points() {
        for kind in [IndexKind::Z2, IndexKind::Z2t, IndexKind::Xz2t] {
            let idx = IndexStrategy::new(kind, TimePeriod::Day, 4);
            let m = meta("id", -120.0, -40.0, 5 * HOUR_MS);
            let key = idx.key(&m);
            let window = Rect::new(116.3, 39.8, 116.5, 40.0);
            let plan = idx.plan(Some(&window), Some((0, DAY_MS)));
            assert!(!covered(&plan, &key), "{kind}: far key matched");
        }
    }

    #[test]
    fn negative_periods_sort_before_positive() {
        let a = IndexStrategy::period_bytes(-3);
        let b = IndexStrategy::period_bytes(-1);
        let c = IndexStrategy::period_bytes(0);
        let d = IndexStrategy::period_bytes(7);
        assert!(a < b && b < c && c < d);
    }

    #[test]
    fn shards_spread_and_stay_stable() {
        let idx = IndexStrategy::new(IndexKind::Z2, TimePeriod::Day, 8);
        let mut seen = std::collections::HashSet::new();
        for i in 0..100 {
            let m = meta(&format!("id-{i}"), 116.4, 39.9, 0);
            let key = idx.key(&m);
            seen.insert(key[0]);
            assert!(key[0] < 8);
            // Same record always lands on the same shard.
            assert_eq!(idx.key(&m)[0], key[0]);
        }
        assert!(seen.len() >= 4, "poor shard spread: {seen:?}");
    }

    #[test]
    fn plan_fans_out_per_shard() {
        let idx = IndexStrategy::new(IndexKind::Z2, TimePeriod::Day, 8);
        let plan = idx.plan(Some(&Rect::new(116.0, 39.0, 116.5, 39.5)), None);
        assert_eq!(plan.ranges.len(), plan.curve_ranges * 8);
    }

    #[test]
    fn open_spatial_query_plans_whole_world() {
        let idx = IndexStrategy::new(IndexKind::Z2, TimePeriod::Day, 2);
        let m = meta("anywhere", -120.0, -40.0, 0);
        let key = idx.key(&m);
        let plan = idx.plan(None, None);
        assert!(covered(&plan, &key));
    }
}
