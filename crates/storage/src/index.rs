//! Index strategies: from records to byte keys, and from query windows to
//! byte-key scan ranges. This is the one module that knows how a table's
//! keyspace is laid out.
//!
//! A table is one kv table. Every key in it is `[salt u8][family u8]
//! [rest]`, and each index of the table is one family (all integers
//! big-endian so byte order = numeric order):
//!
//! ```text
//! family     index         key                                         value
//! 0 data     Z2 / XZ2      [salt][0][code u64][fid]                    row
//!            Z3 / XZ3 /
//!            Z2T / XZ2T    [salt][0][period u32 (sign-flipped)][code u64][fid]
//!                                                                      row
//!            Id            [salt][0][fid]                              row
//! 1 spatial  Z2 / XZ2      [salt][1][code u64][fid]                    row
//! 2 ids                    [salt][2][fid]                              data key's middle
//! 3 meta     time bounds   [0][3]"tb"                                  t_min, t_max
//! ```
//!
//! An ids value is the part of the record's data key between the family
//! byte and the fid — `[period][code]`, 12 bytes under Z2T and XZ2T,
//! empty under Id — and the data key is rebuilt from the id key's salt
//! and fid around it ([`data_key`]).
//!
//! The salt reproduces GeoMesa's salted-key load balancing: it is FNV-1a
//! of the record id modulo `shards`, so records spread over `shards`
//! buckets (= region servers), every logical curve range fans out into
//! one byte range per salt, and a row's data, spatial and id entries
//! share a salt — under the default region map, one region.

use crate::sttable::RecordMeta;
use just_curves::xz3::StMbr;
use just_curves::{RangeOptions, TimePeriod, Xz2, Xz2t, Xz3, Z2t, Z2, Z3};
use just_geo::Rect;

/// Family bytes: which of the table's indexes a key belongs to.
const DATA: u8 = 0;
const SPATIAL: u8 = 1;
const IDS: u8 = 2;
const META: u8 = 3;

/// The key of the table's persisted `[min t_min, max t_max]` (two
/// little-endian `i64`s).
pub(crate) const TIME_BOUNDS_KEY: &[u8] = &[0, META, b't', b'b'];

/// The ids value of the record whose id key is `id` and data key `key`:
/// the data key without its salt, family and fid.
pub(crate) fn id_value<'k>(id: &[u8], key: &'k [u8]) -> &'k [u8] {
    &key[2..key.len() + 2 - id.len()]
}

/// The data key an ids entry points at: the id key's salt, the data
/// family, the entry's value ([`id_value`]) and the id key's fid.
pub(crate) fn data_key(id: &[u8], value: &[u8]) -> Vec<u8> {
    [&[id[0], DATA], value, &id[2..]].concat()
}

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
    /// the salt, the family and the record id; queries scan.
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
    pub(crate) fn is_temporal(self) -> bool {
        !matches!(self, IndexKind::Z2 | IndexKind::Xz2 | IndexKind::Id)
    }

    /// The default index for a table: Z2/XZ2 for spatial-only data,
    /// Z2T/XZ2T when a time field exists (Section V-C: "JUST builds a Z2T
    /// index (for point-based data) or XZ2T index (for non-point-based
    /// data) ... by default").
    pub(crate) fn default_for(point_data: bool, temporal: bool) -> IndexKind {
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

/// A fully configured index: kind + period + resolution + sharding, and
/// the key family it writes and plans.
#[derive(Debug, Clone, Copy)]
pub struct IndexStrategy {
    kind: IndexKind,
    period: TimePeriod,
    shards: u8,
    family: u8,
}

/// Maximum record-id length embeddable in keys; bounded so range end keys
/// (padded with `0xff`) always compare greater than any real key.
pub(crate) const MAX_FID_BYTES: usize = 48;
const END_PAD: [u8; 64] = [0xff; 64];

impl IndexStrategy {
    /// Creates a table's primary index, over the data family. `shards`
    /// must be at least 1.
    pub fn new(kind: IndexKind, period: TimePeriod, shards: u8) -> Self {
        IndexStrategy {
            kind,
            period,
            shards: shards.max(1),
            family: DATA,
        }
    }

    /// Creates a table's secondary index, over the spatial family.
    pub(crate) fn secondary(kind: IndexKind, period: TimePeriod, shards: u8) -> Self {
        IndexStrategy {
            family: SPATIAL,
            ..Self::new(kind, period, shards)
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
        let mut key = Vec::with_capacity(14 + meta.fid.len());
        key.extend_from_slice(&[self.shard_of(&meta.fid), self.family]);
        if self.kind != IndexKind::Id {
            let (period, code) = self.cell(meta);
            if let Some(p) = period {
                key.extend_from_slice(&Self::period_bytes(p));
            }
            key.extend_from_slice(&code.to_be_bytes());
        }
        key.extend_from_slice(&meta.fid);
        key
    }

    /// The id-family key mapping a record id to its data key.
    pub(crate) fn id_key(&self, fid: &[u8]) -> Vec<u8> {
        let mut key = Vec::with_capacity(2 + fid.len());
        key.extend_from_slice(&[self.shard_of(fid), IDS]);
        key.extend_from_slice(fid);
        key
    }

    /// One range per salt over this strategy's whole family.
    pub(crate) fn family_ranges(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
        (0..self.shards)
            .map(|salt| {
                let start = vec![salt, self.family];
                let mut end = start.clone();
                end.extend_from_slice(&END_PAD);
                (start, end)
            })
            .collect()
    }

    /// The record's time period (temporal kinds) and curve code.
    fn cell(&self, meta: &RecordMeta) -> (Option<i32>, u64) {
        let geom = meta
            .geom
            .as_ref()
            .expect("spatial index over a record without geometry");
        let mbr = geom.mbr();
        let rep = geom.representative_point();
        match self.kind {
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
            IndexKind::Id => unreachable!("id keys carry no curve code"),
        }
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
            // The whole family, salt by salt; filtering happens on decode.
            return ShardedPlan {
                ranges: self.family_ranges(),
                curve_ranges: 1,
            };
        }
        // One range budget per query; every curve range then fans out
        // into one byte range per salt.
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
        for salt in 0..self.shards {
            for (period, lo, hi) in &curve {
                let mut start = Vec::with_capacity(14);
                let mut end = Vec::with_capacity(14 + END_PAD.len());
                start.extend_from_slice(&[salt, self.family]);
                end.extend_from_slice(&[salt, self.family]);
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
    fn a_records_families_share_its_salt_and_plans_stay_in_their_family() {
        let primary = IndexStrategy::new(IndexKind::Z2t, TimePeriod::Day, 4);
        let secondary = IndexStrategy::secondary(IndexKind::Z2, TimePeriod::Day, 4);
        let m = meta("traj-7", 116.4, 39.9, 5 * HOUR_MS);
        let (data, spatial, id) = (primary.key(&m), secondary.key(&m), primary.id_key(&m.fid));
        assert!(spatial[0] == data[0] && id[0] == data[0], "one salt");
        assert_eq!((data[1], spatial[1], id[1]), (DATA, SPATIAL, IDS));
        let window = Rect::new(116.3, 39.8, 116.5, 40.0);
        let plans = [
            (primary.plan(Some(&window), Some((0, DAY_MS))), &data),
            (secondary.plan(Some(&window), None), &spatial),
        ];
        for (plan, own) in plans {
            assert!(covered(&plan, own));
            for other in [&data, &spatial, &id, &TIME_BOUNDS_KEY.to_vec()] {
                assert_eq!(covered(&plan, other), other == own, "{other:?}");
            }
        }
        let all = ShardedPlan {
            ranges: primary.family_ranges(),
            curve_ranges: 1,
        };
        assert!(covered(&all, &data) && !covered(&all, &spatial) && !covered(&all, &id));
    }

    #[test]
    fn an_ids_value_is_its_data_keys_middle_and_rebuilds_the_key() {
        let m = meta("traj-42", 116.4, 39.9, 5 * HOUR_MS);
        for (kind, middle) in [
            (IndexKind::Z2t, 12),
            (IndexKind::Xz2t, 12),
            (IndexKind::Z2, 8),
            (IndexKind::Id, 0),
        ] {
            let idx = IndexStrategy::new(kind, TimePeriod::Day, 4);
            let (id, key) = (idx.id_key(&m.fid), idx.key(&m));
            let value = id_value(&id, &key);
            assert_eq!(value.len(), middle, "{kind}");
            assert_eq!(data_key(&id, value), key, "{kind}");
        }
        // Z2T, day periods: period 0 sign-flipped, then the curve code.
        let idx = IndexStrategy::new(IndexKind::Z2t, TimePeriod::Day, 4);
        let key = idx.key(&m);
        let value: String = id_value(&idx.id_key(&m.fid), &key)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(value, concat!("80000000", "0db84dabb5d6384d"));
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
