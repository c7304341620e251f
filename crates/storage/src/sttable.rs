//! Indexed spatio-temporal tables: the write and read paths that tie
//! schemas, curves and the key-value store together.

use crate::index::{data_key, id_value, IndexKind, IndexStrategy, MAX_FID_BYTES, TIME_BOUNDS_KEY};
use crate::row::Row;
use crate::schema::{FieldType, Schema};
use crate::value::Value;
use crate::{Result, StorageError};
use just_curves::TimePeriod;
use just_geo::{Geometry, LineString, Point, Rect};
use just_kvstore::{Store, Table as KvTable, TableSnapshot};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;
use std::sync::OnceLock;

/// Cached handles to the process-wide index-selectivity metrics, resolved
/// once so the per-query cost is a few relaxed atomic adds.
struct IndexObs {
    /// Sharded key ranges produced by query planning.
    ranges_generated: just_obs::Counter,
    /// Pre-shard curve ranges from range decomposition.
    curve_ranges: just_obs::Counter,
    /// Raw keys returned by the kvstore scans (before exact filtering).
    keys_scanned: just_obs::Counter,
    /// Rows surviving decode + exact spatial/temporal filtering.
    rows_matched: just_obs::Counter,
    /// Rows rejected by the pushed-down exact predicate *before* their
    /// non-index fields were decoded.
    rows_pruned: just_obs::Counter,
    /// Rows a consumer's [`RowGate`] refused before refine and decode.
    rows_gated: just_obs::Counter,
    /// Query latency, stream construction to exhaustion or drop, of the
    /// streams that were pulled.
    query_latency: just_obs::Histogram,
}

fn index_obs() -> &'static IndexObs {
    static OBS: OnceLock<IndexObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let obs = just_obs::global();
        IndexObs {
            ranges_generated: obs.counter("just_index_ranges_generated"),
            curve_ranges: obs.counter("just_index_curve_ranges"),
            keys_scanned: obs.counter("just_index_keys_scanned"),
            rows_matched: obs.counter("just_index_rows_matched"),
            rows_pruned: obs.counter("just_storage_rows_pruned_pushdown"),
            rows_gated: obs.counter("just_storage_rows_gated"),
            query_latency: obs.histogram("just_storage_query_latency_us"),
        }
    })
}

/// Table-creation knobs.
#[derive(Debug, Clone, Copy)]
pub struct StorageConfig {
    /// Salt shards (GeoMesa's random key prefix; = key ranges per curve
    /// range).
    pub shards: u8,
    /// Key-value regions ("region servers") per table.
    pub regions: usize,
    /// Index override; `None` picks the paper's defaults
    /// (Z2/XZ2/Z2T/XZ2T by data shape).
    pub index: Option<IndexKind>,
    /// Time-period length for temporal indexes (paper default: a day).
    pub period: TimePeriod,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            shards: 4,
            regions: 4,
            index: None,
            period: TimePeriod::Day,
        }
    }
}

/// The index-relevant digest of a record.
#[derive(Debug, Clone)]
pub struct RecordMeta {
    /// Canonical record-id bytes.
    pub fid: Vec<u8>,
    /// The indexed geometry (`None` for non-spatial tables).
    pub geom: Option<Geometry>,
    /// Earliest timestamp (ms).
    pub t_min: i64,
    /// Latest timestamp (ms).
    pub t_max: i64,
}

/// How spatial windows filter records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpatialPredicate {
    /// Any overlap qualifies (trajectories crossing the window).
    Intersects,
    /// The record must lie entirely inside the window (the paper's
    /// `geom WITHIN st_makeMBR(...)`).
    Within,
}

/// An indexed spatio-temporal table over the key-value store.
pub struct StTable {
    name: String,
    schema: Schema,
    strategy: IndexStrategy,
    /// Secondary spatial-only index (Table III: Traj stores "XZ2 on MBR"
    /// *and* "XZ2T on MBR and Timestart"). Present when the primary index
    /// is temporal; spatial-only queries (and k-NN expansion) use it so
    /// they never fan out across time periods.
    spatial: Option<IndexStrategy>,
    /// The table's one kv table: data, secondary index, id map and time
    /// bounds are key families in it (layout in the `index` module).
    kv: Arc<KvTable>,
    /// Observed `[min t_min, max t_max]` over all inserts, persisted under
    /// the meta family so open-time-window queries on temporal indexes
    /// only plan the periods that can hold data (instead of ±50 years).
    time_bounds: just_obs::sync::Mutex<Option<(i64, i64)>>,
}

impl std::fmt::Debug for StTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StTable")
            .field("name", &self.name)
            .field("index", &self.strategy.kind().name())
            .finish()
    }
}

/// Canonical id bytes: order-preserving for ints/dates, raw for strings.
pub(crate) fn fid_bytes(v: &Value) -> Result<Vec<u8>> {
    let bytes = match v {
        Value::Int(i) | Value::Date(i) => {
            ((*i as u64) ^ 0x8000_0000_0000_0000).to_be_bytes().to_vec()
        }
        Value::Str(s) => s.as_bytes().to_vec(),
        other => {
            let mut buf = Vec::new();
            other.encode(&mut buf);
            buf
        }
    };
    if bytes.is_empty() || bytes.len() > MAX_FID_BYTES {
        return Err(StorageError::SchemaMismatch(format!(
            "record id must be 1..={MAX_FID_BYTES} bytes, got {}",
            bytes.len()
        )));
    }
    Ok(bytes)
}

/// Schema-level [`StTable::meta_of`]: extracts id bytes, geometry and the
/// temporal extent.
fn row_meta(schema: &Schema, row: &Row) -> Result<RecordMeta> {
    let fid_value = row
        .get(schema.fid_index())
        .ok_or_else(|| StorageError::SchemaMismatch("row missing id field".into()))?;
    let fid = fid_bytes(fid_value)?;
    let (geom, t_min, t_max) = row_extent(schema, row)?;
    Ok(RecordMeta {
        fid,
        geom: geom.map(Cow::into_owned),
        t_min,
        t_max,
    })
}

/// A row's indexed geometry and temporal extent (explicit `time` /
/// `time_end` fields, else the GPS list's span), read in place: only a
/// GPS list's line has to be built. Reads the geometry and time fields
/// alone, so it works on rows [`Row::decode_masked`] left the rest of
/// `Null`.
fn row_extent<'r>(schema: &Schema, row: &'r Row) -> Result<(Option<Cow<'r, Geometry>>, i64, i64)> {
    let (geom, gps_span) = match schema.geom_index() {
        None => (None, None),
        Some(geom_idx) => {
            let geom_value = row
                .get(geom_idx)
                .ok_or_else(|| StorageError::SchemaMismatch("row missing geometry".into()))?;
            match geom_value {
                Value::Geom(g) => (Some(Cow::Borrowed(g)), None),
                Value::GpsList(samples) if !samples.is_empty() => {
                    let pts: Vec<Point> =
                        samples.iter().map(|s| Point::new(s.lng, s.lat)).collect();
                    let span = (
                        samples.iter().map(|s| s.time_ms).min().unwrap(),
                        samples.iter().map(|s| s.time_ms).max().unwrap(),
                    );
                    let line = Geometry::LineString(LineString::new(pts));
                    (Some(Cow::Owned(line)), Some(span))
                }
                other => {
                    return Err(StorageError::SchemaMismatch(format!(
                        "geometry field holds {other:?}"
                    )))
                }
            }
        }
    };

    let t_min = schema
        .time_index()
        .and_then(|i| row.get(i))
        .and_then(|v| v.as_date());
    let t_max = schema
        .time_end_index()
        .and_then(|i| row.get(i))
        .and_then(|v| v.as_date());
    let (t_min, t_max) = match (t_min, t_max, gps_span) {
        (Some(a), Some(b), _) => (a, b.max(a)),
        (Some(a), None, _) => (a, a),
        (None, _, Some((a, b))) => (a, b),
        (None, _, None) => (0, 0),
    };
    Ok((geom, t_min, t_max))
}

impl StTable {
    /// Creates the backing key-value table, named `name`, and the index
    /// binding.
    pub fn create(
        store: &Store,
        name: &str,
        schema: Schema,
        config: StorageConfig,
    ) -> Result<StTable> {
        let kv = store.create_table(name, config.regions)?;
        Self::bind(name, schema, config, kv)
    }

    /// Reopens a previously created table. Fails with
    /// [`StorageError::Corrupt`] when its persisted time bounds are not
    /// two timestamps.
    pub fn open(
        store: &Store,
        name: &str,
        schema: Schema,
        config: StorageConfig,
    ) -> Result<StTable> {
        let kv = store.open_table(name, config.regions)?;
        Self::bind(name, schema, config, kv)
    }

    /// The index kind a schema+config resolves to.
    fn decide_kind(schema: &Schema, config: &StorageConfig) -> IndexKind {
        if schema.geom_index().is_none() {
            return IndexKind::Id;
        }
        let point_data = schema
            .geom_index()
            .map(|i| schema.fields()[i].ty == FieldType::Point)
            .unwrap_or(true);
        let temporal = schema.time_index().is_some()
            || schema
                .geom_index()
                .map(|i| schema.fields()[i].ty == FieldType::StSeries)
                .unwrap_or(false);
        config
            .index
            .unwrap_or_else(|| IndexKind::default_for(point_data, temporal))
    }

    fn bind(
        name: &str,
        schema: Schema,
        config: StorageConfig,
        kv: Arc<KvTable>,
    ) -> Result<StTable> {
        let point_data = schema
            .geom_index()
            .map(|i| schema.fields()[i].ty == FieldType::Point)
            .unwrap_or(true);
        let kind = Self::decide_kind(&schema, &config);
        let strategy = IndexStrategy::new(kind, config.period, config.shards);
        let spatial = kind.is_temporal().then(|| {
            let skind = if point_data {
                IndexKind::Z2
            } else {
                IndexKind::Xz2
            };
            IndexStrategy::secondary(skind, config.period, config.shards)
        });
        // An entry that cannot be read must not read as "no data yet":
        // open-window queries would then plan no ranges at all.
        let time_bounds = match kv.snapshot().get(TIME_BOUNDS_KEY)? {
            None => None,
            Some(v) if v.len() == 16 => {
                let at = |i: usize| i64::from_le_bytes(v[i..i + 8].try_into().expect("8 bytes"));
                Some((at(0), at(8)))
            }
            Some(v) => {
                return Err(StorageError::Corrupt(format!(
                    "time bounds of table {name} hold {} bytes, not 16",
                    v.len()
                )))
            }
        };
        Ok(StTable {
            name: name.to_string(),
            schema,
            strategy,
            spatial,
            kv,
            time_bounds: just_obs::sync::Mutex::new(time_bounds),
        })
    }

    /// Widens the persisted time bounds to include `[t_min, t_max]`.
    fn widen_time_bounds(&self, t_min: i64, t_max: i64) -> Result<()> {
        let mut bounds = self.time_bounds.lock();
        let widened = match *bounds {
            None => (t_min, t_max),
            Some((lo, hi)) => {
                if t_min >= lo && t_max <= hi {
                    return Ok(());
                }
                (lo.min(t_min), hi.max(t_max))
            }
        };
        *bounds = Some(widened);
        let mut value = Vec::with_capacity(16);
        value.extend_from_slice(&widened.0.to_le_bytes());
        value.extend_from_slice(&widened.1.to_le_bytes());
        self.kv.put(TIME_BOUNDS_KEY.to_vec(), value)?;
        Ok(())
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The index strategy in use.
    pub fn strategy(&self) -> &IndexStrategy {
        &self.strategy
    }

    /// Extracts the index digest from a row: id bytes, geometry and the
    /// temporal extent (explicit `time`/`time_end` fields, else the GPS
    /// list's span).
    pub fn meta_of(&self, row: &Row) -> Result<RecordMeta> {
        row_meta(&self.schema, row)
    }

    /// Inserts a record; re-inserting an id replaces the old record even
    /// when its location or time changed (the paper's "historical data
    /// updates without index reconstruction"). A batch of one.
    pub fn insert(&self, row: &Row) -> Result<()> {
        self.insert_batch(std::slice::from_ref(row))
    }

    /// Inserts `rows` with the effect of inserting them one by one, in
    /// order — a repeated id supersedes its earlier row in the batch as a
    /// later [`StTable::insert`] would — as one write.
    ///
    /// Every row's id, keys and encoding are computed before anything is
    /// written, so a row the table refuses fails the whole batch with
    /// nothing written. Then the time bounds widen once, and every row's
    /// id, spatial and data entries, with the deletes of the versions
    /// they supersede, go to the table's one kv table as one
    /// [`just_kvstore::Table::write_batch`]: one batch per region the
    /// rows' salts route to, one region under the default map. The
    /// batch is not atomic: a crash part-way can leave part of it
    /// written. An id entry whose data never landed reads as absent, and
    /// re-running the statement completes it.
    pub fn insert_batch(&self, rows: &[Row]) -> Result<()> {
        struct Staged {
            id: Vec<u8>,
            key: Vec<u8>,
            skey: Option<Vec<u8>>,
            value: Vec<u8>,
        }
        let mut staged = Vec::with_capacity(rows.len());
        let (mut t_min, mut t_max) = (i64::MAX, i64::MIN);
        for row in rows {
            let meta = self.meta_of(row)?;
            (t_min, t_max) = (t_min.min(meta.t_min), t_max.max(meta.t_max));
            staged.push(Staged {
                id: self.strategy.id_key(&meta.fid),
                key: self.strategy.key(&meta),
                skey: self.spatial.map(|st| st.key(&meta)),
                value: row.encode(&self.schema)?,
            });
        }
        if staged.is_empty() {
            return Ok(());
        }
        // Not part of the batch: two racing statements could then persist
        // a narrower bound than the one memory holds.
        self.widen_time_bounds(t_min, t_max)?;
        // Per row, the version it supersedes when that sits under other
        // keys: the batch's earlier row with its id, else the stored one,
        // read at one snapshot that is released before the write.
        let mut superseded = Vec::with_capacity(staged.len());
        let mut latest: HashMap<&[u8], &Staged> = HashMap::with_capacity(staged.len());
        let snap = self.kv.snapshot();
        for row in &staged {
            let earlier = latest.insert(&row.id, row);
            let old_key = match earlier {
                Some(e) => Some(e.key.clone()),
                None => snap.get(&row.id)?.map(|v| data_key(&row.id, &v)),
            };
            let Some(old_key) = old_key.filter(|k| *k != row.key) else {
                superseded.push(None);
                continue;
            };
            let old_skey = match earlier {
                Some(e) => e.skey.clone(),
                None => self.stored_spatial_key(&snap, &old_key)?,
            };
            superseded.push(Some((old_key, old_skey)));
        }
        drop((latest, snap));
        // Sized exactly: a batch of benchmark rows is ~150 KiB of ops,
        // and doubling past it would copy and waste as much again.
        let per_row = if self.spatial.is_some() { 3 } else { 2 };
        let deletes: usize = (superseded.iter().flatten())
            .map(|(_, old_skey)| 1 + usize::from(old_skey.is_some()))
            .sum();
        let mut ops = Vec::with_capacity(per_row * staged.len() + deletes);
        for (row, old) in staged.into_iter().zip(superseded) {
            // Remove the superseded version from both indexes.
            if let Some((old_key, old_skey)) = old {
                ops.extend(old_skey.map(|k| (k, None)));
                ops.push((old_key, None));
            }
            let id_entry = id_value(&row.id, &row.key).to_vec();
            ops.push((row.id, Some(id_entry)));
            if let Some(skey) = row.skey {
                ops.push((skey, Some(row.value.clone())));
            }
            ops.push((row.key, Some(row.value)));
        }
        self.kv.write_batch(ops)?;
        Ok(())
    }

    /// The secondary-index key of the row stored under data key `key` at
    /// `snap`: `None` without a secondary index or without the row.
    fn stored_spatial_key(&self, snap: &TableSnapshot, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let Some(sst) = &self.spatial else {
            return Ok(None);
        };
        let Some(bytes) = snap.get(key)? else {
            return Ok(None);
        };
        let row = Row::decode(&self.schema, &bytes)?;
        Ok(Some(sst.key(&self.meta_of(&row)?)))
    }

    /// Deletes a record by id, its entries in every family as one write.
    /// Returns whether it existed.
    pub fn delete(&self, fid: &Value) -> Result<bool> {
        let id = self.strategy.id_key(&fid_bytes(fid)?);
        let snap = self.kv.snapshot();
        let Some(key) = snap.get(&id)?.map(|v| data_key(&id, &v)) else {
            return Ok(false);
        };
        let mut ops = Vec::with_capacity(3);
        ops.extend(self.stored_spatial_key(&snap, &key)?.map(|k| (k, None)));
        drop(snap);
        ops.push((key, None));
        ops.push((id, None));
        self.kv.write_batch(ops)?;
        Ok(true)
    }

    /// Point lookup by id: the id entry and the row it points at, read
    /// at one snapshot.
    pub fn get(&self, fid: &Value) -> Result<Option<Row>> {
        let id = self.strategy.id_key(&fid_bytes(fid)?);
        let snap = self.kv.snapshot();
        let Some(key) = snap.get(&id)?.map(|v| data_key(&id, &v)) else {
            return Ok(None);
        };
        let Some(bytes) = snap.get(&key)? else {
            return Ok(None);
        };
        Ok(Some(Row::decode(&self.schema, &bytes)?))
    }

    /// Chooses the index and key ranges for a query window: spatial-only
    /// queries on a temporal primary go to the secondary spatial index
    /// (Table III's dual-index setting), open time windows on a temporal
    /// primary clamp to the observed data bounds. Records planning
    /// metrics. No ranges when the table provably holds no data for the
    /// window (no time bounds persisted yet). A plan that is the whole
    /// primary family (an `Id` primary's) reads around the block cache,
    /// as [`StTable::scan_all_stream`] does.
    fn plan_scan(
        &self,
        spatial: Option<&Rect>,
        time: Option<(i64, i64)>,
        opts: &mut just_kvstore::ScanOptions,
    ) -> Vec<(Vec<u8>, Vec<u8>)> {
        let plan = match (time, &self.spatial) {
            (None, Some(sst)) => sst.plan(spatial, None),
            _ => {
                let plan_time = match time {
                    Some(t) => Some(t),
                    None if self.strategy.kind().is_temporal() => match *self.time_bounds.lock() {
                        Some(bounds) => Some(bounds),
                        None => return Vec::new(),
                    },
                    None => None,
                };
                opts.fill_cache &= self.strategy.kind() != IndexKind::Id;
                self.strategy.plan(spatial, plan_time)
            }
        };
        let obs = index_obs();
        obs.ranges_generated.add(plan.ranges.len() as u64);
        obs.curve_ranges.add(plan.curve_ranges as u64);
        plan.ranges
    }

    /// Plans a query window and scans the planned ranges lazily, one
    /// bounded batch of raw key-value entries at a time, without
    /// decoding or exact filtering. The k-NN ring expansion pulls from
    /// this to deduplicate candidates by key before paying for row
    /// decode (and GPS-list decompression), and stops as soon as its
    /// candidate heap is provably complete, leaving the rest of the ring
    /// unread. It reads one snapshot, as [`StTable::query_stream`] does.
    pub fn query_raw_stream(
        &self,
        spatial: Option<&Rect>,
        time: Option<(i64, i64)>,
        mut opts: just_kvstore::ScanOptions,
    ) -> RawQueryStream {
        let ranges = self.plan_scan(spatial, time, &mut opts);
        RawQueryStream {
            inner: self.kv.snapshot().scan_ranges_stream(ranges, opts),
        }
    }

    /// Decodes the value of one raw entry from
    /// [`StTable::query_raw_stream`].
    pub fn decode_entry(&self, value: &[u8]) -> Result<Row> {
        Row::decode(&self.schema, value)
    }

    /// Executes a spatial / spatio-temporal range query and collects
    /// every matching row: [`StTable::query_stream`] drained.
    pub fn query(
        &self,
        spatial: Option<&Rect>,
        time: Option<(i64, i64)>,
        predicate: SpatialPredicate,
    ) -> Result<Vec<Row>> {
        self.query_stream(spatial, time, predicate, None, Default::default())
            .drain()
    }

    /// A spatial / spatio-temporal range query: plan key ranges, scan
    /// them, decode and post-filter exactly — the refine step of the
    /// paper's query algorithm, with predicate and projection pushdown,
    /// applied per batch.
    ///
    /// Spatial-only queries use the secondary spatial index when the
    /// primary is temporal (Table III's dual-index setting) — one set of
    /// ranges instead of a fan-out across every time period; open time
    /// windows on the temporal primary clamp to the observed data
    /// bounds.
    ///
    /// Per entry the stream decodes only the geometry and time fields
    /// (`Row::decode_masked`), applies the exact spatial/temporal
    /// predicate to them in place, and pays full field decode (including
    /// GPS-list decompression) only for survivors; rejected rows count
    /// toward `just_storage_rows_pruned_pushdown`. A consumer that can
    /// rule rows out from a few fields of its own has
    /// [`QueryStream::next_batch_gated`] check those first.
    ///
    /// `projection` limits which field indices of surviving rows are
    /// decoded at all — undecoded slots surface as [`Value::Null`] at
    /// full schema arity. Pass `None` to decode every field.
    ///
    /// Cancellation (via `opts.cancel` or simply dropping the stream)
    /// stops the underlying block reads mid-range.
    ///
    /// The stream reads one snapshot of the table, taken here, across
    /// all its ranges and regions however long it runs: a row moved from
    /// a range not yet reached into one already passed still comes back
    /// once, as it was. It owns the snapshot's pins and releases each
    /// region's when it first enters that region.
    pub fn query_stream(
        &self,
        spatial: Option<&Rect>,
        time: Option<(i64, i64)>,
        predicate: SpatialPredicate,
        projection: Option<&[usize]>,
        mut opts: just_kvstore::ScanOptions,
    ) -> QueryStream {
        let ranges = self.plan_scan(spatial, time, &mut opts);
        let inner = self.kv.snapshot().scan_ranges_stream(ranges, opts);
        self.build_stream(inner, spatial, time, predicate, projection)
    }

    /// Every record, decoded batch by batch (with optional projection
    /// pushdown): the data family, salt by salt, at one snapshot as
    /// [`StTable::query_stream`] reads. It reads each block once, around
    /// the block cache.
    pub fn scan_all_stream(
        &self,
        projection: Option<&[usize]>,
        mut opts: just_kvstore::ScanOptions,
    ) -> QueryStream {
        let ranges = self.strategy.family_ranges();
        opts.fill_cache = false;
        let inner = self.kv.snapshot().scan_ranges_stream(ranges, opts);
        self.build_stream(inner, None, None, SpatialPredicate::Intersects, projection)
    }

    fn build_stream(
        &self,
        inner: just_kvstore::ScanStream,
        spatial: Option<&Rect>,
        time: Option<(i64, i64)>,
        predicate: SpatialPredicate,
        projection: Option<&[usize]>,
    ) -> QueryStream {
        let len = self.schema.len();
        let filtering = spatial.is_some() || time.is_some();
        let mut refine_mask = vec![false; len];
        for i in [
            self.schema.geom_index(),
            self.schema.time_index(),
            self.schema.time_end_index(),
        ]
        .into_iter()
        .flatten()
        {
            refine_mask[i] = true;
        }
        let fill_mask = projection.map(|idxs| {
            let mut m = vec![false; len];
            for &i in idxs {
                if i < len {
                    m[i] = true;
                }
            }
            m
        });
        // What survivors still need after the refine-phase decode.
        let post_mask = if filtering {
            let m: Vec<bool> = match &fill_mask {
                Some(fm) => fm
                    .iter()
                    .zip(&refine_mask)
                    .map(|(f, rm)| *f && !*rm)
                    .collect(),
                None => refine_mask.iter().map(|rm| !*rm).collect(),
            };
            m.iter().any(|&b| b).then_some(m)
        } else {
            None
        };
        QueryStream {
            inner,
            refine: Refine {
                schema: self.schema.clone(),
                spatial: spatial.cloned(),
                time,
                predicate,
                filtering,
                refine_mask,
                fill_mask,
                post_mask,
            },
            started: std::time::Instant::now(),
            done: false,
            pulled: false,
        }
    }

    /// Every record in the table ([`StTable::scan_all_stream`] drained).
    pub fn scan_all(&self) -> Result<Vec<Row>> {
        self.scan_all_stream(None, Default::default()).drain()
    }

    /// Flushes memtables to disk.
    pub fn flush(&self) -> Result<()> {
        Ok(self.kv.flush()?)
    }

    /// Compacts the backing store.
    pub fn compact(&self) -> Result<()> {
        Ok(self.kv.compact()?)
    }

    /// Bytes on disk, every family included.
    pub fn disk_size(&self) -> u64 {
        self.kv.disk_size()
    }
}

/// Streaming raw key-value entries from [`StTable::query_raw_stream`] —
/// no decode, no exact filtering, but full planning/`keys_scanned`
/// accounting. Self-contained: holds no borrow of the table.
pub struct RawQueryStream {
    inner: just_kvstore::ScanStream,
}

impl RawQueryStream {
    /// The next bounded batch of raw entries, lent until the next pull,
    /// or `None` when drained.
    pub fn next_batch(&mut self) -> Result<Option<&just_kvstore::KvBatch>> {
        let batch = self.inner.next_batch()?;
        if let Some(entries) = batch {
            index_obs().keys_scanned.add(entries.len() as u64);
        }
        Ok(batch)
    }
}

/// A running range query: refined rows, one bounded batch at a
/// time, with the exact predicate and the column projection pushed into
/// the per-batch decode. Built by [`StTable::query_stream`] /
/// [`StTable::scan_all_stream`]; self-contained (owns a schema clone),
/// so it can be threaded through sessions without borrowing the table.
pub struct QueryStream {
    inner: just_kvstore::ScanStream,
    refine: Refine,
    started: std::time::Instant,
    /// The latency sample is recorded: at exhaustion, or on drop.
    done: bool,
    /// Whether the stream was ever pulled. One that never was (opened by
    /// a plain `EXPLAIN`, or under a `LIMIT 0`) records no sample, as a
    /// kvstore scan stream records none.
    pulled: bool,
}

/// What a [`QueryStream`] checks and decodes each entry's value against.
struct Refine {
    schema: Schema,
    spatial: Option<Rect>,
    time: Option<(i64, i64)>,
    predicate: SpatialPredicate,
    /// Whether any exact predicate is active. With no window there is
    /// nothing to refine, so the refine decode is skipped wholesale.
    filtering: bool,
    /// The fields refine reads (geometry, time): decoded first.
    refine_mask: Vec<bool>,
    /// Projected fields (`None` = all). Undecoded slots stay `Null`.
    fill_mask: Option<Vec<bool>>,
    /// Fields survivors still need after the refine phase (`None` = the
    /// refine phase already decoded everything the projection wants).
    post_mask: Option<Vec<bool>>,
}

/// A check a consumer hands [`QueryStream::next_batch_gated`]: the stream
/// decodes only [`RowGate::fields`] of each entry and asks the gate
/// before refine and before any other decode. A gate may only refuse
/// rows its consumer would drop whatever their other fields hold.
pub trait RowGate {
    /// Schema field indices [`RowGate::pass`] reads.
    fn fields(&self) -> &[usize];
    /// Whether a row with only [`RowGate::fields`] decoded (every other
    /// slot `Null`) goes on to refine and decode.
    fn pass(&mut self, row: &Row) -> bool;
}

impl QueryStream {
    /// The schema rows of this stream conform to.
    pub fn schema(&self) -> &Schema {
        &self.refine.schema
    }

    /// Token to stop the scan early (cloneable into the consumer).
    pub fn cancel_token(&self) -> just_kvstore::CancelToken {
        self.inner.cancel_token()
    }

    /// The next batch of refined rows, or `None` when the planned ranges
    /// are drained (or the stream was cancelled). Batches where every
    /// row was pruned are skipped, so a returned batch is non-empty.
    pub fn next_batch(&mut self) -> Result<Option<Vec<Row>>> {
        self.next_batch_gated(None)
    }

    /// [`QueryStream::next_batch`] behind `gate`: each entry decodes the
    /// gate's fields alone and is asked first, and only the rows it
    /// passes are refined and decoded further. Entries it refuses count
    /// toward `just_storage_rows_gated`, not the pushdown prune count.
    pub fn next_batch_gated(
        &mut self,
        mut gate: Option<&mut (dyn RowGate + '_)>,
    ) -> Result<Option<Vec<Row>>> {
        if self.done {
            return Ok(None);
        }
        self.pulled = true;
        let obs = index_obs();
        // The gate's fields decode into one row reused across entries.
        let len = self.refine.schema.len();
        let mut probe = gate.as_ref().map(|g| {
            let mut mask = vec![false; len];
            for &i in g.fields().iter().filter(|&&i| i < len) {
                mask[i] = true;
            }
            (mask, Row::new(vec![Value::Null; len]))
        });
        loop {
            let Some(entries) = self.inner.next_batch()? else {
                self.finish();
                return Ok(None);
            };
            obs.keys_scanned.add(entries.len() as u64);
            let mut rows = Vec::with_capacity(entries.len());
            let mut gated = 0;
            for (_, value) in entries.iter() {
                if let (Some(gate), Some((mask, probe))) = (gate.as_deref_mut(), &mut probe) {
                    probe.fill_masked(&self.refine.schema, value, mask)?;
                    if !gate.pass(probe) {
                        gated += 1;
                        continue;
                    }
                }
                rows.extend(self.refine.decode(value)?);
            }
            obs.rows_gated.add(gated);
            obs.rows_matched.add(rows.len() as u64);
            if !rows.is_empty() {
                return Ok(Some(rows));
            }
            // Every entry gated or pruned: keep pulling rather than yield
            // an empty batch.
        }
    }

    /// Records the stream's one latency sample, if it was pulled and has
    /// not yet.
    fn finish(&mut self) {
        if self.pulled && !std::mem::replace(&mut self.done, true) {
            index_obs()
                .query_latency
                .record_duration(self.started.elapsed());
        }
    }

    /// Pulls every remaining batch into one vector.
    fn drain(mut self) -> Result<Vec<Row>> {
        let mut rows = Vec::new();
        while let Some(batch) = self.next_batch()? {
            rows.extend(batch);
        }
        Ok(rows)
    }
}

impl Refine {
    /// One entry through refine and projection: `None` when the exact
    /// predicate prunes it (counted), else its projected fields decoded.
    fn decode(&self, value: &[u8]) -> Result<Option<Row>> {
        if !self.filtering {
            return Ok(Some(match &self.fill_mask {
                Some(mask) => Row::decode_masked(&self.schema, value, mask)?,
                None => Row::decode(&self.schema, value)?,
            }));
        }
        // Phase 1: decode only what refine reads, and check it in place.
        let mut row = Row::decode_masked(&self.schema, value, &self.refine_mask)?;
        let (geom, t_min, t_max) = row_extent(&self.schema, &row)?;
        let inside = match (&self.spatial, geom) {
            (None, _) => true,
            (Some(_), None) => false,
            (Some(rect), Some(g)) => match self.predicate {
                SpatialPredicate::Intersects => g.intersects_rect(rect),
                SpatialPredicate::Within => g.within_rect(rect),
            },
        };
        let overlaps = self.time.is_none_or(|(lo, hi)| t_max >= lo && t_min <= hi);
        if !(inside && overlaps) {
            index_obs().rows_pruned.inc();
            return Ok(None);
        }
        // Phase 2: survivors pay for the rest of their fields.
        if let Some(mask) = &self.post_mask {
            row.fill_masked(&self.schema, value, mask)?;
        }
        Ok(Some(row))
    }
}

/// A stream a satisfied `LIMIT`, a kill or an error stopped early after
/// its first pull still records its latency, once.
impl Drop for QueryStream {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;
    use just_compress::gps::GpsSample;
    use just_kvstore::StoreOptions;

    const HOUR_MS: i64 = 3_600_000;
    const DAY_MS: i64 = 24 * HOUR_MS;

    fn store(name: &str) -> (Store, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "just-sttable-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        (Store::open(&dir, StoreOptions::default()).unwrap(), dir)
    }

    fn order_schema() -> Schema {
        Schema::new(vec![
            Field::new("fid", FieldType::Int).primary(),
            Field::new("time", FieldType::Date),
            Field::new("geom", FieldType::Point),
        ])
        .unwrap()
    }

    fn order_row(fid: i64, lng: f64, lat: f64, t: i64) -> Row {
        Row::new(vec![
            Value::Int(fid),
            Value::Date(t),
            Value::Geom(Geometry::Point(Point::new(lng, lat))),
        ])
    }

    #[test]
    fn point_table_defaults_to_z2t_and_queries_work() {
        let (s, dir) = store("points");
        let t = StTable::create(&s, "orders", order_schema(), StorageConfig::default()).unwrap();
        assert_eq!(t.strategy().kind(), IndexKind::Z2t);
        for i in 0..200 {
            let lng = 116.0 + (i % 20) as f64 * 0.01;
            let lat = 39.0 + (i / 20) as f64 * 0.01;
            t.insert(&order_row(i, lng, lat, (i % 48) * HOUR_MS / 2))
                .unwrap();
        }
        // Spatial window covering the first two columns, first 12 hours.
        let window = Rect::new(115.995, 38.995, 116.015, 39.095);
        let hits = t
            .query(
                Some(&window),
                Some((0, 12 * HOUR_MS)),
                SpatialPredicate::Within,
            )
            .unwrap();
        assert!(!hits.is_empty());
        for row in &hits {
            let m = t.meta_of(row).unwrap();
            assert!(m.geom.as_ref().unwrap().within_rect(&window));
            assert!(m.t_min <= 12 * HOUR_MS);
        }
        // Exhaustive check against a full scan.
        let brute: usize = t
            .scan_all()
            .unwrap()
            .iter()
            .filter(|r| {
                let m = t.meta_of(r).unwrap();
                m.geom.as_ref().unwrap().within_rect(&window) && m.t_min <= 12 * HOUR_MS
            })
            .count();
        assert_eq!(hits.len(), brute);
        std::fs::remove_dir_all(dir).ok();
    }

    /// A full-family scan — what `SELECT count(*)` runs — reads each
    /// block once, around the block cache; a window query over the same
    /// blocks still fills it.
    #[test]
    fn a_full_scan_reads_around_the_block_cache() {
        let (s, dir) = store("full-scan-cache");
        let t = StTable::create(&s, "orders", order_schema(), StorageConfig::default()).unwrap();
        for i in 0..2000 {
            let (lng, lat) = (
                116.0 + (i % 40) as f64 * 0.01,
                39.0 + (i / 40) as f64 * 0.01,
            );
            t.insert(&order_row(i, lng, lat, (i % 48) * HOUR_MS / 2))
                .unwrap();
        }
        t.compact().unwrap();
        let cache = s.cache();
        let before = cache.resident_bytes();
        let mut all = t.scan_all_stream(None, just_kvstore::ScanOptions::default());
        let mut rows = 0;
        while let Some(batch) = all.next_batch().unwrap() {
            rows += batch.len();
        }
        assert_eq!(rows, 2000);
        assert_eq!(
            cache.resident_bytes(),
            before,
            "the full scan filled the cache"
        );
        let window = Rect::new(115.995, 38.995, 116.5, 39.5);
        let hits = t
            .query(Some(&window), Some((0, DAY_MS)), SpatialPredicate::Within)
            .unwrap();
        assert!(!hits.is_empty());
        assert!(
            cache.resident_bytes() > before,
            "the window query did not fill the cache"
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn query_stream_projection_skips_decode_and_keeps_arity() {
        let (s, dir) = store("stream-proj");
        let t = StTable::create(&s, "orders", order_schema(), StorageConfig::default()).unwrap();
        for i in 0..50 {
            t.insert(&order_row(i, 116.0 + i as f64 * 0.001, 39.0, i * HOUR_MS))
                .unwrap();
        }
        // Project only `fid` (index 0): no predicate, so `time` (1) and
        // `geom` (2) must surface as Null — never decoded.
        let mut stream = t.scan_all_stream(Some(&[0]), just_kvstore::ScanOptions::default());
        let mut n = 0;
        while let Some(batch) = stream.next_batch().unwrap() {
            for row in batch {
                assert_eq!(row.values.len(), 3, "full schema arity");
                assert!(matches!(row.values[0], Value::Int(_)));
                assert!(row.values[1].is_null());
                assert!(row.values[2].is_null());
                n += 1;
            }
        }
        assert_eq!(n, 50);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn query_stream_counts_pruned_rows() {
        let (s, dir) = store("stream-prune");
        let t = StTable::create(&s, "orders", order_schema(), StorageConfig::default()).unwrap();
        // All rows share one place and one day — one Z2T key prefix — but
        // only one falls inside the exact time window: the rest are false
        // positives the refine step must prune (and count).
        for i in 0..20 {
            t.insert(&order_row(i, 116.0, 39.0, i * HOUR_MS)).unwrap();
        }
        let tight = Rect::new(115.9999, 38.9999, 116.0001, 39.0001);
        let before = index_obs().rows_pruned.get();
        let mut stream = t.query_stream(
            Some(&tight),
            Some((0, HOUR_MS / 2)),
            SpatialPredicate::Within,
            None,
            just_kvstore::ScanOptions::default(),
        );
        let mut hits = Vec::new();
        while let Some(batch) = stream.next_batch().unwrap() {
            hits.extend(batch);
        }
        assert_eq!(hits.len(), 1);
        assert!(
            index_obs().rows_pruned.get() > before,
            "pushdown pruning must be counted"
        );
        std::fs::remove_dir_all(dir).ok();
    }

    /// Refuses every row, remembering what it was shown.
    struct RefuseAll {
        fields: Vec<usize>,
        asked: usize,
        saw_other_field: bool,
    }

    impl RowGate for RefuseAll {
        fn fields(&self) -> &[usize] {
            &self.fields
        }

        fn pass(&mut self, row: &Row) -> bool {
            self.asked += 1;
            let other = |(i, v): (usize, &Value)| !self.fields.contains(&i) && !v.is_null();
            self.saw_other_field |= row.values.iter().enumerate().any(other);
            false
        }
    }

    #[test]
    fn a_gate_refusing_everything_yields_nothing_and_decodes_only_its_fields() {
        let (s, dir) = store("gate");
        let t = StTable::create(&s, "orders", order_schema(), StorageConfig::default()).unwrap();
        for i in 0..300 {
            t.insert(&order_row(i, 116.0 + i as f64 * 0.001, 39.0, i * HOUR_MS))
                .unwrap();
        }
        let window = Rect::new(115.9, 38.9, 116.5, 39.1);
        let opts = just_kvstore::ScanOptions {
            batch_rows: 64,
            ..Default::default()
        };
        let mut stream = t.query_stream(Some(&window), None, SpatialPredicate::Within, None, opts);
        // The gate reads `time` (field 1) alone.
        let mut gate = RefuseAll {
            fields: vec![1],
            asked: 0,
            saw_other_field: false,
        };
        let gated = index_obs().rows_gated.get();
        assert!(stream.next_batch_gated(Some(&mut gate)).unwrap().is_none());
        assert_eq!(
            gate.asked, 300,
            "every entry is asked, over several batches"
        );
        assert!(!gate.saw_other_field, "only the gate's field is decoded");
        assert!(index_obs().rows_gated.get() >= gated + 300);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn update_moves_record_to_new_location() {
        let (s, dir) = store("update");
        let t = StTable::create(&s, "o", order_schema(), StorageConfig::default()).unwrap();
        t.insert(&order_row(1, 116.4, 39.9, HOUR_MS)).unwrap();
        // Historical update: same id, different place & time.
        t.insert(&order_row(1, 121.5, 31.2, 3 * DAY_MS)).unwrap();

        let beijing = Rect::new(116.0, 39.0, 117.0, 40.0);
        let shanghai = Rect::new(121.0, 31.0, 122.0, 32.0);
        assert!(t
            .query(Some(&beijing), None, SpatialPredicate::Within)
            .unwrap()
            .is_empty());
        let hits = t
            .query(Some(&shanghai), None, SpatialPredicate::Within)
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(
            t.get(&Value::Int(1)).unwrap().unwrap().values[0],
            Value::Int(1)
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_rerun_statement_heals_id_entries_whose_data_never_landed() {
        let (s, dir) = store("heal");
        let t = StTable::create(&s, "o", order_schema(), StorageConfig::default()).unwrap();
        let rows: Vec<Row> = (0..30)
            .map(|i| order_row(i, 116.0 + i as f64 * 0.01, 39.0, i * HOUR_MS))
            .collect();
        // A crash part-way through a statement's batch: the id entries
        // landed, the spatial and data entries did not.
        let ids = rows.iter().map(|row| {
            let meta = t.meta_of(row).unwrap();
            let id = t.strategy.id_key(&meta.fid);
            let value = id_value(&id, &t.strategy.key(&meta)).to_vec();
            (id, Some(value))
        });
        t.kv.write_batch(ids.collect()).unwrap();
        assert_eq!(
            t.get(&Value::Int(3)).unwrap(),
            None,
            "dangling id reads as absent"
        );
        assert!(t.scan_all().unwrap().is_empty());
        // Running the statement again lands everything, once.
        t.insert_batch(&rows).unwrap();
        for row in &rows {
            assert_eq!(t.get(&row.values[0]).unwrap().as_ref(), Some(row));
        }
        assert_eq!(t.scan_all().unwrap().len(), rows.len());
        let window = Rect::new(115.9, 38.9, 116.5, 39.1);
        for time in [None, Some((0, 2 * DAY_MS))] {
            let hits = t.query(Some(&window), time, SpatialPredicate::Within);
            assert_eq!(hits.unwrap().len(), rows.len(), "time {time:?}");
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_query_stream_reads_one_cut_across_its_ranges() {
        let (s, dir) = store("cut");
        // One salt: the plan's ranges are the window's two days in order.
        let config = StorageConfig {
            shards: 1,
            ..StorageConfig::default()
        };
        let t = StTable::create(&s, "o", order_schema(), config).unwrap();
        let moved_from = order_row(2, 116.4, 39.9, DAY_MS + HOUR_MS);
        t.insert(&order_row(1, 116.4, 39.9, HOUR_MS)).unwrap();
        t.insert(&moved_from).unwrap();
        let window = Rect::new(116.0, 39.0, 117.0, 40.0);
        let time = Some((0, 2 * DAY_MS - 1));
        assert!(t.strategy().plan(Some(&window), time).ranges.len() >= 2);
        let opts = just_kvstore::ScanOptions {
            batch_rows: 1,
            ..Default::default()
        };
        let mut stream = t.query_stream(Some(&window), time, SpatialPredicate::Within, None, opts);
        // Row 1 comes out of day 0's range, whose layers the stream has
        // now captured: it is past everything that range can show.
        let first = stream.next_batch().unwrap().unwrap();
        assert_eq!(first, vec![order_row(1, 116.4, 39.9, HOUR_MS)]);
        // Row 2 moves from day 1, not yet reached, into that range, and
        // row 3 appears on day 1.
        t.insert(&order_row(2, 116.4, 39.9, HOUR_MS)).unwrap();
        t.insert(&order_row(3, 116.4, 39.9, DAY_MS + HOUR_MS))
            .unwrap();
        let mut rest = Vec::new();
        while let Some(batch) = stream.next_batch().unwrap() {
            rest.extend(batch);
        }
        // The cut the stream opened at: row 2 once, where it was then,
        // and no row 3.
        assert_eq!(rest, vec![moved_from]);
        drop(stream);
        let now = t.query(Some(&window), time, SpatialPredicate::Within);
        assert_eq!(now.unwrap().len(), 3, "a new query reads the new cut");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn open_refuses_unreadable_time_bounds() {
        let (s, dir) = store("bounds");
        let t = StTable::create(&s, "o", order_schema(), StorageConfig::default()).unwrap();
        t.insert(&order_row(1, 116.4, 39.9, HOUR_MS)).unwrap();
        t.kv.put(TIME_BOUNDS_KEY.to_vec(), vec![1, 2, 3]).unwrap();
        drop(t);
        // Read as "no bounds", the entry would have every open-window
        // query on the table plan no ranges and return nothing.
        let opened = StTable::open(&s, "o", order_schema(), StorageConfig::default());
        match opened {
            Err(StorageError::Corrupt(m)) => assert!(m.contains("3 bytes"), "{m}"),
            other => panic!("open must refuse a 3-byte bounds entry: {other:?}"),
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn delete_removes_from_queries() {
        let (s, dir) = store("delete");
        let t = StTable::create(&s, "o", order_schema(), StorageConfig::default()).unwrap();
        t.insert(&order_row(1, 116.4, 39.9, HOUR_MS)).unwrap();
        assert!(t.delete(&Value::Int(1)).unwrap());
        assert!(!t.delete(&Value::Int(1)).unwrap());
        assert!(t
            .query(None, None, SpatialPredicate::Intersects)
            .unwrap()
            .is_empty());
        assert_eq!(t.get(&Value::Int(1)).unwrap(), None);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn trajectory_plugin_roundtrip_with_xz2t() {
        let (s, dir) = store("traj");
        let t =
            StTable::create(&s, "traj", Schema::trajectory(), StorageConfig::default()).unwrap();
        assert_eq!(t.strategy().kind(), IndexKind::Xz2t);

        let samples: Vec<GpsSample> = (0..300)
            .map(|i| GpsSample {
                lng: 116.30 + i as f64 * 0.0005,
                lat: 39.90 + (i % 7) as f64 * 0.0001,
                time_ms: 2 * HOUR_MS + i as i64 * 10_000,
            })
            .collect();
        let mbr = {
            let mut r = Rect::empty();
            for p in &samples {
                r.expand_point(&Point::new(p.lng, p.lat));
            }
            r
        };
        let row = Row::new(vec![
            Value::Str("lorry-1".into()),
            Value::Geom(Geometry::Rect(mbr)),
            Value::Date(samples.first().unwrap().time_ms),
            Value::Date(samples.last().unwrap().time_ms),
            Value::Geom(Geometry::Point(Point::new(samples[0].lng, samples[0].lat))),
            Value::Geom(Geometry::Point(Point::new(
                samples.last().unwrap().lng,
                samples.last().unwrap().lat,
            ))),
            Value::GpsList(samples),
        ]);
        t.insert(&row).unwrap();
        t.flush().unwrap();

        let window = Rect::new(116.30, 39.89, 116.35, 39.95);
        let hits = t
            .query(
                Some(&window),
                Some((0, DAY_MS)),
                SpatialPredicate::Intersects,
            )
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(
            hits[0].values[6].as_gps_list().unwrap().len(),
            300,
            "compressed GPS list survives storage"
        );
        // A disjoint window misses.
        let far = Rect::new(100.0, 20.0, 101.0, 21.0);
        assert!(t
            .query(Some(&far), Some((0, DAY_MS)), SpatialPredicate::Intersects)
            .unwrap()
            .is_empty());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn meta_extraction_uses_gps_span_without_date_fields() {
        let (s, dir) = store("metagps");
        let schema = Schema::new(vec![
            Field::new("id", FieldType::Str).primary(),
            Field::new("gps", FieldType::StSeries),
        ])
        .unwrap();
        let t = StTable::create(&s, "g", schema, StorageConfig::default()).unwrap();
        let row = Row::new(vec![
            Value::Str("x".into()),
            Value::GpsList(vec![
                GpsSample {
                    lng: 1.0,
                    lat: 2.0,
                    time_ms: 500,
                },
                GpsSample {
                    lng: 1.1,
                    lat: 2.1,
                    time_ms: 1500,
                },
            ]),
        ]);
        let meta = t.meta_of(&row).unwrap();
        assert_eq!((meta.t_min, meta.t_max), (500, 1500));
        assert!(matches!(meta.geom, Some(Geometry::LineString(_))));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn fid_bytes_preserve_int_order() {
        let a = fid_bytes(&Value::Int(-5)).unwrap();
        let b = fid_bytes(&Value::Int(0)).unwrap();
        let c = fid_bytes(&Value::Int(7)).unwrap();
        assert!(a < b && b < c);
        assert!(fid_bytes(&Value::Str("x".repeat(100))).is_err());
        assert!(fid_bytes(&Value::Str(String::new())).is_err());
    }
}
