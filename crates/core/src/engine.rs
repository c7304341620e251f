//! The engine: definition, manipulation and query operations (Section V).

use crate::catalog::{Catalog, TableDef, TableKind};
use crate::dataset::Dataset;
use crate::error::CoreError;
use crate::knn::{knn, KnnConfig};
use crate::resultset::ResultSet;
use crate::Result;
use just_curves::TimePeriod;
use just_geo::{Point, Rect};
use just_kvstore::{IoSnapshot, Store, StoreOptions};
use just_obs::sync::RwLock;
use just_storage::{IndexKind, Row, Schema, SpatialPredicate, StTable, StorageConfig, Value};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Engine-wide configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Key-value store tuning.
    pub store: StoreOptions,
    /// Default table-storage settings (shards, regions, period...).
    pub storage: StorageConfig,
    /// k-NN expansion tuning.
    pub knn: KnnConfig,
    /// Result-set spill threshold in bytes (Figure 2's "configurable
    /// parameter").
    pub spill_threshold: usize,
    /// Rows per spilled chunk file.
    pub spill_chunk_rows: usize,
    /// Slow-query threshold in milliseconds: a query whose wall time
    /// reaches this lands in the event log (`query.slow`) together with
    /// its per-operator breakdown. `0` disables the slow-query log.
    pub slow_query_ms: u64,
    /// Whether statements that run a SELECT plan register in the live
    /// query registry (`SHOW QUERIES`, `KILL QUERY`; without it the
    /// slow-query log reports `query_id=0`). On by default; the
    /// `obs_overhead` benchmark turns it off to measure the cost of the
    /// registry and kill token.
    pub query_tracking: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            store: StoreOptions::default(),
            storage: StorageConfig::default(),
            knn: KnnConfig::default(),
            spill_threshold: 8 << 20,
            spill_chunk_rows: 10_000,
            slow_query_ms: 1_000,
            query_tracking: true,
        }
    }
}

/// The JUST engine: catalog + storage + query operations, shared by all
/// sessions (the paper's single shared "Spark context").
///
/// # Thread safety
///
/// `Engine` is `Send + Sync` (compile-time asserted below) and designed
/// for many concurrent sessions on one instance — this is what
/// `just-server` runs one connection-per-thread against. The locking is
/// deliberately fine-grained so no lock is held across a whole query:
///
/// * `catalog` / `tables` / `views` are `RwLock`-protected maps, locked
///   only for the lookup/registration itself. Query execution runs on an
///   `Arc<StTable>` clone with no engine lock held.
/// * Inside the storage stack, each kvstore region has its own `RwLock`,
///   the block cache is sharded behind per-shard mutexes, and SSTable
///   block reads use positional IO (no shared file cursor, no lock).
/// * All metrics are relaxed atomics.
///
/// DDL (`create_table`, `drop_table`) takes the write side of the maps
/// briefly; concurrent queries against *other* tables proceed untouched,
/// and queries holding an `Arc<StTable>` to a dropped table finish
/// against the open handle.
pub struct Engine {
    base_dir: PathBuf,
    config: EngineConfig,
    store: Store,
    catalog: RwLock<Catalog>,
    tables: RwLock<HashMap<String, Arc<StTable>>>,
    views: RwLock<HashMap<String, Arc<Dataset>>>,
    queries: Arc<crate::registry::QueryRegistry>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("base_dir", &self.base_dir)
            .finish()
    }
}

impl Engine {
    /// Opens (or initialises) an engine rooted at `base_dir`.
    pub fn open(base_dir: &Path, config: EngineConfig) -> Result<Engine> {
        std::fs::create_dir_all(base_dir)?;
        let store = Store::open(&base_dir.join("data"), config.store.clone())?;
        let catalog = Catalog::open(base_dir.join("catalog.meta"))?;
        Ok(Engine {
            base_dir: base_dir.to_path_buf(),
            config,
            store,
            catalog: RwLock::new(catalog),
            tables: RwLock::new(HashMap::new()),
            views: RwLock::new(HashMap::new()),
            queries: Arc::new(crate::registry::QueryRegistry::new()),
        })
    }

    /// Engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Durability settings of the underlying store (WAL on/off, sync
    /// policy). Writes acknowledged under an enabled WAL are replayed by
    /// [`Engine::open`] after a crash.
    pub fn durability(&self) -> &just_kvstore::DurabilityOptions {
        &self.config.store.durability
    }

    /// Clean shutdown: drains in-flight background maintenance and
    /// fsyncs every WAL. Also runs on drop; exposed so servers can
    /// shut down deterministically before exiting.
    pub fn shutdown(&self) {
        self.store.shutdown();
    }

    /// IO counters of the underlying store (for experiments).
    pub fn io_snapshot(&self) -> IoSnapshot {
        self.store.metrics().snapshot()
    }

    /// Resets IO counters.
    pub fn reset_io(&self) {
        self.store.metrics().reset();
    }

    /// The process-wide metrics registry (scan-latency histograms, cache
    /// hit ratio, index selectivity counters — see the README
    /// "Observability" section for the full name table).
    pub fn metrics(&self) -> &'static just_obs::Registry {
        just_obs::global()
    }

    /// Prometheus-style text exposition of [`Engine::metrics`].
    pub fn metrics_text(&self) -> String {
        just_obs::global().render_text()
    }

    /// The live query registry (`SHOW QUERIES` / `KILL QUERY` surface).
    pub fn queries(&self) -> &Arc<crate::registry::QueryRegistry> {
        &self.queries
    }

    /// Requests cancellation of a live query by id; returns whether a
    /// query with that id was live.
    pub fn kill_query(&self, id: u64) -> bool {
        self.queries.kill(id)
    }

    /// Per-region size and traffic stats for every open table — the
    /// engine-level `SHOW REGIONS` feed and the input for the region
    /// split/balance heuristic (ROADMAP item 2). Physical (namespaced)
    /// table names; the SQL layer maps them back per session.
    pub fn region_stats(&self) -> Vec<(String, just_kvstore::RegionStats)> {
        self.store.region_stats()
    }

    /// The process-global structured event log (`SHOW EVENTS` feed:
    /// flushes, compactions, slow/killed queries, request errors).
    pub fn events(&self) -> &'static just_obs::EventLog {
        just_obs::events::global()
    }

    /// `SPLIT REGION`: online split of region `region` of `name`'s kv
    /// table (its one keyspace: rows, spatial index, id map). Returns the
    /// split key, or `None` when the region is too small to split. Writes
    /// and scans keep flowing throughout; see
    /// `just_kvstore::Table::split_region`.
    pub fn split_region(&self, name: &str, region: usize) -> Result<Option<Vec<u8>>> {
        Ok(self.kv_table(name)?.split_region(region)?)
    }

    /// `MERGE REGIONS`: merges regions `first` and `first + 1` of
    /// `name`'s kv table back into one.
    pub fn merge_regions(&self, name: &str, first: usize) -> Result<()> {
        Ok(self.kv_table(name)?.merge_regions(first)?)
    }

    /// The kv table behind `name`, opening the table if it is not yet.
    fn kv_table(&self, name: &str) -> Result<Arc<just_kvstore::Table>> {
        self.table(name)?;
        self.store
            .get_table(name)
            .ok_or_else(|| CoreError::Catalog(format!("no such table '{name}'")))
    }

    // ------------------------------------------------------------------
    // Definition operations (Section V-A)
    // ------------------------------------------------------------------

    /// `CREATE TABLE`: registers and creates a common table. `index`
    /// overrides the default strategy (the `USERDATA` hint); `period`
    /// overrides the day default.
    pub fn create_table(
        &self,
        name: &str,
        schema: Schema,
        index: Option<IndexKind>,
        period: Option<TimePeriod>,
    ) -> Result<()> {
        self.create_table_kind(name, schema, TableKind::Common, index, period)
    }

    /// `CREATE TABLE <name> AS <plugin>`: instantiates a preset plugin
    /// schema (currently `trajectory`).
    pub fn create_plugin_table(
        &self,
        name: &str,
        plugin: &str,
        index: Option<IndexKind>,
        period: Option<TimePeriod>,
    ) -> Result<()> {
        let schema = match plugin.to_ascii_lowercase().as_str() {
            "trajectory" => Schema::trajectory(),
            other => {
                return Err(CoreError::Invalid(format!(
                    "unknown plugin table type '{other}'"
                )))
            }
        };
        self.create_table_kind(
            name,
            schema,
            TableKind::Plugin(plugin.to_ascii_lowercase()),
            index,
            period,
        )
    }

    fn create_table_kind(
        &self,
        name: &str,
        schema: Schema,
        kind: TableKind,
        index: Option<IndexKind>,
        period: Option<TimePeriod>,
    ) -> Result<()> {
        if self.views.read().contains_key(name) {
            return Err(CoreError::Catalog(format!("'{name}' already names a view")));
        }
        let mut storage = self.config.storage;
        storage.index = index.or(storage.index);
        if let Some(p) = period {
            storage.period = p;
        }
        let table = StTable::create(&self.store, name, schema.clone(), storage)?;
        let def = TableDef {
            name: name.to_string(),
            kind,
            schema,
            index: table.strategy().kind(),
            period: table.strategy().period(),
            shards: table.strategy().shards(),
            regions: storage.regions,
        };
        self.catalog.write().register(def)?;
        self.tables
            .write()
            .insert(name.to_string(), Arc::new(table));
        Ok(())
    }

    /// `DROP TABLE`.
    pub fn drop_table(&self, name: &str) -> Result<()> {
        self.catalog.write().unregister(name)?;
        self.tables.write().remove(name);
        self.store.drop_table(name)?;
        Ok(())
    }

    /// `SHOW TABLES`: names only — served purely from the catalog.
    pub fn show_tables(&self) -> Vec<String> {
        self.catalog
            .read()
            .tables()
            .map(|d| d.name.clone())
            .collect()
    }

    /// `SHOW VIEWS`.
    pub fn show_views(&self) -> Vec<String> {
        let mut names: Vec<String> = self.views.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// `DESC TABLE`: the full definition — also catalog-only.
    pub fn describe(&self, name: &str) -> Result<TableDef> {
        self.catalog
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| CoreError::Catalog(format!("no such table '{name}'")))
    }

    /// Handle to a table, opening it lazily from the catalog.
    pub fn table(&self, name: &str) -> Result<Arc<StTable>> {
        if let Some(t) = self.tables.read().get(name) {
            return Ok(t.clone());
        }
        let def = self.describe(name)?;
        let mut storage = self.config.storage;
        storage.index = Some(def.index);
        storage.period = def.period;
        storage.shards = def.shards;
        storage.regions = def.regions;
        let table = Arc::new(StTable::open(
            &self.store,
            name,
            def.schema.clone(),
            storage,
        )?);
        self.tables.write().insert(name.to_string(), table.clone());
        Ok(table)
    }

    // ------------------------------------------------------------------
    // Manipulation operations (Section V-B)
    // ------------------------------------------------------------------

    /// `INSERT INTO`: appends (or updates, by primary key) rows, as one
    /// [`StTable::insert_batch`] — one write to the table's kv table. A
    /// row the table refuses fails the statement with nothing written.
    pub fn insert(&self, table: &str, rows: &[Row]) -> Result<usize> {
        self.table(table)?.insert_batch(rows)?;
        Ok(rows.len())
    }

    /// Deletes a record by primary key; returns whether it existed.
    pub fn delete(&self, table: &str, fid: &Value) -> Result<bool> {
        Ok(self.table(table)?.delete(fid)?)
    }

    // ------------------------------------------------------------------
    // Query operations (Section V-C)
    // ------------------------------------------------------------------

    /// Spatial range query: records within (or intersecting) `window`.
    pub fn spatial_range(
        &self,
        table: &str,
        window: &Rect,
        predicate: SpatialPredicate,
    ) -> Result<Dataset> {
        let t = self.table(table)?;
        let rows = t.query(Some(window), None, predicate)?;
        Ok(self.dataset_of(&t, rows))
    }

    /// Spatio-temporal range query.
    pub fn st_range(
        &self,
        table: &str,
        window: &Rect,
        t_min: i64,
        t_max: i64,
        predicate: SpatialPredicate,
    ) -> Result<Dataset> {
        let t = self.table(table)?;
        let rows = t.query(Some(window), Some((t_min, t_max)), predicate)?;
        Ok(self.dataset_of(&t, rows))
    }

    /// k-NN query (Algorithm 1). The returned dataset carries the table's
    /// columns plus a trailing `distance` column (degrees).
    pub fn knn(&self, table: &str, q: Point, k: usize) -> Result<Dataset> {
        let t = self.table(table)?;
        let hits = knn(&t, q, k, &self.config.knn)?;
        let mut columns: Vec<String> = t.schema().fields().iter().map(|f| f.name.clone()).collect();
        columns.push("distance".to_string());
        let rows = hits
            .into_iter()
            .map(|(mut row, d)| {
                row.values.push(Value::Float(d));
                row
            })
            .collect();
        Ok(Dataset::new(columns, rows))
    }

    /// Streaming query: refined rows one bounded batch at a time instead
    /// of a materialized dataset, with the exact spatio-temporal
    /// predicate and the column projection (schema field indices) pushed
    /// into the per-batch decode. With neither window nor time this is a
    /// streaming full scan. The returned stream is self-contained — it
    /// holds its own table handles — and its
    /// [`just_storage::QueryStream::cancel_token`] lets a satisfied
    /// consumer (`LIMIT k`) stop the underlying block reads mid-range.
    pub fn query_stream(
        &self,
        table: &str,
        window: Option<&Rect>,
        time: Option<(i64, i64)>,
        predicate: SpatialPredicate,
        projection: Option<&[usize]>,
        opts: just_storage::ScanOptions,
    ) -> Result<just_storage::QueryStream> {
        let t = self.table(table)?;
        Ok(if window.is_none() && time.is_none() {
            t.scan_all_stream(projection, opts)
        } else {
            t.query_stream(window, time, predicate, projection, opts)
        })
    }

    /// Full scan (used by the SQL layer when no ST predicate applies).
    pub fn scan_all(&self, table: &str) -> Result<Dataset> {
        let t = self.table(table)?;
        let rows = t.scan_all()?;
        Ok(self.dataset_of(&t, rows))
    }

    fn dataset_of(&self, t: &StTable, rows: Vec<Row>) -> Dataset {
        let columns = t.schema().fields().iter().map(|f| f.name.clone()).collect();
        Dataset::new(columns, rows)
    }

    // ------------------------------------------------------------------
    // Views (Section IV-D)
    // ------------------------------------------------------------------

    /// `CREATE VIEW <name> AS <query result>`: caches a dataset in memory.
    pub fn create_view(&self, name: &str, data: Dataset) -> Result<()> {
        if self.catalog.read().contains(name) {
            return Err(CoreError::Catalog(format!(
                "'{name}' already names a table"
            )));
        }
        self.views.write().insert(name.to_string(), Arc::new(data));
        Ok(())
    }

    /// Fetches a view.
    pub fn view(&self, name: &str) -> Result<Arc<Dataset>> {
        self.views
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| CoreError::Catalog(format!("no such view '{name}'")))
    }

    /// `DROP VIEW`.
    pub fn drop_view(&self, name: &str) -> Result<()> {
        self.views
            .write()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| CoreError::Catalog(format!("no such view '{name}'")))
    }

    /// `STORE VIEW <view> TO TABLE <table>`: materialises a view into a
    /// (possibly new) table. The view's columns must match the target
    /// schema when the table exists; otherwise a common table is created
    /// with inferred field types.
    pub fn store_view(&self, view: &str, table: &str) -> Result<usize> {
        let data = self.view(view)?;
        if !self.catalog.read().contains(table) {
            let schema = infer_schema(&data)?;
            self.create_table(table, schema, None, None)?;
        }
        self.insert(table, &data.rows)
    }

    /// Wraps a dataset in the Figure 2 result-set cursor.
    pub fn result_set(&self, data: Dataset) -> Result<ResultSet> {
        let spill = self.base_dir.join("spill").join(format!(
            "rs-{}-{}",
            std::process::id(),
            self.views.read().len() // cheap unique-ish suffix
        ));
        ResultSet::new(
            data,
            spill,
            self.config.spill_threshold,
            self.config.spill_chunk_rows,
        )
    }

    /// Flushes all open tables (benchmarks call this between phases).
    pub fn flush_all(&self) -> Result<()> {
        for t in self.tables.read().values() {
            t.flush()?;
        }
        Ok(())
    }

    /// Total on-disk footprint of a table.
    pub fn table_disk_size(&self, name: &str) -> Result<u64> {
        Ok(self.table(name)?.disk_size())
    }
}

// Compile-time proof of the documented thread-safety contract: a shared
// Engine (and the session types over it) can cross and be shared between
// threads. If a !Sync field ever sneaks in, this fails to build.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
    assert_send_sync::<crate::Session>();
    assert_send_sync::<crate::SessionManager>();
};

/// Infers a storable schema from a dataset's first rows (used by
/// `STORE VIEW ... TO TABLE` when the target doesn't exist).
fn infer_schema(data: &Dataset) -> Result<Schema> {
    use just_storage::{Field, FieldType};
    let mut fields = Vec::with_capacity(data.columns.len());
    for (i, name) in data.columns.iter().enumerate() {
        let ty = data
            .rows
            .iter()
            .find_map(|r| match &r.values[i] {
                Value::Null => None,
                Value::Bool(_) => Some(FieldType::Bool),
                Value::Int(_) => Some(FieldType::Int),
                Value::Float(_) => Some(FieldType::Float),
                Value::Str(_) => Some(FieldType::Str),
                Value::Date(_) => Some(FieldType::Date),
                Value::Geom(_) => Some(FieldType::Geometry),
                Value::GpsList(_) => Some(FieldType::StSeries),
            })
            .unwrap_or(FieldType::Str);
        let mut field = Field::new(name.clone(), ty);
        if i == 0 {
            field = field.primary();
        }
        fields.push(field);
    }
    Schema::new(fields).map_err(CoreError::Storage)
}

#[cfg(test)]
mod tests {
    use super::*;
    use just_geo::Geometry;
    use just_storage::{Field, FieldType};

    const HOUR_MS: i64 = 3_600_000;

    fn engine(name: &str) -> (Engine, PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "just-engine-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        (Engine::open(&dir, EngineConfig::default()).unwrap(), dir)
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
    fn definition_operations() {
        let (e, dir) = engine("ddl");
        e.create_table("orders", order_schema(), None, None)
            .unwrap();
        e.create_plugin_table("traj", "trajectory", None, None)
            .unwrap();
        assert!(e.create_plugin_table("x", "widgets", None, None).is_err());
        assert_eq!(e.show_tables(), vec!["orders", "traj"]);
        let def = e.describe("traj").unwrap();
        assert_eq!(def.kind, TableKind::Plugin("trajectory".into()));
        assert_eq!(def.index, IndexKind::Xz2t);
        e.drop_table("orders").unwrap();
        assert!(e.describe("orders").is_err());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn insert_query_and_knn() {
        let (e, dir) = engine("dml");
        e.create_table("orders", order_schema(), None, None)
            .unwrap();
        let rows: Vec<Row> = (0..100)
            .map(|i| {
                order_row(
                    i,
                    116.0 + (i % 10) as f64 * 0.01,
                    39.0 + (i / 10) as f64 * 0.01,
                    i * HOUR_MS / 4,
                )
            })
            .collect();
        assert_eq!(e.insert("orders", &rows).unwrap(), 100);

        let window = Rect::new(115.995, 38.995, 116.035, 39.035);
        let s = e
            .spatial_range("orders", &window, SpatialPredicate::Within)
            .unwrap();
        assert_eq!(s.len(), 16);

        let st = e
            .st_range("orders", &window, 0, 5 * HOUR_MS, SpatialPredicate::Within)
            .unwrap();
        assert!(st.len() < s.len());

        let nn = e.knn("orders", Point::new(116.0, 39.0), 5).unwrap();
        assert_eq!(nn.len(), 5);
        assert_eq!(nn.columns.last().unwrap(), "distance");
        // Nearest is the point at exactly (116.0, 39.0).
        assert_eq!(nn.rows[0].values[0], Value::Int(0));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn views_and_store_view() {
        let (e, dir) = engine("views");
        e.create_table("orders", order_schema(), None, None)
            .unwrap();
        e.insert("orders", &[order_row(1, 116.0, 39.0, 0)]).unwrap();
        let all = e.scan_all("orders").unwrap();
        e.create_view("v", all).unwrap();
        assert_eq!(e.show_views(), vec!["v"]);
        assert_eq!(e.view("v").unwrap().len(), 1);
        // Name clash protections both ways.
        assert!(e
            .create_view("orders", Dataset::empty(vec!["a".into()]))
            .is_err());
        assert!(e.create_table("v", order_schema(), None, None).is_err());
        // Materialise into a new table.
        assert_eq!(e.store_view("v", "orders2").unwrap(), 1);
        assert_eq!(e.scan_all("orders2").unwrap().len(), 1);
        e.drop_view("v").unwrap();
        assert!(e.view("v").is_err());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn concurrent_sessions_on_one_engine_are_safe() {
        // The serving contract: N threads sharing one Engine — mixed
        // reads, writes and DDL on separate namespaces plus reads on a
        // shared table — all complete with correct, complete results.
        let (e, dir) = engine("concurrent");
        let e = std::sync::Arc::new(e);
        e.create_table("shared", order_schema(), None, None)
            .unwrap();
        let rows: Vec<Row> = (0..200)
            .map(|i| order_row(i, 116.0 + (i % 10) as f64 * 0.01, 39.0, i * HOUR_MS / 8))
            .collect();
        e.insert("shared", &rows).unwrap();
        e.flush_all().unwrap();

        let threads: Vec<_> = (0..8)
            .map(|t| {
                let e = e.clone();
                std::thread::spawn(move || {
                    let window = Rect::new(115.9, 38.9, 116.1, 39.1);
                    for i in 0..10 {
                        // Shared-table reads race against other readers.
                        let hits = e
                            .spatial_range("shared", &window, SpatialPredicate::Within)
                            .unwrap();
                        assert_eq!(hits.len(), 200);
                        let nn = e.knn("shared", Point::new(116.0, 39.0), 5).unwrap();
                        assert_eq!(nn.len(), 5);
                        // Private-table writes race against everyone.
                        let mine = format!("own_{t}");
                        if i == 0 {
                            e.create_table(&mine, order_schema(), None, None).unwrap();
                        }
                        e.insert(&mine, &[order_row(i, 116.0, 39.0, 0)]).unwrap();
                        assert_eq!(e.scan_all(&mine).unwrap().len(), (i + 1) as usize);
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        assert_eq!(e.show_tables().len(), 9);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn engine_reopen_recovers_catalog_and_data() {
        let (e, dir) = engine("reopen");
        e.create_table("orders", order_schema(), None, None)
            .unwrap();
        e.insert("orders", &[order_row(1, 116.0, 39.0, 0)]).unwrap();
        e.flush_all().unwrap();
        drop(e);
        let e2 = Engine::open(&dir, EngineConfig::default()).unwrap();
        assert_eq!(e2.show_tables(), vec!["orders"]);
        assert_eq!(e2.scan_all("orders").unwrap().len(), 1);
        std::fs::remove_dir_all(dir).ok();
    }

    fn copy_dir(src: &Path, dst: &Path) {
        std::fs::create_dir_all(dst).unwrap();
        for entry in std::fs::read_dir(src).unwrap() {
            let entry = entry.unwrap();
            let to = dst.join(entry.file_name());
            if entry.file_type().unwrap().is_dir() {
                copy_dir(&entry.path(), &to);
            } else {
                std::fs::copy(entry.path(), &to).unwrap();
            }
        }
    }

    /// Every file under `dir` with its bytes.
    fn files(dir: &Path, out: &mut std::collections::BTreeMap<PathBuf, Vec<u8>>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                files(&path, out);
            } else {
                out.insert(path.clone(), std::fs::read(&path).unwrap());
            }
        }
    }

    #[test]
    fn one_kv_table_per_table_and_an_epoch_1_data_dir_is_refused_untouched() {
        let (e, dir) = engine("epoch");
        e.create_table("orders", order_schema(), None, None)
            .unwrap();
        e.create_plugin_table("traj", "trajectory", None, None)
            .unwrap();
        e.insert("orders", &[order_row(1, 116.0, 39.0, 0)]).unwrap();
        e.flush_all().unwrap();
        drop(e);
        let data = dir.join("data");
        let mut kv_tables: Vec<String> = std::fs::read_dir(&data)
            .unwrap()
            .map(|entry| entry.unwrap())
            .filter(|entry| entry.file_type().unwrap().is_dir())
            .map(|entry| entry.file_name().to_string_lossy().into_owned())
            .collect();
        kv_tables.sort();
        assert_eq!(kv_tables, ["orders", "traj"]);

        // Epoch 1 kept three kv tables per table: refused, not migrated.
        std::fs::write(data.join("FORMAT"), "just-kvstore format 1\n").unwrap();
        let (mut before, mut after) = Default::default();
        files(&dir, &mut before);
        match Engine::open(&dir, EngineConfig::default()) {
            Err(CoreError::Kv(just_kvstore::KvError::Format { found, expected })) => {
                assert!(found.contains("epoch 1"), "{found}");
                assert_eq!(expected, "epoch 2");
            }
            other => panic!("want KvError::Format, got {other:?}"),
        }
        files(&dir, &mut after);
        assert!(before == after, "a refused open changed the data dir");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn acknowledged_writes_survive_simulated_crash() {
        // The durability contract end-to-end: rows acknowledged by
        // `insert` but never flushed must survive a crash. We simulate
        // kill -9 by snapshotting the data directory while the engine is
        // still live (nothing ran shutdown/flush) and reopening the copy
        // — exactly the state a killed process leaves behind, since the
        // WAL write(2)s every record before acknowledging.
        let (e, dir) = engine("crash");
        assert!(e.durability().wal, "WAL must be on by default");
        e.create_table("orders", order_schema(), None, None)
            .unwrap();
        let rows: Vec<Row> = (0..300)
            .map(|i| order_row(i, 116.0 + (i % 10) as f64 * 0.01, 39.0, i * HOUR_MS / 8))
            .collect();
        e.insert("orders", &rows).unwrap();

        let crash_dir = dir.with_file_name(format!(
            "{}-crashcopy",
            dir.file_name().unwrap().to_string_lossy()
        ));
        std::fs::remove_dir_all(&crash_dir).ok();
        copy_dir(&dir, &crash_dir);

        let e2 = Engine::open(&crash_dir, EngineConfig::default()).unwrap();
        assert_eq!(e2.show_tables(), vec!["orders"]);
        assert_eq!(e2.scan_all("orders").unwrap().len(), 300);
        // Recovered data is fully queryable, not just scannable.
        let window = Rect::new(115.9, 38.9, 116.1, 39.1);
        let hits = e2
            .spatial_range("orders", &window, SpatialPredicate::Within)
            .unwrap();
        assert_eq!(hits.len(), 300);
        drop(e);
        std::fs::remove_dir_all(dir).ok();
        std::fs::remove_dir_all(crash_dir).ok();
    }

    #[test]
    fn updates_are_visible_without_reindexing() {
        let (e, dir) = engine("update");
        e.create_table("orders", order_schema(), None, None)
            .unwrap();
        e.insert("orders", &[order_row(7, 116.0, 39.0, 0)]).unwrap();
        // Historical update far away in space and time.
        e.insert("orders", &[order_row(7, 121.5, 31.2, 100 * HOUR_MS)])
            .unwrap();
        let beijing = Rect::new(115.0, 38.0, 117.0, 40.0);
        assert!(e
            .spatial_range("orders", &beijing, SpatialPredicate::Within)
            .unwrap()
            .is_empty());
        assert!(e.delete("orders", &Value::Int(7)).unwrap());
        std::fs::remove_dir_all(dir).ok();
    }
}
