//! The service layer's multi-user support (Section VII-A).
//!
//! All users share one [`Engine`] (the paper's shared Spark context,
//! which "eliminate[s] the cost of Spark context construction"), and each
//! user gets a namespace: table and view names are transparently prefixed
//! with `"<user>__"`, so users do not see or affect each other.

use crate::dataset::Dataset;
use crate::engine::Engine;
use crate::Result;
use just_curves::TimePeriod;
use just_geo::{Point, Rect};
use just_storage::{IndexKind, Row, Schema, SpatialPredicate};
use std::sync::Arc;

/// Hands out per-user sessions over a shared engine.
pub struct SessionManager {
    engine: Arc<Engine>,
}

impl SessionManager {
    /// Wraps an engine.
    pub fn new(engine: Arc<Engine>) -> Self {
        SessionManager { engine }
    }

    /// Opens a session for `user`. Multiple concurrent sessions per user
    /// share the namespace.
    pub fn session(&self, user: &str) -> Session {
        Session {
            user: user.to_string(),
            engine: self.engine.clone(),
        }
    }

    /// The shared engine.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }
}

/// One user's namespaced handle on the shared engine.
pub struct Session {
    user: String,
    engine: Arc<Engine>,
}

impl Session {
    /// The session's user.
    pub fn user(&self) -> &str {
        &self.user
    }

    /// The physical (namespaced) name of a logical table name.
    pub fn physical(&self, name: &str) -> String {
        format!("{}__{}", self.user, name)
    }

    fn logical(&self, physical: &str) -> Option<String> {
        physical
            .strip_prefix(&format!("{}__", self.user))
            .map(|s| s.to_string())
    }

    /// `CREATE TABLE` in this namespace.
    pub fn create_table(
        &self,
        name: &str,
        schema: Schema,
        index: Option<IndexKind>,
        period: Option<TimePeriod>,
    ) -> Result<()> {
        self.engine
            .create_table(&self.physical(name), schema, index, period)
    }

    /// `CREATE TABLE ... AS <plugin>` in this namespace.
    pub fn create_plugin_table(
        &self,
        name: &str,
        plugin: &str,
        index: Option<IndexKind>,
        period: Option<TimePeriod>,
    ) -> Result<()> {
        self.engine
            .create_plugin_table(&self.physical(name), plugin, index, period)
    }

    /// `DROP TABLE`.
    pub fn drop_table(&self, name: &str) -> Result<()> {
        self.engine.drop_table(&self.physical(name))
    }

    /// `DESC TABLE`: the catalog definition of one of this user's tables.
    pub fn describe(&self, name: &str) -> Result<crate::TableDef> {
        self.engine.describe(&self.physical(name))
    }

    /// The shared engine (for result-set construction and IO metrics).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// `SHOW VIEWS`: only this user's views, logical names.
    pub fn show_views(&self) -> Vec<String> {
        self.engine
            .show_views()
            .iter()
            .filter_map(|n| self.logical(n))
            .collect()
    }

    /// `DROP VIEW`.
    pub fn drop_view(&self, name: &str) -> Result<()> {
        self.engine.drop_view(&self.physical(name))
    }

    /// `SHOW TABLES`: only this user's tables, logical names.
    pub fn show_tables(&self) -> Vec<String> {
        self.engine
            .show_tables()
            .iter()
            .filter_map(|n| self.logical(n))
            .collect()
    }

    /// `SHOW REGIONS`: per-region size and traffic stats for this user's
    /// tables only, as `(table, stats)` — `table` is the logical name
    /// (namespace prefix stripped, other users filtered out).
    pub fn region_stats(&self) -> Vec<(String, just_kvstore::RegionStats)> {
        self.engine
            .region_stats()
            .into_iter()
            .filter_map(|(physical, stats)| Some((self.logical(&physical)?, stats)))
            .collect()
    }

    /// `SPLIT REGION <table> <region>`: online split of one region of
    /// this user's table. Returns the chosen split key, or `None` when
    /// the region is too small.
    pub fn split_region(&self, table: &str, region: usize) -> Result<Option<Vec<u8>>> {
        self.engine.split_region(&self.physical(table), region)
    }

    /// `MERGE REGIONS <table> <first> <second>`: merges two adjacent
    /// regions of this user's table back into one.
    pub fn merge_regions(&self, table: &str, first: usize) -> Result<()> {
        self.engine.merge_regions(&self.physical(table), first)
    }

    /// `INSERT`.
    pub fn insert(&self, table: &str, rows: &[Row]) -> Result<usize> {
        self.engine.insert(&self.physical(table), rows)
    }

    /// Spatial range query.
    #[cfg(test)]
    pub(crate) fn spatial_range(
        &self,
        table: &str,
        window: &Rect,
        predicate: SpatialPredicate,
    ) -> Result<Dataset> {
        self.engine
            .spatial_range(&self.physical(table), window, predicate)
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
        self.engine
            .st_range(&self.physical(table), window, t_min, t_max, predicate)
    }

    /// k-NN query.
    pub fn knn(&self, table: &str, q: Point, k: usize) -> Result<Dataset> {
        self.engine.knn(&self.physical(table), q, k)
    }

    /// Streaming query (see [`Engine::query_stream`]): batch-at-a-time
    /// refined rows with predicate/projection pushdown and cooperative
    /// cancellation.
    pub fn query_stream(
        &self,
        table: &str,
        window: Option<&Rect>,
        time: Option<(i64, i64)>,
        predicate: SpatialPredicate,
        projection: Option<&[usize]>,
        opts: just_storage::ScanOptions,
    ) -> Result<just_storage::QueryStream> {
        self.engine.query_stream(
            &self.physical(table),
            window,
            time,
            predicate,
            projection,
            opts,
        )
    }

    /// `CREATE VIEW` in this namespace.
    pub fn create_view(&self, name: &str, data: Dataset) -> Result<()> {
        self.engine.create_view(&self.physical(name), data)
    }

    /// Fetches one of this user's views.
    pub fn view(&self, name: &str) -> Result<Arc<Dataset>> {
        self.engine.view(&self.physical(name))
    }

    /// `STORE VIEW ... TO TABLE ...` within the namespace.
    pub fn store_view(&self, view: &str, table: &str) -> Result<usize> {
        self.engine
            .store_view(&self.physical(view), &self.physical(table))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use just_geo::Geometry;
    use just_storage::{Field, FieldType, Value};

    fn manager(name: &str) -> (SessionManager, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "just-session-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let engine = Arc::new(Engine::open(&dir, EngineConfig::default()).unwrap());
        (SessionManager::new(engine), dir)
    }

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("fid", FieldType::Int).primary(),
            Field::new("geom", FieldType::Point),
        ])
        .unwrap()
    }

    fn row(fid: i64, lng: f64, lat: f64) -> Row {
        Row::new(vec![
            Value::Int(fid),
            Value::Geom(Geometry::Point(Point::new(lng, lat))),
        ])
    }

    #[test]
    fn users_are_isolated() {
        let (m, dir) = manager("isolated");
        let alice = m.session("alice");
        let bob = m.session("bob");
        alice.create_table("pts", schema(), None, None).unwrap();
        bob.create_table("pts", schema(), None, None).unwrap();
        alice.insert("pts", &[row(1, 116.0, 39.0)]).unwrap();
        bob.insert("pts", &[row(2, 10.0, 50.0)]).unwrap();

        assert_eq!(alice.show_tables(), vec!["pts"]);
        assert_eq!(bob.show_tables(), vec!["pts"]);

        let w = just_geo::WORLD;
        let a = alice
            .spatial_range("pts", &w, SpatialPredicate::Within)
            .unwrap();
        let b = bob
            .spatial_range("pts", &w, SpatialPredicate::Within)
            .unwrap();
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        assert_eq!(a.rows[0].values[0], Value::Int(1));
        assert_eq!(b.rows[0].values[0], Value::Int(2));

        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn views_are_namespaced_too() {
        let (m, dir) = manager("views");
        let alice = m.session("alice");
        let bob = m.session("bob");
        alice
            .create_view("v", Dataset::new(vec!["x".into()], Vec::new()))
            .unwrap();
        assert!(alice.view("v").is_ok());
        assert!(bob.view("v").is_err());
        std::fs::remove_dir_all(dir).ok();
    }
}
