//! The JUST engine: the paper's primary contribution assembled over the
//! substrate crates.
//!
//! * [`Catalog`] — the meta table (Section IV-D): table definitions,
//!   kinds (common/plugin), index configuration; persisted separately
//!   from the data store so `SHOW TABLES`/`DESC` never touch HBase.
//! * [`Engine`] — definition, manipulation and query operations
//!   (Section V): create/drop tables and views, insert/load, spatial
//!   range query, spatio-temporal range query, and the k-NN query of
//!   Algorithm 1 with area pruning.
//! * [`Dataset`] — the in-memory relation used for views ("one query,
//!   multiple usages") and handed to the SQL layer.
//! * [`ResultSet`] — the Figure 2 data flow: small results return
//!   directly; large results spill to chunked files read through a
//!   cursor.
//! * [`SessionManager`] — the service layer's multi-user support: a
//!   shared engine ("Spark context") with per-user namespaces.

#![deny(missing_docs)]

mod catalog;
mod dataset;
mod engine;
mod error;
mod knn;
mod registry;
mod resultset;
mod session;

pub use catalog::{Catalog, TableDef, TableKind};
pub use dataset::Dataset;
pub use engine::{Engine, EngineConfig};
pub use error::CoreError;
pub use knn::knn;
pub use registry::{QueryGuard, QueryInfo, QueryRegistry};
pub use resultset::ResultSet;
pub use session::{Session, SessionManager};

/// Convenience alias.
pub type Result<T> = std::result::Result<T, CoreError>;
