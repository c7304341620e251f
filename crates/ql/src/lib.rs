//! JustQL: the complete SQL engine of the paper's Section VI.
//!
//! "All operations in JUST can be done using a standard SQL-like query
//! language." The pipeline is the paper's: **SQL Parse** (hand-written
//! lexer + recursive-descent parser standing in for ANTLR, producing a
//! syntax tree that the analyzer binds against the catalog), **SQL
//! Optimize** (constant folding, selection pushdown, projection pushdown
//! — the three rules of Section VI), and **SQL Execute** (spatio-temporal
//! predicates go to the storage indexes; everything else runs on the
//! in-memory DataFrame executor standing in for Spark SQL).
//!
//! ```
//! use just_core::{Engine, EngineConfig, SessionManager};
//! use just_ql::Client;
//! use std::sync::Arc;
//!
//! let dir = std::env::temp_dir().join(format!("justql-doc-{}", std::process::id()));
//! std::fs::remove_dir_all(&dir).ok();
//! let engine = Arc::new(Engine::open(&dir, EngineConfig::default()).unwrap());
//! let sessions = SessionManager::new(engine);
//! let mut client = Client::new(sessions.session("demo"));
//!
//! client.execute("CREATE TABLE pts (fid integer:primary key, \
//!                 time date, geom point:srid=4326)").unwrap();
//! client.execute("INSERT INTO pts VALUES \
//!                 (1, 1000, st_makePoint(116.4, 39.9))").unwrap();
//! let r = client.execute("SELECT fid FROM pts WHERE geom WITHIN \
//!                 st_makeMBR(116.0, 39.0, 117.0, 40.0)").unwrap();
//! assert_eq!(r.dataset().unwrap().len(), 1);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

#![deny(missing_docs)]

mod ast;
mod client;
pub mod compile;
mod csvload;
mod error;
mod exec;
mod functions;
mod json;
mod lexer;
mod optimizer;
mod parser;
mod plan;
#[doc(hidden)]
pub mod reference;
mod sink;
pub mod wire;

pub use ast::{Expr, Select, ShowTarget, Statement};
pub use client::{Client, QueryResult};
pub use error::QlError;
pub use json::{write_json_str, Json, JsonError, JsonReader, JsonValue};
pub use optimizer::optimize;
pub use parser::parse;
pub use plan::LogicalPlan;

/// Convenience alias.
pub type Result<T> = std::result::Result<T, QlError>;
