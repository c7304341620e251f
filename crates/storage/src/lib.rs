//! The spatio-temporal storage layer: this repository's GeoMesa.
//!
//! It binds the space-filling-curve indexes of `just-curves` to the
//! ordered key-value store of `just-kvstore`:
//!
//! * [`Value`] / [`FieldType`] / [`Schema`] — the type system of JUST
//!   tables, including the paper's `st_series` GPS-list type,
//! * [`Row`] — the binary row codec with per-field compression
//!   (`compress=gzip|zip`, Section IV-D),
//! * [`IndexStrategy`] — key generation and query planning for
//!   Z2/Z3/XZ2/XZ3 and the paper's Z2T/XZ2T, with shard salting for
//!   region-server load balance,
//! * [`StTable`] — an indexed table: insert/update/delete records, run
//!   spatial and spatio-temporal range scans with exact post-filtering.
//!
//! There is one read path. [`StTable::query_stream`] returns a
//! [`QueryStream`] that yields bounded batches and pushes the work down:
//! the exact spatial/temporal predicate is checked against a cheap
//! partial decode (rejected rows are never fully decoded — counted by
//! `just_storage_rows_pruned_pushdown`), a column projection skips
//! decoding unwanted fields, a consumer's [`RowGate`] can refuse rows
//! from a few fields of its own before any of that, and dropping or
//! cancelling the stream stops the underlying block reads mid-scan.
//! [`StTable::query`] is that stream drained to a `Vec`.

#![deny(missing_docs)]

mod index;
mod row;
mod schema;
mod sttable;
mod value;

pub use index::{IndexKind, IndexStrategy, ShardedPlan};
pub use row::Row;
pub use schema::{Field, FieldType, Schema};
pub use sttable::{
    QueryStream, RawQueryStream, RecordMeta, RowGate, SpatialPredicate, StTable, StorageConfig,
};
pub use value::Value;

// The streaming query API ([`StTable::query_stream`]) hands out kvstore
// scan types directly; re-export them so downstream crates (ql, core)
// need not depend on just-kvstore for plumbing alone.
pub use just_kvstore::{CancelToken, KvBatch, ScanOptions};

use std::fmt;

/// Errors produced by the storage layer.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying key-value store failure.
    Kv(just_kvstore::KvError),
    /// A row did not match its schema.
    SchemaMismatch(String),
    /// Stored bytes failed to decode.
    Corrupt(String),
    /// Compression container failure.
    Compress(just_compress::CompressError),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Kv(e) => write!(f, "kv error: {e}"),
            StorageError::SchemaMismatch(m) => write!(f, "schema mismatch: {m}"),
            StorageError::Corrupt(m) => write!(f, "corrupt data: {m}"),
            StorageError::Compress(e) => write!(f, "compression error: {e}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<just_kvstore::KvError> for StorageError {
    fn from(e: just_kvstore::KvError) -> Self {
        StorageError::Kv(e)
    }
}

impl From<just_compress::CompressError> for StorageError {
    fn from(e: just_compress::CompressError) -> Self {
        StorageError::Compress(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, StorageError>;
