//! Error type for the key-value store.

use std::fmt;
use std::io;

/// Everything that can go wrong inside the store.
#[derive(Debug)]
pub enum KvError {
    /// An operating-system IO failure.
    Io(io::Error),
    /// An on-disk structure failed validation (bad magic, checksum, or
    /// framing).
    Corrupt(String),
    /// Well-formed on-disk data in a format this build does not read: a
    /// store of another format epoch, or an SSTable of another footer
    /// generation. Nothing on disk was changed.
    Format {
        /// What is on disk.
        found: String,
        /// What this build reads.
        expected: String,
    },
    /// A table was created twice or opened before creation.
    TableExists(String),
    /// The named table does not exist.
    NoSuchTable(String),
    /// The active WAL segment diverged from acknowledged history after
    /// an IO failure (a torn append or failed fsync). The region's
    /// writes are rejected until the next maintenance tick or memtable
    /// freeze rotates the segment away.
    WalPoisoned,
    /// The write targeted a region that was sealed for an online split
    /// or merge. [`crate::Table`] retries against the freshly-swapped
    /// region map, so this surfaces only when a split or merge is
    /// wedged.
    RegionSealed,
    /// A key and value of this many bytes together exceed what a
    /// memtable can address (2 GiB); nothing was written.
    EntryTooLarge(usize),
    /// A table was asked for this many initial regions; a table has 1
    /// to 256.
    RegionCount(usize),
}

impl fmt::Display for KvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvError::Io(e) => write!(f, "io error: {e}"),
            KvError::Corrupt(msg) => write!(f, "corrupt data: {msg}"),
            KvError::Format { found, expected } => {
                write!(
                    f,
                    "unsupported on-disk format: found {found}, expected {expected}"
                )
            }
            KvError::TableExists(name) => write!(f, "table already exists: {name}"),
            KvError::NoSuchTable(name) => write!(f, "no such table: {name}"),
            KvError::WalPoisoned => {
                write!(
                    f,
                    "wal poisoned by an earlier io failure; awaiting rotation"
                )
            }
            KvError::RegionSealed => {
                write!(f, "region sealed for split/merge; re-route and retry")
            }
            KvError::EntryTooLarge(bytes) => {
                write!(f, "entry of {bytes} bytes exceeds the memtable's 2 GiB")
            }
            KvError::RegionCount(n) => write!(f, "{n} regions: a table has 1 to 256"),
        }
    }
}

impl std::error::Error for KvError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KvError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for KvError {
    fn from(e: io::Error) -> Self {
        KvError::Io(e)
    }
}

/// Convenience alias used throughout the crate.
pub(crate) type Result<T> = std::result::Result<T, KvError>;
