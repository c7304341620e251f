//! An embedded, log-structured, ordered key-value store: the repository's
//! stand-in for Apache HBase.
//!
//! The JUST paper relies on four HBase properties, all reproduced here:
//!
//! 1. **Lexicographically ordered keys with efficient range `SCAN`s** —
//!    spatio-temporal locality encoded in keys becomes sequential disk
//!    reads ([`TableSnapshot::scan`], [`TableSnapshot::scan_ranges_stream`]).
//! 2. **Cheap point writes with no global index** — a `PUT` only touches
//!    the owning region's memtable, so new data and historical updates
//!    never trigger index rebuilds ([`Table::put`]). A client batch goes
//!    to each region as one mini-batch, as HBase's region write path
//!    takes it ([`Table::write_batch`]; a put is a batch of one), and
//!    each region logs it to its one write-ahead log.
//! 3. **Range-partitioned regions over region servers** — a table's
//!    keyspace is split across regions ([`Table::region_stats`] lists
//!    them); a scan spanning regions visits them in key order.
//! 4. **Disk-IO-dominated reads** — data lives in block-structured
//!    SSTables; every block fetch is counted by [`IoMetrics`], which is
//!    how the benchmarks demonstrate the paper's compression→fewer-IOs
//!    effect.
//!
//! There is one read path, and it reads at a snapshot, as every HBase
//! Get and Scan reads at the MVCC read point taken when it opens: a
//! [`Table`] takes writes, and [`Table::snapshot`] returns the
//! [`TableSnapshot`] every read goes through. Every committed write
//! carries a per-region commit sequence; the snapshot pins one read
//! sequence per region and serves that consistent cut without blocking
//! writers, flushes or compactions. Its one scan path,
//! [`TableSnapshot::scan_ranges_stream`], yields bounded batches through
//! a [`ScanStream`], reading blocks lazily so a consumer that stops early
//! (a `LIMIT`, an `EXISTS` probe, a cancelled request via [`CancelToken`])
//! also stops the disk IO. Each batch is a [`KvBatch`] the stream lends
//! and refills: entries are borrowed from the cached blocks through the
//! merge and copied once, into the batch. The materializing
//! [`TableSnapshot::scan`] is that stream drained to a `Vec` — same
//! merge, same metrics.
//!
//! Two region-server behaviours ride on top of the partitioning:
//!
//! - **MVCC snapshot reads** — the cut above: a stream keeps reading it
//!   however long it runs, across writes, flushes, compactions and
//!   splits (see [`TableSnapshot`]).
//! - **Online region split/merge** — [`Table::split_region`] /
//!   [`Table::merge_regions`] rewrite the region map at runtime
//!   (HBase's auto-split + balancer, driven here by the maintenance
//!   scheduler via [`MaintenanceOptions::split_bytes`]); the map is
//!   persisted in a per-table `REGIONS` manifest.
//!
//! ```
//! use just_kvstore::{Store, StoreOptions};
//! let dir = std::env::temp_dir().join(format!("kv-doc-{}", std::process::id()));
//! let store = Store::open(&dir, StoreOptions::default()).unwrap();
//! let table = store.create_table("demo", 4).unwrap();
//! table.put(b"key-1".to_vec(), b"value-1".to_vec()).unwrap();
//! let hits = table.snapshot().scan(b"key-0", b"key-9").unwrap();
//! assert_eq!(hits.len(), 1);
//! store.drop_table("demo").unwrap();
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

#![deny(missing_docs)]

mod block;
mod bloom;
mod cache;
mod error;
mod maintenance;
mod memtable;
mod metrics;
mod region;
mod scan;
mod sstable;
mod store;
mod table;
mod wal;

pub use cache::BlockCache;
pub use error::KvError;
pub use maintenance::MaintenanceOptions;
pub use metrics::{IoMetrics, IoSnapshot};
pub use region::RegionTrafficSnapshot;
pub use scan::{CancelToken, KvBatch, ScanOptions, ScanStream};
pub use store::{Store, StoreOptions};
pub use table::{RegionStats, Table, TableSnapshot};
pub use wal::SyncPolicy;

/// An owned key-value pair: what the materializing scans return, each
/// copied out of a [`KvBatch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvEntry {
    /// The full key.
    pub key: Vec<u8>,
    /// The value bytes.
    pub value: Vec<u8>,
}

/// The unit tests' one way to build store pieces below [`Store`]:
/// WAL-less, scheduler-less (the cap is the threshold), uncached,
/// 512-byte blocks.
#[cfg(test)]
mod fixture {
    use super::*;
    use crate::bloom::{BloomFilter, BITS_PER_KEY};
    use crate::region::{Region, RegionOptions};
    use crate::sstable::{SsTable, SsTableBuilder, SstOptions};
    use std::path::{Path, PathBuf};
    use std::sync::Arc;

    pub(crate) fn region_opts(flush_threshold: usize) -> RegionOptions {
        RegionOptions {
            flush_threshold,
            sst: SstOptions {
                block_size: 512,
                ..SstOptions::default()
            },
            wal_sync: SyncPolicy::Off,
            mem_cap: crate::memtable::MEM_CAP,
            kick: None,
        }
    }

    pub(crate) fn region(dir: PathBuf, opts: RegionOptions) -> Region {
        let metrics = Arc::new(IoMetrics::new());
        Region::open_opts(dir, metrics, Arc::new(BlockCache::new(0)), opts).unwrap()
    }

    pub(crate) fn table(name: &str, dir: PathBuf, regions: usize) -> Table {
        let (metrics, cache) = (Arc::new(IoMetrics::new()), Arc::new(BlockCache::new(0)));
        let opts = region_opts(1 << 16);
        Table::open_opts(name.to_string(), dir, regions, metrics, cache, opts).unwrap()
    }

    /// A builder whose bloom filter is sized for at most 2000 keys, the
    /// most any test adds.
    pub(crate) fn builder(
        path: &Path,
        opts: SstOptions,
        metrics: Arc<IoMetrics>,
    ) -> SsTableBuilder {
        let cache = Arc::new(BlockCache::new(0));
        let bloom = BloomFilter::for_at_most(2000, BITS_PER_KEY);
        SsTableBuilder::create_opts(path, opts, bloom, metrics, cache).unwrap()
    }

    pub(crate) fn sstable(path: &Path) -> SsTable {
        SsTable::open(
            path,
            Arc::new(IoMetrics::new()),
            Arc::new(BlockCache::new(0)),
        )
        .unwrap()
    }
}
