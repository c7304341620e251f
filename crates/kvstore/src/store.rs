//! The store root: a directory of tables sharing IO metrics and tuning,
//! and the one `FORMAT` file that says how every byte under it is laid
//! out.

use crate::cache::BlockCache;
use crate::error::{KvError, Result};
use crate::maintenance::{MaintenanceOptions, Scheduler};
use crate::metrics::IoMetrics;
use crate::region::RegionOptions;
use crate::sstable::SstOptions;
use crate::table::Table;
use crate::wal::{fsync_dir, SyncPolicy};
use just_obs::sync::RwLock;
use std::collections::HashMap;
use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The on-disk format epoch this build writes and the only one it
/// opens, recorded in the store root's `FORMAT` file as
/// `just-kvstore format <epoch>`. Epoch 1 is: SSTables ending in the
/// 41-byte `JSSTBL03` footer (bloom filter, codec, `seq_limit`) over
/// prefix-compressed, restart-indexed blocks; WAL records that all
/// carry a commit sequence (ops 3/4); per-table `REGIONS` manifests
/// headed `just-regions v1`. Epoch 2 keeps all of that and also fixes
/// the key layout the storage layer writes: one kv table per JustQL
/// table, every key `[salt][family][rest]` with families data, spatial,
/// ids and meta, where epoch 1 kept three kv tables per JustQL table.
/// Epoch 3 keeps all of that and changes the values the storage layer
/// writes: rows in a schema-typed layout (a NULL/variant bit header,
/// then bare payloads), and ids entries holding only their data key's
/// middle. Changing any of them bumps this constant; a store of another
/// epoch is refused, never migrated in place. The footer's codec byte
/// says only whether blocks are compression containers (nonzero) or
/// bare bytes: every container names its own method, so the writer's
/// per-block choice between LZ and raw needed no new epoch.
const FORMAT_EPOCH: u32 = 3;
/// The epoch file's name in the store root.
const FORMAT_FILE: &str = "FORMAT";
/// What the file's one line says before the epoch number.
const FORMAT_PREFIX: &str = "just-kvstore format ";
/// Longer than any `FORMAT` line; a larger file is refused unread.
const FORMAT_MAX_BYTES: u64 = 64;

/// Checks the store root's `FORMAT` file, writing it first when the
/// directory holds no table yet. Refusal reads and changes nothing
/// beyond the file itself.
fn check_format(base: &Path) -> Result<()> {
    let refuse = |found: String| KvError::Format {
        found: format!("{found} in {}", base.display()),
        expected: format!("epoch {FORMAT_EPOCH}"),
    };
    let file = match File::open(base.join(FORMAT_FILE)) {
        Ok(file) => file,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            // Tables are the root's subdirectories; one without a
            // `FORMAT` beside it predates epochs.
            for entry in std::fs::read_dir(base)? {
                if entry?.file_type()?.is_dir() {
                    return Err(refuse("a table but no FORMAT file".into()));
                }
            }
            return write_format(base);
        }
        Err(e) => return Err(e.into()),
    };
    let mut text = Vec::new();
    file.take(FORMAT_MAX_BYTES + 1).read_to_end(&mut text)?;
    if text.len() as u64 > FORMAT_MAX_BYTES {
        return Err(refuse("an oversized FORMAT file".into()));
    }
    let epoch = std::str::from_utf8(&text).ok().and_then(|t| {
        t.strip_prefix(FORMAT_PREFIX)?
            .strip_suffix('\n')?
            .parse::<u32>()
            .ok()
    });
    match epoch {
        Some(FORMAT_EPOCH) => Ok(()),
        Some(epoch) => Err(refuse(format!("epoch {epoch}"))),
        None => Err(refuse(format!(
            "a malformed FORMAT file {:?}",
            String::from_utf8_lossy(&text)
        ))),
    }
}

/// Writes `FORMAT` atomically: temp file, fsync, rename, directory
/// fsync. A crash before the rename leaves only `FORMAT.tmp`, which the
/// next open overwrites.
fn write_format(base: &Path) -> Result<()> {
    let tmp = base.join("FORMAT.tmp");
    let mut f = File::create(&tmp)?;
    f.write_all(format!("{FORMAT_PREFIX}{FORMAT_EPOCH}\n").as_bytes())?;
    f.sync_all()?;
    std::fs::rename(&tmp, base.join(FORMAT_FILE))?;
    fsync_dir(base)?;
    Ok(())
}

/// Tuning knobs, shared by every table of a store: 7 settable values
/// (4 here, 3 in [`MaintenanceOptions`]).
/// Everything else — the on-disk format (one epoch, 10 bloom bits per
/// key, LZ block compression kept per block when it saves 1/8), the
/// WAL's encode-buffer cap and `batched` sync window, the auto-split
/// region cap — is a constant next to the code that uses it.
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Memtable flush threshold per region, in reserved bytes: the heap
    /// the active memtable's buffers hold (their capacity, index and
    /// version records included), not an estimate from key and value
    /// lengths. A region freezes its memtable for flushing once it
    /// reserves this much, and a writer flushes the region itself once
    /// its active and frozen memtables reserve twice this (once, with
    /// no maintenance workers).
    pub flush_threshold: usize,
    /// Target SSTable block size in bytes (HBase default: 64 KiB; we use a
    /// smaller default so laptop-scale datasets still span many blocks).
    pub block_size: usize,
    /// Store-wide block cache capacity in bytes (0 disables caching —
    /// the paper's experimental setting; the default mirrors HBase's
    /// always-on block cache).
    pub block_cache_bytes: usize,
    /// How eagerly the write-ahead log syncs (HBase's WAL: acknowledged
    /// writes survive a crash); `Off` keeps no log.
    pub wal_sync: SyncPolicy,
    /// Background flush / compaction scheduler configuration.
    pub maintenance: MaintenanceOptions,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            flush_threshold: 4 << 20,
            block_size: 4096,
            block_cache_bytes: 32 << 20,
            wal_sync: SyncPolicy::default(),
            maintenance: MaintenanceOptions::default(),
        }
    }
}

/// A directory of [`Table`]s — the "HBase cluster" of this repository.
pub struct Store {
    base: PathBuf,
    options: StoreOptions,
    metrics: Arc<IoMetrics>,
    cache: Arc<BlockCache>,
    tables: RwLock<HashMap<String, Arc<Table>>>,
    /// Background flush/compaction worker pool (no threads at
    /// `workers: 0`).
    scheduler: Scheduler,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("base", &self.base)
            .field("tables", &self.tables.read().len())
            .finish()
    }
}

impl Store {
    /// Opens (or creates) a store rooted at `base` — the only way into
    /// on-disk data. A new store gets a `FORMAT` file before any table
    /// exists; an existing one must carry this build's format epoch, or
    /// the open fails with [`KvError::Format`] before any region is
    /// touched.
    pub fn open(base: &Path, options: StoreOptions) -> Result<Self> {
        std::fs::create_dir_all(base)?;
        check_format(base)?;
        let cache = Arc::new(BlockCache::new(options.block_cache_bytes));
        let scheduler = Scheduler::start(options.maintenance.clone());
        Ok(Store {
            base: base.to_path_buf(),
            options,
            metrics: Arc::new(IoMetrics::new()),
            cache,
            tables: RwLock::new(HashMap::new()),
            scheduler,
        })
    }

    /// The shared IO counters.
    pub fn metrics(&self) -> &Arc<IoMetrics> {
        &self.metrics
    }

    /// The shared block cache.
    pub fn cache(&self) -> &Arc<BlockCache> {
        &self.cache
    }

    fn table_dir(&self, name: &str) -> PathBuf {
        self.base.join(name)
    }

    /// The per-region settings every table of this store uses. With no
    /// workers there is no scheduler to kick: the writers flush alone.
    fn region_opts(&self) -> RegionOptions {
        let workers = self.options.maintenance.workers;
        RegionOptions {
            flush_threshold: self.options.flush_threshold,
            sst: SstOptions {
                block_size: self.options.block_size,
                ..SstOptions::default()
            },
            wal_sync: self.options.wal_sync,
            mem_cap: crate::memtable::MEM_CAP,
            kick: (workers > 0).then(|| self.scheduler.kick_handle()),
            compact_trigger: self.options.maintenance.compact_trigger,
            split_bytes: self.options.maintenance.split_bytes,
        }
    }

    fn build_table(&self, name: &str, num_regions: usize) -> Result<Arc<Table>> {
        let table = Arc::new(Table::open_opts(
            name.to_string(),
            self.table_dir(name),
            num_regions,
            self.metrics.clone(),
            self.cache.clone(),
            self.region_opts(),
        )?);
        self.scheduler.register(&table);
        Ok(table)
    }

    /// Creates a table with `num_regions` partitions; errors if it exists
    /// (in memory or on disk).
    pub fn create_table(&self, name: &str, num_regions: usize) -> Result<Arc<Table>> {
        let mut tables = self.tables.write();
        if tables.contains_key(name) || self.table_dir(name).exists() {
            return Err(KvError::TableExists(name.to_string()));
        }
        let table = self.build_table(name, num_regions)?;
        tables.insert(name.to_string(), table.clone());
        Ok(table)
    }

    /// Opens an existing table, recovering flushed SSTables from disk and
    /// replaying any surviving WAL segments into memtables.
    pub fn open_table(&self, name: &str, num_regions: usize) -> Result<Arc<Table>> {
        if let Some(t) = self.tables.read().get(name) {
            return Ok(t.clone());
        }
        let mut tables = self.tables.write();
        if let Some(t) = tables.get(name) {
            return Ok(t.clone());
        }
        if !self.table_dir(name).exists() {
            return Err(KvError::NoSuchTable(name.to_string()));
        }
        let table = self.build_table(name, num_regions)?;
        tables.insert(name.to_string(), table.clone());
        Ok(table)
    }

    /// Returns an already-open table.
    pub fn get_table(&self, name: &str) -> Option<Arc<Table>> {
        self.tables.read().get(name).cloned()
    }

    /// Drops a table and deletes its files.
    pub fn drop_table(&self, name: &str) -> Result<()> {
        let existed = self.tables.write().remove(name).is_some();
        let dir = self.table_dir(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        } else if !existed {
            return Err(KvError::NoSuchTable(name.to_string()));
        }
        Ok(())
    }

    /// Per-region size and traffic stats for every *open* table, sorted
    /// by table name then region index — the store-wide `SHOW REGIONS`
    /// feed.
    pub fn region_stats(&self) -> Vec<(String, crate::table::RegionStats)> {
        let tables = self.tables.read();
        let mut names: Vec<&String> = tables.keys().collect();
        names.sort();
        let mut out = Vec::new();
        for name in names {
            for stats in tables[name].region_stats() {
                out.push((name.clone(), stats));
            }
        }
        out
    }

    /// Clean shutdown: drains in-flight background maintenance, then
    /// fsyncs every WAL so acknowledged writes are durable regardless of
    /// sync policy. Memtables are deliberately *not* flushed — reopen
    /// recovers them from the WAL, keeping the recovery path exercised.
    /// Idempotent; also run by `Drop`.
    pub fn shutdown(&self) {
        self.scheduler.shutdown();
        for table in self.tables.read().values() {
            for region in table.regions() {
                // Sync failures at shutdown have no caller to return to;
                // they are surfaced via the maintenance error counter.
                if region.wal_sync().is_err() {
                    just_obs::global()
                        .counter("just_kvstore_maintenance_errors")
                        .inc();
                }
            }
        }
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(name: &str) -> (Store, PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "just-store-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        (Store::open(&dir, StoreOptions::default()).unwrap(), dir)
    }

    #[test]
    fn create_drop_lifecycle() {
        let (s, dir) = store("lifecycle");
        let t = s.create_table("t1", 4).unwrap();
        t.put(b"k".to_vec(), b"v".to_vec()).unwrap();
        assert!(matches!(
            s.create_table("t1", 4),
            Err(KvError::TableExists(_))
        ));
        s.drop_table("t1").unwrap();
        assert!(matches!(s.drop_table("t1"), Err(KvError::NoSuchTable(_))));
        // Can recreate after drop.
        s.create_table("t1", 2).unwrap();
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn reopen_recovers_table() {
        let (s, dir) = store("reopen");
        {
            let t = s.create_table("t", 2).unwrap();
            for i in 0..100u32 {
                t.put(format!("k{i:03}").into_bytes(), b"v".to_vec())
                    .unwrap();
            }
            t.flush().unwrap();
        }
        drop(s);
        let s2 = Store::open(&dir, StoreOptions::default()).unwrap();
        assert!(s2.get_table("t").is_none(), "not auto-opened");
        let t = s2.open_table("t", 2).unwrap();
        assert_eq!(t.snapshot().scan(b"", b"\xff").unwrap().len(), 100);
        assert!(matches!(
            s2.open_table("ghost", 2),
            Err(KvError::NoSuchTable(_))
        ));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn metrics_shared_across_tables() {
        let (s, dir) = store("metrics");
        let a = s.create_table("a", 2).unwrap();
        let b = s.create_table("b", 2).unwrap();
        for i in 0..500u32 {
            a.put(format!("k{i:04}").into_bytes(), vec![0; 64]).unwrap();
            b.put(format!("k{i:04}").into_bytes(), vec![0; 64]).unwrap();
        }
        a.flush().unwrap();
        b.flush().unwrap();
        s.metrics().reset();
        a.snapshot().scan(b"", b"\xff").unwrap();
        let after_a = s.metrics().snapshot();
        b.snapshot().scan(b"", b"\xff").unwrap();
        let after_b = s.metrics().snapshot();
        assert!(after_a.blocks_read > 0);
        assert!(after_b.blocks_read > after_a.blocks_read);
        std::fs::remove_dir_all(dir).ok();
    }
}
