//! A table: the whole keyspace, range-partitioned into regions.
//!
//! Partitioning mirrors how GeoMesa pre-splits salted HBase tables: the
//! storage layer prepends a shard byte to every key, so records spread
//! uniformly over regions ("region servers").
//!
//! ## The region map
//!
//! Regions are no longer a fixed-at-create fan-out: the table routes
//! through a **region map** — an ordered list of `(start key, region)`
//! entries, binary-searched per operation — that online split/merge
//! rewrites at runtime. The map is persisted in a `REGIONS` manifest in
//! the table directory (`just-regions v1` header, then one
//! `<dir>\t<hex start key>` line per region in key order), swapped
//! atomically via write-temp + rename + directory fsync. A new table
//! starts with the leading-byte layout (region `i` of `n` starts at byte
//! `ceil(256·i/n)`) and writes its first manifest before it serves.
//!
//! ## Online split / merge
//!
//! [`Table::split_region`] rewrites one region into two daughters in
//! two phases: a *pre-copy* of the flushed table set while writes keep
//! flowing, then a brief *sealed catch-up* that drains only the delta
//! accumulated meanwhile — the write outage is proportional to the
//! delta, not the region. [`Table::merge_regions`] seals two adjacent
//! regions and drains both into one daughter. The two differ only in
//! how the daughter directories get filled; everything after that is
//! one routine (`replace_regions`) with one order:
//!
//! 1. **build** the daughter directories (parents sealed on the way) and
//!    open them — a failure here unseals the parents and removes the
//!    daughters, the parents' own data being untouched;
//! 2. **persist** the new region list — the manifest rename is the
//!    commit point, and it comes *before* the in-memory map changes, so
//!    no write is ever acknowledged by a daughter the manifest does not
//!    list (a failed persist rolls back exactly like a failed build);
//! 3. **swap** the in-memory map — the only step under the map's write
//!    lock, so routing never waits on the manifest's fsyncs;
//! 4. **clean up** the parents' directories, count and log the event.
//!
//! A crash on either side of the rename replays to a consistent map (the
//! losing side's directories are removed as unreferenced on the next
//! open). Sealed-region writes are handed back to the table, which
//! re-routes them against the fresh map ([`crate::KvError::RegionSealed`]
//! only surfaces if a split wedges for many seconds). Every read goes
//! through a [`TableSnapshot`] ([`Table::snapshot`]; `Table` itself only
//! writes), and open snapshots and the scans they started keep their
//! region handles pinned, so they finish against the pre-split cut —
//! consistent either way.

use crate::cache::BlockCache;
use crate::error::{KvError, Result};
use crate::metrics::IoMetrics;
use crate::region::{
    check_entry_sizes, Region, RegionOptions, RegionTrafficSnapshot, Snapshot, WriteOp,
};
use crate::scan::{PendingRange, RegionScan, ScanOptions, ScanStream};
use crate::wal::fsync_dir;
use crate::KvEntry;
use just_obs::sync::{Mutex, RwLock};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Region-map manifest file name (inside the table directory).
const REGIONS_MANIFEST: &str = "REGIONS";
/// First line of the manifest.
const MANIFEST_HEADER: &str = "just-regions v1";
/// How long a writer retries against sealed regions before giving up —
/// generous compared to the sealed window of a split (the delta drain),
/// so the error only surfaces when a lifecycle operation is wedged.
const SEAL_RETRY_DEADLINE: Duration = Duration::from_secs(10);

/// Auto-splits stop once a table has this many regions (manual `SPLIT
/// REGION` is only bounded by the hard 256-region limit).
const MAX_AUTO_SPLIT_REGIONS: usize = 64;

/// One region's point-in-time size and traffic numbers — the row shape
/// behind `SHOW REGIONS` and the input the split/balance heuristic
/// consumes.
#[derive(Debug, Clone)]
pub struct RegionStats {
    /// Region index within its table's map (map order is key order).
    pub index: usize,
    /// Inclusive start key of the region's range (empty for the first).
    pub start_key: Vec<u8>,
    /// Approximate live entry count (memtable + SSTables).
    pub entries: u64,
    /// Bytes on disk across the region's SSTables.
    pub disk_bytes: u64,
    /// Heap bytes reserved by the region's memtables: the active one
    /// plus the frozen generations awaiting flush (what `flush_threshold`
    /// and the write-buffer cap of twice it meter).
    pub memtable_bytes: usize,
    /// Number of SSTable files.
    pub sstables: usize,
    /// Frozen memtable generations awaiting flush — nonzero means the
    /// ingest pipeline is ahead of the flusher.
    pub generations: usize,
    /// Current commit sequence (one past the highest allocated).
    pub next_seq: u64,
    /// Open MVCC snapshot handles pinned to this region.
    pub open_snapshots: usize,
    /// Flushed memtable generations retained for open snapshots.
    pub held_generations: usize,
    /// Whether the region is draining for an online split/merge.
    pub sealed: bool,
    /// Cumulative traffic counters since open.
    pub traffic: RegionTrafficSnapshot,
}

/// One entry of the region map: `region` serves keys from `start`
/// (inclusive) up to the next entry's start.
#[derive(Clone)]
struct RegionEntry {
    start: Vec<u8>,
    /// Directory name under the table dir (stable across map swaps).
    name: String,
    region: Arc<Region>,
}

fn index_for(map: &[RegionEntry], key: &[u8]) -> usize {
    // First entry's start is empty, so the partition point is >= 1.
    map.partition_point(|e| e.start.as_slice() <= key)
        .saturating_sub(1)
}

fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

fn hex_decode(s: &str) -> Result<Vec<u8>> {
    let bad = || KvError::Corrupt(format!("bad hex key in region manifest: {s:?}"));
    let digit = |b: u8| (b as char).to_digit(16).ok_or_else(bad);
    let s = s.as_bytes();
    if !s.len().is_multiple_of(2) {
        return Err(bad());
    }
    s.chunks(2)
        .map(|pair| Ok((digit(pair[0])? << 4 | digit(pair[1])?) as u8))
        .collect()
}

/// Whether `name` is a region directory name: `region_<digits>`.
fn is_region_name(name: &str) -> bool {
    name.strip_prefix("region_")
        .is_some_and(|n| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()))
}

/// Atomically replaces the table's `REGIONS` manifest: temp file, fsync,
/// rename. On `Err` the rename did not happen and the previous manifest
/// is still the one on disk. The caller follows up with [`fsync_dir`]
/// to make the rename survive power loss.
fn persist_manifest(dir: &Path, map: &[RegionEntry]) -> Result<()> {
    let mut buf = String::with_capacity(32 + 32 * map.len());
    buf.push_str(MANIFEST_HEADER);
    buf.push('\n');
    for e in map {
        buf.push_str(&e.name);
        buf.push('\t');
        buf.push_str(&hex_encode(&e.start));
        buf.push('\n');
    }
    let tmp = dir.join("REGIONS.tmp");
    {
        use std::io::Write;
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(buf.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, dir.join(REGIONS_MANIFEST))?;
    Ok(())
}

fn parse_manifest(path: &Path) -> Result<Vec<(String, Vec<u8>)>> {
    let text = String::from_utf8(std::fs::read(path)?).map_err(|_| {
        KvError::Corrupt(format!("region manifest {} is not UTF-8", path.display()))
    })?;
    let mut lines = text.lines();
    if lines.next() != Some(MANIFEST_HEADER) {
        return Err(KvError::Corrupt(format!(
            "bad region manifest header in {}",
            path.display()
        )));
    }
    let mut out: Vec<(String, Vec<u8>)> = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, hex) = line
            .split_once('\t')
            .ok_or_else(|| KvError::Corrupt(format!("malformed region manifest line: {line:?}")))?;
        // Only a name of this table's own shape: the name becomes a
        // directory under the table, which a merge may later delete.
        if !is_region_name(name) || out.iter().any(|(n, _)| n == name) {
            return Err(KvError::Corrupt(format!(
                "bad region name in manifest: {name:?}"
            )));
        }
        out.push((name.to_string(), hex_decode(hex)?));
    }
    let sorted = out.windows(2).all(|w| w[0].1 < w[1].1);
    if out.is_empty() || !out[0].1.is_empty() || !sorted {
        return Err(KvError::Corrupt(format!(
            "region manifest {} must list regions in key order starting at the empty key",
            path.display()
        )));
    }
    Ok(out)
}

/// An ordered key-value table partitioned over regions via a
/// runtime-swappable region map (see the module docs). It takes writes;
/// reads go through a [`Table::snapshot`].
pub struct Table {
    name: String,
    dir: PathBuf,
    /// The region map, in key order. Swapped wholesale (short write
    /// section) by split/merge; every routing decision clones the
    /// `Arc`s it needs under the read lock and drops it — a write batch
    /// the whole map's, so all its ops route against one map.
    map: RwLock<Arc<Vec<RegionEntry>>>,
    metrics: Arc<IoMetrics>,
    cache: Arc<BlockCache>,
    region_opts: RegionOptions,
    /// Monotonic allocator for daughter directory names.
    next_region_id: AtomicU64,
    /// Serializes split/merge; routing and scans never take it.
    lifecycle: Mutex<()>,
    splits: just_obs::Counter,
    merges: just_obs::Counter,
    split_latency: just_obs::Histogram,
    sealed_retries: just_obs::Counter,
}

impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table")
            .field("name", &self.name)
            .field("regions", &self.map.read().len())
            .finish()
    }
}

impl Table {
    /// Opens (or creates) a table under `dir` with `num_regions` range
    /// partitions (`num_regions` is only the *initial* fan-out: a
    /// persisted region map from earlier splits/merges takes
    /// precedence). Called by [`crate::Store`]: every region
    /// gets the same durability / maintenance settings and replays its
    /// WAL on open.
    pub(crate) fn open_opts(
        name: String,
        dir: PathBuf,
        num_regions: usize,
        metrics: Arc<IoMetrics>,
        cache: Arc<BlockCache>,
        region_opts: RegionOptions,
    ) -> Result<Self> {
        if !(1..=256).contains(&num_regions) {
            return Err(KvError::RegionCount(num_regions));
        }
        std::fs::create_dir_all(&dir)?;
        let manifest = dir.join(REGIONS_MANIFEST);
        let had_manifest = manifest.exists();
        let specs: Vec<(String, Vec<u8>)> = if had_manifest {
            parse_manifest(&manifest)?
        } else {
            // A new table's initial layout: region i of n starts at
            // byte ceil(256*i/n); region 0 starts at the empty key so
            // even the empty key routes somewhere.
            (0..num_regions)
                .map(|i| {
                    let start = if i == 0 {
                        Vec::new()
                    } else {
                        vec![(256 * i).div_ceil(num_regions) as u8]
                    };
                    (format!("region_{i:03}"), start)
                })
                .collect()
        };
        if had_manifest {
            // A crash mid-split/merge can leave daughter (or parent)
            // directories the committed manifest does not reference;
            // their contents are fully covered by the referenced side,
            // so they are dead weight.
            for entry in std::fs::read_dir(&dir)? {
                let entry = entry?;
                let fname = entry.file_name().to_string_lossy().into_owned();
                if fname.starts_with("region_")
                    && entry.path().is_dir()
                    && !specs.iter().any(|(n, _)| *n == fname)
                {
                    just_obs::global()
                        .counter("just_kvstore_stale_region_dirs_removed")
                        .inc();
                    std::fs::remove_dir_all(entry.path()).ok();
                }
            }
        }
        let mut next_region_id = 0u64;
        for entry in std::fs::read_dir(&dir)? {
            if let Some(n) = entry?
                .file_name()
                .to_string_lossy()
                .strip_prefix("region_")
                .and_then(|s| s.parse::<u64>().ok())
            {
                next_region_id = next_region_id.max(n.saturating_add(1));
            }
        }
        next_region_id = next_region_id.max(specs.len() as u64);
        let mut map = Vec::with_capacity(specs.len());
        for (rname, start) in specs {
            let region = Arc::new(Region::open_opts(
                dir.join(&rname),
                metrics.clone(),
                cache.clone(),
                region_opts.clone(),
            )?);
            map.push(RegionEntry {
                start,
                name: rname,
                region,
            });
        }
        if !had_manifest {
            persist_manifest(&dir, &map)?;
            fsync_dir(&dir)?;
        }
        let obs = just_obs::global();
        Ok(Table {
            name,
            dir,
            map: RwLock::new(Arc::new(map)),
            metrics,
            cache,
            region_opts,
            next_region_id: AtomicU64::new(next_region_id),
            lifecycle: Mutex::new(()),
            splits: obs.counter("just_kvstore_region_splits"),
            merges: obs.counter("just_kvstore_region_merges"),
            split_latency: obs.histogram("just_kvstore_region_split_latency_us"),
            sealed_retries: obs.counter("just_kvstore_region_sealed_retries"),
        })
    }

    /// The table's regions, in key order (scheduler sweeps, shutdown).
    pub(crate) fn regions(&self) -> Vec<Arc<Region>> {
        self.map.read().iter().map(|e| e.region.clone()).collect()
    }

    /// Number of regions in the current map.
    pub fn num_regions(&self) -> usize {
        self.map.read().len()
    }

    /// Inserts or overwrites a key: a batch of one.
    pub fn put(&self, key: Vec<u8>, value: Vec<u8>) -> Result<()> {
        self.write(&mut [(key, Some(value))])
    }

    /// Deletes a key: a batch of one.
    pub fn delete(&self, key: Vec<u8>) -> Result<()> {
        self.write(&mut [(key, None)])
    }

    /// Writes a batch of puts and deletes, in order per key: each region
    /// takes its share as one batch (one append to the region's WAL, one
    /// log to sync). An op larger than a memtable can address refuses
    /// the whole batch before any region writes.
    ///
    /// A batch is not atomic: readers may see part of it while it is
    /// written, and an error can leave part of it written.
    pub fn write_batch(&self, mut ops: Vec<WriteOp>) -> Result<()> {
        self.write(&mut ops)
    }

    /// The table's one write path. Ops refused by a region sealed for an
    /// online split/merge are handed back by the region and re-routed,
    /// as a batch, against the re-read map (the lifecycle operation
    /// swaps it within its sealed window). Only a wedged lifecycle
    /// operation surfaces [`KvError::RegionSealed`] to callers.
    fn write(&self, ops: &mut [WriteOp]) -> Result<()> {
        check_entry_sizes(ops, self.region_opts.mem_cap)?;
        let mut rejected = self.write_routed(ops)?;
        let mut deadline: Option<Instant> = None;
        while !rejected.is_empty() {
            let now = Instant::now();
            match deadline {
                None => deadline = Some(now + SEAL_RETRY_DEADLINE),
                Some(d) if now >= d => return Err(KvError::RegionSealed),
                Some(_) => {}
            }
            self.sealed_retries.inc();
            std::thread::sleep(Duration::from_millis(1));
            rejected = self.write_routed(&mut rejected)?;
        }
        Ok(())
    }

    /// Routes `ops` with one read of the region map and hands each
    /// region its run (the order within a region kept); returns what
    /// sealed regions refused.
    fn write_routed(&self, ops: &mut [WriteOp]) -> Result<Vec<WriteOp>> {
        let map = self.map.read().clone();
        ops.sort_by_cached_key(|op| index_for(&map, &op.0));
        let mut rejected = Vec::new();
        let mut rest = ops;
        while let Some((key, _)) = rest.first() {
            // Sorted by region, so region `i`'s run is the prefix of keys
            // below the next region's start.
            let i = index_for(&map, key);
            let end = (map.get(i + 1)).map_or(rest.len(), |next| {
                rest.partition_point(|(k, _)| *k < next.start)
            });
            let (run, tail) = rest.split_at_mut(end);
            rejected.extend(map[i].region.try_write_batch(run)?);
            rest = tail;
        }
        Ok(rejected)
    }

    /// Captures a table-wide MVCC snapshot — the table's one way to be
    /// read: one pinned cut per region, all taken from a single atomic
    /// read of the region map. Reads through the returned
    /// [`TableSnapshot`] see, per region, exactly the writes committed
    /// before this call — unaffected by concurrent writes, flushes,
    /// compactions and splits/merges.
    pub fn snapshot(&self) -> TableSnapshot {
        let map = self.map.read();
        TableSnapshot {
            snaps: map
                .iter()
                .map(|e| (e.start.clone(), Arc::new(e.region.snapshot())))
                .collect(),
            metrics: self.metrics.clone(),
        }
    }

    /// Splits region `index` into two daughters at a key derived from
    /// its SSTable block fences, committing by atomically swapping the
    /// region map (and its on-disk manifest). Returns the split key, or
    /// `None` when the region is too small to yield two non-empty
    /// daughters (or the map is already at the 256-region cap).
    ///
    /// Writes keep flowing during the bulk pre-copy and are only
    /// rejected-and-retried during the short delta drain; reads are
    /// never interrupted. See the module docs for the phase/commit
    /// protocol.
    pub fn split_region(&self, index: usize) -> Result<Option<Vec<u8>>> {
        let _g = self.lifecycle.lock();
        let started = Instant::now();
        let (start, region, map_len) = {
            let map = self.map.read();
            let e = map
                .get(index)
                .ok_or_else(|| KvError::NoSuchTable(format!("{}: no region {index}", self.name)))?;
            (e.start.clone(), e.region.clone(), map.len())
        };
        if map_len >= 256 {
            return Ok(None);
        }
        region.flush()?;
        let split_key = match region.approx_split_key() {
            Some(k) if k.as_slice() > start.as_slice() => k,
            _ => return Ok(None),
        };
        let daughters = vec![
            (start, self.next_region_name()),
            (split_key.clone(), self.next_region_name()),
        ];
        let (left_dir, right_dir) = (
            self.dir.join(&daughters[0].1),
            self.dir.join(&daughters[1].1),
        );
        self.replace_regions("split", &self.splits, index, 1, daughters, || {
            region.split_into(&left_dir, &right_dir, &split_key)
        })?;
        self.split_latency.record_duration(started.elapsed());
        Ok(Some(split_key))
    }

    /// Merges regions `index` and `index + 1` (adjacent in key order)
    /// into one daughter covering both ranges; the inverse of
    /// [`Table::split_region`], with the same manifest-swap commit
    /// point. Both source regions are sealed for the duration (their
    /// ranges' writes retry against the merged daughter).
    pub fn merge_regions(&self, index: usize) -> Result<()> {
        let _g = self.lifecycle.lock();
        let (start, left, right) = {
            let map = self.map.read();
            if index + 1 >= map.len() {
                return Err(KvError::NoSuchTable(format!(
                    "{}: no adjacent regions {index},{}",
                    self.name,
                    index + 1
                )));
            }
            let (l, r) = (&map[index], &map[index + 1]);
            (l.start.clone(), l.region.clone(), r.region.clone())
        };
        let merged = self.next_region_name();
        let merged_dir = self.dir.join(&merged);
        self.replace_regions(
            "merge",
            &self.merges,
            index,
            2,
            vec![(start, merged)],
            || {
                left.seal();
                right.seal();
                std::fs::remove_dir_all(&merged_dir).ok();
                std::fs::create_dir_all(&merged_dir)?;
                // The two ranges are key-disjoint, so the daughter can hold
                // them as two sibling SSTables — no cross-merge needed.
                left.drain_into(&merged_dir, 0)?;
                right.drain_into(&merged_dir, 1)
            },
        )
    }

    /// The one commit routine of the region lifecycle (steps 1–4 of the
    /// module docs): replaces the `parents` map entries starting at
    /// `index` with `daughters` (`(start key, directory name)`, in key
    /// order), whose directories `build` fills from the parents —
    /// sealing them on the way, so the daughters hold everything the
    /// parents acknowledged. The caller holds `lifecycle`, so the map
    /// cannot change underneath.
    fn replace_regions(
        &self,
        op: &str,
        committed: &just_obs::Counter,
        index: usize,
        parents: usize,
        daughters: Vec<(Vec<u8>, String)>,
        build: impl FnOnce() -> Result<()>,
    ) -> Result<()> {
        let started = Instant::now();
        let retired = self.map.read()[index..index + parents].to_vec();
        let rollback = || {
            for parent in &retired {
                parent.region.unseal();
            }
            for (_, name) in &daughters {
                std::fs::remove_dir_all(self.dir.join(name)).ok();
            }
        };
        let opened = build().and_then(|()| {
            let open = |(start, name): &(Vec<u8>, String)| -> Result<RegionEntry> {
                Ok(RegionEntry {
                    start: start.clone(),
                    name: name.clone(),
                    region: Arc::new(Region::open_opts(
                        self.dir.join(name),
                        self.metrics.clone(),
                        self.cache.clone(),
                        self.region_opts.clone(),
                    )?),
                })
            };
            daughters.iter().map(open).collect::<Result<Vec<_>>>()
        });
        let persisted = opened.and_then(|opened| {
            let mut entries = self.map.read().to_vec();
            entries.splice(index..index + parents, opened);
            persist_manifest(&self.dir, &entries)?;
            Ok(entries)
        });
        let entries = match persisted {
            Ok(entries) => entries,
            Err(e) => {
                rollback();
                return Err(e);
            }
        };
        // Committed: every reopen from here on reads the new manifest.
        // Should the directory fsync fail, the swap still has to follow
        // the rename, but power loss could bring the old manifest back —
        // so the parents' directories stay for it to find.
        let synced = fsync_dir(&self.dir);
        *self.map.write() = Arc::new(entries);
        synced?;
        // The sealed parents are unreferenced now. Open scan streams /
        // snapshots keep serving from their Arc'd handles; the unlinked
        // files follow the last descriptor.
        for parent in &retired {
            std::fs::remove_dir_all(self.dir.join(&parent.name)).ok();
        }
        committed.inc();
        let parents: Vec<&str> = retired.iter().map(|p| p.name.as_str()).collect();
        let daughters: Vec<String> = daughters
            .iter()
            .map(|(start, name)| format!("{name}@{}", hex_encode(start)))
            .collect();
        just_obs::events::global().emit(
            &format!("region.{op}"),
            format!(
                "table={} parents={} daughters={} elapsed_us={}",
                self.name,
                parents.join(","),
                daughters.join(","),
                started.elapsed().as_micros()
            ),
        );
        Ok(())
    }

    fn next_region_name(&self) -> String {
        format!(
            "region_{:03}",
            self.next_region_id.fetch_add(1, Ordering::SeqCst)
        )
    }

    /// One background lifecycle sweep: splits the largest region whose
    /// footprint (disk + memtable) crosses `split_bytes`, at most one
    /// split per call. `split_bytes == 0` disables auto-splitting;
    /// [`MAX_AUTO_SPLIT_REGIONS`] caps the fan-out. Called by the
    /// maintenance scheduler.
    pub(crate) fn maybe_split(&self, split_bytes: usize) -> Result<()> {
        if split_bytes == 0 {
            return Ok(());
        }
        let candidate = {
            let map = self.map.read();
            if map.len() >= MAX_AUTO_SPLIT_REGIONS {
                return Ok(());
            }
            map.iter()
                .enumerate()
                .filter(|(_, e)| !e.region.is_sealed())
                .map(|(i, e)| (i, e.region.disk_size() + e.region.memtable_bytes() as u64))
                .filter(|(_, size)| *size >= split_bytes as u64)
                .max_by_key(|(_, size)| *size)
                .map(|(i, _)| i)
        };
        if let Some(index) = candidate {
            self.split_region(index)?;
        }
        Ok(())
    }

    /// Flush/compaction sweep over this worker's share of the regions
    /// (index mod `workers`); part of the scheduler's table sweep.
    pub(crate) fn maintain_partition(
        &self,
        compact_trigger: usize,
        worker: usize,
        workers: usize,
    ) -> Result<()> {
        let regions = self.regions();
        let mut first_err = None;
        for (i, region) in regions.iter().enumerate() {
            if i % workers.max(1) != worker {
                continue;
            }
            if let Err(e) = region.maintain(compact_trigger) {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Flushes every region's memtable.
    pub fn flush(&self) -> Result<()> {
        for r in self.regions() {
            r.flush()?;
        }
        Ok(())
    }

    /// Compacts every region.
    pub fn compact(&self) -> Result<()> {
        for r in self.regions() {
            r.compact()?;
        }
        Ok(())
    }

    /// Total bytes on disk.
    pub fn disk_size(&self) -> u64 {
        self.regions().iter().map(|r| r.disk_size()).sum()
    }

    /// Point-in-time size and traffic stats for every region, in map
    /// (= key) order.
    pub fn region_stats(&self) -> Vec<RegionStats> {
        let entries: Vec<(Vec<u8>, Arc<Region>)> = self
            .map
            .read()
            .iter()
            .map(|e| (e.start.clone(), e.region.clone()))
            .collect();
        entries
            .into_iter()
            .enumerate()
            .map(|(index, (start_key, r))| RegionStats {
                index,
                start_key,
                entries: r.approx_entries(),
                disk_bytes: r.disk_size(),
                memtable_bytes: r.memtable_bytes(),
                sstables: r.sstable_count(),
                generations: r.frozen_generations(),
                next_seq: r.next_seq(),
                open_snapshots: r.open_snapshots(),
                held_generations: r.held_generations(),
                sealed: r.is_sealed(),
                traffic: r.traffic(),
            })
            .collect()
    }
}

/// A consistent, table-wide read view: one pinned region snapshot per
/// region, captured atomically against the region map by
/// [`Table::snapshot`].
///
/// Each region's cut is exact (`seq <` that region's snapshot
/// sequence); across regions the cuts are taken at one instant under
/// the map's read lock. Dropping the view, and the streams it opened,
/// releases every region's held generations.
pub struct TableSnapshot {
    /// (start key, snapshot) in key order — the pinned region map.
    snaps: Vec<(Vec<u8>, Arc<Snapshot>)>,
    metrics: Arc<IoMetrics>,
}

impl std::fmt::Debug for TableSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableSnapshot")
            .field("regions", &self.snaps.len())
            .finish()
    }
}

impl TableSnapshot {
    fn index_for(&self, key: &[u8]) -> usize {
        self.snaps
            .partition_point(|(start, _)| start.as_slice() <= key)
            .saturating_sub(1)
    }

    /// Per-region `(start key, snapshot sequence)` pairs, in key order
    /// — the exact cut this view reads at (used by consistency tests
    /// and benches to replay a serial execution).
    pub fn region_seqs(&self) -> Vec<(Vec<u8>, u64)> {
        self.snaps
            .iter()
            .map(|(start, s)| (start.clone(), s.seq()))
            .collect()
    }

    /// Point lookup at this snapshot.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.snaps[self.index_for(key)].1.get(key)
    }

    /// All entries with `start <= key <= end` visible at this snapshot,
    /// in global key order: [`TableSnapshot::scan_ranges_stream`] over
    /// the one range, drained, so it records the same metrics (one
    /// `just_kvstore_scan_latency_us` sample per call).
    pub fn scan(&self, start: &[u8], end: &[u8]) -> Result<Vec<KvEntry>> {
        let range = vec![(start.to_vec(), end.to_vec())];
        self.scan_ranges_stream(range, ScanOptions::default())
            .drain()
    }

    /// The table's scan path: visits the ranges in order (entries within
    /// a range in key order, empty ranges skipped), merging each
    /// region's layers lazily at this snapshot, and yields bounded
    /// batches via [`ScanStream::next_batch`]. Construction does no IO;
    /// a consumer that stops pulling (or cancels the token in `opts`)
    /// leaves the remaining blocks unread — that saved IO is what
    /// `LIMIT`-style consumers are after.
    ///
    /// Every range reads this view's cut, however long the stream runs.
    /// The stream holds its own pin on each region a range still has to
    /// visit, so it may outlive this view; a pin drops once its range
    /// has captured the region's layers. A split that commits meanwhile
    /// does not retarget the stream: the sealed parent keeps serving the
    /// ranges still pending.
    pub fn scan_ranges_stream(
        &self,
        ranges: Vec<(Vec<u8>, Vec<u8>)>,
        opts: ScanOptions,
    ) -> ScanStream {
        let mut scans: Vec<RegionScan> = self.snaps.iter().map(|_| Default::default()).collect();
        let ranges = ranges
            .into_iter()
            .filter(|(start, end)| start <= end)
            .map(|(start, end)| {
                let first = self.index_for(&start);
                // Most ranges lie in one region: one compare says so.
                let last = match self.snaps.get(first + 1) {
                    Some((next, _)) if next <= &end => self.index_for(&end),
                    _ => first,
                };
                let span = first..=last;
                for (scan, (_, snap)) in scans[span.clone()].iter_mut().zip(&self.snaps[first..]) {
                    if let RegionScan::Idle = scan {
                        *scan = RegionScan::Pinned(snap.clone(), opts.fill_cache);
                    }
                }
                PendingRange { start, end, span }
            })
            .collect();
        ScanStream::new(ranges, scans, opts, self.metrics.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(name: &str, regions: usize) -> (Table, PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "just-table-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        (crate::fixture::table(name, dir.clone(), regions), dir)
    }

    #[test]
    fn routing_spreads_keys_across_regions() {
        let (t, dir) = table("routing", 8);
        for salt in 0..=255u8 {
            t.put(vec![salt, 1, 2, 3], vec![salt]).unwrap();
        }
        t.flush().unwrap();
        // Every region must own some keys.
        let regions = t.regions();
        for (i, r) in regions.iter().enumerate() {
            assert!(r.approx_entries() > 0, "region {i} empty");
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn cross_region_scan_is_globally_ordered() {
        let (t, dir) = table("ordered", 4);
        let mut keys: Vec<Vec<u8>> = (0..1000u32)
            .map(|i| (i.wrapping_mul(2654435761)).to_be_bytes().to_vec())
            .collect();
        for k in &keys {
            t.put(k.clone(), b"v".to_vec()).unwrap();
        }
        let hits = t.snapshot().scan(&[0x00], &[0xff; 5]).unwrap();
        keys.sort();
        keys.dedup();
        assert_eq!(hits.len(), keys.len());
        for (h, k) in hits.iter().zip(&keys) {
            assert_eq!(&h.key, k);
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn multi_range_stream_matches_per_range_scans() {
        let (t, dir) = table("multirange", 8);
        for i in 0..5000u32 {
            let key = (i.wrapping_mul(0x9E3779B9)).to_be_bytes().to_vec();
            t.put(key, i.to_le_bytes().to_vec()).unwrap();
        }
        t.flush().unwrap();
        let ranges: Vec<(Vec<u8>, Vec<u8>)> = (0..16u16)
            .map(|i| {
                let s = (((i as u64) << 28) as u32).to_be_bytes().to_vec();
                let e = ((((i as u64 + 1) << 28) - 1) as u32).to_be_bytes().to_vec();
                (s, e)
            })
            .collect();
        let multi = t
            .snapshot()
            .scan_ranges_stream(ranges.clone(), ScanOptions::default())
            .drain()
            .unwrap();
        let mut serial = Vec::new();
        for (s, e) in &ranges {
            serial.extend(t.snapshot().scan(s, e).unwrap());
        }
        assert_eq!(multi, serial);
        assert_eq!(multi.len(), 5000);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn get_and_delete_route_correctly() {
        let (t, dir) = table("getdel", 16);
        t.put(vec![200, 1], b"hi".to_vec()).unwrap();
        assert_eq!(t.snapshot().get(&[200, 1]).unwrap(), Some(b"hi".to_vec()));
        t.delete(vec![200, 1]).unwrap();
        assert_eq!(t.snapshot().get(&[200, 1]).unwrap(), None);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn region_stats_attribute_traffic_and_flush_events() {
        let (t, dir) = table("stats", 4);
        // All keys lead with 0x00 → region 0 takes every write.
        for i in 0..200u32 {
            let mut key = vec![0u8];
            key.extend_from_slice(&i.to_be_bytes());
            t.put(key, vec![7; 32]).unwrap();
        }
        let events_before = just_obs::events::global().next_seq();
        t.flush().unwrap();
        t.snapshot()
            .get(&{
                let mut k = vec![0u8];
                k.extend_from_slice(&5u32.to_be_bytes());
                k
            })
            .unwrap();
        t.snapshot()
            .scan(&[0x00], &[0x00, 0xff, 0xff, 0xff, 0xff])
            .unwrap();
        let range = vec![(vec![0x00], vec![0x01])];
        let mut stream = t
            .snapshot()
            .scan_ranges_stream(range, ScanOptions::default());
        while stream.next_batch().unwrap().is_some() {}

        let stats = t.region_stats();
        assert_eq!(stats.len(), 4);
        let hot = &stats[0];
        assert_eq!(hot.index, 0);
        assert!(
            hot.start_key.is_empty(),
            "first region starts at the empty key"
        );
        assert_eq!(hot.traffic.writes, 200);
        assert!(hot.traffic.bytes_written >= 200 * (5 + 32));
        assert_eq!(hot.traffic.reads, 1);
        assert!(hot.traffic.bytes_read >= 32);
        assert!(hot.traffic.scans >= 2, "{:?}", hot.traffic);
        assert!(hot.traffic.scan_blocks >= 1, "{:?}", hot.traffic);
        assert!(hot.entries >= 200);
        assert!(hot.disk_bytes > 0 && hot.sstables >= 1);
        assert!(hot.next_seq >= 200, "all writes carry sequences");
        assert!(!hot.sealed);
        // Cold regions saw the scans (range covers them structurally)
        // but no writes.
        assert_eq!(stats[3].traffic.writes, 0);
        // The flush landed in the event log with this region's label.
        let events = just_obs::events::global().recent(64);
        assert!(events.iter().any(|e| e.seq >= events_before
            && e.kind == "region.flush"
            && e.detail.contains("just-table-stats")
            && e.detail.contains("region_000")));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn empty_key_routes_to_region_zero() {
        let (t, dir) = table("empty", 4);
        t.put(vec![], b"root".to_vec()).unwrap();
        assert_eq!(t.snapshot().get(&[]).unwrap(), Some(b"root".to_vec()));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn split_region_preserves_data_and_reroutes_writes() {
        let (t, dir) = table("split", 1);
        for i in 0..2000u32 {
            t.put(
                format!("k{i:05}").into_bytes(),
                format!("v{i}").into_bytes(),
            )
            .unwrap();
        }
        let before = t.snapshot().scan(b"", b"\xff").unwrap();
        let split_key = t.split_region(0).unwrap().expect("region large enough");
        assert_eq!(t.num_regions(), 2);
        let stats = t.region_stats();
        assert!(stats[0].start_key.is_empty());
        assert_eq!(stats[1].start_key, split_key);
        // Same data, same order, through the new map.
        assert_eq!(t.snapshot().scan(b"", b"\xff").unwrap(), before);
        // Point reads and new writes route to the daughters.
        assert_eq!(t.snapshot().get(b"k00042").unwrap(), Some(b"v42".to_vec()));
        t.put(b"k00042".to_vec(), b"post-split".to_vec()).unwrap();
        t.put(b"k01999".to_vec(), b"post-split".to_vec()).unwrap();
        assert_eq!(
            t.snapshot().get(b"k00042").unwrap(),
            Some(b"post-split".to_vec())
        );
        assert_eq!(
            t.snapshot().get(b"k01999").unwrap(),
            Some(b"post-split".to_vec())
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn merge_regions_is_split_inverse() {
        let (t, dir) = table("merge", 1);
        for i in 0..2000u32 {
            t.put(
                format!("k{i:05}").into_bytes(),
                format!("v{i}").into_bytes(),
            )
            .unwrap();
        }
        t.split_region(0).unwrap().expect("split");
        let before = t.snapshot().scan(b"", b"\xff").unwrap();
        t.merge_regions(0).unwrap();
        assert_eq!(t.num_regions(), 1);
        assert_eq!(t.snapshot().scan(b"", b"\xff").unwrap(), before);
        t.put(b"k00001".to_vec(), b"post-merge".to_vec()).unwrap();
        assert_eq!(
            t.snapshot().get(b"k00001").unwrap(),
            Some(b"post-merge".to_vec())
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn region_map_persists_across_reopen() {
        let (t, dir) = table("map-reopen", 2);
        for i in 0..2000u32 {
            // Leading byte 0 → everything in region 0, so the split is
            // lopsided relative to the initial layout — exactly what the
            // manifest must preserve.
            let mut key = vec![0u8];
            key.extend_from_slice(format!("k{i:05}").as_bytes());
            t.put(key, b"v".to_vec()).unwrap();
        }
        let split_key = t.split_region(0).unwrap().expect("split");
        assert_eq!(t.num_regions(), 3);
        t.flush().unwrap();
        let before = t.snapshot().scan(b"", b"\xff").unwrap();
        drop(t);
        // The fan-out argument is ignored: the manifest wins.
        let t2 = crate::fixture::table("map-reopen", dir.clone(), 2);
        assert_eq!(t2.num_regions(), 3);
        assert_eq!(t2.region_stats()[1].start_key, split_key);
        assert_eq!(t2.snapshot().scan(b"", b"\xff").unwrap(), before);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn snapshot_is_stable_across_concurrent_split() {
        let (t, dir) = table("snap-split", 1);
        for i in 0..1500u32 {
            t.put(format!("k{i:05}").into_bytes(), b"v1".to_vec())
                .unwrap();
        }
        let snap = t.snapshot();
        // Mutate heavily, then split: the snapshot must not notice.
        for i in 0..1500u32 {
            t.put(format!("k{i:05}").into_bytes(), b"v2".to_vec())
                .unwrap();
        }
        t.split_region(0).unwrap().expect("split");
        let hits = snap.scan(b"", b"\xff").unwrap();
        assert_eq!(hits.len(), 1500);
        assert!(hits.iter().all(|e| e.value == b"v1"));
        assert_eq!(snap.get(b"k00007").unwrap(), Some(b"v1".to_vec()));
        // Streaming reads give the same cut, even pulled after the view
        // would naturally advance.
        let range = vec![(b"".to_vec(), b"\xff".to_vec())];
        let mut stream = snap.scan_ranges_stream(range, ScanOptions::default());
        let mut streamed = Vec::new();
        while let Some(batch) = stream.next_batch().unwrap() {
            streamed.extend(batch);
        }
        assert_eq!(streamed, hits);
        drop(snap);
        assert!(t
            .snapshot()
            .scan(b"", b"\xff")
            .unwrap()
            .iter()
            .all(|e| e.value == b"v2"));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn writes_racing_a_split_all_land() {
        let (t, dir) = table("split-race", 1);
        for i in 0..1000u32 {
            t.put(format!("k{i:05}").into_bytes(), b"seed".to_vec())
                .unwrap();
        }
        let t = Arc::new(t);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let t = t.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let mut n = 0u32;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        t.put(format!("w{w}-{n:06}").into_bytes(), b"racing".to_vec())
                            .unwrap();
                        n += 1;
                    }
                    n
                })
            })
            .collect();
        t.split_region(0).unwrap().expect("split");
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let counts: Vec<u32> = writers.into_iter().map(|h| h.join().unwrap()).collect();
        // Every acknowledged racing write must be readable post-split.
        for (w, n) in counts.iter().enumerate() {
            let mut hi = format!("w{w}-").into_bytes();
            hi.push(0xff);
            let hits = t.snapshot().scan(format!("w{w}-").as_bytes(), &hi).unwrap();
            assert_eq!(hits.len(), *n as usize, "writer {w} lost writes");
        }
        std::fs::remove_dir_all(dir).ok();
    }
}
