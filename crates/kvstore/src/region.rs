//! A region: one contiguous slice of a table's keyspace, served (in real
//! HBase) by one region server. Writes are logged to the region's WAL,
//! land in a memtable and flush to immutable SSTables; reads merge all
//! layers newest-first. On open, surviving WAL segments are replayed so
//! acknowledged writes outlive a crash.
//!
//! ## The concurrent ingest pipeline
//!
//! A region has one memtable and one log, as an HBase region has one
//! MemStore in front of its server's WAL:
//!
//! ```text
//!   batch  ──► memtable lock { seal check, seq run, one WAL append, inserts }
//!          ──► lock released ──► one group-commit wait (PerWrite ack)
//!   freeze ──► rotate the WAL, swap the memtable ──► frozen generation
//!   flush  ──► oldest generation → SSTable ──► retire its WAL segments
//! ```
//!
//! A write is a batch ([`Region::try_write_batch`]), the shape of HBase's
//! region mini-batch: one statement's ops on this region cost one
//! `write(2)` to the region's log.
//!
//! * the **memtable** is an arena skip list ([`crate::memtable`]); the
//!   bytes a region meters against `flush_threshold` and its write-buffer
//!   cap are the heap its arenas reserve;
//! * the **WAL** ([`Wal`]) uses group commit: one fsync, issued by its
//!   one routine `Wal::sync_through`, acknowledges many writers, and a
//!   writer waits for it only after releasing the memtable lock, so
//!   concurrent writers keep appending and inserting while a sync is in
//!   flight;
//! * **flushes are pipelined**: a freeze moves the memtable into an
//!   immutable [`FrozenGen`] and writes continue into a fresh one, so a
//!   background flush never stalls acknowledgements. Past
//!   `flush_threshold` a writer kicks the scheduler; at the write-buffer
//!   cap across active + frozen generations — twice the threshold, one
//!   generation filling while one flushes, or the threshold itself with
//!   no scheduler — it flushes the region itself (backpressure). A
//!   flush never waits for a compaction: the merge runs outside
//!   `flush_lock`. A memtable whose 32-bit offsets cannot address one
//!   more entry drains the generation inline before the write lands
//!   (only reachable with thresholds in the gigabytes).
//!
//! Freeze ordering is load-bearing: the log rotates *before* the memtable
//! swaps, all under the region write lock. A writer holds the memtable
//! lock across (WAL append, memtable insert), so a record can never land
//! in a pre-rotation segment while its insert goes to the post-swap
//! memtable — the combination that would let segment retirement strand
//! an acknowledged write. The harmless converse (record in the fresh
//! segment, insert in the frozen memtable) merely replays an idempotent
//! duplicate, reconciled by sequence number. The group-commit wait
//! happens *outside* the memtable lock (a parked writer must not convoy
//! every other writer of the region); rotation fsyncs the outgoing
//! segment before the swap, so a ticket that straddles the rotation is
//! still covered by a real fsync.
//!
//! ## One rewrite path
//!
//! Everything that writes an SSTable ends in one routine, `write_table`
//! (create the builder, stream ascending entries in, stamp `seq_limit`,
//! fsync, open; unlink on error). Flush feeds it a frozen generation.
//! Compaction, both phases of a split and the merge drain feed it
//! `Versions`: the read path's [`MergeStream`] over the input SSTables,
//! stepped lazily, so a rewrite holds one block per input table — never
//! a table, let alone the region — and copies each version from its
//! block into the builder and nowhere else. It reads around the block
//! cache, as HBase and RocksDB compactions do, and sizes the bloom
//! filter for every input entry, which the builder folds to the entries
//! kept. The callers
//! differ only in which tables go in, whether tombstones may be dropped
//! (only when the inputs are the range's whole history: compaction of
//! an oldest-first prefix, a split's base phase, a merge drain — a
//! split's delta phase keeps them, they shadow the base) and where the
//! output goes (a split switches file at the split key, in one pass).
//!
//! ## MVCC snapshot reads
//!
//! Every committed write carries the region-wide commit sequence (the
//! same total order the WAL group commit already establishes).
//! [`Region::snapshot`] captures the current sequence `S` and every read
//! through the returned [`Snapshot`] sees exactly the writes with
//! `seq < S` — a consistent cut that never blocks writers, flushes or
//! compactions. There is no plain read beside it: every get and scan of
//! the store goes through a snapshot, so what follows is the read path,
//! not an option of it:
//!
//! * memtables keep **per-key version chains** (see
//!   [`crate::memtable`]), so a point-in-time value stays readable after
//!   it is overwritten;
//! * flushed SSTables record their max sequence as a `seq_limit` footer
//!   field; a snapshot skips tables newer than itself, and the flushed
//!   generation is retained as a **held generation** until the
//!   low-watermark of open snapshots passes its `seq_limit` — held
//!   generations are version-chain GC: dropping the last straddling
//!   snapshot releases them;
//! * compaction only merges the oldest-first prefix of tables every
//!   open snapshot can already see, so merging (which keeps only the
//!   newest version per key) never erases a version a snapshot needs.
//!
//! A scan captures the region once ([`Region::scan_stream_at`]): one
//! lock round copies each memtable layer's slices of all the scan's
//! ranges here and takes the visible SSTables, and the one merge it
//! returns is re-seeked from range to range, so the captured layers
//! serve every range at the snapshot's cut after its pin drops.

use crate::bloom::{BloomFilter, BITS_PER_KEY};
use crate::cache::BlockCache;
use crate::error::{KvError, Result};
use crate::maintenance::Kick;
use crate::memtable::MemTable;
use crate::metrics::IoMetrics;
use crate::scan::{MergeStream, ScanSource, SstRangeIter};
use crate::sstable::{SsTable, SsTableBuilder, SstOptions};
use crate::wal::{SyncPolicy, Wal};
use just_obs::sync::{Mutex, RwLock};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One mutation of a write batch: `(key, Some(value))` for a put,
/// `(key, None)` for a delete.
pub(crate) type WriteOp = (Vec<u8>, Option<Vec<u8>>);

/// The most memtable arena bytes `op` can take.
fn op_bytes((key, value): &WriteOp) -> usize {
    MemTable::entry_bytes(key.len(), value.as_ref().map_or(0, Vec::len))
}

/// Refuses a batch holding an op no memtable of `mem_cap` bytes could
/// store, before any of the batch is written.
pub(crate) fn check_entry_sizes(ops: &[WriteOp], mem_cap: usize) -> Result<()> {
    match ops.iter().find(|op| op_bytes(op) > mem_cap) {
        Some((key, value)) => Err(KvError::EntryTooLarge(
            key.len() + value.as_ref().map_or(0, Vec::len),
        )),
        None => Ok(()),
    }
}

/// Always-on per-region traffic counters (relaxed atomics; same
/// recording discipline as [`IoMetrics`], but scoped to one region so
/// the split/balance heuristic can tell a hot region from a cold one).
#[derive(Debug, Default)]
pub(crate) struct RegionTraffic {
    reads: AtomicU64,
    writes: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    scans: AtomicU64,
    scan_blocks: AtomicU64,
}

impl RegionTraffic {
    fn record_read(&self, bytes: u64) {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes, Ordering::Relaxed);
    }

    fn record_writes(&self, writes: u64, bytes: u64) {
        self.writes.fetch_add(writes, Ordering::Relaxed);
        self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
    }

    fn record_scan(&self) {
        self.scans.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_scan_block(&self) {
        self.scan_blocks.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_scan_bytes(&self, bytes: u64) {
        self.bytes_read.fetch_add(bytes, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    pub(crate) fn snapshot(&self) -> RegionTrafficSnapshot {
        RegionTrafficSnapshot {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            scans: self.scans.load(Ordering::Relaxed),
            scan_blocks: self.scan_blocks.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of one region's traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionTrafficSnapshot {
    /// Point lookups served.
    pub reads: u64,
    /// Puts and deletes accepted.
    pub writes: u64,
    /// Value bytes returned by lookups plus entry bytes produced by
    /// scans.
    pub bytes_read: u64,
    /// Key+value bytes accepted by writes.
    pub bytes_written: u64,
    /// Scans that touched this region.
    pub scans: u64,
    /// SSTable blocks decoded on behalf of scans.
    pub scan_blocks: u64,
}

/// Per-region construction settings (assembled by [`crate::Table`] from
/// the store options).
#[derive(Debug, Clone)]
pub(crate) struct RegionOptions {
    /// Memtable flush threshold in reserved bytes.
    pub flush_threshold: usize,
    /// SSTable write settings (block size, codec).
    pub sst: SstOptions,
    /// How the region's write-ahead log syncs (`Off`: no log).
    pub wal_sync: SyncPolicy,
    /// Bytes the memtable addresses before it reports full and the
    /// generation is drained: [`crate::memtable::MEM_CAP`] in every
    /// store (a field so a test can fill the memtable).
    pub mem_cap: usize,
    /// Latch to wake the maintenance scheduler; `None` in a store without
    /// workers, whose writers are the only flushers.
    pub kick: Option<Arc<Kick>>,
}

/// An immutable memtable generation: the memtable frozen at one point in
/// time, plus the WAL retirement mark that becomes actionable once the
/// generation's SSTable is durable.
struct FrozenGen {
    mem: MemTable,
    /// Heap bytes the memtable reserves (drives backpressure).
    bytes: usize,
    /// The WAL segment mark from the freeze-time rotation (`None` without
    /// a WAL, or for a generation replay cut).
    mark: Option<u64>,
    /// One past the highest commit sequence in the generation — the
    /// `seq_limit` of its flushed SSTable, and the release gate for the
    /// held-generation copy serving older snapshots.
    seq_ub: u64,
}

impl FrozenGen {
    /// Freezes `mem`, taken out of service, as a generation.
    fn new(mem: MemTable, mark: Option<u64>) -> FrozenGen {
        FrozenGen {
            bytes: mem.reserved_bytes(),
            seq_ub: mem.seq_ub(),
            mem,
            mark,
        }
    }
}

struct RegionInner {
    /// Newest last (flush order); scans reverse this for precedence.
    /// `Arc` so streaming scans can hold table handles after releasing
    /// the region lock — a concurrent compaction unlinks the files, but
    /// the open descriptors keep serving until the stream drops.
    tables: Vec<Arc<SsTable>>,
    /// Frozen generations awaiting flush, oldest first. `Arc` so the
    /// flusher can build the SSTable outside the region lock while
    /// readers keep merging the generation.
    frozen: VecDeque<Arc<FrozenGen>>,
    /// Flushed generations still needed by open snapshots older than
    /// their `seq_ub` (the twin SSTable stores only newest versions;
    /// the chains here keep serving the older cuts). Oldest first;
    /// released as the snapshot low-watermark advances.
    held: Vec<Arc<FrozenGen>>,
    next_file_id: u64,
}

/// One range partition of a table.
pub(crate) struct Region {
    dir: PathBuf,
    /// The active memtable. Writers hold its lock across (WAL append,
    /// insert); scans hold it while they copy their range out.
    mem: Mutex<MemTable>,
    /// Region-wide commit sequence, drawn under the memtable lock so WAL
    /// replay can restore acknowledgement order.
    next_seq: AtomicU64,
    /// Heap bytes reserved by the active memtable / the frozen
    /// generations. Maintained exactly under the memtable lock, so
    /// freeze accounting never drifts.
    active_bytes: AtomicUsize,
    frozen_bytes: AtomicUsize,
    inner: RwLock<RegionInner>,
    /// The region's log. Its lock nests *inside* the memtable lock
    /// (writer path) and inside `inner` (freeze path); never the other
    /// way around.
    wal: Option<Wal>,
    /// Serializes freezes and flushes so generations retire in FIFO
    /// order (their WAL marks assume it). Never held across a rewrite;
    /// writers take it at the write-buffer cap.
    flush_lock: Mutex<()>,
    /// Serializes the rewrites of the table set (compaction, split,
    /// merge drain), so a compaction's inputs stay the prefix it read:
    /// flushes only append. Taken before `flush_lock`, never after.
    compact_lock: Mutex<()>,
    metrics: Arc<IoMetrics>,
    cache: Arc<BlockCache>,
    opts: RegionOptions,
    stalls: just_obs::Counter,
    stall_wait: just_obs::Histogram,
    /// Always-on traffic counters, shared with streaming scan sources.
    traffic: Arc<RegionTraffic>,
    /// Set while an online split/merge drains the region: writers are
    /// rejected (with ownership of their payload returned) so
    /// [`crate::Table`] can re-route them to a daughter. Checked under
    /// the memtable lock, so seal + final freeze leaves no straggler.
    sealed: AtomicBool,
    /// Open snapshot registry: read sequence → number of handles.
    snapshots: Mutex<BTreeMap<u64, usize>>,
    /// Cached minimum of `snapshots` (`u64::MAX` when none are open):
    /// the low-watermark that gates held-generation release and
    /// compaction input selection. Updated under the `snapshots` lock.
    watermark: AtomicU64,
    snapshots_open: just_obs::Gauge,
    held_gens_gauge: just_obs::Gauge,
    held_bytes_gauge: just_obs::Gauge,
    sealed_rejects: just_obs::Counter,
    snapshot_skips: just_obs::Counter,
}

impl std::fmt::Debug for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.read();
        f.debug_struct("Region")
            .field("dir", &self.dir)
            .field("frozen_generations", &inner.frozen.len())
            .field("sstables", &inner.tables.len())
            .field("wal", &self.wal.is_some())
            .finish()
    }
}

impl Region {
    /// Opens (or creates) a region rooted at `dir`: loads the SSTables
    /// left by a previous run, replays the WAL into the memtable in
    /// sequence order (truncating torn tails), and flushes eagerly if
    /// the recovered memtable already exceeds the threshold.
    pub(crate) fn open_opts(
        dir: PathBuf,
        metrics: Arc<IoMetrics>,
        cache: Arc<BlockCache>,
        opts: RegionOptions,
    ) -> Result<Self> {
        std::fs::create_dir_all(&dir)?;
        let mut files: Vec<(u64, PathBuf)> = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some(id) = name
                .strip_prefix("sst_")
                .and_then(|s| s.strip_suffix(".sst"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                files.push((id, entry.path()));
            }
        }
        files.sort_unstable_by_key(|(id, _)| *id);
        std::fs::remove_file(dir.join(COMPACT_TMP)).ok();
        let mut tables = Vec::with_capacity(files.len());
        let next_file_id = files.last().map(|(id, _)| id + 1).unwrap_or(0);
        let last = files.len().saturating_sub(1);
        for (i, (_, path)) in files.iter().enumerate() {
            match SsTable::open(path, metrics.clone(), cache.clone()) {
                Ok(t) => tables.push(Arc::new(t)),
                Err(e @ KvError::Corrupt(_)) if i == last => {
                    // A crash mid-flush can leave a torn, never-registered
                    // SSTable as the highest-numbered file (a compaction
                    // takes its id before any flush it races and renames
                    // its output into it only once whole). Its
                    // records are still covered by un-retired WAL
                    // segments (retirement happens only after a durable
                    // finish), so dropping it is safe. Corruption
                    // anywhere else is real damage and must surface, and
                    // so must an IO error or a refused format on the
                    // newest file: that file may be whole, its WAL
                    // segments already retired.
                    just_obs::global()
                        .counter("just_kvstore_torn_sstables_dropped")
                        .inc();
                    just_obs::events::global().emit(
                        "region.torn_sstable",
                        format!("path={} error={e}", path.display()),
                    );
                    std::fs::remove_file(path).ok();
                }
                Err(e) => return Err(e),
            }
        }
        // Recency is commit order, not file order: a compaction under an
        // open snapshot merges an oldest-first prefix into a file whose id
        // is above the newer tables it leaves in place. `seq_limit` says
        // how new a table's versions are; the sort is stable, so ties keep
        // file order.
        tables.sort_by_key(|t| t.seq_limit());
        let mut mem = MemTable::new(opts.mem_cap);
        // Seed the sequence past every flushed table's `seq_limit`, so
        // a region reconstructed from SSTables alone (e.g. a freshly
        // split daughter, or a WAL-less reopen) keeps its commit
        // sequence monotonic and new snapshots see all recovered data.
        let mut next_seq = tables.iter().map(|t| t.seq_limit()).max().unwrap_or(0);
        let mut frozen = VecDeque::new();
        let wal = if opts.wal_sync != SyncPolicy::Off {
            let (wal, records) = Wal::open(&dir, opts.wal_sync)?;
            // Replay is idempotent against the SSTables: a record whose
            // covering flush completed but whose segment survived just
            // shadows the identical on-disk version. Records arrive in
            // commit order.
            for r in records {
                let seq = r.seq;
                next_seq = next_seq.max(seq + 1);
                let value_len = r.value.as_ref().map_or(0, |v| v.len());
                let bytes = MemTable::entry_bytes(r.key.len(), value_len);
                if bytes > opts.mem_cap {
                    return Err(KvError::EntryTooLarge(r.key.len() + value_len));
                }
                if !mem.has_room(1, bytes) {
                    // A memtable that cannot address the record: start a
                    // new generation. It carries no WAL mark; the next
                    // freeze's mark retires the replayed segments, and
                    // generations flush in order, so only after this one
                    // is durable.
                    frozen.push_back(Arc::new(FrozenGen::new(mem.take(), None)));
                }
                match &r.value {
                    Some(v) => mem.put(&r.key, seq, v),
                    None => mem.delete(&r.key, seq),
                }
            }
            Some(wal)
        } else {
            None
        };
        let active_bytes = mem.reserved_bytes();
        let frozen_bytes: usize = frozen.iter().map(|g| g.bytes).sum();
        let obs = just_obs::global();
        let region = Region {
            dir,
            mem: Mutex::new(mem),
            next_seq: AtomicU64::new(next_seq),
            active_bytes: AtomicUsize::new(active_bytes),
            frozen_bytes: AtomicUsize::new(frozen_bytes),
            inner: RwLock::new(RegionInner {
                tables,
                frozen,
                held: Vec::new(),
                next_file_id,
            }),
            wal,
            flush_lock: Mutex::new(()),
            compact_lock: Mutex::new(()),
            metrics,
            cache,
            opts,
            stalls: obs.counter("just_kvstore_backpressure_stalls"),
            stall_wait: obs.histogram("just_kvstore_backpressure_wait_us"),
            traffic: Arc::new(RegionTraffic::default()),
            sealed: AtomicBool::new(false),
            snapshots: Mutex::new(BTreeMap::new()),
            watermark: AtomicU64::new(u64::MAX),
            snapshots_open: obs.gauge("just_kvstore_mvcc_snapshots_open"),
            held_gens_gauge: obs.gauge("just_kvstore_mvcc_held_gens"),
            held_bytes_gauge: obs.gauge("just_kvstore_mvcc_held_bytes"),
            sealed_rejects: obs.counter("just_kvstore_region_sealed_rejects"),
            snapshot_skips: obs.counter("just_kvstore_mvcc_snapshot_skipped_sstables"),
        };
        if region.ingest_bytes() >= region.opts.flush_threshold {
            region.flush()?;
        }
        Ok(region)
    }

    /// The region's one write path. Returns the ops it did not write
    /// because the region was sealed for a split/merge — ownership
    /// handed back, so [`crate::Table`] can re-route them against the
    /// freshly-swapped region map without cloning payloads — and an
    /// empty vector when every op landed.
    ///
    /// The batch works under the memtable lock: seal check, one
    /// `fetch_add` for a contiguous run of commit sequences (ascending in
    /// op order), one WAL append (one `write(2)` under
    /// `batched`/`per-write`), then the memtable inserts. Appending and
    /// inserting under one lock is what lets replay rebuild
    /// acknowledgement order per key, and what keeps a freeze from
    /// parting a record from its insert (module docs). A batch that stops
    /// fitting the memtable writes the prefix that fits, drains the
    /// generation and goes on with the rest.
    ///
    /// The durability wait (the `per-write` group commit) happens once,
    /// *after* the memtable lock is released: a writer parked on an
    /// fsync must not hold the memtable hostage, or every other writer of
    /// the region would chain behind its wait. The ops are thus visible
    /// to readers slightly before they are acknowledged — an
    /// unacknowledged write may or may not survive a crash either way, so
    /// no durability promise weakens. A batch that is cut by a drain is
    /// not atomic: a reader may see the prefix that landed and not the
    /// rest, and an error leaves that prefix written.
    ///
    /// Past `flush_threshold` the writer kicks the maintenance
    /// scheduler; at the write-buffer cap across generations it relieves
    /// the region itself ([`Region::relieve`]). The checks run once per
    /// batch.
    pub(crate) fn try_write_batch(&self, ops: &mut [WriteOp]) -> Result<Vec<WriteOp>> {
        check_entry_sizes(ops, self.opts.mem_cap)?;
        let mut ticket = None;
        let mut at = 0;
        while at < ops.len() {
            let mut mem = self.mem.lock();
            // Checked under the memtable lock: the sealing thread's final
            // freeze also takes this lock, so every run either lands
            // before the drain or observes the seal — never neither.
            if self.sealed.load(Ordering::SeqCst) {
                self.sealed_rejects.add((ops.len() - at) as u64);
                break;
            }
            // The longest prefix of the rest the memtable can address.
            let (mut end, mut bytes) = (at, 0);
            while let Some(op) = ops.get(end) {
                bytes += op_bytes(op);
                if !mem.has_room(end - at + 1, bytes) {
                    break;
                }
                end += 1;
            }
            if end == at {
                // Not even one more entry: drain the generation and
                // retry in a fresh one.
                drop(mem);
                self.flush()?;
                continue;
            }
            let run = &ops[at..end];
            // Always allocated (WAL or not): the commit sequence is what
            // snapshots and SSTable `seq_limit`s are cut against.
            let seq = self.next_seq.fetch_add(run.len() as u64, Ordering::Relaxed);
            if let Some(wal) = &self.wal {
                let records = run.iter().map(|(k, v)| (&k[..], v.as_deref()));
                ticket = Some(wal.append(seq, records)?);
            }
            let before = mem.reserved_bytes();
            let mut written = 0;
            for ((key, value), seq) in run.iter().zip(seq..) {
                written += key.len() + value.as_ref().map_or(0, Vec::len);
                match value {
                    Some(v) => mem.put(key, seq, v),
                    None => mem.delete(key, seq),
                }
            }
            self.traffic.record_writes(run.len() as u64, written as u64);
            // Buffers only grow between freezes. Updated under the
            // memtable lock, so the freeze's transfer of these bytes to
            // the frozen counter is exact.
            let grown = mem.reserved_bytes() - before;
            self.active_bytes.fetch_add(grown, Ordering::Relaxed);
            at = end;
        }
        let rejected = ops[at..].iter_mut().map(std::mem::take).collect();
        if at == 0 {
            return Ok(rejected);
        }
        if let (Some(wal), Some(ticket)) = (&self.wal, ticket) {
            wal.commit(ticket)?;
        }
        if let Some(kick) = &self.opts.kick {
            if self.active_bytes.load(Ordering::Relaxed) >= self.opts.flush_threshold {
                kick.kick();
            }
        }
        if self.ingest_bytes() >= self.write_buffer_cap() {
            self.relieve()?;
        }
        Ok(rejected)
    }

    /// The most bytes the active and frozen generations may reserve: one
    /// generation filling while one flushes (RocksDB's
    /// `max_write_buffer_number = 2`), or one with no scheduler to flush
    /// a frozen one.
    fn write_buffer_cap(&self) -> usize {
        self.opts.flush_threshold * if self.opts.kick.is_some() { 2 } else { 1 }
    }

    /// Bytes pending flush across the active memtable and frozen
    /// generations — what backpressure meters.
    fn ingest_bytes(&self) -> usize {
        self.active_bytes.load(Ordering::Relaxed) + self.frozen_bytes.load(Ordering::Relaxed)
    }

    /// Write backpressure: flushes the region on the writer's thread
    /// until it is back under the hard cap — oldest frozen generation
    /// first, then the active memtable. A writer that finds a flush in
    /// progress (the scheduler's or another writer's) waits for it on
    /// `flush_lock` and re-checks, so it flushes only what is still over
    /// the cap. A failed flush is this writer's error.
    fn relieve(&self) -> Result<()> {
        self.stalls.inc();
        let started = Instant::now();
        let _g = self.flush_lock.lock();
        while self.ingest_bytes() >= self.write_buffer_cap() {
            if !self.flush_oldest_gen()? && !self.freeze()? {
                break;
            }
        }
        self.stall_wait.record_duration(started.elapsed());
        Ok(())
    }

    /// Point lookup as of snapshot sequence `snap`: sees exactly the
    /// writes with `seq < snap`. Reads reach it through [`Snapshot::get`].
    pub(crate) fn get_at(&self, key: &[u8], snap: u64) -> Result<Option<Vec<u8>>> {
        let hit = self.get_inner(key, snap)?;
        self.traffic
            .record_read(hit.as_ref().map_or(0, |v| v.len() as u64));
        Ok(hit)
    }

    fn get_inner(&self, key: &[u8], snap: u64) -> Result<Option<Vec<u8>>> {
        let inner = self.inner.read();
        if let Some(hit) = self.mem.lock().get(key, snap) {
            self.metrics.record_memtable_hit();
            return Ok(hit.map(|v| v.to_vec()));
        }
        for gen in inner.frozen.iter().rev() {
            if let Some(hit) = gen.mem.get(key, snap) {
                self.metrics.record_memtable_hit();
                return Ok(hit.map(|v| v.to_vec()));
            }
        }
        // Held generations straddle the snapshot (`seq_ub > snap`): their
        // twin SSTables are invisible below, so the version chains here
        // are authoritative for this cut.
        for gen in inner.held.iter().rev() {
            if gen.seq_ub <= snap {
                continue;
            }
            if let Some(hit) = gen.mem.get(key, snap) {
                self.metrics.record_memtable_hit();
                return Ok(hit.map(|v| v.to_vec()));
            }
        }
        for table in inner.tables.iter().rev() {
            if !table.visible_at(snap) {
                self.snapshot_skips.inc();
                continue;
            }
            if let Some(hit) = table.get(key)? {
                return Ok(hit);
            }
        }
        Ok(None)
    }

    /// The region's one scan path, as of snapshot sequence `snap`: the
    /// result equals a serial execution that stopped right before commit
    /// sequence `snap` was allocated. Under one brief read lock it copies
    /// each memtable layer's slices of all of `ranges`, one arena each, and
    /// takes the SSTable handles, then returns a pull-based merge, with
    /// newest-wins and tombstone-shadowing semantics, that
    /// [`MergeStream::reseek`] moves onto each range in turn — in the
    /// order given, which the memtable slices follow — and that reads
    /// one block at a time as the consumer advances. The merge stays
    /// pinned to the layers captured here, so it keeps serving the same
    /// cut once the snapshot handle drops — which a [`crate::ScanStream`]
    /// does as soon as this returns.
    pub(crate) fn scan_stream_at<'a>(
        &self,
        ranges: impl Iterator<Item = (&'a [u8], &'a [u8])> + Clone,
        snap: u64,
        fill_cache: bool,
    ) -> MergeStream {
        self.traffic.record_scan();
        self.metrics.record_scan_merge();
        let inner = self.inner.read();
        let mut sources =
            Vec::with_capacity(inner.tables.len() + inner.frozen.len() + inner.held.len() + 1);
        // Source 0 is the active memtable: the newest layer, so it wins
        // merge ties; frozen generations follow newest-first. The slices
        // are copied out (bounded by the flush threshold per range)
        // because the merge outlives the locks.
        let slices = |mem: &MemTable| ScanSource::mem(mem, ranges.clone(), snap);
        sources.push(slices(&self.mem.lock()));
        for gen in inner.frozen.iter().rev() {
            sources.push(slices(&gen.mem));
        }
        for gen in inner.held.iter().rev() {
            if gen.seq_ub > snap {
                sources.push(slices(&gen.mem));
            }
        }
        for table in inner.tables.iter().rev() {
            if !table.visible_at(snap) {
                self.snapshot_skips.inc();
                continue;
            }
            let walk = SstRangeIter::new(table.clone(), self.traffic.clone(), fill_cache);
            sources.push(ScanSource::Sst(walk));
        }
        drop(inner);
        MergeStream::new(sources, self.traffic.clone())
    }

    /// Freezes the active memtable into a new immutable generation:
    /// rotates the WAL (taking its retirement mark), then swaps the
    /// memtable for a fresh one — in that order, under the region write
    /// lock (see the module docs for why the order matters).
    /// Returns `false` when there was nothing to freeze.
    ///
    /// Caller must hold `flush_lock`.
    fn freeze(&self) -> Result<bool> {
        let mut inner = self.inner.write();
        if self.mem.lock().is_empty() {
            return Ok(false);
        }
        let mark = self.wal.as_ref().map(Wal::rotate_keep).transpose()?;
        let gen = FrozenGen::new(self.mem.lock().take(), mark);
        self.active_bytes.fetch_sub(gen.bytes, Ordering::Relaxed);
        self.frozen_bytes.fetch_add(gen.bytes, Ordering::Relaxed);
        inner.frozen.push_back(Arc::new(gen));
        just_obs::global()
            .counter("just_kvstore_memtable_freezes")
            .inc();
        Ok(true)
    }

    /// Flushes the oldest frozen generation to an SSTable, then retires
    /// its WAL segments. The build runs outside every region lock, so
    /// writes and reads proceed throughout; only the final registration
    /// takes the write lock briefly. Returns `false` when no generation
    /// was pending.
    ///
    /// Caller must hold `flush_lock` (generations must retire in FIFO
    /// order — their WAL marks assume it).
    fn flush_oldest_gen(&self) -> Result<bool> {
        let gen = match self.inner.read().frozen.front() {
            Some(g) => g.clone(),
            None => return Ok(false),
        };
        let started = Instant::now();
        // The footer records the generation's sequence upper bound, so
        // snapshots older than the newest version in this file know to
        // skip it (and read the held generation instead). The table is
        // fsynced before its WAL segments are retired below.
        let table = Arc::new(self.write_table(
            &self.next_table_path(),
            gen.seq_ub,
            BloomFilter::new(gen.mem.len(), BITS_PER_KEY),
            |builder| gen.mem.iter().try_for_each(|(k, v)| builder.add(k, v)),
        )?);
        let (sstables, held) = {
            let mut inner = self.inner.write();
            inner.tables.push(table.clone());
            inner.frozen.pop_front();
            // Hold the generation if a snapshot older than its newest
            // version is open: the SSTable stores only newest versions,
            // so the chains must keep serving that cut. Race-free
            // without the registry lock: a snapshot registered after
            // this check reads `next_seq >= gen.seq_ub` (every sequence
            // in the generation was allocated before its freeze), so it
            // never needs the held copy.
            let hold = self.watermark.load(Ordering::SeqCst) < gen.seq_ub;
            if hold {
                inner.held.push(gen.clone());
            }
            (inner.tables.len(), hold)
        };
        if held {
            self.held_gens_gauge.inc();
            self.held_bytes_gauge.add(gen.bytes as u64);
        }
        self.frozen_bytes.fetch_sub(gen.bytes, Ordering::Relaxed);
        if let (Some(w), Some(mark)) = (&self.wal, gen.mark) {
            w.retire_through(mark)?;
        }
        let obs = just_obs::global();
        obs.counter("just_kvstore_memtable_flushes").inc();
        obs.histogram("just_kvstore_flush_latency_us")
            .record_duration(started.elapsed());
        just_obs::events::global().emit(
            "region.flush",
            format!(
                "region={} bytes={} entries={} sstables={} elapsed_us={}",
                self.label(),
                table.file_size(),
                table.entry_count(),
                sstables,
                started.elapsed().as_micros()
            ),
        );
        Ok(true)
    }

    /// Forces everything in memory to disk: freezes the active memtable
    /// and drains every pending generation.
    pub(crate) fn flush(&self) -> Result<()> {
        let _g = self.flush_lock.lock();
        self.freeze()?;
        while self.flush_oldest_gen()? {}
        Ok(())
    }

    /// Merges SSTables into one file, dropping tombstones and shadowed
    /// versions. Only the leading freeze and drain hold `flush_lock`; the
    /// merge and rewrite run under `compact_lock` alone, so writers and
    /// their flushes go on, and scans keep serving from the old tables
    /// until the brief final swap. The output's id is taken under
    /// `flush_lock`, below every flush that can still be in flight, and
    /// the output is written under a temporary name and renamed into it
    /// once whole: a torn file is only ever the newest flush.
    ///
    /// Only the longest oldest-first prefix of tables that every open
    /// snapshot can already see (`seq_limit <=` the snapshot
    /// low-watermark) is merged: the output carries the prefix's max
    /// `seq_limit`, so its visibility matches its inputs' exactly and no
    /// open snapshot loses a version it could previously read. Tables
    /// newer than the watermark are compacted on a later pass, once the
    /// straddling snapshots drop.
    pub(crate) fn compact(&self) -> Result<()> {
        let _c = self.compact_lock.lock();
        let (tables, path) = {
            let _g = self.flush_lock.lock();
            self.freeze()?;
            while self.flush_oldest_gen()? {}
            // Monotonic-sequence argument for reading the watermark
            // without the registry lock: any snapshot registered after
            // this read captures `next_seq`, which is >= every flushed
            // `seq_limit`, so it sees the merged output if and only if
            // it saw the inputs.
            let wm = self.watermark.load(Ordering::SeqCst);
            let inner = self.inner.read();
            let k = inner
                .tables
                .iter()
                .take_while(|t| t.seq_limit() <= wm)
                .count();
            if k <= 1 {
                return Ok(());
            }
            let tables = inner.tables[..k].to_vec();
            drop(inner);
            (tables, self.next_table_path())
        };
        let started = Instant::now();
        // The prefix starts at the oldest table, so nothing older
        // exists: drop tombstones.
        let mut versions = Versions::new(&tables, false)?;
        let tmp = self.dir.join(COMPACT_TMP);
        let (limit, bloom) = (seq_limit_of(&tables), bloom_for(&tables));
        let mut table = self.write_table(&tmp, limit, bloom, |builder| {
            versions.copy_until(None, builder)
        })?;
        table.rename(&path)?;
        crate::wal::fsync_dir(&self.dir)?;
        let (after_bytes, after_entries) = (table.file_size(), table.entry_count());
        {
            // Flushes only append, and every rewrite holds
            // `compact_lock`: the merged prefix is still `tables`, and
            // any suffix past it (newer than the watermark, or flushed
            // during the merge) stays in place.
            let mut inner = self.inner.write();
            let same = |(a, b): (&Arc<SsTable>, &Arc<SsTable>)| Arc::ptr_eq(a, b);
            assert!(
                inner.tables.len() >= tables.len() && inner.tables.iter().zip(&tables).all(same)
            );
            inner.tables.splice(..tables.len(), [Arc::new(table)]);
        }
        for old in &tables {
            std::fs::remove_file(old.path()).ok();
        }
        let obs = just_obs::global();
        obs.counter("just_kvstore_compactions").inc();
        obs.histogram("just_kvstore_compaction_latency_us")
            .record_duration(started.elapsed());
        just_obs::events::global().emit(
            "region.compact",
            format!(
                "region={} inputs={} bytes={} entries={} elapsed_us={}",
                self.label(),
                tables.len(),
                after_bytes,
                after_entries,
                started.elapsed().as_micros()
            ),
        );
        Ok(())
    }

    /// One background sweep: freeze past the threshold, drain pending
    /// generations, compact past the trigger, then the WAL's tick
    /// (repair a poisoned log, push or batch-sync its bytes). Called by
    /// the maintenance scheduler.
    pub(crate) fn maintain(&self, compact_trigger: usize) -> Result<()> {
        if self.sealed.load(Ordering::SeqCst) {
            // A split/merge is draining the region; its own final flush
            // handles the leftovers and the region is about to retire.
            return Ok(());
        }
        let obs = just_obs::global();
        {
            let _g = self.flush_lock.lock();
            if self.active_bytes.load(Ordering::Relaxed) >= self.opts.flush_threshold {
                self.freeze()?;
            }
            while self.flush_oldest_gen()? {
                obs.counter("just_kvstore_bg_flushes").inc();
            }
        }
        let table_count = self.inner.read().tables.len();
        if compact_trigger > 0 && table_count >= compact_trigger {
            self.compact()?;
            obs.counter("just_kvstore_bg_compactions").inc();
        }
        self.wal.as_ref().map_or(Ok(()), Wal::tick)
    }

    /// Syncs the WAL through its latest append (clean shutdown: make
    /// every acknowledged write durable regardless of policy).
    pub(crate) fn wal_sync(&self) -> Result<()> {
        self.wal
            .as_ref()
            .map_or(Ok(()), |w| w.sync_through(w.ticket()))
    }

    /// Bytes on disk across all SSTables.
    pub(crate) fn disk_size(&self) -> u64 {
        self.inner.read().tables.iter().map(|t| t.file_size()).sum()
    }

    /// Live-ish entry count (active memtable + frozen generations +
    /// SSTables; shadowed versions double-count until compaction, as in
    /// HBase's `requestCount` style metrics).
    pub(crate) fn approx_entries(&self) -> u64 {
        let inner = self.inner.read();
        let active = self.mem.lock().len() as u64;
        let frozen: u64 = inner.frozen.iter().map(|g| g.mem.len() as u64).sum();
        active + frozen + inner.tables.iter().map(|t| t.entry_count()).sum::<u64>()
    }

    /// Number of SSTable files.
    pub(crate) fn sstable_count(&self) -> usize {
        self.inner.read().tables.len()
    }

    /// Heap bytes reserved by the in-memory write path (active memtable
    /// plus frozen generations awaiting flush). Read under the region
    /// lock, which a freeze holds while it moves bytes from one counter
    /// to the other, so no reading counts them twice.
    pub(crate) fn memtable_bytes(&self) -> usize {
        let _inner = self.inner.read();
        self.ingest_bytes()
    }

    /// Frozen memtable generations currently awaiting flush — the depth
    /// of the ingest pipeline (0 when flushes keep up).
    pub(crate) fn frozen_generations(&self) -> usize {
        self.inner.read().frozen.len()
    }

    /// A point-in-time copy of the region's traffic counters.
    pub(crate) fn traffic(&self) -> RegionTrafficSnapshot {
        self.traffic.snapshot()
    }

    /// Captures a consistent read view at the current commit sequence.
    ///
    /// The returned [`Snapshot`] sees exactly the writes committed
    /// before this call — later writes, flushes, compactions and even
    /// an online split of this region never change what it reads.
    /// Writers are never blocked; the cost is that flushed memtable
    /// generations overlapping an open snapshot are retained in memory
    /// ("held generations") until the snapshot drops.
    pub(crate) fn snapshot(self: &Arc<Self>) -> Snapshot {
        let seq = {
            let mut snaps = self.snapshots.lock();
            let seq = self.next_seq.load(Ordering::SeqCst);
            *snaps.entry(seq).or_insert(0) += 1;
            self.watermark.store(
                snaps.keys().next().copied().unwrap_or(u64::MAX),
                Ordering::SeqCst,
            );
            seq
        };
        self.snapshots_open.inc();
        Snapshot {
            region: self.clone(),
            seq,
        }
    }

    /// Releases held generations the snapshot low-watermark has passed.
    fn release_held(&self) {
        if self.inner.read().held.is_empty() {
            return;
        }
        let wm = self.watermark.load(Ordering::SeqCst);
        let mut freed_bytes = 0u64;
        let mut freed = 0u64;
        {
            let mut inner = self.inner.write();
            inner.held.retain(|g| {
                if g.seq_ub > wm {
                    true
                } else {
                    freed += 1;
                    freed_bytes += g.bytes as u64;
                    false
                }
            });
        }
        if freed > 0 {
            self.held_gens_gauge.sub(freed);
            self.held_bytes_gauge.sub(freed_bytes);
        }
    }

    /// Current commit sequence (one past the highest allocated).
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq.load(Ordering::SeqCst)
    }

    /// Number of open snapshot handles on this region.
    pub(crate) fn open_snapshots(&self) -> usize {
        self.snapshots.lock().values().sum()
    }

    /// Flushed memtable generations retained for open snapshots.
    pub(crate) fn held_generations(&self) -> usize {
        self.inner.read().held.len()
    }

    /// Whether the region is sealed (draining for a split/merge).
    pub(crate) fn is_sealed(&self) -> bool {
        self.sealed.load(Ordering::SeqCst)
    }

    /// Seals the region: every subsequent write is rejected with its
    /// payload handed back (see [`Region::try_write_batch`]). The caller's
    /// next [`Region::flush`] then drains a final, complete state —
    /// the seal is checked under the memtable lock, so no write can land
    /// after that flush.
    pub(crate) fn seal(&self) {
        self.sealed.store(true, Ordering::SeqCst);
    }

    /// Reopens a sealed region for writes — the rollback path when a
    /// split/merge fails after sealing but before committing (the
    /// region's own data is untouched in that window).
    pub(crate) fn unseal(&self) {
        self.sealed.store(false, Ordering::SeqCst);
    }

    /// Suggests a key to split this region at: the median block fence
    /// across its SSTables. Returns `None` when the on-disk data is too
    /// small to yield two non-empty daughters (callers flush first, so
    /// the fences cover the full keyspace of the region).
    pub(crate) fn approx_split_key(&self) -> Option<Vec<u8>> {
        let tables = self.inner.read().tables.clone();
        let mut fences: Vec<&[u8]> = (tables.iter())
            .flat_map(|t| (0..t.block_count()).map(|b| t.block_first_key(b)))
            .collect();
        fences.sort_unstable();
        fences.dedup();
        if fences.len() < 2 {
            return None;
        }
        // Strictly greater than the smallest fence, so both daughters
        // get at least one block's worth of keys.
        Some(fences[fences.len() / 2].to_vec())
    }

    /// Online split, phase 1 + 2: rewrites this region's contents into
    /// two daughter directories partitioned at `split_key` (left gets
    /// `key < split_key`).
    ///
    /// * **Phase 1** (writes still flowing): drain the memtable and
    ///   rewrite the flushed table set into per-daughter *base* files.
    ///   The inputs are the complete history of the range at that
    ///   point, so tombstones are dropped.
    /// * **Phase 2** (sealed): reject new writes, drain the delta that
    ///   accumulated during phase 1 and rewrite it as per-daughter
    ///   *delta* files — tombstones kept, they shadow the base.
    ///
    /// The write outage is bounded by the delta, not the region size.
    /// Durability: daughter files are fsynced by the builder; the
    /// caller commits the split by swapping the region manifest — on a
    /// crash before that commit the parent (whose WAL and tables are
    /// untouched) simply reopens.
    pub(crate) fn split_into(
        &self,
        left_dir: &Path,
        right_dir: &Path,
        split_key: &[u8],
    ) -> Result<()> {
        let _c = self.compact_lock.lock();
        // Phase 1 — pre-copy while writes continue.
        self.flush()?;
        let base: Vec<Arc<SsTable>> = self.inner.read().tables.clone();
        let base_ids: HashSet<u64> = base.iter().map(|t| t.file_id()).collect();
        for d in [left_dir, right_dir] {
            std::fs::remove_dir_all(d).ok();
            std::fs::create_dir_all(d)?;
        }
        self.split_tables(&base, false, 0, left_dir, right_dir, split_key)?;

        // Phase 2 — sealed catch-up.
        self.seal();
        self.flush()?;
        let delta: Vec<Arc<SsTable>> = self
            .inner
            .read()
            .tables
            .iter()
            .filter(|t| !base_ids.contains(&t.file_id()))
            .cloned()
            .collect();
        self.split_tables(&delta, true, 1, left_dir, right_dir, split_key)
    }

    /// One pass over the merge of `tables` that writes
    /// `left_dir/sst_<id>` and switches to `right_dir/sst_<id>` at the
    /// first key `>= split_key`.
    fn split_tables(
        &self,
        tables: &[Arc<SsTable>],
        tombstones: bool,
        id: u64,
        left_dir: &Path,
        right_dir: &Path,
        split_key: &[u8],
    ) -> Result<()> {
        let limit = seq_limit_of(tables);
        let mut versions = Versions::new(tables, tombstones)?;
        self.write_daughter(left_dir, id, limit, tables, &mut versions, Some(split_key))?;
        self.write_daughter(right_dir, id, limit, tables, &mut versions, None)
    }

    /// Rewrites this region's complete contents as `dir/sst_<id>.sst`
    /// (tombstones dropped — the inputs are the full history of the
    /// range). Used by region merge, which concatenates two sealed,
    /// key-disjoint regions into one daughter directory. The caller
    /// must seal the region first.
    pub(crate) fn drain_into(&self, dir: &Path, id: u64) -> Result<()> {
        debug_assert!(self.is_sealed());
        let _c = self.compact_lock.lock();
        self.flush()?;
        let tables: Vec<Arc<SsTable>> = self.inner.read().tables.clone();
        self.write_daughter(
            dir,
            id,
            seq_limit_of(&tables),
            &tables,
            &mut Versions::new(&tables, false)?,
            None,
        )
    }

    /// Writes the versions of `tables` below `until` (all when `None`)
    /// as one daughter SSTable, skipped when there are none — a daughter
    /// region opens fine with gaps in its file numbering.
    fn write_daughter(
        &self,
        dir: &Path,
        id: u64,
        seq_limit: u64,
        tables: &[Arc<SsTable>],
        versions: &mut Versions,
        until: Option<&[u8]>,
    ) -> Result<()> {
        match versions.merge.current() {
            Some((key, _)) if until.is_none_or(|until| key < until) => self
                .write_table(
                    &sst_path(dir, id),
                    seq_limit,
                    bloom_for(tables),
                    |builder| versions.copy_until(until, builder),
                )
                .map(drop),
            _ => Ok(()),
        }
    }

    /// Allocates the next SSTable file name in the region's directory.
    fn next_table_path(&self) -> PathBuf {
        let mut inner = self.inner.write();
        let id = inner.next_file_id;
        inner.next_file_id += 1;
        sst_path(&self.dir, id)
    }

    /// The region's one SSTable-writing routine — flush, compaction,
    /// split and merge all end here: `fill` adds the entries (ascending
    /// keys) to a builder writing `path` with `seq_limit` in the footer,
    /// then the file is fsynced and opened. The entries also fill
    /// `bloom`, which the builder folds to their count. On error nothing
    /// is left at `path` for the next open to trip on.
    fn write_table(
        &self,
        path: &Path,
        seq_limit: u64,
        bloom: BloomFilter,
        fill: impl FnOnce(&mut SsTableBuilder) -> Result<()>,
    ) -> Result<SsTable> {
        let built = SsTableBuilder::create_opts(
            path,
            self.opts.sst.clone(),
            bloom,
            self.metrics.clone(),
            self.cache.clone(),
        )
        .and_then(|mut builder| {
            builder.set_seq_limit(seq_limit);
            fill(&mut builder)?;
            builder.finish()
        });
        if built.is_err() {
            std::fs::remove_file(path).ok();
        }
        built
    }

    /// `table/region_NNN` label derived from the directory layout; used
    /// to attribute flush/compaction events without threading names
    /// through every constructor.
    fn label(&self) -> String {
        let region = self
            .dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        match self.dir.parent().and_then(|p| p.file_name()) {
            Some(table) => format!("{}/{region}", table.to_string_lossy()),
            None => region,
        }
    }
}

/// The name a compaction writes its output under until it is whole.
const COMPACT_TMP: &str = "compact.tmp";

fn sst_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("sst_{id:010}.sst"))
}

/// The `seq_limit` a rewrite of `tables` carries: the maximum over its
/// inputs, so the output is visible to exactly the snapshots that saw
/// all of them.
fn seq_limit_of(tables: &[Arc<SsTable>]) -> u64 {
    tables.iter().map(|t| t.seq_limit()).max().unwrap_or(0)
}

/// The bloom filter a rewrite of `tables` fills: sized for their entries
/// summed, shadowed versions included — what the rewrite holds at most —
/// and folded to the entries it does hold. The entry count is a number
/// read from each file, so it is clamped to the file's bytes — a corrupt
/// index cannot size an allocation beyond that.
fn bloom_for(tables: &[Arc<SsTable>]) -> BloomFilter {
    let entries: u64 = tables
        .iter()
        .map(|t| t.entry_count().min(t.file_size()))
        .sum();
    BloomFilter::for_at_most(entries as usize, BITS_PER_KEY)
}

/// The newest version of every key across `tables` (oldest first, as in
/// [`RegionInner::tables`]), in key order — the input of every rewrite.
/// It is the read path's merge, stepped lazily, so a rewrite holds one
/// cached block per input table, never a table, and adds each version to
/// the builder straight from the block it lies in. `tombstones` keeps
/// deleted keys: only a rewrite that covers the range's whole history may
/// drop them.
///
/// Blocks go through [`SsTable::read_block`] like any read (IO metrics,
/// cache hits served) but a miss does not fill the cache, and they are
/// booked to a throwaway traffic counter: maintenance is not the
/// region's read traffic.
struct Versions {
    merge: MergeStream,
    tombstones: bool,
}

impl Versions {
    /// Positioned on the first version kept.
    fn new(tables: &[Arc<SsTable>], tombstones: bool) -> Result<Self> {
        let unattributed = Arc::new(RegionTraffic::default());
        let sources = tables
            .iter()
            .rev()
            .map(|t| ScanSource::Sst(SstRangeIter::new(t.clone(), unattributed.clone(), false)))
            .collect();
        let mut merge = MergeStream::new(sources, unattributed);
        merge.reseek(
            b"",
            tables.iter().map(|t| t.max_key()).max().unwrap_or_default(),
        );
        let mut versions = Versions { merge, tombstones };
        versions.next()?;
        #[cfg(test)]
        tests::merge_pause();
        Ok(versions)
    }

    /// Steps to the next version kept.
    fn next(&mut self) -> Result<()> {
        while self.merge.step()? {
            if self.tombstones || matches!(self.merge.current(), Some((_, Some(_)))) {
                break;
            }
        }
        Ok(())
    }

    /// Adds the versions with keys below `until` (all when `None`) to
    /// `builder`, leaving the first at or past it current.
    fn copy_until(&mut self, until: Option<&[u8]>, builder: &mut SsTableBuilder) -> Result<()> {
        while let Some((key, value)) = self.merge.current() {
            if until.is_some_and(|until| key >= until) {
                break;
            }
            builder.add(key, value)?;
            self.next()?;
        }
        Ok(())
    }
}

/// A consistent read view over one region, captured by
/// [`Region::snapshot`].
///
/// Every read through the snapshot sees exactly the writes committed
/// before it was taken (`seq <` [`Snapshot::seq`]) — a stable cut that
/// survives concurrent writes, flushes, compactions and splits without
/// ever blocking them. Dropping the snapshot advances the region's
/// low-watermark, releasing any memtable generations held on its
/// behalf. Every store read runs through one: a table read holds one per
/// region, captured together by `Table::snapshot`.
pub(crate) struct Snapshot {
    region: Arc<Region>,
    seq: u64,
}

impl Snapshot {
    /// The commit sequence this snapshot reads at: exactly the writes
    /// with `seq < self.seq()` are visible.
    pub(crate) fn seq(&self) -> u64 {
        self.seq
    }

    /// The region this snapshot pins.
    pub(crate) fn region(&self) -> &Arc<Region> {
        &self.region
    }

    /// Point lookup at this snapshot.
    pub(crate) fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.region.get_at(key, self.seq)
    }
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("seq", &self.seq)
            .field("region", &self.region.label())
            .finish()
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        {
            let mut snaps = self.region.snapshots.lock();
            if let Some(n) = snaps.get_mut(&self.seq) {
                *n -= 1;
                if *n == 0 {
                    snaps.remove(&self.seq);
                }
            }
            self.region.watermark.store(
                snaps.keys().next().copied().unwrap_or(u64::MAX),
                Ordering::SeqCst,
            );
        }
        self.region.snapshots_open.sub(1);
        self.region.release_held();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture;
    use crate::memtable::LATEST;
    use crate::scan::owned;
    use crate::wal::FaultyWalFile;
    use crate::KvEntry;
    use std::cell::RefCell;
    use std::sync::mpsc;
    use std::thread::JoinHandle;
    use std::time::Duration;

    /// A merge's two ends: it signals the first once positioned on its
    /// first version, then waits on the second before copying anything.
    type Pause = (mpsc::Sender<()>, mpsc::Receiver<()>);

    thread_local! {
        /// Set on the thread that is about to run a rewrite, which takes
        /// it: `Versions::new` parks there ([`merge_pause`]).
        static MERGE_PAUSE: RefCell<Option<Pause>> = const { RefCell::new(None) };
    }

    /// Parks the calling rewrite if its thread carries a [`Pause`].
    pub(super) fn merge_pause() {
        if let Some((parked, resume)) = MERGE_PAUSE.with(|p| p.borrow_mut().take()) {
            parked.send(()).unwrap();
            resume.recv().unwrap();
        }
    }

    /// Starts `r.compact()` on a thread of its own and returns once the
    /// merge is parked, with the sender that resumes it.
    fn parked_compaction(r: &Arc<Region>) -> (mpsc::Sender<()>, JoinHandle<Result<()>>) {
        let (parked, parked_rx) = mpsc::channel();
        let (resume, resume_rx) = mpsc::channel();
        let r = r.clone();
        let compaction = std::thread::spawn(move || {
            MERGE_PAUSE.with(|p| *p.borrow_mut() = Some((parked, resume_rx)));
            r.compact()
        });
        parked_rx.recv().expect("the compaction parks mid-merge");
        (resume, compaction)
    }

    /// `n` puts `k0000…` of `value`, flushed to one table.
    fn flushed_table(r: &Region, n: u32, value: &[u8]) {
        for i in 0..n {
            put(r, format!("k{i:04}").into_bytes(), value.to_vec()).unwrap();
        }
        r.flush().unwrap();
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "just-region-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn region(name: &str, flush_threshold: usize) -> (Region, PathBuf) {
        let dir = tmpdir(name);
        let r = fixture::region(dir.clone(), fixture::region_opts(flush_threshold));
        (r, dir)
    }

    fn wal_region(name: &str, flush_threshold: usize, sync: SyncPolicy) -> (Region, PathBuf) {
        let dir = tmpdir(name);
        let r = open_wal_region(&dir, flush_threshold, sync);
        (r, dir)
    }

    fn open_wal_region(dir: &std::path::Path, flush_threshold: usize, sync: SyncPolicy) -> Region {
        fixture::region(dir.to_path_buf(), wal_opts(flush_threshold, sync))
    }

    fn wal_opts(flush_threshold: usize, sync: SyncPolicy) -> RegionOptions {
        RegionOptions {
            wal_sync: sync,
            ..fixture::region_opts(flush_threshold)
        }
    }

    /// A one-op batch, the way `Table::put`/`Table::delete` send it.
    fn write(r: &Region, op: WriteOp) -> Result<()> {
        match r.try_write_batch(&mut [op])?.is_empty() {
            true => Ok(()),
            false => Err(KvError::RegionSealed),
        }
    }

    fn put(r: &Region, key: Vec<u8>, value: Vec<u8>) -> Result<()> {
        write(r, (key, Some(value)))
    }

    fn delete(r: &Region, key: Vec<u8>) -> Result<()> {
        write(r, (key, None))
    }

    /// The region's merge over one range as of `snap`, drained and
    /// copied out.
    fn scan_at(r: &Region, start: &[u8], end: &[u8], snap: u64) -> Result<Vec<KvEntry>> {
        let mut stream = r.scan_stream_at(std::iter::once((start, end)), snap, true);
        stream.reseek(start, end);
        let mut live = Vec::new();
        while let Some(entry) = stream.next_live()? {
            live.push(owned(entry));
        }
        Ok(live)
    }

    /// Seeded: one merge re-seeked over many ranges reads each exactly as
    /// a fresh one-range merge does, across every layer a read merges —
    /// SSTables, a held generation (read under the snapshot it is held
    /// for), a frozen generation and the active memtable, each
    /// overwriting and deleting keys of the older ones — for ranges
    /// ascending, descending, overlapping, empty and inverted.
    #[test]
    fn a_reseeked_merge_reads_each_range_as_a_fresh_merge_does() {
        let key = |i: u64| format!("k{i:04}").into_bytes();
        for case in 0..8u64 {
            let mut rng = just_obs::Rng::seed_from_u64(0x7265_7365 ^ case);
            let (r, dir) = region(&format!("reseek-{case}"), 1 << 20);
            let r = Arc::new(r);
            let layer = |rng: &mut just_obs::Rng| {
                for _ in 0..300 {
                    let k = key(rng.gen_range(0u64..400));
                    match rng.gen_range(0u8..4) {
                        0 => delete(&r, k).unwrap(),
                        v => put(&r, k, vec![v; rng.gen_range(1usize..40)]).unwrap(),
                    }
                }
            };
            layer(&mut rng);
            r.flush().unwrap();
            layer(&mut rng);
            r.flush().unwrap();
            layer(&mut rng);
            let held = r.snapshot();
            layer(&mut rng);
            r.flush().unwrap();
            layer(&mut rng);
            let frozen = r.flush_lock.lock();
            assert!(r.freeze().unwrap());
            drop(frozen);
            layer(&mut rng);
            assert_eq!((r.held_generations(), r.frozen_generations()), (1, 1));

            let mut ranges: Vec<(Vec<u8>, Vec<u8>)> = (0..60)
                .map(|_| {
                    let a = rng.gen_range(0u64..420);
                    match rng.gen_range(0u8..6) {
                        // Between two keys: empty.
                        0 => (
                            [key(a), b"+".to_vec()].concat(),
                            [key(a), b"-".to_vec()].concat(),
                        ),
                        1 => (key(a + 3), key(a)),
                        2 => (key(a), key(a)),
                        _ => (key(a), key(a + rng.gen_range(0u64..40))),
                    }
                })
                .collect();
            // A run of one-key ranges up the keyspace and one down it.
            ranges.extend((0..400).step_by(7).map(|i| (key(i), key(i))));
            ranges.extend((0..400).rev().step_by(11).map(|i| (key(i), key(i + 1))));
            for snap in [held.seq(), LATEST] {
                let bounds = ranges.iter().map(|(s, e)| (&s[..], &e[..]));
                let mut merge = r.scan_stream_at(bounds, snap, true);
                for (start, end) in &ranges {
                    merge.reseek(start, end);
                    let mut got = Vec::new();
                    while let Some(entry) = merge.next_live().unwrap() {
                        got.push(owned(entry));
                    }
                    let fresh = scan_at(&r, start, end, snap).unwrap();
                    assert_eq!(got, fresh, "case {case} at {snap}: {start:?}..={end:?}");
                }
            }
            drop(held);
            std::fs::remove_dir_all(dir).ok();
        }
    }

    #[test]
    fn put_get_scan_across_flushes() {
        let (r, dir) = region("basic", 1 << 14);
        for i in 0..2000u32 {
            put(
                &r,
                format!("k{i:06}").into_bytes(),
                format!("v{i}").into_bytes(),
            )
            .unwrap();
        }
        assert!(r.sstable_count() >= 1, "flush threshold should trigger");
        assert_eq!(
            r.get_at(b"k000123", LATEST).unwrap(),
            Some(b"v123".to_vec())
        );
        let hits = scan_at(&r, b"k000100", b"k000199", LATEST).unwrap();
        assert_eq!(hits.len(), 100);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn updates_shadow_older_versions() {
        let (r, dir) = region("update", 256);
        put(&r, b"k".to_vec(), b"v1".to_vec()).unwrap();
        r.flush().unwrap();
        put(&r, b"k".to_vec(), b"v2".to_vec()).unwrap();
        assert_eq!(r.get_at(b"k", LATEST).unwrap(), Some(b"v2".to_vec()));
        let hits = scan_at(&r, b"k", b"k", LATEST).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].value, b"v2");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn deletes_shadow_flushed_data() {
        let (r, dir) = region("delete", 1 << 20);
        put(&r, b"a".to_vec(), b"1".to_vec()).unwrap();
        put(&r, b"b".to_vec(), b"2".to_vec()).unwrap();
        r.flush().unwrap();
        delete(&r, b"a".to_vec()).unwrap();
        assert_eq!(r.get_at(b"a", LATEST).unwrap(), None);
        let hits = scan_at(&r, b"a", b"z", LATEST).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].key, b"b");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn compaction_reclaims_space_and_preserves_data() {
        let (r, dir) = region("compact", 1 << 12);
        for round in 0..5 {
            for i in 0..500u32 {
                put(
                    &r,
                    format!("k{i:05}").into_bytes(),
                    format!("v{round}-{i}").into_bytes(),
                )
                .unwrap();
            }
            r.flush().unwrap();
        }
        delete(&r, b"k00000".to_vec()).unwrap();
        let before_files = r.sstable_count();
        let before_size = r.disk_size();
        r.compact().unwrap();
        assert_eq!(r.sstable_count(), 1);
        assert!(before_files > 1);
        assert!(r.disk_size() < before_size);
        // Data reflects the last round, minus the delete.
        assert_eq!(r.get_at(b"k00000", LATEST).unwrap(), None);
        assert_eq!(r.get_at(b"k00001", LATEST).unwrap(), Some(b"v4-1".to_vec()));
        assert_eq!(scan_at(&r, b"", b"\xff", LATEST).unwrap().len(), 499);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn reopen_recovers_flushed_data() {
        let (r, dir) = region("reopen", 1 << 20);
        for i in 0..100u32 {
            put(&r, format!("k{i:03}").into_bytes(), b"v".to_vec()).unwrap();
        }
        r.flush().unwrap();
        drop(r);
        let r2 = fixture::region(dir.clone(), fixture::region_opts(1 << 20));
        assert_eq!(scan_at(&r2, b"", b"\xff", LATEST).unwrap().len(), 100);
        // New writes continue with fresh file ids.
        put(&r2, b"k999".to_vec(), b"new".to_vec()).unwrap();
        r2.flush().unwrap();
        assert_eq!(r2.get_at(b"k999", LATEST).unwrap(), Some(b"new".to_vec()));
        std::fs::remove_dir_all(dir).ok();
    }

    /// A region with two flushed tables, closed; returns its directory
    /// and the newest table's path.
    fn two_flushed_tables(name: &str) -> (PathBuf, PathBuf) {
        let (r, dir) = region(name, 1 << 20);
        for round in 0..2u32 {
            for i in 0..50u32 {
                put(&r, format!("k{round}-{i:03}").into_bytes(), b"v".to_vec()).unwrap();
            }
            r.flush().unwrap();
        }
        drop(r);
        (dir.clone(), sst_path(&dir, 1))
    }

    fn reopen(dir: &Path) -> Result<Region> {
        let metrics = Arc::new(IoMetrics::new());
        let cache = Arc::new(BlockCache::new(0));
        Region::open_opts(
            dir.to_path_buf(),
            metrics,
            cache,
            fixture::region_opts(1 << 20),
        )
    }

    #[test]
    fn torn_newest_table_is_dropped_on_open() {
        // A crash mid-flush: the newest file has no footer. Its records
        // are still covered elsewhere, so open drops it.
        let (dir, newest) = two_flushed_tables("torn-newest");
        let len = std::fs::metadata(&newest).unwrap().len();
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&newest)
            .unwrap();
        file.set_len(len / 2).unwrap();
        drop(file);
        let r = reopen(&dir).unwrap();
        assert!(!newest.exists(), "torn table kept");
        assert_eq!(r.sstable_count(), 1);
        assert_eq!(scan_at(&r, b"k0", b"k1", LATEST).unwrap().len(), 50);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn newest_table_in_another_format_is_refused_not_dropped() {
        // A whole file of another SSTable generation is not a torn
        // flush: its WAL segments may be retired, so deleting it would
        // lose acknowledged writes.
        let (dir, newest) = two_flushed_tables("format-newest");
        let mut bytes = std::fs::read(&newest).unwrap();
        // The generation is the magic's last two digits: `…03` → `…02`.
        *bytes.last_mut().unwrap() = b'2';
        std::fs::write(&newest, &bytes).unwrap();
        let err = reopen(&dir).unwrap_err();
        assert!(matches!(err, KvError::Format { .. }), "{err}");
        assert_eq!(
            std::fs::read(&newest).unwrap(),
            bytes,
            "refused file changed"
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn io_error_on_newest_table_is_an_error_not_a_drop() {
        // An `sst_*.sst` that cannot be read (here: a directory, EISDIR)
        // says nothing about a torn flush; open must fail, not count it
        // torn and carry on without it.
        let (dir, _) = two_flushed_tables("io-newest");
        let newest = sst_path(&dir, 2);
        std::fs::create_dir(&newest).unwrap();
        let err = reopen(&dir).unwrap_err();
        assert!(matches!(err, KvError::Io(_)), "{err}");
        assert!(newest.is_dir());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn inverted_scan_range_is_empty() {
        let (r, dir) = region("inverted", 1 << 20);
        put(&r, b"k".to_vec(), b"v".to_vec()).unwrap();
        assert!(scan_at(&r, b"z", b"a", LATEST).unwrap().is_empty());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn wal_recovers_unflushed_writes() {
        let (r, dir) = wal_region("wal-recover", 1 << 20, SyncPolicy::PerWrite);
        for i in 0..50u32 {
            put(
                &r,
                format!("k{i:03}").into_bytes(),
                format!("v{i}").into_bytes(),
            )
            .unwrap();
        }
        delete(&r, b"k007".to_vec()).unwrap();
        assert_eq!(r.sstable_count(), 0, "nothing flushed yet");
        drop(r); // no flush: only the WAL survives
        let r2 = open_wal_region(&dir, 1 << 20, SyncPolicy::PerWrite);
        assert_eq!(scan_at(&r2, b"", b"\xff", LATEST).unwrap().len(), 49);
        assert_eq!(r2.get_at(b"k007", LATEST).unwrap(), None);
        assert_eq!(r2.get_at(b"k042", LATEST).unwrap(), Some(b"v42".to_vec()));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn wal_replay_is_idempotent_over_flushed_data() {
        // Crash window: SSTable durable but WAL segment not yet deleted.
        let (r, dir) = wal_region("wal-idem", 1 << 20, SyncPolicy::PerWrite);
        put(&r, b"a".to_vec(), b"1".to_vec()).unwrap();
        put(&r, b"b".to_vec(), b"2".to_vec()).unwrap();
        r.flush().unwrap();
        put(&r, b"c".to_vec(), b"3".to_vec()).unwrap();
        // Replayed rewrites and deletes shadow the flushed versions.
        put(&r, b"b".to_vec(), b"rewritten".to_vec()).unwrap();
        delete(&r, b"a".to_vec()).unwrap();
        drop(r);
        let r2 = open_wal_region(&dir, 1 << 20, SyncPolicy::PerWrite);
        let hits = scan_at(&r2, b"", b"\xff", LATEST).unwrap();
        assert_eq!(hits.len(), 2);
        assert_eq!(r2.get_at(b"a", LATEST).unwrap(), None);
        assert_eq!(
            r2.get_at(b"b", LATEST).unwrap(),
            Some(b"rewritten".to_vec())
        );
        assert_eq!(r2.get_at(b"c", LATEST).unwrap(), Some(b"3".to_vec()));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn wal_segments_deleted_after_flush() {
        let (r, dir) = wal_region("wal-rotate", 1 << 20, SyncPolicy::PerWrite);
        for i in 0..20u32 {
            put(&r, format!("k{i}").into_bytes(), vec![0; 100]).unwrap();
        }
        let wal_files = |dir: &PathBuf| {
            std::fs::read_dir(dir)
                .unwrap()
                .filter(|e| {
                    e.as_ref()
                        .unwrap()
                        .file_name()
                        .to_string_lossy()
                        .starts_with("wal_")
                })
                .count()
        };
        assert_eq!(wal_files(&dir), 1);
        let before = std::fs::metadata(dir.join("wal_0000000000.log"))
            .unwrap()
            .len();
        assert!(before > 0);
        r.flush().unwrap();
        // Old segment retired, fresh empty one active.
        assert_eq!(wal_files(&dir), 1);
        assert_eq!(
            std::fs::metadata(dir.join("wal_0000000001.log"))
                .unwrap()
                .len(),
            0
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn recovered_memtable_over_threshold_flushes_on_open() {
        let (r, dir) = wal_region("wal-eager", 1 << 20, SyncPolicy::PerWrite);
        for i in 0..100u32 {
            put(&r, format!("k{i:03}").into_bytes(), vec![7; 256]).unwrap();
        }
        drop(r);
        // Reopen with a tiny threshold: replay exceeds it immediately.
        let r2 = open_wal_region(&dir, 1 << 10, SyncPolicy::PerWrite);
        assert!(r2.sstable_count() >= 1, "recovered memtable must flush");
        assert_eq!(scan_at(&r2, b"", b"\xff", LATEST).unwrap().len(), 100);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_full_shard_drains_its_generation_and_an_oversized_entry_is_an_error() {
        let dir = tmpdir("mem-cap");
        // The threshold never fires: only the 4 KiB memtable filling up
        // can flush.
        let r = fixture::region(
            dir.clone(),
            RegionOptions {
                mem_cap: 4096,
                ..fixture::region_opts(64 << 20)
            },
        );
        for i in 0..1000u32 {
            put(&r, format!("k{i:04}").into_bytes(), vec![i as u8; 100]).unwrap();
        }
        assert!(r.sstable_count() >= 2, "{} sstables", r.sstable_count());
        delete(&r, b"k0007".to_vec()).unwrap();
        for i in 0..1000u32 {
            let want = (i != 7).then(|| vec![i as u8; 100]);
            assert_eq!(
                r.get_at(format!("k{i:04}").as_bytes(), LATEST).unwrap(),
                want
            );
        }
        assert_eq!(scan_at(&r, b"", b"\xff", LATEST).unwrap().len(), 999);
        // Larger than an empty memtable: refused, and nothing changes.
        let before = (r.next_seq(), r.memtable_bytes());
        let err = put(&r, b"big".to_vec(), vec![0; 4096]).unwrap_err();
        assert!(matches!(err, KvError::EntryTooLarge(4099)), "{err}");
        assert_eq!((r.next_seq(), r.memtable_bytes()), before);
        assert_eq!(r.get_at(b"big", LATEST).unwrap(), None);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn replay_that_fills_a_shard_starts_a_new_generation() {
        let (r, dir) = wal_region("wal-mem-cap", 64 << 20, SyncPolicy::PerWrite);
        for i in 0..300u32 {
            put(&r, format!("k{i:04}").into_bytes(), vec![i as u8; 100]).unwrap();
        }
        delete(&r, b"k0007".to_vec()).unwrap();
        drop(r);
        let reopen = |mem_cap| {
            fixture::region(
                dir.clone(),
                RegionOptions {
                    mem_cap,
                    ..wal_opts(64 << 20, SyncPolicy::PerWrite)
                },
            )
        };
        let check = |r: &Region| {
            for i in 0..300u32 {
                let want = (i != 7).then(|| vec![i as u8; 100]);
                assert_eq!(
                    r.get_at(format!("k{i:04}").as_bytes(), LATEST).unwrap(),
                    want
                );
            }
            assert_eq!(scan_at(r, b"", b"\xff", LATEST).unwrap().len(), 299);
        };
        // ~33 KiB of records against a 4 KiB memtable: the replay has to cut
        // generations, and below the flush threshold they stay frozen.
        let r = reopen(4096);
        assert!(r.frozen_generations() >= 7, "{}", r.frozen_generations());
        assert_eq!(r.sstable_count(), 0);
        check(&r);
        // Killed before any flush, the same WAL replays again.
        drop(r);
        let r = reopen(4096);
        check(&r);
        // Flushed, the WAL is retired and the tables carry the data.
        r.flush().unwrap();
        assert_eq!(r.frozen_generations(), 0);
        assert_eq!(r.memtable_bytes(), 0);
        drop(r);
        let r = reopen(4096);
        assert_eq!(r.memtable_bytes(), 0);
        check(&r);
        // A record that no memtable of this size could hold is an error.
        put(&r, b"wide".to_vec(), vec![1; 2000]).unwrap();
        drop(r);
        let opts = RegionOptions {
            mem_cap: 1024,
            ..wal_opts(64 << 20, SyncPolicy::PerWrite)
        };
        let metrics = Arc::new(IoMetrics::new());
        let err = Region::open_opts(dir.clone(), metrics, Arc::new(BlockCache::new(0)), opts)
            .unwrap_err();
        assert!(matches!(err, KvError::EntryTooLarge(2004)), "{err}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn replay_cuts_a_generation_by_entry_bytes_not_value_bytes() {
        let (r, dir) = wal_region("wal-entry-bytes", 64 << 20, SyncPolicy::PerWrite);
        put(&r, b"k1".to_vec(), vec![1; 100]).unwrap();
        put(&r, b"k2".to_vec(), vec![2; 100]).unwrap();
        drop(r);
        // The cap counts the bytes appended, not the chunk they land in
        // (one 2 KiB chunk here). The first record appends 104 (key,
        // value and two one-byte length prefixes), leaving 105 under the
        // cap: enough for the second record's 100 value bytes, not for
        // its 112 entry bytes.
        let r = fixture::region(
            dir.clone(),
            RegionOptions {
                mem_cap: 209,
                ..wal_opts(64 << 20, SyncPolicy::PerWrite)
            },
        );
        assert_eq!(r.frozen_generations(), 1);
        assert_eq!(r.get_at(b"k1", LATEST).unwrap(), Some(vec![1; 100]));
        assert_eq!(r.get_at(b"k2", LATEST).unwrap(), Some(vec![2; 100]));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_poisoned_log_heals_on_the_next_maintenance_tick() {
        // A torn append stops all of the region's writes until the log
        // is repaired; the maintenance tick repairs it, however far the
        // memtable is from a flush.
        let dir = tmpdir("poison-heal");
        let r = open_wal_region(&dir, 1 << 20, SyncPolicy::Batched);
        put(&r, b"before".to_vec(), b"v".to_vec()).unwrap();
        let (file, state) = FaultyWalFile::new();
        state.lock().write_budget = Some(3); // torn 3 bytes into the first record
        r.wal.as_ref().unwrap().set_file_for_test(Box::new(file));
        let torn = put(&r, b"torn".to_vec(), b"v".to_vec());
        assert!(matches!(torn, Err(KvError::Io(_))), "{torn:?}");
        let refused = put(&r, b"refused".to_vec(), b"v".to_vec());
        assert!(matches!(refused, Err(KvError::WalPoisoned)), "{refused:?}");
        r.maintain(0).unwrap();
        assert!(r.memtable_bytes() < r.opts.flush_threshold / 16);
        assert_eq!((r.sstable_count(), r.frozen_generations()), (0, 0));
        assert!(state.lock().os.is_empty(), "torn tail truncated");
        put(&r, b"after".to_vec(), b"v".to_vec()).unwrap();
        r.wal_sync().unwrap();
        drop(r);
        let r = open_wal_region(&dir, 1 << 20, SyncPolicy::Batched);
        let keys: Vec<Vec<u8>> = (scan_at(&r, b"", b"\xff", LATEST).unwrap())
            .into_iter()
            .map(|e| e.key)
            .collect();
        assert_eq!(keys, [&b"after"[..], b"before"]);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn freeze_pipelines_writes_during_flush() {
        // A freeze leaves the frozen generation readable while new
        // writes land in a fresh memtable; draining flushes preserves all.
        let (r, dir) = wal_region("wal-pipeline", 1 << 20, SyncPolicy::Batched);
        for i in 0..100u32 {
            put(&r, format!("a{i:03}").into_bytes(), b"old".to_vec()).unwrap();
        }
        {
            let _g = r.flush_lock.lock();
            assert!(r.freeze().unwrap());
        }
        assert_eq!(r.frozen_generations(), 1);
        // Reads see the frozen layer; writes go to the fresh memtable.
        assert_eq!(r.get_at(b"a050", LATEST).unwrap(), Some(b"old".to_vec()));
        put(&r, b"a050".to_vec(), b"new".to_vec()).unwrap();
        assert_eq!(r.get_at(b"a050", LATEST).unwrap(), Some(b"new".to_vec()));
        assert_eq!(scan_at(&r, b"", b"\xff", LATEST).unwrap().len(), 100);
        r.flush().unwrap();
        assert_eq!(r.frozen_generations(), 0);
        assert_eq!(r.get_at(b"a050", LATEST).unwrap(), Some(b"new".to_vec()));
        assert_eq!(scan_at(&r, b"", b"\xff", LATEST).unwrap().len(), 100);
        std::fs::remove_dir_all(dir).ok();
    }

    /// A region of a store with a scheduler that never runs: the
    /// write-buffer cap is twice the threshold, and only the writers
    /// themselves can flush.
    fn capped_opts(flush_threshold: usize) -> RegionOptions {
        RegionOptions {
            kick: Some(Default::default()),
            ..fixture::region_opts(flush_threshold)
        }
    }

    /// A 512 B threshold, so a 1 KiB cap.
    fn capped_region(name: &str) -> (Region, PathBuf) {
        let dir = tmpdir(name);
        (fixture::region(dir.clone(), capped_opts(512)), dir)
    }

    #[test]
    fn a_writer_at_the_cap_flushes_while_a_compaction_is_parked_mid_merge() {
        let dir = tmpdir("cap-under-merge");
        let r = Arc::new(fixture::region(dir.clone(), capped_opts(8 << 10)));
        flushed_table(&r, 100, b"old");
        flushed_table(&r, 100, b"new");
        let (resume, compaction) = parked_compaction(&r);
        // ~40 KiB of puts against a 16 KiB cap, overwriting the merge's
        // keys: the writer must flush, and `flush_lock` is free while the
        // merge runs.
        let (returned, writes_done) = mpsc::channel();
        let writer = {
            let r = r.clone();
            std::thread::spawn(move || {
                for i in 0..400u32 {
                    put(&r, format!("k{i:04}").into_bytes(), vec![7; 64]).unwrap();
                }
                returned.send(()).unwrap();
            })
        };
        let waited = writes_done.recv_timeout(Duration::from_secs(30));
        let (tables, buffered) = (r.sstable_count(), r.memtable_bytes());
        resume.send(()).unwrap();
        assert!(
            waited.is_ok(),
            "a writer at the cap queued behind the merge"
        );
        writer.join().unwrap();
        assert!(tables > 2, "the writer never flushed: {tables} tables");
        assert!(buffered < 16 << 10, "{buffered} bytes buffered");
        compaction.join().unwrap().unwrap();
        // The merged prefix is one table; the flushes it raced stay, and
        // stay newer — after a reopen too.
        assert_eq!(r.sstable_count(), tables - 1);
        r.flush().unwrap();
        for r in [&*r, &reopen(&dir).unwrap()] {
            assert_eq!(r.get_at(b"k0042", LATEST).unwrap(), Some(vec![7; 64]));
            assert_eq!(scan_at(r, b"", b"\xff", LATEST).unwrap().len(), 400);
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_torn_flush_that_raced_a_compaction_is_dropped_on_reopen() {
        let dir = tmpdir("torn-under-merge");
        let r = Arc::new(fixture::region(dir.clone(), fixture::region_opts(1 << 20)));
        flushed_table(&r, 100, b"old");
        flushed_table(&r, 100, b"new");
        let (resume, compaction) = parked_compaction(&r);
        put(&r, b"k9999".to_vec(), b"raced".to_vec()).unwrap();
        r.flush().unwrap();
        resume.send(()).unwrap();
        compaction.join().unwrap().unwrap();
        let paths: Vec<PathBuf> = r
            .inner
            .read()
            .tables
            .iter()
            .map(|t| t.path().to_path_buf())
            .collect();
        let [merged, raced] = &paths[..] else {
            panic!("{paths:?}")
        };
        assert!(raced > merged, "the flush took an id below the merge's");
        drop(r);
        // Power lost before the racing flush finished: it is the newest
        // file, so open drops it and keeps the merged one.
        let len = std::fs::metadata(raced).unwrap().len();
        let file = std::fs::OpenOptions::new().write(true).open(raced).unwrap();
        file.set_len(len / 2).unwrap();
        drop(file);
        let r = reopen(&dir).unwrap();
        assert_eq!(r.sstable_count(), 1);
        assert_eq!(r.get_at(b"k0042", LATEST).unwrap(), Some(b"new".to_vec()));
        assert_eq!(scan_at(&r, b"", b"\xff", LATEST).unwrap().len(), 100);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn rewrites_fold_their_bloom_filters_to_the_entries_they_keep() {
        // The compaction of four generations of the same keys sizes its
        // filter for all four, and each daughter of the split for all of
        // its parent: each folds to under twice what its entries need.
        let (r, dir) = region("bloom-fold", 1 << 30);
        for round in 0..4u8 {
            flushed_table(&r, 8000, &[round; 8]);
        }
        r.compact().unwrap();
        let key = r.approx_split_key().unwrap();
        let (left, right) = (dir.join("left"), dir.join("right"));
        r.split_into(&left, &right, &key).unwrap();
        let merged = r.inner.read().tables[0].clone();
        let daughters = [left, right].map(|d| fixture::sstable(&sst_path(&d, 0)));
        for t in [&*merged, &daughters[0], &daughters[1]] {
            let exact = BloomFilter::new(t.entry_count() as usize, BITS_PER_KEY).bytes();
            let bytes = t.bloom_bytes();
            assert!(
                exact <= bytes && bytes < 2 * exact,
                "{bytes} bloom bytes for {} entries ({exact} exact)",
                t.entry_count()
            );
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn compaction_and_split_read_around_the_block_cache() {
        let dir = tmpdir("cache-around");
        let (metrics, cache) = (
            Arc::new(IoMetrics::new()),
            Arc::new(BlockCache::new(1 << 20)),
        );
        let open = |dir: PathBuf| {
            let opts = fixture::region_opts(1 << 20);
            Arc::new(Region::open_opts(dir, metrics.clone(), cache.clone(), opts).unwrap())
        };
        // A bystander region whose blocks a query has cached.
        let q = open(dir.join("q"));
        flushed_table(&q, 300, b"q");
        scan_at(&q, b"", b"\xff", LATEST).unwrap();
        let warm = cache.resident_bytes();
        assert!(warm > 0);
        let r = open(dir.join("r"));
        for round in 0..3u8 {
            flushed_table(&r, 300, &[round; 32]);
        }
        let (resume, compaction) = parked_compaction(&r);
        assert_eq!(cache.resident_bytes(), warm, "the merge filled the cache");
        resume.send(()).unwrap();
        compaction.join().unwrap().unwrap();
        assert_eq!(cache.resident_bytes(), warm);
        // A query still fills it.
        assert_eq!(scan_at(&r, b"", b"\xff", LATEST).unwrap().len(), 300);
        let cached = cache.resident_bytes();
        assert!(cached > warm);
        // A split reads the cached table from the cache and the fresh
        // one from disk, and caches neither.
        flushed_table(&r, 100, b"fresh");
        let before = metrics.snapshot();
        let key = r.approx_split_key().unwrap();
        r.split_into(&dir.join("left"), &dir.join("right"), &key)
            .unwrap();
        let split = metrics.snapshot().since(&before);
        assert!(split.cache_hits > 0 && split.blocks_read > 0, "{split:?}");
        assert_eq!(cache.resident_bytes(), cached, "the split filled the cache");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_writer_at_the_cap_flushes_the_region_itself() {
        let (r, dir) = capped_region("cap-relieve");
        for i in 0..64u32 {
            put(&r, format!("k{i:03}").into_bytes(), vec![i as u8; 64]).unwrap();
        }
        for i in 0..64u32 {
            let got = r.get_at(format!("k{i:03}").as_bytes(), LATEST).unwrap();
            assert_eq!(got, Some(vec![i as u8; 64]));
        }
        assert!(r.sstable_count() >= 1);
        assert!(r.memtable_bytes() < 1024, "{}", r.memtable_bytes());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_failed_flush_at_the_cap_is_the_writers_error() {
        let (r, dir) = capped_region("cap-fail");
        std::fs::remove_dir_all(&dir).unwrap();
        let started = Instant::now();
        let err = (0..64u32)
            .try_for_each(|i| put(&r, format!("k{i:03}").into_bytes(), vec![0; 64]))
            .unwrap_err();
        assert!(matches!(err, KvError::Io(_)), "{err}");
        assert!(started.elapsed() < std::time::Duration::from_secs(1));
    }

    #[test]
    fn snapshot_reads_survive_overwrites_flushes_and_compaction() {
        let (r, dir) = region("mvcc-basic", 1 << 20);
        let r = Arc::new(r);
        for i in 0..200u32 {
            put(&r, format!("k{i:04}").into_bytes(), b"v1".to_vec()).unwrap();
        }
        let snap = r.snapshot();
        // Overwrite everything, delete half, then flush + compact so the
        // new versions reach disk and the old ones only survive via the
        // held generation.
        for i in 0..200u32 {
            put(&r, format!("k{i:04}").into_bytes(), b"v2".to_vec()).unwrap();
        }
        for i in 0..100u32 {
            delete(&r, format!("k{i:04}").into_bytes()).unwrap();
        }
        r.flush().unwrap();
        assert!(
            r.held_generations() >= 1,
            "snapshot must hold the flushed gen"
        );
        r.flush().unwrap();
        r.compact().unwrap();
        // The snapshot still reads the full original cut.
        let hits = scan_at(&r, b"", b"\xff", snap.seq()).unwrap();
        assert_eq!(hits.len(), 200, "snapshot lost rows");
        assert!(
            hits.iter().all(|e| e.value == b"v1"),
            "snapshot saw later writes"
        );
        assert_eq!(snap.get(b"k0007").unwrap(), Some(b"v1".to_vec()));
        // Latest reads see the new state.
        assert_eq!(r.get_at(b"k0007", LATEST).unwrap(), None);
        assert_eq!(r.get_at(b"k0150", LATEST).unwrap(), Some(b"v2".to_vec()));
        assert_eq!(scan_at(&r, b"", b"\xff", LATEST).unwrap().len(), 100);
        // Dropping the snapshot releases the held generations.
        drop(snap);
        assert_eq!(r.held_generations(), 0);
        assert_eq!(r.open_snapshots(), 0);
        // With the watermark gone, compaction can now merge everything.
        r.compact().unwrap();
        assert_eq!(r.sstable_count(), 1);
        assert_eq!(scan_at(&r, b"", b"\xff", LATEST).unwrap().len(), 100);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn compaction_spares_tables_newer_than_open_snapshots() {
        let (r, dir) = region("mvcc-compact-gate", 1 << 20);
        let r = Arc::new(r);
        put(&r, b"a".to_vec(), b"old".to_vec()).unwrap();
        r.flush().unwrap();
        let snap = r.snapshot();
        put(&r, b"a".to_vec(), b"new".to_vec()).unwrap();
        r.flush().unwrap();
        put(&r, b"b".to_vec(), b"x".to_vec()).unwrap();
        r.flush().unwrap();
        assert_eq!(r.sstable_count(), 3);
        // The two post-snapshot tables are past the watermark: compaction
        // must leave them alone (only a 1-table prefix is eligible).
        r.compact().unwrap();
        assert_eq!(r.sstable_count(), 3);
        assert_eq!(snap.get(b"a").unwrap(), Some(b"old".to_vec()));
        assert_eq!(snap.get(b"b").unwrap(), None);
        drop(snap);
        r.compact().unwrap();
        assert_eq!(r.sstable_count(), 1);
        assert_eq!(r.get_at(b"a", LATEST).unwrap(), Some(b"new".to_vec()));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_prefix_compacted_under_a_snapshot_stays_older_after_reopen() {
        let (r, dir) = region("mvcc-compact-reopen", 1 << 20);
        let r = Arc::new(r);
        for v in [b"v1", b"v2"] {
            put(&r, b"a".to_vec(), v.to_vec()).unwrap();
            r.flush().unwrap();
        }
        let snap = r.snapshot();
        delete(&r, b"a".to_vec()).unwrap();
        r.flush().unwrap();
        // Merges the two tables the snapshot sees into the highest file
        // id; the newer tombstone table keeps its lower one.
        r.compact().unwrap();
        assert_eq!(r.sstable_count(), 2);
        drop(snap);
        assert_eq!(r.get_at(b"a", LATEST).unwrap(), None);
        drop(r);
        let r = reopen(&dir).unwrap();
        assert_eq!(
            r.get_at(b"a", LATEST).unwrap(),
            None,
            "a deleted key came back"
        );
        assert!(scan_at(&r, b"", b"\xff", LATEST).unwrap().is_empty());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn wal_replay_preserves_snapshot_sequences() {
        let (r, dir) = wal_region("mvcc-replay", 1 << 20, SyncPolicy::PerWrite);
        for i in 0..50u32 {
            put(&r, format!("k{i:03}").into_bytes(), b"v".to_vec()).unwrap();
        }
        let seq_before = r.next_seq();
        drop(r);
        let r2 = open_wal_region(&dir, 1 << 20, SyncPolicy::PerWrite);
        assert_eq!(
            r2.next_seq(),
            seq_before,
            "replay must restore the sequence"
        );
        let r2 = Arc::new(r2);
        let snap = r2.snapshot();
        put(&r2, b"k000".to_vec(), b"post".to_vec()).unwrap();
        assert_eq!(snap.get(b"k000").unwrap(), Some(b"v".to_vec()));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn sealed_region_rejects_writes_with_ownership() {
        let (r, dir) = region("sealed", 1 << 20);
        put(&r, b"a".to_vec(), b"1".to_vec()).unwrap();
        r.seal();
        assert!(r.is_sealed());
        // Handed back whole, and in order.
        let batch = vec![(b"b".to_vec(), Some(b"2".to_vec())), (b"b".to_vec(), None)];
        assert_eq!(r.try_write_batch(&mut batch.clone()).unwrap(), batch);
        assert!(matches!(
            put(&r, b"c".to_vec(), b"3".to_vec()),
            Err(KvError::RegionSealed)
        ));
        // Reads still serve.
        assert_eq!(r.get_at(b"a", LATEST).unwrap(), Some(b"1".to_vec()));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn split_into_partitions_base_and_delta() {
        let (r, dir) = region("split", 1 << 20);
        for i in 0..400u32 {
            put(
                &r,
                format!("k{i:04}").into_bytes(),
                format!("v{i}").into_bytes(),
            )
            .unwrap();
        }
        r.flush().unwrap();
        // Post-flush writes land in the delta: an overwrite, a delete
        // and a brand-new key on each side of the split point.
        put(&r, b"k0001".to_vec(), b"rewritten".to_vec()).unwrap();
        delete(&r, b"k0350".to_vec()).unwrap();
        let split_key = r.approx_split_key().expect("enough data to split");
        assert!(split_key.as_slice() > b"k0000".as_slice());
        assert!(split_key.as_slice() <= b"k0399".as_slice());
        let left_dir = dir.join("left");
        let right_dir = dir.join("right");
        r.split_into(&left_dir, &right_dir, &split_key).unwrap();
        assert!(r.is_sealed());
        let left = fixture::region(left_dir, fixture::region_opts(1 << 20));
        let right = fixture::region(right_dir, fixture::region_opts(1 << 20));
        let mut union = scan_at(&left, b"", b"\xff", LATEST).unwrap();
        let right_hits = scan_at(&right, b"", b"\xff", LATEST).unwrap();
        // Boundary discipline: left strictly below the split key.
        assert!(union
            .iter()
            .all(|e| e.key.as_slice() < split_key.as_slice()));
        assert!(right_hits
            .iter()
            .all(|e| e.key.as_slice() >= split_key.as_slice()));
        union.extend(right_hits);
        assert_eq!(union.len(), 399, "399 live keys after the delete");
        assert!(union
            .iter()
            .any(|e| e.key == b"k0001" && e.value == b"rewritten"));
        assert!(!union.iter().any(|e| e.key == b"k0350"));
        // Daughters inherit the parent's commit sequence high-water mark.
        assert_eq!(
            left.next_seq().max(right.next_seq()),
            r.next_seq(),
            "daughter sequences must continue the parent's"
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn compaction_concurrent_with_scans_returns_consistent_view() {
        // The satellite guarantee: scans racing a compaction always see
        // the full, correct dataset — never a half-compacted view.
        let (r, dir) = region("compact-race", 1 << 12);
        for round in 0..4 {
            for i in 0..400u32 {
                put(
                    &r,
                    format!("k{i:05}").into_bytes(),
                    format!("v{round}-{i}").into_bytes(),
                )
                .unwrap();
            }
            r.flush().unwrap();
        }
        let r = Arc::new(r);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let scanners: Vec<_> = (0..4)
            .map(|_| {
                let r = r.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let mut rounds = 0u32;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let hits = scan_at(&r, b"", b"\xff", LATEST).unwrap();
                        assert_eq!(hits.len(), 400, "inconsistent scan during compaction");
                        assert_eq!(hits[17].value, b"v3-17".to_vec());
                        let got = r.get_at(b"k00399", LATEST).unwrap();
                        assert_eq!(got, Some(b"v3-399".to_vec()));
                        rounds += 1;
                    }
                    rounds
                })
            })
            .collect();
        for _ in 0..5 {
            r.compact().unwrap();
            // Re-fragment so the next compaction has real work.
            for i in 0..400u32 {
                put(
                    &r,
                    format!("k{i:05}").into_bytes(),
                    format!("v3-{i}").into_bytes(),
                )
                .unwrap();
            }
            r.flush().unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for s in scanners {
            assert!(s.join().unwrap() > 0, "scanner never ran");
        }
        std::fs::remove_dir_all(dir).ok();
    }
}
