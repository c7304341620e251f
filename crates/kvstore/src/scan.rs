//! Streaming, batch-at-a-time scans with cooperative cancellation.
//!
//! This module is the store's one scan path. The materializing calls
//! ([`crate::Table::scan`], [`crate::Region::scan`], the snapshot scans)
//! are this stream drained to a `Vec`, so a `LIMIT k` or kNN consumer
//! that stops after a handful of rows and an aggregate that reads
//! everything run the same merge and record the same metrics:
//!
//! - [`ScanStream`] walks a list of key ranges region by region and
//!   yields bounded batches via [`ScanStream::next_batch`]; no more than
//!   one batch plus one decoded block per source is ever in flight.
//! - [`MergeStream`] is the per-region k-way merge — the only one in the
//!   store: a binary heap over the memtable snapshot and one lazy block
//!   iterator per SSTable, newest version wins, reading each SSTable one
//!   block at a time. Reads pull live entries from it (tombstones
//!   elided); compaction, split and merge pull every key's newest
//!   version, tombstones included, from the same merge over SSTables
//!   alone and stream it into the region's SSTable writer.
//! - [`CancelToken`] lets a satisfied consumer stop the producer
//!   mid-range: the stream re-checks the token between entries, so
//!   cancellation halts disk IO within one block's worth of work.
//!
//! Every batch increments `just_kvstore_batches_emitted` and feeds the
//! `just_kvstore_batch_bytes` histogram; a stream dropped before its
//! ranges run dry counts one `just_kvstore_scan_early_terminations` —
//! the observable signature of pushdown actually saving IO. Each scan
//! that was pulled at all records one `just_kvstore_scan_latency_us`
//! sample when it runs dry or is dropped — the time spent inside
//! [`ScanStream::next_batch`], not what the consumer did between pulls —
//! and each region merge adds the entry bytes it produced to that
//! region's `bytes_read` traffic. A scan that fails with an IO error
//! records neither a latency sample nor an early termination.
//!
//! ```
//! use just_kvstore::{ScanOptions, Store, StoreOptions};
//! let dir = std::env::temp_dir().join(format!("kv-scan-doc-{}", std::process::id()));
//! let store = Store::open(&dir, StoreOptions::default()).unwrap();
//! let table = store.create_table("demo", 4).unwrap();
//! for i in 0..100u32 {
//!     table.put(format!("k{i:04}").into_bytes(), b"v".to_vec()).unwrap();
//! }
//! let mut stream = table.scan_stream(b"k0000", b"k9999", ScanOptions::default());
//! let first_batch = stream.next_batch().unwrap().unwrap();
//! assert_eq!(first_batch[0].key, b"k0000");
//! drop(stream); // remaining ranges are never read
//! store.drop_table("demo").unwrap();
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

use crate::block::BlockEntry;
use crate::error::Result;
use crate::metrics::IoMetrics;
use crate::region::{Region, RegionTraffic, Snapshot};
use crate::sstable::SsTable;
use crate::KvEntry;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::Arc;

/// A shared flag a consumer sets to stop a [`ScanStream`] producer.
///
/// Cancellation is cooperative: the stream checks the token between
/// entries and stops fetching blocks once it is set. Clones share the
/// same flag, so the token can be handed to the consumer while the
/// stream keeps its own copy.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; idempotent.
    pub fn cancel(&self) {
        self.0.store(true, AtomicOrdering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(AtomicOrdering::Relaxed)
    }
}

/// Tuning for one streaming scan.
#[derive(Debug, Clone)]
pub struct ScanOptions {
    /// Maximum entries per batch from [`ScanStream::next_batch`]; bounds
    /// the consumer-visible in-flight memory.
    pub batch_rows: usize,
    /// Cancellation flag shared with the consumer.
    pub cancel: CancelToken,
}

impl Default for ScanOptions {
    fn default() -> Self {
        ScanOptions {
            batch_rows: 1024,
            cancel: CancelToken::new(),
        }
    }
}

/// Lazy in-order iterator over one SSTable's entries in `[start, end]`,
/// decoding one block per refill instead of the whole range.
struct SstRangeIter {
    table: Arc<SsTable>,
    start: Vec<u8>,
    end: Vec<u8>,
    /// Next block index to fetch.
    next_block: usize,
    /// The first fetched block seeks to `start`; later blocks begin past
    /// it by construction. Also marks the fetch as a disk seek.
    first: bool,
    buffered: std::vec::IntoIter<BlockEntry>,
    done: bool,
    /// Per-region attribution for every block this iterator decodes.
    traffic: Arc<RegionTraffic>,
}

impl SstRangeIter {
    fn new(table: Arc<SsTable>, start: &[u8], end: &[u8], traffic: Arc<RegionTraffic>) -> Self {
        let done = if table.overlaps(start, end) {
            false
        } else {
            // Pruned by the min/max fence.
            table.metrics().record_index_skip();
            true
        };
        let next_block = if done { 0 } else { table.seek_block(start) };
        SstRangeIter {
            table,
            start: start.to_vec(),
            end: end.to_vec(),
            next_block,
            first: true,
            buffered: Vec::new().into_iter(),
            done,
            traffic,
        }
    }

    fn next(&mut self) -> Result<Option<BlockEntry>> {
        loop {
            if let Some(entry) = self.buffered.next() {
                if entry.key.as_slice() > self.end.as_slice() {
                    self.done = true;
                    self.buffered = Vec::new().into_iter();
                    return Ok(None);
                }
                return Ok(Some(entry));
            }
            if self.done
                || self.next_block >= self.table.block_count()
                || self.table.block_first_key(self.next_block) > self.end.as_slice()
            {
                self.done = true;
                return Ok(None);
            }
            let block = self.table.read_block(self.next_block, self.first)?;
            self.traffic.record_scan_block();
            let iter = if self.first {
                block.seek_iter(&self.start)
            } else {
                block.iter()
            };
            // Decode up to the first entry past `end` (which ends the
            // range above), not to the end of the block: a narrow range
            // pays for the entries it yields, not for a block's worth.
            let mut entries = Vec::new();
            for entry in iter {
                let past = entry.key.as_slice() > self.end.as_slice();
                entries.push(entry);
                if past {
                    break;
                }
            }
            self.first = false;
            self.next_block += 1;
            self.buffered = entries.into_iter();
        }
    }
}

enum SourceKind {
    /// Owned memtable snapshot (already range-restricted and sorted).
    Mem(std::vec::IntoIter<BlockEntry>),
    Sst(SstRangeIter),
}

/// One sorted input of a [`MergeStream`] — a memtable snapshot or a lazy
/// SSTable range iterator. Constructed by [`Region::scan_stream`].
pub struct ScanSource(SourceKind);

impl ScanSource {
    pub(crate) fn mem(entries: Vec<BlockEntry>) -> Self {
        ScanSource(SourceKind::Mem(entries.into_iter()))
    }

    pub(crate) fn sstable(
        table: Arc<SsTable>,
        start: &[u8],
        end: &[u8],
        traffic: Arc<RegionTraffic>,
    ) -> Self {
        ScanSource(SourceKind::Sst(SstRangeIter::new(
            table, start, end, traffic,
        )))
    }

    pub(crate) fn next(&mut self) -> Result<Option<BlockEntry>> {
        match &mut self.0 {
            SourceKind::Mem(it) => Ok(it.next()),
            SourceKind::Sst(it) => it.next(),
        }
    }
}

struct HeapItem {
    entry: BlockEntry,
    source: usize,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.entry.key == other.entry.key && self.source == other.source
    }
}
impl Eq for HeapItem {}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap on (key, source): the smallest key wins,
        // ties broken by newest (lowest) source index.
        other
            .entry
            .key
            .cmp(&self.entry.key)
            .then(other.source.cmp(&self.source))
    }
}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A pull-based k-way merge over one region's layers (memtable newest,
/// then SSTables newest→oldest), yielding live entries in key order with
/// newest-wins shadowing and tombstone elision.
pub struct MergeStream {
    sources: Vec<ScanSource>,
    heap: BinaryHeap<HeapItem>,
    last_key: Option<Vec<u8>>,
    /// The heap is primed on first pull, not at construction, so
    /// building a stream does no IO (and a cancelled-before-start
    /// stream never touches disk).
    primed: bool,
    /// Key+value bytes of the live entries produced so far, added to the
    /// region's `bytes_read` once, when the stream drops.
    bytes: u64,
    traffic: Arc<RegionTraffic>,
}

impl MergeStream {
    pub(crate) fn new(sources: Vec<ScanSource>, traffic: Arc<RegionTraffic>) -> Self {
        MergeStream {
            sources,
            heap: BinaryHeap::new(),
            last_key: None,
            primed: false,
            bytes: 0,
            traffic,
        }
    }

    /// The newest version of the next key, tombstones included (`value`
    /// is `None`), or `None` when the range is drained. Reads pull
    /// through [`MergeStream::next_live`]; flush-side rewrites
    /// (compaction, split, merge) pull this directly, because whether a
    /// tombstone may be dropped depends on what the rewrite covers.
    pub(crate) fn next_version(&mut self) -> Result<Option<BlockEntry>> {
        if !self.primed {
            self.primed = true;
            for i in 0..self.sources.len() {
                if let Some(entry) = self.sources[i].next()? {
                    self.heap.push(HeapItem { entry, source: i });
                }
            }
        }
        while let Some(top) = self.heap.pop() {
            if let Some(entry) = self.sources[top.source].next()? {
                self.heap.push(HeapItem {
                    entry,
                    source: top.source,
                });
            }
            if self.last_key.as_deref() == Some(top.entry.key.as_slice()) {
                // A newer source already produced this key.
                continue;
            }
            self.last_key = Some(top.entry.key.clone());
            return Ok(Some(top.entry));
        }
        Ok(None)
    }

    /// The next live entry, or `None` when the region range is drained:
    /// the newest version of each key, minus the tombstones.
    pub fn next_live(&mut self) -> Result<Option<KvEntry>> {
        while let Some(BlockEntry { key, value }) = self.next_version()? {
            if let Some(value) = value {
                self.bytes += (key.len() + value.len()) as u64;
                return Ok(Some(KvEntry { key, value }));
            }
        }
        Ok(None)
    }
}

impl Drop for MergeStream {
    fn drop(&mut self) {
        self.traffic.record_scan_bytes(self.bytes);
    }
}

/// A queued scan range: (region, start, end, snapshot seq).
pub(crate) type PendingRange = (Arc<Region>, Vec<u8>, Vec<u8>, u64);

/// A streaming multi-range scan over a [`crate::Table`].
///
/// Ranges are visited in the order given (entries within a range in key
/// order); regions within a range are visited low to high, which is key
/// order because regions partition by leading byte. Construction does no
/// IO — the first block is read when the first batch is pulled.
///
/// Dropping the stream before it runs dry (or cancelling its token)
/// counts one early termination; the un-read remainder of the ranges is
/// never fetched from disk. Either way a stream that was pulled records
/// one `just_kvstore_scan_latency_us` sample: the time spent inside
/// [`ScanStream::next_batch`], summed over its pulls.
pub struct ScanStream {
    /// (region, start, end, snapshot seq) work items, front first. The
    /// seq is [`crate::LATEST`] for plain scans; snapshot scans pin each
    /// region's read sequence at construction, so a range entered after
    /// an online split still reads the pre-split cut through `pins`.
    pending: VecDeque<PendingRange>,
    current: Option<MergeStream>,
    batch_rows: usize,
    cancel: CancelToken,
    metrics: Arc<IoMetrics>,
    /// Snapshot registrations kept alive for the stream's lifetime —
    /// they hold the regions' held generations (and the region `Arc`s
    /// themselves) until every pending range has been served.
    _pins: Vec<Arc<Snapshot>>,
    /// Ran dry naturally — distinguishes exhaustion from early drop.
    exhausted: bool,
    /// Produced at least one pull; a stream that was never used is not
    /// an "early termination" in any meaningful sense.
    pulled: bool,
    /// A pull returned an error; the scan is over and records nothing.
    failed: bool,
    /// Time spent inside `next_batch` so far (store time, not consumer
    /// time between pulls).
    busy: std::time::Duration,
}

impl ScanStream {
    pub(crate) fn new(
        pending: VecDeque<PendingRange>,
        opts: ScanOptions,
        metrics: Arc<IoMetrics>,
    ) -> Self {
        Self::pinned(pending, opts, metrics, Vec::new())
    }

    pub(crate) fn pinned(
        pending: VecDeque<PendingRange>,
        opts: ScanOptions,
        metrics: Arc<IoMetrics>,
        pins: Vec<Arc<Snapshot>>,
    ) -> Self {
        ScanStream {
            pending,
            current: None,
            batch_rows: opts.batch_rows.max(1),
            cancel: opts.cancel,
            metrics,
            _pins: pins,
            exhausted: false,
            pulled: false,
            failed: false,
            busy: std::time::Duration::ZERO,
        }
    }

    /// The stream's cancellation token (clone it into the consumer).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Pulls the next bounded batch of live entries; `Ok(None)` when the
    /// ranges are exhausted or the token was cancelled. A final partial
    /// batch may be shorter than `batch_rows`.
    pub fn next_batch(&mut self) -> Result<Option<Vec<KvEntry>>> {
        if self.exhausted || self.failed {
            return Ok(None);
        }
        self.pulled = true;
        let started = std::time::Instant::now();
        let batch = self.fill_batch();
        self.busy += started.elapsed();
        match batch {
            Ok(batch) => {
                if self.exhausted {
                    self.metrics.record_scan_latency(self.busy);
                }
                Ok(batch)
            }
            Err(e) => {
                self.failed = true;
                Err(e)
            }
        }
    }

    fn fill_batch(&mut self) -> Result<Option<Vec<KvEntry>>> {
        let mut batch = Vec::with_capacity(self.batch_rows);
        let mut bytes = 0u64;
        while batch.len() < self.batch_rows {
            if self.cancel.is_cancelled() {
                break;
            }
            let stream = match &mut self.current {
                Some(s) => s,
                None => match self.pending.pop_front() {
                    Some((region, start, end, snap)) => {
                        self.current = Some(region.scan_stream_at(&start, &end, snap));
                        self.current.as_mut().expect("just set")
                    }
                    None => {
                        self.exhausted = true;
                        break;
                    }
                },
            };
            match stream.next_live()? {
                Some(entry) => {
                    bytes += (entry.key.len() + entry.value.len()) as u64;
                    batch.push(entry);
                }
                None => self.current = None,
            }
        }
        if batch.is_empty() {
            return Ok(None);
        }
        self.metrics.record_batch_emitted(bytes);
        Ok(Some(batch))
    }

    /// Pulls every remaining batch into one vector — the materializing
    /// scans are exactly this.
    pub(crate) fn drain(mut self) -> Result<Vec<KvEntry>> {
        let mut out = Vec::new();
        while let Some(batch) = self.next_batch()? {
            out.extend(batch);
        }
        Ok(out)
    }
}

impl Drop for ScanStream {
    fn drop(&mut self) {
        if self.pulled && !self.exhausted && !self.failed {
            self.metrics.record_scan_early_termination();
            self.metrics.record_scan_latency(self.busy);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(key: &str, value: Option<&str>) -> BlockEntry {
        BlockEntry {
            key: key.as_bytes().to_vec(),
            value: value.map(|v| v.as_bytes().to_vec()),
        }
    }

    /// Drains a [`MergeStream`] over in-memory sources (index 0 = newest).
    fn drain(sources: Vec<Vec<BlockEntry>>) -> Vec<KvEntry> {
        let sources = sources.into_iter().map(ScanSource::mem).collect();
        let mut stream = MergeStream::new(sources, Arc::new(RegionTraffic::default()));
        let mut out = Vec::new();
        while let Some(entry) = stream.next_live().unwrap() {
            out.push(entry);
        }
        out
    }

    #[test]
    fn newest_version_wins() {
        let newest = vec![e("a", Some("new")), e("c", Some("c1"))];
        let oldest = vec![e("a", Some("old")), e("b", Some("b0"))];
        let merged = drain(vec![newest, oldest]);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged[0].value, b"new");
        assert_eq!(merged[1].key, b"b");
        assert_eq!(merged[2].key, b"c");
    }

    #[test]
    fn tombstones_shadow_older_values() {
        let newest = vec![e("a", None)];
        let oldest = vec![e("a", Some("old")), e("b", Some("b0"))];
        let merged = drain(vec![newest, oldest]);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].key, b"b");
    }

    #[test]
    fn next_version_keeps_the_newest_tombstone() {
        let newest = vec![e("a", None)];
        let oldest = vec![e("a", Some("old")), e("b", Some("b0"))];
        let sources = vec![ScanSource::mem(newest), ScanSource::mem(oldest)];
        let mut stream = MergeStream::new(sources, Arc::new(RegionTraffic::default()));
        assert_eq!(stream.next_version().unwrap(), Some(e("a", None)));
        assert_eq!(stream.next_version().unwrap(), Some(e("b", Some("b0"))));
        assert_eq!(stream.next_version().unwrap(), None);
    }

    #[test]
    fn three_way_interleave_stays_sorted() {
        let s0 = vec![e("b", Some("0"))];
        let s1 = vec![e("a", Some("1")), e("d", Some("1"))];
        let s2 = vec![e("c", Some("2")), e("e", Some("2"))];
        let merged = drain(vec![s0, s1, s2]);
        let keys: Vec<_> = merged.iter().map(|x| x.key.clone()).collect();
        assert_eq!(
            keys,
            vec![
                b"a".to_vec(),
                b"b".to_vec(),
                b"c".to_vec(),
                b"d".to_vec(),
                b"e".to_vec()
            ]
        );
    }

    #[test]
    fn empty_sources() {
        assert!(drain(vec![]).is_empty());
        assert!(drain(vec![vec![], vec![]]).is_empty());
    }
}
