//! Streaming, batch-at-a-time scans with cooperative cancellation.
//!
//! This module is the store's one scan path, and every scan reads at a
//! snapshot: [`crate::TableSnapshot::scan_ranges_stream`] opens it, and
//! the materializing [`crate::TableSnapshot::scan`] is this stream
//! drained to a `Vec`, so a `LIMIT k` or kNN consumer that stops after a
//! handful of rows and an aggregate that reads everything run the same
//! merge and record the same metrics:
//!
//! - [`ScanStream`] walks a list of key ranges region by region, each
//!   range at its region's snapshot sequence, and refills one
//!   [`KvBatch`] per pull — one byte buffer plus offsets,
//!   reused for the life of the stream — which
//!   [`ScanStream::next_batch`] lends to the consumer. In flight are
//!   that one arena batch plus one shared cached block per source.
//! - A region is captured once per stream, on the first range that
//!   enters it: one lock round copies each memtable layer's slices of
//!   every range still to cross the region, one arena per slice, and
//!   takes the SSTable handles, and opens the region's one
//!   [`MergeStream`]. Each range there re-seeks that merge
//!   ([`MergeStream::reseek`]): the memtable sources step to their next
//!   slice, and an SSTable walk whose held block covers the new start
//!   seeks inside it — no cache lookup, no index search, and no search
//!   at all when the last range stopped on an entry at or past the new
//!   start — or else jumps by the index. A scan of many
//!   small ranges so pays the merge's setup once per region, not once
//!   per range (`just_kvstore_scan_merges` counts the merges).
//! - [`MergeStream`] is the per-region k-way merge — the only one in the
//!   store: a binary heap of source indices, ordered by the keys the
//!   sources currently lend, over the memtable layers' slices and one
//!   block cursor per SSTable, newest version wins.
//!   No entry is copied or allocated inside the merge; the batch copies
//!   each live entry once. Reads pull live entries from it (tombstones
//!   elided); compaction, split and merge step through every key's
//!   newest version, tombstones included, of the same merge over
//!   SSTables alone and add each straight to the region's SSTable
//!   writer.
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
//! let range = vec![(b"k0000".to_vec(), b"k9999".to_vec())];
//! let mut stream = table.snapshot().scan_ranges_stream(range, ScanOptions::default());
//! let first_batch = stream.next_batch().unwrap().unwrap();
//! assert_eq!(first_batch.iter().next(), Some((&b"k0000"[..], &b"v"[..])));
//! drop(stream); // remaining ranges are never read
//! store.drop_table("demo").unwrap();
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

use crate::block::BlockCursor;
use crate::error::Result;
use crate::memtable::MemTable;
use crate::metrics::IoMetrics;
use crate::region::{RegionTraffic, Snapshot};
use crate::sstable::SsTable;
use crate::KvEntry;
use std::collections::VecDeque;
use std::ops::RangeInclusive;
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

/// Entry bytes past which a batch stops filling, so that its buffer
/// stays within 64 KiB of heap (entries of a few hundred bytes) however
/// many rows [`ScanOptions::batch_rows`] allows.
const BATCH_BYTES: usize = 48 << 10;

/// Tuning for one streaming scan.
#[derive(Debug, Clone)]
pub struct ScanOptions {
    /// Maximum entries per batch from [`ScanStream::next_batch`] (a
    /// batch also stops at 48 KiB of entry bytes); bounds the
    /// consumer-visible in-flight memory.
    pub batch_rows: usize,
    /// Cancellation flag shared with the consumer.
    pub cancel: CancelToken,
    /// Whether blocks read from disk enter the block cache (the default).
    /// A scan that reads a whole key family reads each block once and
    /// passes `false`, as rewrites do, so it neither evicts the blocks
    /// window queries reuse nor fills the cache with its own.
    pub fill_cache: bool,
}

impl Default for ScanOptions {
    fn default() -> Self {
        ScanOptions {
            batch_rows: 1024,
            cancel: CancelToken::new(),
            fill_cache: true,
        }
    }
}

/// Entries packed into one byte buffer: what [`ScanStream::next_batch`]
/// lends, refilled in place on every pull, and what a memtable layer
/// snapshots a scan range into.
///
/// [`KvBatch::iter`] borrows the entries. Iterating `&KvBatch` itself
/// copies each one out as an owned [`KvEntry`], which is what the
/// materializing scans do.
#[derive(Debug, Default)]
pub struct KvBatch {
    bytes: Vec<u8>,
    /// Per entry: where its key starts, where the key ends and the value
    /// starts, and where the value ends (`None` for a tombstone, which
    /// only memtable snapshots hold).
    spans: Vec<(usize, usize, Option<usize>)>,
}

impl KvBatch {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the batch holds no entry.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The `(key, value)` pairs, in order, borrowed from the batch.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&[u8], &[u8])> + '_ {
        (0..self.len()).map(|i| {
            let (key, value) = self.entry(i);
            (key, value.unwrap_or_default())
        })
    }

    /// Entry `i`; a `None` value marks a tombstone.
    fn entry(&self, i: usize) -> (&[u8], Option<&[u8]>) {
        let (key, value, end) = self.spans[i];
        let bytes = &self.bytes;
        (&bytes[key..value], end.map(|end| &bytes[value..end]))
    }

    /// Appends an entry; a `None` value is a tombstone.
    pub(crate) fn push(&mut self, key: &[u8], value: Option<&[u8]>) {
        let start = self.bytes.len();
        self.bytes.extend_from_slice(key);
        let value_start = self.bytes.len();
        let end = value.map(|v| {
            self.bytes.extend_from_slice(v);
            self.bytes.len()
        });
        self.spans.push((start, value_start, end));
    }

    fn clear(&mut self) {
        self.bytes.clear();
        self.spans.clear();
    }
}

/// An entry copied out of a batch or a merge.
pub(crate) fn owned((key, value): (&[u8], &[u8])) -> KvEntry {
    KvEntry {
        key: key.to_vec(),
        value: value.to_vec(),
    }
}

impl IntoIterator for &KvBatch {
    type Item = KvEntry;
    type IntoIter = std::vec::IntoIter<KvEntry>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter().map(owned).collect::<Vec<_>>().into_iter()
    }
}

/// Lazy in-order walk of one SSTable's entries in a key range: a cursor
/// over one cached block at a time, fetching the next block only when the
/// range runs past the current one. [`SstRangeIter::reseek`] moves it
/// onto another range; the block it holds stays, so a range that starts
/// inside that block seeks there and reads no block at all.
pub(crate) struct SstRangeIter {
    table: Arc<SsTable>,
    /// Next block index to fetch.
    next_block: usize,
    /// The block last fetched (its index is `held`); `None` until the
    /// first fetch.
    cursor: Option<BlockCursor>,
    held: usize,
    /// The next block fetched is the range's first and seeks to its
    /// start (later blocks begin past it by construction).
    seek: bool,
    /// The cursor already sits on the range's first entry, not yet
    /// yielded: a re-seek inside the held block.
    positioned: bool,
    /// The last range ended on the cursor's entry, the first past its
    /// end: every entry before it is at or below that end.
    past_end: bool,
    done: bool,
    /// Per-region attribution for every block this iterator reads.
    traffic: Arc<RegionTraffic>,
    /// Whether a block read from disk enters the block cache (see
    /// [`SsTable::read_block`]).
    fill_cache: bool,
}

impl SstRangeIter {
    /// A walk over no range yet: [`SstRangeIter::reseek`] gives it one.
    pub(crate) fn new(table: Arc<SsTable>, traffic: Arc<RegionTraffic>, fill_cache: bool) -> Self {
        SstRangeIter {
            table,
            next_block: 0,
            cursor: None,
            held: 0,
            seek: true,
            positioned: false,
            past_end: false,
            done: true,
            traffic,
            fill_cache,
        }
    }

    /// Moves the walk onto `[start, end]`, before its first entry. A
    /// held block that covers `start` is searched in place — not at all
    /// when the last range, ending at `last_end` below `start`, stopped
    /// on an entry at or past `start` — otherwise the index picks the
    /// block and the next pull reads it. Does no IO.
    fn reseek(&mut self, start: &[u8], end: &[u8], last_end: &[u8]) {
        let past_end = std::mem::take(&mut self.past_end);
        self.positioned = false;
        self.done = !self.table.overlaps(start, end);
        if self.done {
            // Pruned by the min/max fence.
            self.table.metrics().record_index_skip();
            return;
        }
        let table = &self.table;
        let held = self.held;
        let covers = (held == 0 || table.block_first_key(held) <= start)
            && (held + 1 == table.block_count() || start < table.block_first_key(held + 1));
        match &mut self.cursor {
            Some(cursor) if covers => {
                // When the held block holds nothing at or past `start`,
                // the next block begins past it and needs no seek.
                self.positioned =
                    past_end && last_end < start && cursor.key() >= start || cursor.seek(start);
                self.next_block = held + 1;
                self.seek = false;
            }
            _ => {
                self.next_block = table.seek_block(start);
                self.seek = true;
            }
        }
    }

    /// Moves onto the next entry of `[start, end]`; `false` once the range
    /// is past. Decodes up to the first entry past `end`, not to the end
    /// of its block: a narrow range pays for the entries it yields.
    fn advance(&mut self, start: &[u8], end: &[u8]) -> Result<bool> {
        while !self.done {
            if std::mem::take(&mut self.positioned)
                || (!self.seek && self.cursor.as_mut().is_some_and(BlockCursor::next))
            {
                return Ok(self.within(end));
            }
            if self.next_block >= self.table.block_count()
                || self.table.block_first_key(self.next_block) > end
            {
                self.done = true;
                break;
            }
            let block = self
                .table
                .read_block(self.next_block, self.seek, self.fill_cache)?;
            self.traffic.record_scan_block();
            self.held = self.next_block;
            self.next_block += 1;
            match &mut self.cursor {
                Some(cursor) => cursor.reset(block),
                None => self.cursor = Some(BlockCursor::new(block)),
            }
            if std::mem::take(&mut self.seek) && self.cursor.as_mut().is_some_and(|c| c.seek(start))
            {
                return Ok(self.within(end));
            }
        }
        Ok(false)
    }

    /// Whether the entry just reached is still in the range (ends the
    /// walk when not).
    fn within(&mut self, end: &[u8]) -> bool {
        self.done = self.cursor().key() > end;
        self.past_end = self.done;
        !self.done
    }

    fn cursor(&self) -> &BlockCursor {
        self.cursor.as_ref().expect("positioned on an entry")
    }
}

/// One sorted input of a [`MergeStream`]: a memtable layer's slices, or
/// a lazy SSTable range walk.
pub(crate) enum ScanSource {
    /// The layer's slices of the ranges a stream reads in one region,
    /// copied in one pass, in visiting order; the current range's slice
    /// (each drops once its range is left); and the index of the entry
    /// after the current one.
    Mem(std::vec::IntoIter<KvBatch>, KvBatch, usize),
    Sst(SstRangeIter),
}

impl ScanSource {
    /// Copies `mem`'s entries visible at `snap` in each of `ranges`.
    pub(crate) fn mem<'a>(
        mem: &MemTable,
        ranges: impl Iterator<Item = (&'a [u8], &'a [u8])>,
        snap: u64,
    ) -> Self {
        let copy = |(start, end)| {
            let mut slice = KvBatch::default();
            for (key, value) in mem.scan(start, end, snap) {
                slice.push(key, value);
            }
            slice
        };
        let slices = ranges.map(copy).collect::<Vec<_>>();
        ScanSource::Mem(slices.into_iter(), KvBatch::default(), 0)
    }

    /// Moves onto the next range, before its first entry: a memtable
    /// layer onto its next slice (each in key order, one version per
    /// key, as a memtable scan yields them), an SSTable walk onto
    /// `[start, end]`.
    fn reseek(&mut self, start: &[u8], end: &[u8], last_end: &[u8]) {
        match self {
            ScanSource::Mem(slices, current, next) => {
                *current = slices.next().unwrap_or_default();
                *next = 0;
            }
            ScanSource::Sst(it) => it.reseek(start, end, last_end),
        }
    }

    /// Moves onto the next entry of `[start, end]`; `false` when drained.
    fn advance(&mut self, start: &[u8], end: &[u8]) -> Result<bool> {
        match self {
            ScanSource::Mem(_, current, next) => {
                *next += 1;
                Ok(*next <= current.len())
            }
            ScanSource::Sst(it) => it.advance(start, end),
        }
    }

    /// The current entry; a `None` value marks a tombstone.
    fn entry(&self) -> (&[u8], Option<&[u8]>) {
        match self {
            ScanSource::Mem(_, current, next) => current.entry(*next - 1),
            ScanSource::Sst(it) => (it.cursor().key(), it.cursor().value()),
        }
    }
}

/// A pull-based k-way merge over one region's layers (memtable newest,
/// then SSTables newest→oldest), yielding live entries in key order with
/// newest-wins shadowing and tombstone elision. Entries are lent, not
/// copied: each is borrowed from its source until the next pull. It
/// merges one range at a time; [`MergeStream::reseek`] moves every
/// source onto the next, so a scan of many ranges in one region sets up
/// one merge.
pub(crate) struct MergeStream {
    sources: Vec<ScanSource>,
    /// The sources positioned on an entry, as a binary min-heap on
    /// (current key, source index): the smallest key on top, the newest
    /// source first among equal keys. The top is the version last
    /// stepped onto.
    heap: Vec<usize>,
    /// The current range: SSTable sources seek to `start` and stop past
    /// `end`. Buffers reused from range to range.
    start: Vec<u8>,
    end: Vec<u8>,
    /// The key last stepped onto, whose older versions the next step
    /// skips; one buffer, reused, and written only while another source
    /// is left to hold such versions.
    last_key: Vec<u8>,
    /// The heap is primed on a range's first pull, not at its reseek,
    /// so entering a range does no IO (and a cancelled-before-start
    /// stream never touches disk).
    primed: bool,
    /// Key+value bytes of the live entries produced so far, added to the
    /// region's `bytes_read` once, when the stream drops.
    bytes: u64,
    traffic: Arc<RegionTraffic>,
}

impl MergeStream {
    /// A merge over `sources` (newest first), positioned on no range:
    /// it yields nothing until [`MergeStream::reseek`].
    pub(crate) fn new(sources: Vec<ScanSource>, traffic: Arc<RegionTraffic>) -> Self {
        MergeStream {
            heap: Vec::with_capacity(sources.len()),
            sources,
            start: Vec::new(),
            end: Vec::new(),
            last_key: Vec::new(),
            primed: true,
            bytes: 0,
            traffic,
        }
    }

    /// Moves every source onto `[start, end]` (a memtable layer onto its
    /// next slice): the next pull yields the range's first entry.
    pub(crate) fn reseek(&mut self, start: &[u8], end: &[u8]) {
        for source in &mut self.sources {
            source.reseek(start, end, &self.end);
        }
        self.start.clear();
        self.start.extend_from_slice(start);
        self.end.clear();
        self.end.extend_from_slice(end);
        self.heap.clear();
        self.primed = false;
    }

    fn less(&self, a: usize, b: usize) -> bool {
        (self.sources[a].entry().0, a) < (self.sources[b].entry().0, b)
    }

    fn sift_down(&mut self, mut at: usize) {
        loop {
            let mut min = at;
            for child in [2 * at + 1, 2 * at + 2] {
                if child < self.heap.len() && self.less(self.heap[child], self.heap[min]) {
                    min = child;
                }
            }
            if min == at {
                return;
            }
            self.heap.swap(at, min);
            at = min;
        }
    }

    /// Advances the top source and restores the heap, dropping the
    /// source once it is drained.
    fn advance_top(&mut self) -> Result<()> {
        if !self.sources[self.heap[0]].advance(&self.start, &self.end)? {
            self.heap.swap_remove(0);
        }
        self.sift_down(0);
        Ok(())
    }

    /// Moves onto the newest version of the next key, tombstones
    /// included; `false` when the range is drained. Reads pull through
    /// [`MergeStream::next_live`]; flush-side rewrites (compaction,
    /// split, merge) step directly and read [`MergeStream::current`],
    /// because whether a tombstone may be dropped depends on what the
    /// rewrite covers.
    pub(crate) fn step(&mut self) -> Result<bool> {
        if !self.primed {
            self.primed = true;
            for i in 0..self.sources.len() {
                if self.sources[i].advance(&self.start, &self.end)? {
                    self.heap.push(i);
                }
            }
            for at in (0..self.heap.len() / 2).rev() {
                self.sift_down(at);
            }
        } else if !self.heap.is_empty() {
            // Past the version last stepped onto, and past every older
            // version of its key — which only another source can hold.
            let shadowed = self.heap.len() > 1;
            self.advance_top()?;
            while shadowed && self.current().is_some_and(|(key, _)| key == self.last_key) {
                self.advance_top()?;
            }
        }
        let Some(&top) = self.heap.first() else {
            return Ok(false);
        };
        if self.heap.len() > 1 {
            self.last_key.clear();
            self.last_key.extend_from_slice(self.sources[top].entry().0);
        }
        Ok(true)
    }

    /// The version [`MergeStream::step`] moved onto — a `None` value is a
    /// tombstone — or `None` when the range is drained.
    pub(crate) fn current(&self) -> Option<(&[u8], Option<&[u8]>)> {
        self.heap.first().map(|&top| self.sources[top].entry())
    }

    /// The next live entry, or `None` when the region range is drained:
    /// the newest version of each key, minus the tombstones.
    pub(crate) fn next_live(&mut self) -> Result<Option<(&[u8], &[u8])>> {
        let bytes = loop {
            if !self.step()? {
                return Ok(None);
            }
            if let Some((key, Some(value))) = self.current() {
                break key.len() + value.len();
            }
        };
        self.bytes += bytes as u64;
        Ok(self.current().and_then(|(key, value)| Some((key, value?))))
    }
}

impl Drop for MergeStream {
    fn drop(&mut self) {
        self.traffic.record_scan_bytes(self.bytes);
    }
}

/// A scan range, moved in from the caller, and the span of regions it
/// crosses (indices into the stream's regions, visited low to high).
pub(crate) struct PendingRange {
    pub(crate) start: Vec<u8>,
    pub(crate) end: Vec<u8>,
    pub(crate) span: RangeInclusive<usize>,
}

/// One region of a [`ScanStream`]'s table.
#[derive(Default)]
pub(crate) enum RegionScan {
    /// No range crosses it.
    #[default]
    Idle,
    /// Pinned at its snapshot until the stream first enters it, and
    /// whether its blocks may fill the cache.
    Pinned(Arc<Snapshot>, bool),
    /// The one merge every range there reads.
    Open(MergeStream),
}

impl RegionScan {
    /// Enters region `index` for the front of `ranges`. The first visit
    /// captures the region's layers for every range still to cross it,
    /// in visiting order, and drops the pin: the merge holds the layers.
    fn enter(&mut self, index: usize, ranges: &VecDeque<PendingRange>) {
        if let RegionScan::Pinned(snap, fill) = self {
            let crossing = ranges
                .iter()
                .filter(|r| r.span.contains(&index))
                .map(|r| (&r.start[..], &r.end[..]));
            let merge = snap.region().scan_stream_at(crossing, snap.seq(), *fill);
            *self = RegionScan::Open(merge);
        }
        if let RegionScan::Open(merge) = self {
            merge.reseek(&ranges[0].start, &ranges[0].end);
        }
    }
}

/// A streaming multi-range scan at a [`crate::TableSnapshot`].
///
/// Ranges are visited in the order given (entries within a range in key
/// order); regions within a range are visited low to high, which is key
/// order because regions partition the keyspace in order. Each region a
/// range crosses stays pinned at its snapshot until the stream first
/// enters it; there it captures the region's layers for all the ranges
/// still to cross it, at once, and opens the one merge that every one of
/// them re-seeks. So every range reads the one cut the stream was opened
/// at. Construction does no IO — the first block is read when the first
/// batch is pulled.
///
/// Dropping the stream before it runs dry (or cancelling its token)
/// counts one early termination; the un-read remainder of the ranges is
/// never fetched from disk. Either way a stream that was pulled records
/// one `just_kvstore_scan_latency_us` sample: the time spent inside
/// [`ScanStream::next_batch`], summed over its pulls.
pub struct ScanStream {
    /// Ranges not yet run dry, front first.
    ranges: VecDeque<PendingRange>,
    /// The table's regions, in key order.
    regions: Vec<RegionScan>,
    /// The region the front range is reading; `None` before it enters
    /// its first.
    at: Option<usize>,
    batch_rows: usize,
    cancel: CancelToken,
    metrics: Arc<IoMetrics>,
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
    /// The batch `next_batch` lends, refilled in place on every pull.
    batch: KvBatch,
}

impl ScanStream {
    pub(crate) fn new(
        ranges: VecDeque<PendingRange>,
        regions: Vec<RegionScan>,
        opts: ScanOptions,
        metrics: Arc<IoMetrics>,
    ) -> Self {
        ScanStream {
            ranges,
            regions,
            at: None,
            batch_rows: opts.batch_rows.max(1),
            cancel: opts.cancel,
            metrics,
            exhausted: false,
            pulled: false,
            failed: false,
            busy: std::time::Duration::ZERO,
            batch: KvBatch::default(),
        }
    }

    /// The stream's cancellation token (clone it into the consumer).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Refills the stream's batch with the next live entries and lends it;
    /// `Ok(None)` when the ranges are exhausted or the token was
    /// cancelled. A final partial batch may be shorter than `batch_rows`.
    pub fn next_batch(&mut self) -> Result<Option<&KvBatch>> {
        if self.exhausted || self.failed {
            return Ok(None);
        }
        self.pulled = true;
        let started = std::time::Instant::now();
        let filled = self.fill_batch();
        self.busy += started.elapsed();
        match filled {
            Ok(()) => {
                if self.exhausted {
                    self.metrics.record_scan_latency(self.busy);
                }
                Ok((!self.batch.is_empty()).then_some(&self.batch))
            }
            Err(e) => {
                self.failed = true;
                Err(e)
            }
        }
    }

    fn fill_batch(&mut self) -> Result<()> {
        self.batch.clear();
        while self.batch.len() < self.batch_rows && self.batch.bytes.len() < BATCH_BYTES {
            if self.cancel.is_cancelled() {
                break;
            }
            let Some(range) = self.ranges.front() else {
                self.exhausted = true;
                break;
            };
            let (region, last) = (self.at.unwrap_or(*range.span.start()), *range.span.end());
            if self.at.replace(region).is_none() {
                self.regions[region].enter(region, &self.ranges);
            }
            let RegionScan::Open(merge) = &mut self.regions[region] else {
                unreachable!("a region a range crosses is pinned until entered");
            };
            if let Some((key, value)) = merge.next_live()? {
                self.batch.push(key, Some(value));
            } else if region < last {
                self.at = Some(region + 1);
                self.regions[region + 1].enter(region + 1, &self.ranges);
            } else {
                self.ranges.pop_front();
                self.at = None;
            }
        }
        if !self.batch.is_empty() {
            self.metrics
                .record_batch_emitted(self.batch.bytes.len() as u64);
        }
        Ok(())
    }

    /// Pulls every remaining batch into one vector — the materializing
    /// scans are exactly this, copying each entry out of the batch.
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

    /// A memtable-layer source of one slice.
    fn slice(entries: KvBatch) -> ScanSource {
        ScanSource::Mem(vec![entries].into_iter(), KvBatch::default(), 0)
    }

    /// One memtable-layer source (`None` values are tombstones).
    fn mem(entries: &[(&str, Option<&str>)]) -> ScanSource {
        let mut batch = KvBatch::default();
        for (key, value) in entries {
            batch.push(key.as_bytes(), value.map(str::as_bytes));
        }
        slice(batch)
    }

    fn merge(sources: Vec<ScanSource>) -> MergeStream {
        let mut merge = MergeStream::new(sources, Default::default());
        merge.reseek(b"", b"");
        merge
    }

    /// Drains a [`MergeStream`] over in-memory sources (index 0 = newest).
    fn drain(sources: Vec<ScanSource>) -> Vec<(String, String)> {
        let mut stream = merge(sources);
        let mut out = Vec::new();
        while let Some((key, value)) = stream.next_live().unwrap() {
            let text = |b: &[u8]| String::from_utf8(b.to_vec()).unwrap();
            out.push((text(key), text(value)));
        }
        out
    }

    fn pairs(entries: &[(&str, &str)]) -> Vec<(String, String)> {
        entries
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn newest_version_wins() {
        let newest = mem(&[("a", Some("new")), ("c", Some("c1"))]);
        let oldest = mem(&[("a", Some("old")), ("b", Some("b0"))]);
        assert_eq!(
            drain(vec![newest, oldest]),
            pairs(&[("a", "new"), ("b", "b0"), ("c", "c1")])
        );
    }

    #[test]
    fn tombstones_shadow_older_values() {
        let newest = mem(&[("a", None)]);
        let oldest = mem(&[("a", Some("old")), ("b", Some("b0"))]);
        assert_eq!(drain(vec![newest, oldest]), pairs(&[("b", "b0")]));
    }

    #[test]
    fn next_version_keeps_the_newest_tombstone() {
        let newest = mem(&[("a", None)]);
        let oldest = mem(&[("a", Some("old")), ("b", Some("b0"))]);
        let mut stream = merge(vec![newest, oldest]);
        assert_eq!(stream.current(), None, "nothing before the first step");
        assert!(stream.step().unwrap());
        assert_eq!(stream.current(), Some((&b"a"[..], None)));
        assert!(stream.step().unwrap());
        assert_eq!(stream.current(), Some((&b"b"[..], Some(&b"b0"[..]))));
        assert!(!stream.step().unwrap());
        assert_eq!(stream.current(), None);
    }

    #[test]
    fn three_way_interleave_stays_sorted() {
        let s0 = mem(&[("b", Some("0"))]);
        let s1 = mem(&[("a", Some("1")), ("d", Some("1"))]);
        let s2 = mem(&[("c", Some("2")), ("e", Some("2"))]);
        let keys: Vec<_> = drain(vec![s0, s1, s2]).into_iter().map(|e| e.0).collect();
        assert_eq!(keys, ["a", "b", "c", "d", "e"]);
    }

    #[test]
    fn many_way_interleave_stays_sorted_and_deduplicated() {
        // Seven sources, each holding every key it shares with a newer
        // source too, so every key is shadowed up to six times.
        let sources = (0..7)
            .map(|s| {
                let mut batch = KvBatch::default();
                for k in (0..100).filter(|k| k % (s + 1) == 0) {
                    batch.push(
                        format!("k{k:03}").as_bytes(),
                        Some(format!("{s}").as_bytes()),
                    );
                }
                slice(batch)
            })
            .collect();
        let merged = drain(sources);
        assert_eq!(merged.len(), 100);
        for (k, (key, source)) in merged.iter().enumerate() {
            assert_eq!(key, &format!("k{k:03}"));
            // The newest source holding the key is source 0, which holds
            // them all.
            assert_eq!(source, "0");
        }
    }

    #[test]
    fn empty_sources() {
        assert!(drain(vec![]).is_empty());
        assert!(drain(vec![mem(&[]), mem(&[])]).is_empty());
    }

    #[test]
    fn a_batch_lends_and_copies_out_the_same_entries() {
        let mut batch = KvBatch::default();
        batch.push(b"k1", Some(b"v1"));
        batch.push(b"k2", Some(b""));
        assert_eq!(batch.len(), 2);
        let lent: Vec<_> = batch.iter().collect();
        assert_eq!(lent, vec![(&b"k1"[..], &b"v1"[..]), (&b"k2"[..], &b""[..])]);
        let copied: Vec<KvEntry> = (&batch).into_iter().collect();
        assert_eq!(copied, lent.into_iter().map(owned).collect::<Vec<_>>());
        batch.clear();
        assert!(batch.is_empty() && batch.iter().next().is_none());
    }
}
