//! IO accounting.
//!
//! The paper's performance arguments are IO arguments ("the compression of
//! fields ... accelerates the query efficiency through reducing the disk
//! IOs"), so the store counts every block-level disk access. Counters are
//! atomic and shared by all tables of a [`crate::Store`].
//!
//! Beyond raw disk blocks, the metrics distinguish work that was *avoided*:
//! `memtable_hits` (point reads answered before touching any SSTable),
//! `index_skips` (SSTables pruned by their min/max key fence),
//! `bloom_skips` (point misses answered by a per-SSTable bloom filter
//! without touching any block), and `cache_hits` (block reads served
//! from the block cache). Without these, cache-resident workloads
//! look IO-free and unexplainable.

use just_obs::Counter;
use std::sync::atomic::{AtomicU64, Ordering};

/// Shared atomic IO counters.
///
/// Every record also increments a process-global counter in the
/// [`just_obs::global`] registry (`just_kvstore_*` names), so
/// `registry.render_text()` exposes cumulative IO without polling each
/// store. The global handles are resolved once at construction; the hot
/// path is two relaxed atomic adds.
#[derive(Debug)]
pub struct IoMetrics {
    blocks_read: AtomicU64,
    bytes_read: AtomicU64,
    seeks: AtomicU64,
    blocks_written: AtomicU64,
    bytes_written: AtomicU64,
    cache_hits: AtomicU64,
    memtable_hits: AtomicU64,
    index_skips: AtomicU64,
    bloom_skips: AtomicU64,
    batches_emitted: AtomicU64,
    scan_early_terminations: AtomicU64,
    batch_bytes_peak: AtomicU64,
    scan_merges: AtomicU64,
    obs_blocks_read: Counter,
    obs_cache_hits: Counter,
    obs_memtable_hits: Counter,
    obs_index_skips: Counter,
    obs_bloom_skips: Counter,
    obs_batches_emitted: Counter,
    obs_scan_early_terminations: Counter,
    obs_scan_merges: Counter,
    obs_batch_bytes: just_obs::Histogram,
    obs_scan_latency: just_obs::Histogram,
}

impl Default for IoMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl IoMetrics {
    /// Fresh zeroed counters (the global registry counters are shared
    /// across instances and are not reset).
    pub(crate) fn new() -> Self {
        let obs = just_obs::global();
        IoMetrics {
            blocks_read: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            seeks: AtomicU64::new(0),
            blocks_written: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            memtable_hits: AtomicU64::new(0),
            index_skips: AtomicU64::new(0),
            bloom_skips: AtomicU64::new(0),
            batches_emitted: AtomicU64::new(0),
            scan_early_terminations: AtomicU64::new(0),
            batch_bytes_peak: AtomicU64::new(0),
            scan_merges: AtomicU64::new(0),
            obs_blocks_read: obs.counter("just_kvstore_blocks_read"),
            obs_cache_hits: obs.counter("just_kvstore_cache_hits"),
            obs_memtable_hits: obs.counter("just_kvstore_memtable_hits"),
            obs_index_skips: obs.counter("just_kvstore_index_skips"),
            obs_bloom_skips: obs.counter("just_kvstore_bloom_skips"),
            obs_batches_emitted: obs.counter("just_kvstore_batches_emitted"),
            obs_scan_early_terminations: obs.counter("just_kvstore_scan_early_terminations"),
            obs_scan_merges: obs.counter("just_kvstore_scan_merges"),
            obs_batch_bytes: obs.histogram("just_kvstore_batch_bytes"),
            obs_scan_latency: obs.histogram("just_kvstore_scan_latency_us"),
        }
    }

    pub(crate) fn record_block_read(&self, bytes: u64, seeked: bool) {
        self.blocks_read.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes, Ordering::Relaxed);
        if seeked {
            self.seeks.fetch_add(1, Ordering::Relaxed);
        }
        self.obs_blocks_read.inc();
    }

    pub(crate) fn record_cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
        self.obs_cache_hits.inc();
    }

    pub(crate) fn record_block_write(&self, bytes: u64) {
        self.blocks_written.fetch_add(1, Ordering::Relaxed);
        self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn record_memtable_hit(&self) {
        self.memtable_hits.fetch_add(1, Ordering::Relaxed);
        self.obs_memtable_hits.inc();
    }

    pub(crate) fn record_index_skip(&self) {
        self.index_skips.fetch_add(1, Ordering::Relaxed);
        self.obs_index_skips.inc();
    }

    pub(crate) fn record_bloom_skip(&self) {
        self.bloom_skips.fetch_add(1, Ordering::Relaxed);
        self.obs_bloom_skips.inc();
    }

    /// One bounded batch left a streaming scan; `bytes` is the batch's
    /// key+value payload, which also feeds the in-flight high-water mark.
    pub(crate) fn record_batch_emitted(&self, bytes: u64) {
        self.batches_emitted.fetch_add(1, Ordering::Relaxed);
        self.batch_bytes_peak.fetch_max(bytes, Ordering::Relaxed);
        self.obs_batches_emitted.inc();
        self.obs_batch_bytes.record(bytes);
    }

    /// A streaming scan was dropped or cancelled before running dry —
    /// the consumer was satisfied and the remaining disk IO was skipped.
    pub(crate) fn record_scan_early_termination(&self) {
        self.scan_early_terminations.fetch_add(1, Ordering::Relaxed);
        self.obs_scan_early_terminations.inc();
    }

    /// A read opened one region's merge (once per region a scan enters,
    /// however many of its ranges cross the region).
    pub(crate) fn record_scan_merge(&self) {
        self.scan_merges.fetch_add(1, Ordering::Relaxed);
        self.obs_scan_merges.inc();
    }

    /// One scan finished (ran dry, was cancelled or was dropped).
    pub(crate) fn record_scan_latency(&self, elapsed: std::time::Duration) {
        self.obs_scan_latency.record_duration(elapsed);
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            blocks_read: self.blocks_read.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            seeks: self.seeks.load(Ordering::Relaxed),
            blocks_written: self.blocks_written.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            memtable_hits: self.memtable_hits.load(Ordering::Relaxed),
            index_skips: self.index_skips.load(Ordering::Relaxed),
            bloom_skips: self.bloom_skips.load(Ordering::Relaxed),
            batches_emitted: self.batches_emitted.load(Ordering::Relaxed),
            scan_early_terminations: self.scan_early_terminations.load(Ordering::Relaxed),
            batch_bytes_peak: self.batch_bytes_peak.load(Ordering::Relaxed),
            scan_merges: self.scan_merges.load(Ordering::Relaxed),
        }
    }

    /// Resets all counters to zero (used between benchmark phases).
    pub fn reset(&self) {
        self.blocks_read.store(0, Ordering::Relaxed);
        self.bytes_read.store(0, Ordering::Relaxed);
        self.seeks.store(0, Ordering::Relaxed);
        self.blocks_written.store(0, Ordering::Relaxed);
        self.bytes_written.store(0, Ordering::Relaxed);
        self.cache_hits.store(0, Ordering::Relaxed);
        self.memtable_hits.store(0, Ordering::Relaxed);
        self.index_skips.store(0, Ordering::Relaxed);
        self.bloom_skips.store(0, Ordering::Relaxed);
        self.batches_emitted.store(0, Ordering::Relaxed);
        self.scan_early_terminations.store(0, Ordering::Relaxed);
        self.batch_bytes_peak.store(0, Ordering::Relaxed);
        self.scan_merges.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time view of [`IoMetrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoSnapshot {
    /// Data blocks fetched from disk.
    pub blocks_read: u64,
    /// Bytes fetched from disk.
    pub bytes_read: u64,
    /// Non-sequential block fetches (a proxy for disk seeks).
    pub seeks: u64,
    /// Data blocks written to disk.
    pub blocks_written: u64,
    /// Bytes written to disk.
    pub bytes_written: u64,
    /// Block reads served from the block cache (no disk touched).
    pub cache_hits: u64,
    /// Point reads answered by a memtable before touching any SSTable.
    pub memtable_hits: u64,
    /// SSTables skipped via their min/max key fence without reading any
    /// block.
    pub index_skips: u64,
    /// Point-get misses answered by a per-SSTable bloom filter without
    /// reading any block.
    pub bloom_skips: u64,
    /// Bounded batches emitted by streaming scans
    /// ([`crate::TableSnapshot::scan_ranges_stream`]).
    pub batches_emitted: u64,
    /// Streaming scans dropped or cancelled before exhausting their key
    /// ranges (a satisfied `LIMIT`/kNN consumer skipping residual IO).
    pub scan_early_terminations: u64,
    /// Largest single streaming batch observed, in key+value payload
    /// bytes — the peak in-flight memory of the batch pipeline. This is
    /// a high-water mark, not a counter.
    pub batch_bytes_peak: u64,
    /// Region merges opened by reads: one per region a scan enters, so
    /// a scan of many key ranges in one region counts one.
    pub scan_merges: u64,
}

impl IoSnapshot {
    /// Counter-wise difference `self - earlier`, for measuring a phase.
    ///
    /// `batch_bytes_peak` is a high-water mark rather than a counter, so
    /// it passes through unchanged: the delta of a peak is meaningless,
    /// the peak itself is what a phase report wants.
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            blocks_read: self.blocks_read - earlier.blocks_read,
            bytes_read: self.bytes_read - earlier.bytes_read,
            seeks: self.seeks - earlier.seeks,
            blocks_written: self.blocks_written - earlier.blocks_written,
            bytes_written: self.bytes_written - earlier.bytes_written,
            cache_hits: self.cache_hits - earlier.cache_hits,
            memtable_hits: self.memtable_hits - earlier.memtable_hits,
            index_skips: self.index_skips - earlier.index_skips,
            bloom_skips: self.bloom_skips - earlier.bloom_skips,
            batches_emitted: self.batches_emitted - earlier.batches_emitted,
            scan_early_terminations: self.scan_early_terminations - earlier.scan_early_terminations,
            batch_bytes_peak: self.batch_bytes_peak,
            scan_merges: self.scan_merges - earlier.scan_merges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let m = IoMetrics::new();
        m.record_block_read(4096, true);
        m.record_block_read(4096, false);
        m.record_block_write(1000);
        m.record_memtable_hit();
        m.record_index_skip();
        m.record_index_skip();
        m.record_bloom_skip();
        let s = m.snapshot();
        assert_eq!(s.blocks_read, 2);
        assert_eq!(s.bytes_read, 8192);
        assert_eq!(s.seeks, 1);
        assert_eq!(s.blocks_written, 1);
        assert_eq!(s.memtable_hits, 1);
        assert_eq!(s.index_skips, 2);
        assert_eq!(s.bloom_skips, 1);
        m.reset();
        assert_eq!(m.snapshot(), IoSnapshot::default());
    }

    #[test]
    fn snapshot_difference() {
        let m = IoMetrics::new();
        m.record_block_read(100, true);
        m.record_memtable_hit();
        let before = m.snapshot();
        m.record_block_read(50, false);
        m.record_index_skip();
        m.record_bloom_skip();
        let delta = m.snapshot().since(&before);
        assert_eq!(delta.blocks_read, 1);
        assert_eq!(delta.bytes_read, 50);
        assert_eq!(delta.seeks, 0);
        assert_eq!(delta.memtable_hits, 0);
        assert_eq!(delta.index_skips, 1);
        assert_eq!(delta.bloom_skips, 1);
    }
}
