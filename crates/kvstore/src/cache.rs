//! A store-wide block cache, the analogue of the HBase block cache the
//! paper works around in its experiments ("HBase will cache results in
//! memory to expedite the same queries").
//!
//! Sharded map with sampled (Redis-style) LRU eviction: each shard tracks
//! a logical clock; eviction samples a handful of entries *uniformly at
//! random* (each shard carries a seeded SplitMix64 generator and a dense
//! key vector, so a sample is an O(1) index draw rather than a walk of
//! `HashMap` iteration order, which always visits the same leading
//! buckets and would starve whole regions of the map of eviction
//! pressure). A block's shard is a hash of its `(file id, block index)`,
//! so the blocks of one file spread over every shard and a single hot
//! file — a region compacted to one table — can use the whole budget,
//! not one shard's sixteenth of it.
//!
//! A file's blocks leave in one place: dropping its `SsTable` handle
//! calls [`BlockCache::invalidate_file`], which sweeps every shard. Files
//! retire at the rate of flushes, compactions, splits and merges, so
//! the sweep is rare, and it also covers blocks a scan still reading a
//! retired file put back after the file left the region.
//!
//! The cache stores *decompressed* block bytes: a hot block of a
//! compressed table pays codec work once, at fill time. Only queries
//! fill it: a compaction, split or merge reads around it (hits are served, a
//! miss is not inserted), so a rewrite neither evicts what queries use
//! nor caches blocks whose file it is about to retire. The cache keeps no
//! counters of its own: hits and disk reads are counted separately in
//! [`crate::IoMetrics`], so experiments can still measure true disk IO.

use just_obs::sync::Mutex;
use just_obs::Rng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const SHARDS: usize = 16;
const EVICTION_SAMPLE: usize = 8;

/// Key: (sstable instance id, block index).
type Key = (u64, usize);

struct Entry {
    data: Arc<Vec<u8>>,
    used: u64,
    /// Position of this entry's key in [`Shard::keys`], kept in sync so
    /// eviction can sample uniformly by index.
    slot: usize,
}

struct Shard {
    map: HashMap<Key, Entry>,
    /// Dense vector of resident keys; `map[k].slot` indexes into it.
    keys: Vec<Key>,
    bytes: usize,
    clock: u64,
    rng: Rng,
}

impl Shard {
    fn remove(&mut self, key: &Key) -> Option<Arc<Vec<u8>>> {
        let entry = self.map.remove(key)?;
        self.bytes -= entry.data.len();
        self.keys.swap_remove(entry.slot);
        if let Some(moved) = self.keys.get(entry.slot) {
            self.map.get_mut(moved).expect("moved key is resident").slot = entry.slot;
        }
        Some(entry.data)
    }
}

/// The sharded block cache.
pub struct BlockCache {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
}

impl std::fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockCache")
            .field("capacity_per_shard", &self.capacity_per_shard)
            .finish()
    }
}

impl BlockCache {
    /// Creates a cache holding up to `capacity_bytes` of block data
    /// (0 disables caching).
    pub(crate) fn new(capacity_bytes: usize) -> Self {
        BlockCache {
            shards: (0..SHARDS)
                .map(|i| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        keys: Vec::new(),
                        bytes: 0,
                        clock: 0,
                        rng: Rng::seed_from_u64(0x6a75_7374_0000 + i as u64),
                    })
                })
                .collect(),
            capacity_per_shard: capacity_bytes / SHARDS,
        }
    }

    /// Whether caching is active.
    pub(crate) fn enabled(&self) -> bool {
        self.capacity_per_shard > 0
    }

    /// The shard of one block: a hash of file and block together, so a
    /// file's blocks spread over every shard.
    fn shard_of(&self, (file_id, block_idx): Key) -> &Mutex<Shard> {
        let mut z =
            (file_id ^ (block_idx as u64).rotate_left(32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        &self.shards[(z >> 32) as usize % SHARDS]
    }

    /// Fetches a cached block.
    pub(crate) fn get(&self, file_id: u64, block_idx: usize) -> Option<Arc<Vec<u8>>> {
        if !self.enabled() {
            return None;
        }
        let key = (file_id, block_idx);
        let mut shard = self.shard_of(key).lock();
        shard.clock += 1;
        let clock = shard.clock;
        let entry = shard.map.get_mut(&key)?;
        entry.used = clock;
        Some(entry.data.clone())
    }

    /// Inserts a block, evicting approximately-LRU entries when over
    /// capacity.
    pub(crate) fn put(&self, file_id: u64, block_idx: usize, data: Arc<Vec<u8>>) {
        if !self.enabled() || data.len() > self.capacity_per_shard {
            return;
        }
        let key = (file_id, block_idx);
        let mut shard = self.shard_of(key).lock();
        shard.clock += 1;
        let clock = shard.clock;
        let len = data.len();
        if shard.map.contains_key(&key) {
            let entry = shard.map.get_mut(&key).expect("checked");
            let old_len = entry.data.len();
            entry.data = data;
            entry.used = clock;
            shard.bytes -= old_len;
        } else {
            let slot = shard.keys.len();
            shard.keys.push(key);
            shard.map.insert(
                key,
                Entry {
                    data,
                    used: clock,
                    slot,
                },
            );
        }
        shard.bytes += len;
        while shard.bytes > self.capacity_per_shard && shard.map.len() > 1 {
            // Sample entries uniformly at random, evict the least
            // recently used of the sample (never the fresh insert).
            let n = shard.keys.len() as u64;
            let mut victim: Option<(Key, u64)> = None;
            for _ in 0..EVICTION_SAMPLE {
                let draw = (shard.rng.next_u64() % n) as usize;
                let k = shard.keys[draw];
                if k == key {
                    continue;
                }
                let used = shard.map[&k].used;
                if victim.is_none_or(|(_, best)| used < best) {
                    victim = Some((k, used));
                }
            }
            match victim {
                Some((k, _)) => {
                    shard.remove(&k);
                }
                None => break, // only the fresh entry sampled; stop
            }
        }
    }

    /// Drops every block of a file, sweeping each shard once. Called
    /// when the file's `SsTable` handle drops.
    pub(crate) fn invalidate_file(&self, file_id: u64) {
        if !self.enabled() {
            return;
        }
        for shard in &self.shards {
            let mut shard = shard.lock();
            // Backwards, so the key `remove` swaps into slot `i` has
            // already been looked at.
            for i in (0..shard.keys.len()).rev() {
                let key = shard.keys[i];
                if key.0 == file_id {
                    shard.remove(&key);
                }
            }
        }
    }

    /// Bytes of block data resident across the shards.
    pub fn resident_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().bytes).sum()
    }
}

/// Hands out unique SSTable file ids for cache keying.
pub(crate) fn next_file_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_put() {
        let c = BlockCache::new(1 << 20);
        assert!(c.get(1, 0).is_none());
        c.put(1, 0, Arc::new(vec![7u8; 100]));
        assert_eq!(c.get(1, 0).unwrap().len(), 100);
        assert!(c.get(1, 1).is_none() && c.get(2, 0).is_none());
    }

    #[test]
    fn disabled_cache_never_hits() {
        let c = BlockCache::new(0);
        c.put(1, 0, Arc::new(vec![1u8; 10]));
        assert!(c.get(1, 0).is_none());
        assert!(!c.enabled());
    }

    #[test]
    fn eviction_keeps_capacity_bounded() {
        let c = BlockCache::new(16 * 4096); // 4 KiB per shard
        for i in 0..1000usize {
            c.put(1, i, Arc::new(vec![0u8; 512]));
        }
        let total = c.resident_bytes();
        assert!(total <= 16 * 4096 + 512 * SHARDS, "total {total}");
        // Recently used entries survive better than old ones; at least the
        // most recent insert must be present.
        assert!(c.get(1, 999).is_some());
    }

    #[test]
    fn replacing_entry_updates_bytes_and_slot() {
        let c = BlockCache::new(1 << 20);
        c.put(1, 0, Arc::new(vec![0u8; 100]));
        c.put(1, 0, Arc::new(vec![0u8; 50]));
        let shard = c.shard_of((1, 0)).lock();
        assert_eq!(shard.bytes, 50);
        assert_eq!(shard.keys.len(), 1);
        assert_eq!(shard.map[&(1, 0)].slot, 0);
    }

    #[test]
    fn hot_blocks_survive_churn() {
        // Every block below lies in one shard and fights over its
        // capacity. A read-through workload (miss refills, as the
        // SSTable read path does) with a hot set touched every round and
        // a stream of cold blocks must keep a high hot hit ratio; the old
        // HashMap-iteration sampling probed the same buckets every time,
        // so eviction pressure concentrated there and hot entries living
        // in those buckets were flushed over and over.
        let c = BlockCache::new(SHARDS * 64 * 1024); // 64 KiB per shard
        let first = c.shard_of((1, 0)) as *const _;
        let mut one_shard = (0..).filter(|&i| std::ptr::eq(c.shard_of((1, i)), first));
        let hot: Vec<usize> = one_shard.by_ref().take(16).collect();
        let (mut accesses, mut misses) = (0u32, 0u32);
        for _ in 0..200usize {
            for &i in &hot {
                accesses += 1;
                if c.get(1, i).is_none() {
                    misses += 1;
                    c.put(1, i, Arc::new(vec![0u8; 1024]));
                }
            }
            // A burst of cold blocks that overflows the shard.
            for j in one_shard.by_ref().take(8) {
                c.put(1, j, Arc::new(vec![0u8; 4096]));
            }
        }
        let hit_ratio = 1.0 - f64::from(misses) / f64::from(accesses);
        assert!(
            hit_ratio > 0.9,
            "hot blocks should survive churn: hit ratio {hit_ratio:.3} ({misses}/{accesses} misses)"
        );
    }

    #[test]
    fn invalidate_file_removes_blocks() {
        let c = BlockCache::new(1 << 20);
        c.put(5, 0, Arc::new(vec![1u8; 10]));
        c.put(5, 1, Arc::new(vec![1u8; 10]));
        c.put(6, 0, Arc::new(vec![1u8; 10]));
        c.invalidate_file(5);
        assert!(c.get(5, 0).is_none());
        assert!(c.get(5, 1).is_none());
        assert!(c.get(6, 0).is_some());
        assert_eq!(c.resident_bytes(), 10);
        // Accounting stays exact after slot-fixup removals, in a shard
        // holding many of the file's blocks among others'.
        for i in 0..1000usize {
            c.put(5 + i as u64 % 2, i, Arc::new(vec![1u8; 10]));
        }
        c.invalidate_file(5);
        assert_eq!(c.resident_bytes(), 10 + 500 * 10);
        for shard in &c.shards {
            let shard = shard.lock();
            assert!(shard.keys.iter().all(|(f, _)| *f == 6));
            assert!((shard.keys.iter().enumerate()).all(|(slot, k)| shard.map[k].slot == slot));
        }
    }

    #[test]
    fn a_file_s_blocks_spread_over_every_shard() {
        let c = BlockCache::new(1 << 20);
        let shard = |idx: usize| c.shard_of((7, idx)) as *const Mutex<Shard>;
        let distinct: std::collections::HashSet<_> = (0..256).map(shard).collect();
        assert_eq!(distinct.len(), SHARDS);
        // A file's blocks can fill the whole budget, not one shard's.
        for idx in 0..4096 {
            c.put(7, idx, Arc::new(vec![0u8; 512]));
        }
        let resident = c.resident_bytes();
        assert!(resident > (1 << 20) * 3 / 4, "{resident}");
    }

    #[test]
    fn oversized_blocks_are_not_cached() {
        let c = BlockCache::new(16 * 1024); // 1 KiB per shard
        c.put(1, 0, Arc::new(vec![0u8; 8 * 1024]));
        assert!(c.get(1, 0).is_none());
    }
}
