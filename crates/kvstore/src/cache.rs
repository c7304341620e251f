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
//! pressure). Shards are keyed by SSTable file id, so dropping a file on
//! compaction locks exactly one shard instead of sweeping all of them.
//!
//! The cache stores *decompressed* block bytes: a hot block of a
//! compressed table pays codec work once, at fill time. Only queries
//! fill it: a compaction, split or merge reads around it (hits are served, a
//! miss is not inserted), so a rewrite neither evicts what queries use
//! nor caches blocks whose file it is about to retire. Cache hits are
//! counted separately from disk reads in [`crate::IoMetrics`], so
//! experiments can still measure true disk IO.

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
    hits: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockCache")
            .field("capacity_per_shard", &self.capacity_per_shard)
            .field("hits", &self.hits.load(Ordering::Relaxed))
            .field("misses", &self.misses.load(Ordering::Relaxed))
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
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Whether caching is active.
    pub(crate) fn enabled(&self) -> bool {
        self.capacity_per_shard > 0
    }

    /// Shard choice depends on the file id only, so all blocks of one
    /// SSTable live in one shard and [`BlockCache::invalidate_file`]
    /// touches exactly that shard.
    fn shard_of_file(&self, file_id: u64) -> usize {
        let mut z = file_id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        (z >> 32) as usize % SHARDS
    }

    /// Fetches a cached block.
    pub(crate) fn get(&self, file_id: u64, block_idx: usize) -> Option<Arc<Vec<u8>>> {
        if !self.enabled() {
            return None;
        }
        let key = (file_id, block_idx);
        let mut shard = self.shards[self.shard_of_file(file_id)].lock();
        shard.clock += 1;
        let clock = shard.clock;
        match shard.map.get_mut(&key) {
            Some(entry) => {
                entry.used = clock;
                let out = entry.data.clone();
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(out)
            }
            None => {
                drop(shard);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a block, evicting approximately-LRU entries when over
    /// capacity.
    pub(crate) fn put(&self, file_id: u64, block_idx: usize, data: Arc<Vec<u8>>) {
        if !self.enabled() || data.len() > self.capacity_per_shard {
            return;
        }
        let key = (file_id, block_idx);
        let mut shard = self.shards[self.shard_of_file(file_id)].lock();
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

    /// Drops every block belonging to a file (on compaction/removal).
    /// Locks only the file's owning shard.
    pub(crate) fn invalidate_file(&self, file_id: u64) {
        let mut shard = self.shards[self.shard_of_file(file_id)].lock();
        let doomed: Vec<Key> = shard
            .keys
            .iter()
            .filter(|(f, _)| *f == file_id)
            .copied()
            .collect();
        for k in doomed {
            shard.remove(&k);
        }
    }

    /// Bytes of block data resident across the shards.
    pub fn resident_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().bytes).sum()
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
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
        let (hits, misses) = c.stats();
        assert_eq!((hits, misses), (1, 1));
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
        let shard = c.shards[c.shard_of_file(1)].lock();
        assert_eq!(shard.bytes, 50);
        assert_eq!(shard.keys.len(), 1);
        assert_eq!(shard.map[&(1, 0)].slot, 0);
    }

    #[test]
    fn hot_blocks_survive_churn() {
        // One file -> one shard: everything below fights over a single
        // shard's capacity. A read-through workload (miss refills, as the
        // SSTable read path does) with a hot set touched every round and
        // a stream of cold blocks must keep a high hot hit ratio; the old
        // HashMap-iteration sampling probed the same buckets every time,
        // so eviction pressure concentrated there and hot entries living
        // in those buckets were flushed over and over.
        let c = BlockCache::new(SHARDS * 64 * 1024); // 64 KiB per shard
        let hot: Vec<usize> = (0..16).collect();
        let (mut accesses, mut misses) = (0u32, 0u32);
        for round in 0..200usize {
            for &i in &hot {
                accesses += 1;
                if c.get(1, i).is_none() {
                    misses += 1;
                    c.put(1, i, Arc::new(vec![0u8; 1024]));
                }
            }
            // A burst of cold blocks that overflows the shard.
            for j in 0..8usize {
                c.put(1, 1000 + round * 8 + j, Arc::new(vec![0u8; 4096]));
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
        // Accounting stays exact after slot-fixup removals.
        let shard = c.shards[c.shard_of_file(5)].lock();
        assert!(shard.keys.iter().all(|(f, _)| *f != 5));
    }

    #[test]
    fn file_blocks_share_a_shard() {
        let c = BlockCache::new(1 << 20);
        for idx in 0..64usize {
            assert_eq!(c.shard_of_file(7), c.shard_of_file(7), "idx {idx}");
        }
        // Different files spread across shards.
        let distinct: std::collections::HashSet<usize> =
            (0..64u64).map(|f| c.shard_of_file(f)).collect();
        assert!(distinct.len() > SHARDS / 2, "got {distinct:?}");
    }

    #[test]
    fn oversized_blocks_are_not_cached() {
        let c = BlockCache::new(16 * 1024); // 1 KiB per shard
        c.put(1, 0, Arc::new(vec![0u8; 8 * 1024]));
        assert!(c.get(1, 0).is_none());
    }
}
