//! Per-SSTable blocked bloom filters.
//!
//! The paper's read-path argument is an IO argument: a point `GET` that
//! can be answered "definitely not here" without touching a data block
//! costs nothing but a few cache lines. HBase attaches a bloom filter to
//! every HFile for exactly this reason; this module is the zero-dependency
//! equivalent, serialized between an SSTable's index and its footer.
//!
//! The layout is *blocked*: the bit array is split into 512-bit (64-byte,
//! one cache line) blocks and all `k` probe bits of a key land in one
//! block, so a negative lookup costs a single memory access instead of
//! `k` scattered ones.
//!
//! ```text
//! serialized := k(u32 LE) num_blocks(u32 LE) words(u64 LE)*
//! ```

/// Filter bits per key every SSTable is built with: ≈1 % false
/// positives, the HBase `BLOOMFILTER => ROW` equivalent.
pub(crate) const BITS_PER_KEY: usize = 10;
/// Bits per blocked-bloom block (one cache line).
const BLOCK_BITS: u64 = 512;
/// 64-bit words per block.
const BLOCK_WORDS: usize = 8;

/// Hashes a key for bloom probing: FNV-1a over the bytes, then a
/// SplitMix64-style finalizer so short, similar keys (the common case for
/// ordered spatio-temporal keys) still spread over blocks uniformly.
fn bloom_hash(key: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    let mut z = h;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Blocks a filter for `keys` keys at `bits_per_key` needs.
fn blocks_for(keys: usize, bits_per_key: usize) -> usize {
    let total_bits = (keys as u64).saturating_mul(bits_per_key.max(1) as u64);
    total_bits.div_ceil(BLOCK_BITS).max(1) as usize
}

/// A blocked bloom filter over a set of keys.
#[derive(Debug, Clone)]
pub(crate) struct BloomFilter {
    /// Probes per key.
    k: u32,
    /// `num_blocks * BLOCK_WORDS` little-endian words.
    words: Vec<u64>,
}

impl BloomFilter {
    /// An empty filter sized for `keys` keys at `bits_per_key` (values
    /// below 1 are clamped up; ~10 gives a ≈1 % false-positive rate).
    /// Filled with [`BloomFilter::insert`], it holds the same bits as one
    /// sized after the fact.
    pub(crate) fn new(keys: usize, bits_per_key: usize) -> BloomFilter {
        Self::with_blocks(blocks_for(keys, bits_per_key), bits_per_key)
    }

    fn with_blocks(blocks: usize, bits_per_key: usize) -> BloomFilter {
        // Optimal probe count is ln(2) * bits/key; clamp to a sane range.
        let k = ((bits_per_key.max(1) as f64) * 0.69)
            .round()
            .clamp(1.0, 12.0) as u32;
        BloomFilter {
            k,
            words: vec![0u64; blocks * BLOCK_WORDS],
        }
    }

    /// An empty filter for at most `keys` keys, to be cut to size with
    /// [`BloomFilter::fold`] once the count is known: `new`'s blocks,
    /// rounded up by at most 1/64 to a multiple of a power of two, so
    /// that it folds to under twice the blocks the count needs, or to
    /// under 128 blocks (8 KiB).
    pub(crate) fn for_at_most(keys: usize, bits_per_key: usize) -> BloomFilter {
        let blocks = blocks_for(keys, bits_per_key);
        let step = 1 << (blocks / 64).max(1).ilog2();
        Self::with_blocks(blocks.next_multiple_of(step), bits_per_key)
    }

    /// Merges every `f` neighbouring blocks into one, for the largest `f`
    /// that divides the block count and leaves at least the blocks `new`
    /// gives `keys` keys. A key's block is `⌊x·n/2³²⌋` of `n`, and
    /// `⌊⌊x·n/2³²⌋/f⌋ = ⌊x·(n/f)/2³²⌋`: the result holds the bits a
    /// filter of `n/f` blocks filled with the same keys would.
    pub(crate) fn fold(&mut self, keys: usize, bits_per_key: usize) {
        let blocks = self.words.len() / BLOCK_WORDS;
        let most = blocks / blocks_for(keys, bits_per_key);
        let Some(f) = (2..=most).rev().find(|f| blocks.is_multiple_of(*f)) else {
            return;
        };
        // Word `w` reads words at or past `w` only: in place is safe.
        for w in 0..self.words.len() / f {
            let (block, word) = (w / BLOCK_WORDS, w % BLOCK_WORDS);
            self.words[w] = (0..f)
                .map(|i| self.words[(block * f + i) * BLOCK_WORDS + word])
                .fold(0, |acc, bits| acc | bits);
        }
        self.words.truncate(self.words.len() / f);
    }

    /// Adds `key`.
    pub(crate) fn insert(&mut self, key: &[u8]) {
        let (base, mut probe, step) = self.locate(bloom_hash(key));
        for _ in 0..self.k {
            let bit = (probe % BLOCK_BITS) as usize;
            self.words[base + bit / 64] |= 1u64 << (bit % 64);
            probe = probe.wrapping_add(step);
        }
    }

    /// `(first word index of the key's block, probe start, probe step)`.
    ///
    /// The step comes from a *different* bit range of the hash than the
    /// start and is forced odd (full cycle mod 512). Deriving the step
    /// from the start itself (`h|1`-style double hashing) is degenerate
    /// here: probe `i` would land at `(i+1)·h + i (mod 512)`, pinning it
    /// to the residue class `i mod 2^v` — every key hammers the same
    /// classes, and the measured false-positive rate decays from ~1 % to
    /// ~10 % at 10 bits/key.
    fn locate(&self, h: u64) -> (usize, u64, u64) {
        let num_blocks = (self.words.len() / BLOCK_WORDS) as u64;
        // Multiply-shift range reduction on the high bits picks the block;
        // lower bits drive the in-block probe sequence.
        let block = (((h >> 32) * num_blocks) >> 32) as usize;
        (block * BLOCK_WORDS, h, (h >> 17) | 1)
    }

    /// Bytes of the bit array.
    #[cfg(test)]
    pub(crate) fn bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Whether `key` may be present (false positives allowed, false
    /// negatives never).
    pub(crate) fn may_contain(&self, key: &[u8]) -> bool {
        let (base, mut probe, step) = self.locate(bloom_hash(key));
        for _ in 0..self.k {
            let bit = (probe % BLOCK_BITS) as usize;
            if self.words[base + bit / 64] & (1u64 << (bit % 64)) == 0 {
                return false;
            }
            probe = probe.wrapping_add(step);
        }
        true
    }

    /// Writes the serialized filter to `out`; returns its length.
    pub(crate) fn write_to(&self, out: &mut impl std::io::Write) -> std::io::Result<u64> {
        out.write_all(&self.k.to_le_bytes())?;
        out.write_all(&((self.words.len() / BLOCK_WORDS) as u32).to_le_bytes())?;
        for w in &self.words {
            out.write_all(&w.to_le_bytes())?;
        }
        Ok(8 + 8 * self.words.len() as u64)
    }

    /// Inverse of [`BloomFilter::write_to`]; `None` on malformed
    /// input.
    pub(crate) fn deserialize(buf: &[u8]) -> Option<BloomFilter> {
        if buf.len() < 8 {
            return None;
        }
        let k = u32::from_le_bytes(buf[0..4].try_into().ok()?);
        let num_blocks = u32::from_le_bytes(buf[4..8].try_into().ok()?) as usize;
        let want = num_blocks.checked_mul(BLOCK_WORDS)?.checked_mul(8)?;
        if k == 0 || k > 64 || num_blocks == 0 || buf.len() != 8 + want {
            return None;
        }
        let words = buf[8..]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        Some(BloomFilter { k, words })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use just_obs::Rng;

    fn seeded_keys(n: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut rng = Rng::seed_from_u64(seed);
        (0..n)
            .map(|i| format!("key-{i:08}-{:016x}", rng.next_u64()).into_bytes())
            .collect()
    }

    /// A filter sized for `estimate` keys, filled with `keys`.
    fn filled(keys: &[Vec<u8>], estimate: usize, bits_per_key: usize) -> BloomFilter {
        let mut f = BloomFilter::new(estimate, bits_per_key);
        keys.iter().for_each(|k| f.insert(k));
        f
    }

    /// What an SSTable builder writes for `keys` given a filter sized for
    /// at most `at_most` keys.
    fn folded(keys: &[Vec<u8>], at_most: usize) -> BloomFilter {
        let mut f = BloomFilter::for_at_most(at_most, BITS_PER_KEY);
        keys.iter().for_each(|k| f.insert(k));
        f.fold(keys.len(), BITS_PER_KEY);
        f
    }

    /// The false-positive rate of `f` over 10 000 keys disjoint from any
    /// `seeded_keys` set of another seed.
    fn fp_rate(f: &BloomFilter) -> f64 {
        let probes = seeded_keys(10_000, 99);
        let fp = probes.iter().filter(|k| f.may_contain(k)).count();
        fp as f64 / probes.len() as f64
    }

    #[test]
    fn no_false_negatives() {
        let keys = seeded_keys(5000, 1);
        let f = filled(&keys, keys.len(), 10);
        for k in &keys {
            assert!(f.may_contain(k), "false negative for {k:?}");
        }
    }

    #[test]
    fn false_positive_rate_is_bounded() {
        // 10 bits/key targets ~1 % FPR; blocked layouts trade a little
        // accuracy for locality, so assert a conservative 3 % bound.
        let keys = seeded_keys(10_000, 2);
        let rate = fp_rate(&filled(&keys, keys.len(), 10));
        assert!(rate < 0.03, "false positive rate {rate:.4} too high");
    }

    #[test]
    fn an_exact_estimate_streams_the_bytes_a_sized_after_the_fact_filter_held() {
        // The length and CRC-32 of the filter the builder wrote when it
        // kept every key's hash and sized the filter at `finish`, over
        // these 3000 keys at 10 bits per key. Files written before and
        // after the filter was streamed carry the same bytes.
        let keys = seeded_keys(3000, 4);
        let mut f = filled(&keys, 3000, 10);
        f.fold(3000, 10);
        let mut buf = Vec::new();
        f.write_to(&mut buf).unwrap();
        assert_eq!(buf.len(), 3784);
        assert_eq!(just_compress::crc32::crc32(&buf), 0xecb3_3d89);
    }

    #[test]
    fn an_estimate_of_twice_the_keys_stays_under_the_bound() {
        // A compaction sizes its output's filter from its inputs' entry
        // counts, shadowed versions included: up to twice the keys kept.
        let keys = seeded_keys(10_000, 2);
        let f = folded(&keys, 2 * keys.len());
        assert!(keys.iter().all(|k| f.may_contain(k)));
        let rate = fp_rate(&f);
        assert!(rate < 0.03, "false positive rate {rate:.4} too high");
    }

    #[test]
    fn an_oversized_filter_folds_to_the_one_built_at_its_size() {
        // A split daughter holds about half its inputs' entries; a
        // compaction of eight generations of the same keys, an eighth.
        let keys = seeded_keys(10_000, 6);
        let exact = filled(&keys, keys.len(), BITS_PER_KEY).words.len();
        for at_most in [2 * keys.len() + 700, 8 * keys.len()] {
            let f = folded(&keys, at_most);
            assert!(f.words.len() >= exact && f.words.len() < 2 * exact);
            let mut built = BloomFilter {
                k: f.k,
                words: vec![0; f.words.len()],
            };
            keys.iter().for_each(|k| built.insert(k));
            assert_eq!(f.words, built.words, "estimate {at_most}");
        }
    }

    #[test]
    fn serialization_roundtrips() {
        let keys = seeded_keys(500, 3);
        let f = filled(&keys, keys.len(), 12);
        let mut buf = Vec::new();
        f.write_to(&mut buf).unwrap();
        assert_eq!(buf.len(), 8 + f.words.len() * 8);
        let g = BloomFilter::deserialize(&buf).unwrap();
        for k in &keys {
            assert!(g.may_contain(k));
        }
        assert_eq!(f.k, g.k);
        assert_eq!(f.words, g.words);
    }

    #[test]
    fn deserialize_rejects_malformed() {
        assert!(BloomFilter::deserialize(&[]).is_none());
        assert!(BloomFilter::deserialize(&[1, 0, 0, 0, 1, 0, 0, 0]).is_none()); // truncated words
        let mut buf = Vec::new();
        filled(&seeded_keys(3, 5), 3, 10)
            .write_to(&mut buf)
            .unwrap();
        buf.pop();
        assert!(BloomFilter::deserialize(&buf).is_none());
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let f = BloomFilter::new(0, 10);
        assert!(!f.may_contain(b"anything"));
    }
}
