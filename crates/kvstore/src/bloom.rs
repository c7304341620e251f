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

/// Bits per blocked-bloom block (one cache line).
const BLOCK_BITS: u64 = 512;
/// 64-bit words per block.
const BLOCK_WORDS: usize = 8;

/// Hashes a key for bloom probing: FNV-1a over the bytes, then a
/// SplitMix64-style finalizer so short, similar keys (the common case for
/// ordered spatio-temporal keys) still spread over blocks uniformly.
pub(crate) fn bloom_hash(key: &[u8]) -> u64 {
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

/// An immutable blocked bloom filter over a set of key hashes.
#[derive(Debug, Clone)]
pub(crate) struct BloomFilter {
    /// Probes per key.
    k: u32,
    /// `num_blocks * BLOCK_WORDS` little-endian words.
    words: Vec<u64>,
}

impl BloomFilter {
    /// Builds a filter sized for `hashes.len()` keys at `bits_per_key`
    /// (values below 1 are clamped up; ~10 gives a ≈1 % false-positive
    /// rate).
    pub(crate) fn build(hashes: &[u64], bits_per_key: usize) -> BloomFilter {
        let bits_per_key = bits_per_key.max(1) as u64;
        let total_bits = (hashes.len() as u64).saturating_mul(bits_per_key);
        let num_blocks = total_bits.div_ceil(BLOCK_BITS).max(1) as usize;
        // Optimal probe count is ln(2) * bits/key; clamp to a sane range.
        let k = ((bits_per_key as f64) * 0.69).round().clamp(1.0, 12.0) as u32;
        let mut filter = BloomFilter {
            k,
            words: vec![0u64; num_blocks * BLOCK_WORDS],
        };
        for &h in hashes {
            let (base, mut probe, step) = filter.locate(h);
            for _ in 0..filter.k {
                let bit = (probe % BLOCK_BITS) as usize;
                filter.words[base + bit / 64] |= 1u64 << (bit % 64);
                probe = probe.wrapping_add(step);
            }
        }
        filter
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

    /// Whether the key behind `h` may be present (false positives allowed,
    /// false negatives never).
    pub(crate) fn may_contain_hash(&self, h: u64) -> bool {
        let (base, mut probe, step) = self.locate(h);
        for _ in 0..self.k {
            let bit = (probe % BLOCK_BITS) as usize;
            if self.words[base + bit / 64] & (1u64 << (bit % 64)) == 0 {
                return false;
            }
            probe = probe.wrapping_add(step);
        }
        true
    }

    /// Whether `key` may be present.
    pub(crate) fn may_contain(&self, key: &[u8]) -> bool {
        self.may_contain_hash(bloom_hash(key))
    }

    /// Appends the serialized filter to `out`.
    pub(crate) fn serialize_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.k.to_le_bytes());
        out.extend_from_slice(&((self.words.len() / BLOCK_WORDS) as u32).to_le_bytes());
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }

    /// Inverse of [`BloomFilter::serialize_into`]; `None` on malformed
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

    #[test]
    fn no_false_negatives() {
        let keys = seeded_keys(5000, 1);
        let hashes: Vec<u64> = keys.iter().map(|k| bloom_hash(k)).collect();
        let f = BloomFilter::build(&hashes, 10);
        for k in &keys {
            assert!(f.may_contain(k), "false negative for {k:?}");
        }
    }

    #[test]
    fn false_positive_rate_is_bounded() {
        // 10 bits/key targets ~1 % FPR; blocked layouts trade a little
        // accuracy for locality, so assert a conservative 3 % bound.
        let keys = seeded_keys(10_000, 2);
        let hashes: Vec<u64> = keys.iter().map(|k| bloom_hash(k)).collect();
        let f = BloomFilter::build(&hashes, 10);
        let probes = seeded_keys(10_000, 99); // disjoint from `keys`
        let fp = probes.iter().filter(|k| f.may_contain(k)).count();
        let rate = fp as f64 / probes.len() as f64;
        assert!(rate < 0.03, "false positive rate {rate:.4} too high");
    }

    #[test]
    fn serialization_roundtrips() {
        let keys = seeded_keys(500, 3);
        let hashes: Vec<u64> = keys.iter().map(|k| bloom_hash(k)).collect();
        let f = BloomFilter::build(&hashes, 12);
        let mut buf = Vec::new();
        f.serialize_into(&mut buf);
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
        BloomFilter::build(&[1, 2, 3], 10).serialize_into(&mut buf);
        buf.pop();
        assert!(BloomFilter::deserialize(&buf).is_none());
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let f = BloomFilter::build(&[], 10);
        assert!(!f.may_contain(b"anything"));
    }
}
