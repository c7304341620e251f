//! CRC-32 (IEEE 802.3 polynomial), used as the integrity checksum of
//! compression containers, WAL records and SSTable blocks.
//!
//! Slice-by-8: eight lookup tables let one step fold eight input bytes
//! with eight independent loads instead of eight dependent ones. Table
//! `k` maps a byte to its CRC contribution when `k` zero bytes follow
//! it, so the eight lookups of a step are XORed together; the tail
//! shorter than eight bytes goes through table 0 a byte at a time.

/// The reflected polynomial.
const POLY: u32 = 0xEDB8_8320;

/// The eight slice tables, computed at compile time.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Computes the CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Hasher::new();
    h.update(data);
    h.finish()
}

/// Incremental CRC-32 hasher.
struct Hasher {
    state: u32,
}

impl Hasher {
    /// Starts a new checksum.
    fn new() -> Self {
        Hasher { state: 0xFFFF_FFFF }
    }

    /// Feeds bytes into the checksum.
    fn update(&mut self, data: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let mut chunks = data.chunks_exact(8);
        for c in &mut chunks {
            let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
            crc = t[7][(lo & 0xff) as usize]
                ^ t[6][((lo >> 8) & 0xff) as usize]
                ^ t[5][((lo >> 16) & 0xff) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xff) as usize]
                ^ t[2][((hi >> 8) & 0xff) as usize]
                ^ t[1][((hi >> 16) & 0xff) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xff) as usize];
        }
        self.state = crc;
    }

    /// Finalises and returns the checksum.
    fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use just_obs::Rng;

    /// The bytewise table loop: the oracle slice-by-8 must equal.
    fn bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize];
        }
        crc ^ 0xFFFF_FFFF
    }

    fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut rng = Rng::seed_from_u64(seed);
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn known_vectors() {
        // Standard test vectors for CRC-32/IEEE.
        for (data, want) in [
            (&b""[..], 0x0000_0000),
            (b"123456789", 0xCBF4_3926),
            (b"The quick brown fox jumps over the lazy dog", 0x414F_A339),
        ] {
            assert_eq!(crc32(data), want);
            assert_eq!(bytewise(data), want);
        }
    }

    #[test]
    fn slice_by_8_equals_bytewise_at_every_length_and_alignment() {
        let buf = random_bytes(0xC3C3_2032, 300 + 8);
        for align in 0..8 {
            for len in 0..=300 {
                let data = &buf[align..align + len];
                assert_eq!(crc32(data), bytewise(data), "len {len} align {align}");
            }
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = random_bytes(0x5711_7000, 300);
        let want = bytewise(&data);
        for split in 0..=data.len() {
            let mut h = Hasher::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), want, "split at {split}");
        }
    }

    #[test]
    fn detects_corruption() {
        let a = crc32(b"payload-a");
        let b = crc32(b"payload-b");
        assert_ne!(a, b);
    }
}
