//! LSB-first bit-level IO, in the style of DEFLATE.

/// Accumulates bits LSB-first into a byte vector.
#[derive(Debug, Default)]
pub(crate) struct BitWriter {
    out: Vec<u8>,
    acc: u64,
    nbits: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Writes the low `count` bits of `bits` (LSB-first). `count <= 57`.
    pub(crate) fn write_bits(&mut self, bits: u64, count: u32) {
        debug_assert!(count <= 57);
        debug_assert!(count == 64 || bits < (1u64 << count));
        self.acc |= bits << self.nbits;
        self.nbits += count;
        while self.nbits >= 8 {
            self.out.push((self.acc & 0xff) as u8);
            self.acc >>= 8;
            self.nbits -= 8;
        }
    }

    /// Flushes any partial byte (zero-padded) and returns the buffer.
    pub(crate) fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.out.push((self.acc & 0xff) as u8);
        }
        self.out
    }
}

/// Reads bits LSB-first from a byte slice.
#[derive(Debug)]
pub(crate) struct BitReader<'a> {
    buf: &'a [u8],
    pos: usize,
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `buf`.
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        BitReader {
            buf,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    fn refill(&mut self) {
        while self.nbits <= 56 {
            match self.buf.get(self.pos) {
                Some(&b) => {
                    self.acc |= u64::from(b) << self.nbits;
                    self.nbits += 8;
                    self.pos += 1;
                }
                None => break,
            }
        }
    }

    /// Reads `count` bits; returns `None` when the input is exhausted.
    pub(crate) fn read_bits(&mut self, count: u32) -> Option<u64> {
        debug_assert!(count <= 57);
        if self.nbits < count {
            self.refill();
            if self.nbits < count {
                return None;
            }
        }
        let mask = if count == 64 {
            u64::MAX
        } else {
            (1u64 << count) - 1
        };
        let v = self.acc & mask;
        self.acc >>= count;
        self.nbits -= count;
        Some(v)
    }

    /// Reads a single bit.
    pub(crate) fn read_bit(&mut self) -> Option<u64> {
        self.read_bits(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_widths() {
        let mut w = BitWriter::new();
        let samples: Vec<(u64, u32)> = vec![
            (0b1, 1),
            (0b101, 3),
            (0xff, 8),
            (0x1234, 13),
            (0, 5),
            (0x1f_ffff, 21),
            (1, 1),
        ];
        for &(v, n) in &samples {
            w.write_bits(v, n);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &samples {
            assert_eq!(r.read_bits(n), Some(v));
        }
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut w = BitWriter::new();
        w.write_bits(0b11, 2);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(2), Some(0b11));
        // Remaining padding bits of the byte are readable as zeros...
        assert_eq!(r.read_bits(6), Some(0));
        // ...but beyond the final byte there is nothing.
        assert_eq!(r.read_bits(1), None);
    }

    #[test]
    fn lsb_first_byte_layout() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1); // bit 0
        w.write_bits(0b11, 2); // bits 1-2
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b0000_0111]);
    }
}
