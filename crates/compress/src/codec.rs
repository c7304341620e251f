//! The self-describing compression container shared by the storage
//! layer's per-field `compress=` column option and the SSTable writer's
//! data blocks.

use crate::{crc32, deflate, lz, lzss, varint};
use std::fmt;

/// A compression method selectable per table field, mirroring the paper's
/// `gpsList st_series:compress=gzip|zip` syntax.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Codec {
    /// Store bytes verbatim.
    #[default]
    None,
    /// The DEFLATE-like LZSS + Huffman codec (the paper's `gzip`).
    Gzip,
    /// Byte-oriented LZSS only (the paper's `zip`).
    Zip,
    /// The fast LZ4-style codec the SSTable writer uses for its blocks.
    Lz,
}

impl Codec {
    /// Stable one-byte wire code.
    pub fn code(self) -> u8 {
        match self {
            Codec::None => 0,
            Codec::Gzip => 1,
            Codec::Zip => 2,
            Codec::Lz => 3,
        }
    }

    /// Inverse of [`Codec::code`].
    pub fn from_code(c: u8) -> Option<Self> {
        Some(match c {
            0 => Codec::None,
            1 => Codec::Gzip,
            2 => Codec::Zip,
            3 => Codec::Lz,
            _ => return None,
        })
    }

    /// Parses the `compress=` option value from a `CREATE TABLE` statement,
    /// the inverse of `Display`.
    pub fn parse(name: &str) -> Option<Self> {
        Some(match name.to_ascii_lowercase().as_str() {
            "none" => Codec::None,
            "gzip" => Codec::Gzip,
            "zip" => Codec::Zip,
            "lz" => Codec::Lz,
            _ => return None,
        })
    }

    /// Wraps `data` in a checksummed container:
    /// `method(u8) | crc32(4 LE) | uncompressed_len(varint) | payload`.
    pub fn compress(self, data: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.compress_into(data, &mut out);
        out
    }

    /// [`Codec::compress`] into `out`, replacing what it held: a writer
    /// that packs block after block reuses one buffer.
    pub fn compress_into(self, data: &[u8], out: &mut Vec<u8>) {
        out.clear();
        out.push(self.code());
        out.extend_from_slice(&crc32::crc32(data).to_le_bytes());
        varint::write_u64(out, data.len() as u64);
        match self {
            Codec::None => out.extend_from_slice(data),
            Codec::Gzip => out.extend_from_slice(&deflate::compress(data)),
            Codec::Zip => out.extend_from_slice(&lzss::compress(data)),
            Codec::Lz => lz::compress(data, out),
        }
    }

    /// The most bytes this method can decode from `n` payload bytes.
    fn max_output(self, n: usize) -> u64 {
        let n = n as u64;
        match self {
            Codec::None => n,
            // A 3-byte match token yields at most 258 bytes.
            Codec::Zip => 86 * n,
            // Two 1-bit codes yield at most 258 bytes.
            Codec::Gzip => 1032 * n,
            // An extension byte adds at most 255 to a match.
            Codec::Lz => 255 * n + 32,
        }
    }

    /// Unwraps and verifies a [`Codec::compress`] container. The method is
    /// read from the container itself, so any codec's output can be opened
    /// without knowing which one produced it. A declared length that the
    /// method cannot reach from the payload is refused before anything is
    /// allocated, and no decoder writes past the declared length.
    pub fn decompress(data: &[u8]) -> Result<Vec<u8>, CompressError> {
        let method = Codec::from_code(*data.first().ok_or(CompressError::Truncated)?)
            .ok_or(CompressError::UnknownMethod)?;
        if data.len() < 5 {
            return Err(CompressError::Truncated);
        }
        let checksum = u32::from_le_bytes([data[1], data[2], data[3], data[4]]);
        let mut pos = 5usize;
        let expected_len = varint::read_u64(data, &mut pos).ok_or(CompressError::Truncated)?;
        let payload = &data[pos..];
        if expected_len > method.max_output(payload.len()) {
            return Err(CompressError::Corrupt);
        }
        let expected_len = expected_len as usize;
        let out = match method {
            Codec::None => payload.to_vec(),
            Codec::Gzip => deflate::decompress(payload).ok_or(CompressError::Corrupt)?,
            Codec::Zip => lzss::decompress(payload).ok_or(CompressError::Corrupt)?,
            Codec::Lz => lz::decompress(payload, expected_len).ok_or(CompressError::Corrupt)?,
        };
        if out.len() != expected_len {
            return Err(CompressError::Corrupt);
        }
        if crc32::crc32(&out) != checksum {
            return Err(CompressError::ChecksumMismatch);
        }
        Ok(out)
    }
}

impl fmt::Display for Codec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Codec::None => "none",
            Codec::Gzip => "gzip",
            Codec::Zip => "zip",
            Codec::Lz => "lz",
        })
    }
}

/// Errors surfaced when opening a compression container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompressError {
    /// Input ended before the header or payload was complete.
    Truncated,
    /// The method byte is not a known codec.
    UnknownMethod,
    /// The payload failed to decode or had the wrong length.
    Corrupt,
    /// The payload decoded but its CRC-32 did not match.
    ChecksumMismatch,
}

impl fmt::Display for CompressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CompressError::Truncated => "compressed data truncated",
            CompressError::UnknownMethod => "unknown compression method",
            CompressError::Corrupt => "compressed data corrupt",
            CompressError::ChecksumMismatch => "checksum mismatch after decompression",
        })
    }
}

impl std::error::Error for CompressError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_codec_roundtrips() {
        let data = b"every codec must roundtrip this payload ".repeat(50);
        for codec in [Codec::None, Codec::Gzip, Codec::Zip, Codec::Lz] {
            let packed = codec.compress(&data);
            assert_eq!(Codec::decompress(&packed).unwrap(), data, "{codec}");
        }
    }

    #[test]
    fn gzip_beats_zip_beats_none_on_text() {
        // A varied corpus (like a real GPS list) rather than one repeated
        // phrase: with any entropy present, Huffman coding pays for its
        // header and `gzip` wins over match-only `zip`.
        let mut data = Vec::new();
        for i in 0..3000u32 {
            data.extend_from_slice(
                format!(
                    "lng=116.{:05},lat=39.{:05},t={};",
                    i * 37 % 99_991,
                    i * 53 % 99_991,
                    i
                )
                .as_bytes(),
            );
        }
        let none = Codec::None.compress(&data).len();
        let zip = Codec::Zip.compress(&data).len();
        let gzip = Codec::Gzip.compress(&data).len();
        assert!(gzip < zip, "gzip {gzip} !< zip {zip}");
        assert!(zip < none, "zip {zip} !< none {none}");
    }

    #[test]
    fn tiny_fields_grow_when_compressed() {
        // The paper's Fig 10a lesson: compressing small fields backfires.
        let data = b"42";
        let none = Codec::None.compress(data).len();
        let gzip = Codec::Gzip.compress(data).len();
        assert!(gzip > none);
    }

    #[test]
    fn checksum_mismatch_detected() {
        let data = b"checksum guarded payload".repeat(10);
        let mut packed = Codec::None.compress(&data);
        let last = packed.len() - 1;
        packed[last] ^= 0xff;
        assert_eq!(
            Codec::decompress(&packed),
            Err(CompressError::ChecksumMismatch)
        );
    }

    #[test]
    fn header_errors() {
        assert_eq!(Codec::decompress(&[]), Err(CompressError::Truncated));
        assert_eq!(Codec::decompress(&[9]), Err(CompressError::UnknownMethod));
        assert_eq!(Codec::decompress(&[0, 1, 2]), Err(CompressError::Truncated));
    }

    #[test]
    fn parse_names() {
        assert_eq!(Codec::parse("GZIP"), Some(Codec::Gzip));
        assert_eq!(Codec::parse("zip"), Some(Codec::Zip));
        assert_eq!(Codec::parse("none"), Some(Codec::None));
        assert_eq!(Codec::parse("LZ"), Some(Codec::Lz));
        assert_eq!(Codec::parse("lz4"), None);
        for codec in [Codec::None, Codec::Gzip, Codec::Zip, Codec::Lz] {
            assert_eq!(Codec::parse(&codec.to_string()), Some(codec));
        }
    }
}
