//! The DEFLATE-like composite codec: LZSS tokens entropy-coded with two
//! canonical Huffman trees (literal/length and distance), the repository's
//! `gzip` equivalent.
//!
//! The stream layout is:
//!
//! ```text
//! varint  uncompressed_len
//! rle     literal/length code lengths  (symbols 0..=285)
//! rle     distance code lengths        (symbols 0..=29)
//! bits    Huffman-coded token stream, terminated by end-of-block (256)
//! ```
//!
//! Length and distance values use DEFLATE's bucket-plus-extra-bits scheme.

use crate::bitio::{BitReader, BitWriter};
use crate::huffman::{build_lengths, Decoder, Encoder, MAX_CODE_LEN};
use crate::lzss::{self, Token, MIN_MATCH};
use crate::varint;

/// End-of-block symbol in the literal/length alphabet.
const EOB: usize = 256;
/// Size of the literal/length alphabet (0..=285).
const NUM_LIT: usize = 286;
/// Size of the distance alphabet (0..=29).
const NUM_DIST: usize = 30;

/// DEFLATE length-code table: `(base_length, extra_bits)` for codes
/// 257..=285.
const LENGTH_TABLE: [(u16, u8); 29] = [
    (3, 0),
    (4, 0),
    (5, 0),
    (6, 0),
    (7, 0),
    (8, 0),
    (9, 0),
    (10, 0),
    (11, 1),
    (13, 1),
    (15, 1),
    (17, 1),
    (19, 2),
    (23, 2),
    (27, 2),
    (31, 2),
    (35, 3),
    (43, 3),
    (51, 3),
    (59, 3),
    (67, 4),
    (83, 4),
    (99, 4),
    (115, 4),
    (131, 5),
    (163, 5),
    (195, 5),
    (227, 5),
    (258, 0),
];

/// DEFLATE distance-code table: `(base_distance, extra_bits)` for codes
/// 0..=29.
const DIST_TABLE: [(u16, u8); 30] = [
    (1, 0),
    (2, 0),
    (3, 0),
    (4, 0),
    (5, 1),
    (7, 1),
    (9, 2),
    (13, 2),
    (17, 3),
    (25, 3),
    (33, 4),
    (49, 4),
    (65, 5),
    (97, 5),
    (129, 6),
    (193, 6),
    (257, 7),
    (385, 7),
    (513, 8),
    (769, 8),
    (1025, 9),
    (1537, 9),
    (2049, 10),
    (3073, 10),
    (4097, 11),
    (6145, 11),
    (8193, 12),
    (12289, 12),
    (16385, 13),
    (24577, 13),
];

fn length_code(len: u16) -> (usize, u16, u8) {
    debug_assert!((MIN_MATCH as u16..=258).contains(&len));
    // Binary search over base lengths.
    let mut code = 0;
    for (i, &(base, _)) in LENGTH_TABLE.iter().enumerate() {
        if base <= len {
            code = i;
        } else {
            break;
        }
    }
    let (base, extra) = LENGTH_TABLE[code];
    (257 + code, len - base, extra)
}

fn dist_code(dist: u16) -> (usize, u16, u8) {
    debug_assert!(dist >= 1);
    let mut code = 0;
    for (i, &(base, _)) in DIST_TABLE.iter().enumerate() {
        if base <= dist {
            code = i;
        } else {
            break;
        }
    }
    let (base, extra) = DIST_TABLE[code];
    (code, dist - base, extra)
}

/// Run-length encodes a code-length array as (value, run) varint pairs.
fn write_lengths_rle(out: &mut Vec<u8>, lens: &[u8]) {
    varint::write_u64(out, lens.len() as u64);
    let mut i = 0;
    while i < lens.len() {
        let v = lens[i];
        let mut run = 1usize;
        while i + run < lens.len() && lens[i + run] == v {
            run += 1;
        }
        out.push(v);
        varint::write_u64(out, run as u64);
        i += run;
    }
}

fn read_lengths_rle(buf: &[u8], pos: &mut usize) -> Option<Vec<u8>> {
    let n = varint::read_u64(buf, pos)? as usize;
    if n > NUM_LIT {
        return None;
    }
    let mut lens = Vec::with_capacity(n);
    while lens.len() < n {
        let v = *buf.get(*pos)?;
        *pos += 1;
        let run = varint::read_u64(buf, pos)? as usize;
        if run == 0 || lens.len() + run > n {
            return None;
        }
        lens.extend(std::iter::repeat_n(v, run));
    }
    Some(lens)
}

/// Compresses `data` with LZSS + dual Huffman coding.
pub(crate) fn compress(data: &[u8]) -> Vec<u8> {
    let tokens = lzss::tokenize(data);

    // Frequency pass.
    let mut lit_freq = vec![0u64; NUM_LIT];
    let mut dist_freq = vec![0u64; NUM_DIST];
    for t in &tokens {
        match *t {
            Token::Literal(b) => lit_freq[b as usize] += 1,
            Token::Match { len, dist } => {
                lit_freq[length_code(len).0] += 1;
                dist_freq[dist_code(dist).0] += 1;
            }
        }
    }
    lit_freq[EOB] += 1;

    let lit_lens = build_lengths(&lit_freq, MAX_CODE_LEN);
    let dist_lens = build_lengths(&dist_freq, MAX_CODE_LEN);
    let lit_enc = Encoder::from_lengths(&lit_lens);
    let dist_enc = Encoder::from_lengths(&dist_lens);

    let mut out = Vec::with_capacity(data.len() / 3 + 64);
    varint::write_u64(&mut out, data.len() as u64);
    write_lengths_rle(&mut out, &lit_lens);
    write_lengths_rle(&mut out, &dist_lens);

    let mut w = BitWriter::new();
    for t in &tokens {
        match *t {
            Token::Literal(b) => lit_enc.encode(&mut w, b as usize),
            Token::Match { len, dist } => {
                let (sym, extra_val, extra_bits) = length_code(len);
                lit_enc.encode(&mut w, sym);
                if extra_bits > 0 {
                    w.write_bits(u64::from(extra_val), u32::from(extra_bits));
                }
                let (dsym, dextra_val, dextra_bits) = dist_code(dist);
                dist_enc.encode(&mut w, dsym);
                if dextra_bits > 0 {
                    w.write_bits(u64::from(dextra_val), u32::from(dextra_bits));
                }
            }
        }
    }
    lit_enc.encode(&mut w, EOB);
    out.extend_from_slice(&w.finish());
    out
}

/// Decompresses a [`compress`]-produced stream. Returns `None` on any
/// corruption; nothing is written past the declared length.
pub(crate) fn decompress(data: &[u8]) -> Option<Vec<u8>> {
    let mut pos = 0usize;
    let expected = varint::read_u64(data, &mut pos)? as usize;
    let lit_lens = read_lengths_rle(data, &mut pos)?;
    let dist_lens = read_lengths_rle(data, &mut pos)?;
    if lit_lens.len() != NUM_LIT || dist_lens.len() != NUM_DIST {
        return None;
    }
    let lit_dec = Decoder::from_lengths(&lit_lens)?;
    let dist_dec = Decoder::from_lengths(&dist_lens)?;

    // Don't trust the claimed length for pre-allocation: a corrupt header
    // must not trigger a huge allocation before decoding fails.
    let mut out = Vec::with_capacity(expected.min(data.len().saturating_mul(1024)));
    let mut r = BitReader::new(&data[pos..]);
    loop {
        let sym = lit_dec.decode(&mut r)? as usize;
        match sym {
            0..=255 if out.len() < expected => out.push(sym as u8),
            EOB => break,
            257..=285 => {
                let (base, extra) = LENGTH_TABLE[sym - 257];
                let len = base as usize + r.read_bits(u32::from(extra)).unwrap_or(0) as usize;
                let dsym = dist_dec.decode(&mut r)? as usize;
                if dsym >= NUM_DIST {
                    return None;
                }
                let (dbase, dextra) = DIST_TABLE[dsym];
                let dist = dbase as usize + r.read_bits(u32::from(dextra))? as usize;
                if dist == 0 || dist > out.len() || len > expected - out.len() {
                    return None;
                }
                let start = out.len() - dist;
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            }
            _ => return None,
        }
    }
    (out.len() == expected).then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_codes_cover_all_lengths() {
        for len in MIN_MATCH as u16..=258 {
            let (sym, extra_val, extra_bits) = length_code(len);
            assert!((257..=285).contains(&sym));
            let (base, eb) = LENGTH_TABLE[sym - 257];
            assert_eq!(eb, extra_bits);
            assert_eq!(base + extra_val, len);
            assert!(extra_val < (1 << extra_bits) || extra_bits == 0 && extra_val == 0);
        }
    }

    #[test]
    fn dist_codes_cover_window() {
        for dist in [1u16, 2, 4, 5, 8, 9, 100, 1024, 5000, 32767, 32768] {
            let (sym, extra_val, extra_bits) = dist_code(dist);
            assert!(sym < NUM_DIST);
            let (base, eb) = DIST_TABLE[sym];
            assert_eq!(eb, extra_bits);
            assert_eq!(base + extra_val, dist);
        }
    }

    #[test]
    fn roundtrip_text() {
        let data: Vec<u8> = (0..500)
            .flat_map(|i| {
                format!("gps point lng=116.{:04} lat=39.{:04};", i % 877, i % 733).into_bytes()
            })
            .collect();
        let packed = compress(&data);
        assert!(
            packed.len() < data.len() / 2,
            "poor ratio: {} -> {}",
            data.len(),
            packed.len()
        );
        assert_eq!(decompress(&packed), Some(data));
    }

    #[test]
    fn roundtrip_empty_and_tiny() {
        for data in [&b""[..], b"x", b"xy", b"xyz"] {
            let packed = compress(data);
            assert_eq!(decompress(&packed).unwrap(), data);
        }
    }

    #[test]
    fn corruption_is_detected() {
        let data = b"the rain in spain stays mainly in the plain".repeat(20);
        let packed = compress(&data);
        // Truncation.
        assert_eq!(decompress(&packed[..packed.len() - 5]), None);
        // Garbage header.
        assert_eq!(decompress(&[0xff, 0xff, 0xff]), None);
    }

    #[test]
    fn binary_roundtrip() {
        let mut data = Vec::new();
        for i in 0..20_000u32 {
            data.extend_from_slice(&(i % 251).to_le_bytes());
        }
        let packed = compress(&data);
        assert!(packed.len() < data.len() / 4);
        assert_eq!(decompress(&packed), Some(data));
    }
}
