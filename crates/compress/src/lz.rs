//! A fast byte-oriented LZ77 codec in the LZ4 block style: greedy
//! matching through one 4 096-entry hash table, no entropy stage. It is
//! the SSTable writer's block codec, where decoding costs a few µs a
//! block (the DEFLATE-like `gzip` is ~20x slower to decode).
//!
//! A payload is a run of sequences, the last of which holds literals
//! only:
//!
//! ```text
//! sequence := token(u8) lit_ext* literal* [offset(u16 LE) match_ext*]
//! ```
//!
//! The token's high nibble is the literal count and its low nibble the
//! match length minus [`MIN_MATCH`]; a nibble of 15 continues in
//! extension bytes, each added to it, up to the first that is not 255.
//! The payload carries no length of its own: the decoder is told it and
//! stops there.

/// Shortest match worth a 3-byte token + offset.
const MIN_MATCH: usize = 4;
/// Farthest back a match may reach (the offset is a `u16`).
const MAX_OFFSET: usize = u16::MAX as usize;
const HASH_BITS: u32 = 12;

fn read4(data: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([data[at], data[at + 1], data[at + 2], data[at + 3]])
}

fn hash(word: u32) -> usize {
    (word.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Appends the extension bytes of a length whose nibble saturated.
fn push_len(out: &mut Vec<u8>, len: usize) {
    if len >= 15 {
        let mut rest = len - 15;
        while rest >= 255 {
            out.push(255);
            rest -= 255;
        }
        out.push(rest as u8);
    }
}

/// Appends one sequence: `literals`, then a match of `(offset, len)`.
fn push_sequence(out: &mut Vec<u8>, literals: &[u8], copy: Option<(usize, usize)>) {
    let extra = copy.map_or(0, |(_, len)| len - MIN_MATCH);
    out.push(((literals.len().min(15) as u8) << 4) | extra.min(15) as u8);
    push_len(out, literals.len());
    out.extend_from_slice(literals);
    if let Some((offset, _)) = copy {
        out.extend_from_slice(&(offset as u16).to_le_bytes());
        push_len(out, extra);
    }
}

/// Appends the LZ payload of `data` to `out`. The search step grows by
/// one every 64 bytes without a match, so incompressible input passes
/// quickly.
pub(crate) fn compress(data: &[u8], out: &mut Vec<u8>) {
    out.reserve(data.len() + data.len() / 255 + 16);
    let mut table = [0u32; 1 << HASH_BITS];
    let (mut anchor, mut at) = (0, 0);
    while at + MIN_MATCH <= data.len() {
        let word = read4(data, at);
        let slot = &mut table[hash(word)];
        let from = *slot as usize;
        *slot = at as u32;
        if from < at && at - from <= MAX_OFFSET && read4(data, from) == word {
            let same = data[at + MIN_MATCH..]
                .iter()
                .zip(&data[from + MIN_MATCH..])
                .take_while(|(a, b)| a == b)
                .count();
            let len = MIN_MATCH + same;
            push_sequence(out, &data[anchor..at], Some((at - from, len)));
            at += len;
            anchor = at;
        } else {
            at += 1 + ((at - anchor) >> 6);
        }
    }
    push_sequence(out, &data[anchor..], None);
}

/// Reads a length whose token nibble is `nibble`.
fn read_len(src: &[u8], pos: &mut usize, nibble: u8) -> Option<usize> {
    let mut len = usize::from(nibble);
    if nibble == 15 {
        loop {
            let byte = *src.get(*pos)?;
            *pos += 1;
            len += usize::from(byte);
            if byte != 255 {
                break;
            }
        }
    }
    Some(len)
}

/// Decodes a [`compress`] payload of `len` bytes. `None` when the
/// payload ends early, runs past `len`, has bytes left over, or copies
/// from before the start: nothing is ever written past `len`.
pub(crate) fn decompress(src: &[u8], len: usize) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(len);
    let mut pos = 0;
    loop {
        let token = *src.get(pos)?;
        pos += 1;
        let lit = read_len(src, &mut pos, token >> 4)?;
        if lit > len - out.len() {
            return None;
        }
        out.extend_from_slice(src.get(pos..pos + lit)?);
        pos += lit;
        if out.len() == len {
            return (pos == src.len()).then_some(out);
        }
        let offset = usize::from(u16::from_le_bytes([*src.get(pos)?, *src.get(pos + 1)?]));
        pos += 2;
        let copy = MIN_MATCH + read_len(src, &mut pos, token & 15)?;
        if offset == 0 || offset > out.len() || copy > len - out.len() {
            return None;
        }
        // An overlapping copy repeats the last `offset` bytes: copy from
        // `start` in chunks that double, each a whole number of periods.
        let (start, end) = (out.len() - offset, out.len() + copy);
        while out.len() < end {
            let chunk = (end - out.len()).min(out.len() - start);
            out.extend_from_within(start..start + chunk);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pack(data: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        compress(data, &mut out);
        out
    }

    #[test]
    fn a_run_is_one_match_with_an_overlapping_copy() {
        let data = vec![b'a'; 1000];
        let packed = pack(&data);
        assert!(packed.len() < 12, "{} bytes", packed.len());
        assert_eq!(decompress(&packed, data.len()), Some(data));
    }

    #[test]
    fn short_and_empty_inputs_are_literals() {
        for data in [&b""[..], b"a", b"abc", b"abcd", b"abcdabcd"] {
            let packed = pack(data);
            assert_eq!(decompress(&packed, data.len()).as_deref(), Some(data));
        }
        assert_eq!(pack(b""), [0]);
    }

    #[test]
    fn long_literal_and_match_lengths_use_extension_bytes() {
        // 300 distinct-enough bytes, then that stretch again: a literal
        // count and a match length both past 15 + 255.
        let head: Vec<u8> = (0..300u32).map(|i| (i * 7 % 251) as u8).collect();
        let data = [&head[..], &head[..]].concat();
        let packed = pack(&data);
        assert!(packed.len() < data.len() * 3 / 5);
        assert_eq!(decompress(&packed, data.len()), Some(data));
    }

    #[test]
    fn the_decoder_refuses_what_the_encoder_never_writes() {
        let packed = pack(&b"abcdefgh-abcdefgh-abcdefgh".repeat(4));
        let n = packed.len() - 1;
        // A declared length too short or too long for the payload.
        assert_eq!(decompress(&packed, 104 - 1), None);
        assert_eq!(decompress(&packed, 104 + 1), None);
        // Bytes after the final sequence.
        assert_eq!(decompress(&[&packed[..], &[0]].concat(), 104), None);
        // Cut anywhere.
        for cut in 0..n {
            assert_eq!(decompress(&packed[..cut], 104), None, "cut {cut}");
        }
        // A zero offset, and one reaching before the start.
        assert_eq!(decompress(&[0x10, b'x', 0, 0], 5), None);
        assert_eq!(decompress(&[0x10, b'x', 2, 0], 5), None);
    }
}
