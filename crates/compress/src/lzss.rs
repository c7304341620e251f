//! LZSS match finding (the LZ77 half of the DEFLATE-like codec) plus a
//! standalone byte-oriented LZSS format (the `zip`-flavoured codec of the
//! paper's `compress=gzip|zip` column option).

/// Sliding-window size. Matches may reach at most this far back.
const WINDOW_SIZE: usize = 32 * 1024;
/// Minimum match length worth emitting.
pub(crate) const MIN_MATCH: usize = 3;
/// Maximum match length (DEFLATE's limit).
const MAX_MATCH: usize = 258;

const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;
/// How many chain links to follow before giving up (speed/ratio knob).
const MAX_CHAIN: usize = 64;

/// One LZSS token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Token {
    /// A single literal byte.
    Literal(u8),
    /// A back-reference: copy `len` bytes starting `dist` bytes back.
    Match {
        /// Copy length, `MIN_MATCH..=MAX_MATCH`.
        len: u16,
        /// Backwards distance, `1..=WINDOW_SIZE`.
        dist: u16,
    },
}

#[inline]
fn hash3(data: &[u8], i: usize) -> usize {
    let v = u32::from(data[i]) | (u32::from(data[i + 1]) << 8) | (u32::from(data[i + 2]) << 16);
    ((v.wrapping_mul(0x9E37_79B1)) >> (32 - HASH_BITS)) as usize
}

/// Greedy hash-chain LZSS tokenisation.
pub(crate) fn tokenize(data: &[u8]) -> Vec<Token> {
    let n = data.len();
    let mut tokens = Vec::with_capacity(n / 3 + 8);
    if n < MIN_MATCH {
        tokens.extend(data.iter().map(|&b| Token::Literal(b)));
        return tokens;
    }
    let mut head = vec![-1i64; HASH_SIZE];
    let mut prev = vec![-1i64; n];
    let mut i = 0usize;
    while i < n {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + MIN_MATCH <= n {
            let h = hash3(data, i);
            let mut cand = head[h];
            let mut chain = 0usize;
            let min_pos = i.saturating_sub(WINDOW_SIZE) as i64;
            while cand >= min_pos && chain < MAX_CHAIN {
                let c = cand as usize;
                // Cheap pre-check with the byte after the current best.
                if best_len == 0 || data.get(c + best_len) == data.get(i + best_len) {
                    let max_len = (n - i).min(MAX_MATCH);
                    let mut l = 0usize;
                    while l < max_len && data[c + l] == data[i + l] {
                        l += 1;
                    }
                    if l > best_len {
                        best_len = l;
                        best_dist = i - c;
                        if l >= max_len {
                            break;
                        }
                    }
                }
                cand = prev[c];
                chain += 1;
            }
        }
        if best_len >= MIN_MATCH {
            tokens.push(Token::Match {
                len: best_len as u16,
                dist: best_dist as u16,
            });
            // Insert every covered position into the chains so later data
            // can match inside this run.
            let end = (i + best_len).min(n.saturating_sub(MIN_MATCH - 1));
            for (j, p) in prev.iter_mut().enumerate().take(end).skip(i) {
                let h = hash3(data, j);
                *p = head[h];
                head[h] = j as i64;
            }
            i += best_len;
        } else {
            tokens.push(Token::Literal(data[i]));
            if i + MIN_MATCH <= n {
                let h = hash3(data, i);
                prev[i] = head[h];
                head[h] = i as i64;
            }
            i += 1;
        }
    }
    tokens
}

/// Byte-oriented LZSS container: groups of 8 tokens share a flag byte
/// (bit set = match). Matches are stored as `len - MIN_MATCH` (1 byte) and
/// distance (2 bytes LE).
pub fn compress(data: &[u8]) -> Vec<u8> {
    let tokens = tokenize(data);
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    crate::varint::write_u64(&mut out, data.len() as u64);
    let mut flag_pos = 0usize;
    let mut flag_bit = 8u8; // forces a new flag byte immediately
    for t in &tokens {
        if flag_bit == 8 {
            flag_pos = out.len();
            out.push(0);
            flag_bit = 0;
        }
        match *t {
            Token::Literal(b) => out.push(b),
            Token::Match { len, dist } => {
                out[flag_pos] |= 1 << flag_bit;
                out.push((len as usize - MIN_MATCH) as u8);
                out.extend_from_slice(&dist.to_le_bytes());
            }
        }
        flag_bit += 1;
    }
    out
}

/// Inverse of [`compress`]. Returns `None` on malformed input.
pub fn decompress(data: &[u8]) -> Option<Vec<u8>> {
    let mut pos = 0usize;
    let expected = crate::varint::read_u64(data, &mut pos)? as usize;
    // Don't trust the claimed length for pre-allocation: a corrupt header
    // must not trigger a huge allocation before decoding fails.
    let mut out = Vec::with_capacity(expected.min(data.len().saturating_mul(256)));
    let mut flag = 0u8;
    let mut flag_bit = 8u8;
    while out.len() < expected {
        if flag_bit == 8 {
            flag = *data.get(pos)?;
            pos += 1;
            flag_bit = 0;
        }
        if flag & (1 << flag_bit) != 0 {
            let len = *data.get(pos)? as usize + MIN_MATCH;
            let dist = u16::from_le_bytes([*data.get(pos + 1)?, *data.get(pos + 2)?]) as usize;
            pos += 3;
            if dist == 0 || dist > out.len() {
                return None;
            }
            let start = out.len() - dist;
            for k in 0..len {
                let b = out[start + k];
                out.push(b);
            }
        } else {
            out.push(*data.get(pos)?);
            pos += 1;
        }
        flag_bit += 1;
    }
    (out.len() == expected).then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Expands tokens back into bytes: the round-trip oracle for
    /// [`tokenize`]. `size_hint` pre-sizes the output.
    /// Returns `None` if a token references data before the start of output.
    fn detokenize(tokens: &[Token], size_hint: usize) -> Option<Vec<u8>> {
        let mut out = Vec::with_capacity(size_hint);
        for t in tokens {
            match *t {
                Token::Literal(b) => out.push(b),
                Token::Match { len, dist } => {
                    let dist = dist as usize;
                    let len = len as usize;
                    if dist == 0 || dist > out.len() {
                        return None;
                    }
                    let start = out.len() - dist;
                    // Byte-by-byte to support overlapping copies (dist < len).
                    for k in 0..len {
                        let b = out[start + k];
                        out.push(b);
                    }
                }
            }
        }
        Some(out)
    }

    #[test]
    fn token_roundtrip_repetitive() {
        let data = b"abcabcabcabcabcabcabcabc".to_vec();
        let tokens = tokenize(&data);
        assert!(tokens.len() < data.len(), "should find matches");
        assert_eq!(detokenize(&tokens, data.len()), Some(data));
    }

    #[test]
    fn token_roundtrip_short_inputs() {
        for data in [&b""[..], b"a", b"ab", b"abc"] {
            let tokens = tokenize(data);
            assert_eq!(detokenize(&tokens, data.len()).unwrap(), data);
        }
    }

    #[test]
    fn overlapping_copy() {
        // "aaaaaaaa..." produces dist=1 matches with len > dist.
        let data = vec![b'a'; 500];
        let tokens = tokenize(&data);
        assert!(tokens.len() <= 4, "got {} tokens", tokens.len());
        assert_eq!(detokenize(&tokens, data.len()), Some(data));
    }

    #[test]
    fn byte_container_roundtrip() {
        let mut data = Vec::new();
        for i in 0..2000u32 {
            data.extend_from_slice(format!("record-{},", i % 97).as_bytes());
        }
        let packed = compress(&data);
        assert!(packed.len() < data.len());
        assert_eq!(decompress(&packed), Some(data));
    }

    #[test]
    fn byte_container_rejects_truncation() {
        let data = b"hello hello hello hello hello".to_vec();
        let mut packed = compress(&data);
        packed.truncate(packed.len() - 2);
        assert_eq!(decompress(&packed), None);
    }

    #[test]
    fn detokenize_rejects_bad_distance() {
        let tokens = vec![Token::Match { len: 3, dist: 5 }];
        assert_eq!(detokenize(&tokens, 3), None);
    }

    #[test]
    fn incompressible_data_survives() {
        // Pseudo-random bytes: almost no matches, must still roundtrip.
        let mut x = 0x12345678u64;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) as u8
            })
            .collect();
        let packed = compress(&data);
        assert_eq!(decompress(&packed), Some(data));
    }
}
