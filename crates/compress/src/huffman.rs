//! Canonical, length-limited Huffman coding.
//!
//! Code lengths are derived from symbol frequencies with the classic
//! two-queue Huffman construction, then clamped to a maximum depth with a
//! Kraft-sum repair pass (the zlib strategy). Codes are assigned
//! canonically so only the length array needs to be serialised.

use crate::bitio::{BitReader, BitWriter};

/// Maximum code length supported by the (de)coder tables.
pub(crate) const MAX_CODE_LEN: u8 = 15;

/// Computes length-limited code lengths for `freqs`. Symbols with zero
/// frequency get length 0 (no code). `max_len` must be `<= MAX_CODE_LEN`.
pub(crate) fn build_lengths(freqs: &[u64], max_len: u8) -> Vec<u8> {
    assert!((1..=MAX_CODE_LEN).contains(&max_len));
    let n = freqs.len();
    let mut lengths = vec![0u8; n];
    let used: Vec<usize> = (0..n).filter(|&i| freqs[i] > 0).collect();
    match used.len() {
        0 => return lengths,
        1 => {
            // A single symbol still needs one bit so the decoder makes
            // progress.
            lengths[used[0]] = 1;
            return lengths;
        }
        _ => {}
    }

    // Huffman tree via a binary heap of (weight, node). Internal nodes get
    // ids >= n; parent[] lets us read off depths afterwards.
    #[derive(PartialEq, Eq)]
    struct Item(u64, usize);
    impl Ord for Item {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // Reverse for a min-heap; break weight ties by node id to make
            // the construction deterministic.
            other.0.cmp(&self.0).then(other.1.cmp(&self.1))
        }
    }
    impl PartialOrd for Item {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    let mut heap = std::collections::BinaryHeap::with_capacity(used.len());
    let mut parent = vec![usize::MAX; n + used.len()];
    for &i in &used {
        heap.push(Item(freqs[i], i));
    }
    let mut next_id = n;
    while heap.len() > 1 {
        let a = heap.pop().unwrap();
        let b = heap.pop().unwrap();
        parent[a.1] = next_id;
        parent[b.1] = next_id;
        heap.push(Item(a.0.saturating_add(b.0), next_id));
        next_id += 1;
    }
    let root = heap.pop().unwrap().1;

    for &i in &used {
        let mut depth = 0u32;
        let mut node = i;
        while node != root {
            node = parent[node];
            depth += 1;
        }
        lengths[i] = depth.min(255) as u8;
    }

    limit_lengths(&mut lengths, max_len);
    lengths
}

/// Clamps code lengths to `max_len` and repairs the Kraft inequality, then
/// hands back slack to the longest codes (shortening them) where possible.
fn limit_lengths(lengths: &mut [u8], max_len: u8) {
    let cap: u64 = 1 << max_len;
    let weight = |len: u8| -> u64 { 1 << (max_len - len) };
    let mut kraft: u64 = 0;
    for l in lengths.iter_mut() {
        if *l == 0 {
            continue;
        }
        if *l > max_len {
            *l = max_len;
        }
        kraft += weight(*l);
    }
    // Demote: lengthen the shallowest over-budget codes until Kraft fits.
    while kraft > cap {
        // Find the longest code shorter than max_len and push it deeper —
        // this removes the smallest possible amount of weight, keeping the
        // code near-optimal.
        let idx = (0..lengths.len())
            .filter(|&i| lengths[i] > 0 && lengths[i] < max_len)
            .max_by_key(|&i| lengths[i])
            .expect("kraft overflow with all codes at max_len is impossible");
        kraft -= weight(lengths[idx]) / 2;
        lengths[idx] += 1;
    }
}

/// Canonical encoder: maps symbols to (code, length) pairs. The stored code
/// is bit-reversed so it can be written LSB-first, as DEFLATE does.
#[derive(Debug, Clone)]
pub(crate) struct Encoder {
    codes: Vec<u16>,
    lens: Vec<u8>,
}

impl Encoder {
    /// Builds the encoder from canonical code lengths.
    pub(crate) fn from_lengths(lengths: &[u8]) -> Self {
        let codes = assign_canonical(lengths);
        let codes = codes
            .iter()
            .zip(lengths)
            .map(|(&c, &l)| reverse_bits(c, l))
            .collect();
        Encoder {
            codes,
            lens: lengths.to_vec(),
        }
    }

    /// Writes the code for `sym`. Panics (debug) if the symbol has no code.
    pub(crate) fn encode(&self, w: &mut BitWriter, sym: usize) {
        let len = self.lens[sym];
        debug_assert!(len > 0, "encoding symbol {sym} with no code");
        w.write_bits(u64::from(self.codes[sym]), u32::from(len));
    }
}

/// Canonical decoder driven by per-length first-code tables.
#[derive(Debug, Clone)]
pub(crate) struct Decoder {
    /// `first_code[l]` = canonical code value of the first code of length l.
    first_code: [u32; MAX_CODE_LEN as usize + 1],
    /// `offset[l]` = index into `symbols` of that first code.
    offset: [u32; MAX_CODE_LEN as usize + 1],
    /// `count[l]` = number of codes of length l.
    count: [u32; MAX_CODE_LEN as usize + 1],
    symbols: Vec<u16>,
}

impl Decoder {
    /// Builds the decoder from canonical code lengths. Returns `None` if
    /// the lengths over-subscribe the code space (corrupt header).
    pub(crate) fn from_lengths(lengths: &[u8]) -> Option<Self> {
        let mut count = [0u32; MAX_CODE_LEN as usize + 1];
        for &l in lengths {
            if l > MAX_CODE_LEN {
                return None;
            }
            if l > 0 {
                count[l as usize] += 1;
            }
        }
        // Kraft check.
        let mut kraft: u64 = 0;
        for (l, &c) in count.iter().enumerate().skip(1) {
            kraft += u64::from(c) << (MAX_CODE_LEN as usize - l);
        }
        if kraft > 1 << MAX_CODE_LEN {
            return None;
        }
        let mut first_code = [0u32; MAX_CODE_LEN as usize + 1];
        let mut offset = [0u32; MAX_CODE_LEN as usize + 1];
        let mut code = 0u32;
        let mut syms = 0u32;
        for l in 1..=MAX_CODE_LEN as usize {
            code = (code + count[l - 1]) << 1;
            first_code[l] = code;
            offset[l] = syms;
            syms += count[l];
        }
        let mut symbols = vec![0u16; syms as usize];
        let mut next = offset;
        for (sym, &l) in lengths.iter().enumerate() {
            if l > 0 {
                symbols[next[l as usize] as usize] = sym as u16;
                next[l as usize] += 1;
            }
        }
        Some(Decoder {
            first_code,
            offset,
            count,
            symbols,
        })
    }

    /// Decodes one symbol, or `None` on exhausted/invalid input.
    pub(crate) fn decode(&self, r: &mut BitReader<'_>) -> Option<u16> {
        let mut code = 0u32;
        for l in 1..=MAX_CODE_LEN as usize {
            code = (code << 1) | self.read_msb_bit(r)?;
            let rel = code.wrapping_sub(self.first_code[l]);
            if rel < self.count[l] {
                return Some(self.symbols[(self.offset[l] + rel) as usize]);
            }
        }
        None
    }

    fn read_msb_bit(&self, r: &mut BitReader<'_>) -> Option<u32> {
        r.read_bit().map(|b| b as u32)
    }
}

/// Assigns canonical (MSB-first) codes for the given lengths.
fn assign_canonical(lengths: &[u8]) -> Vec<u16> {
    let mut count = [0u32; MAX_CODE_LEN as usize + 1];
    for &l in lengths {
        if l > 0 {
            count[l as usize] += 1;
        }
    }
    let mut next_code = [0u32; MAX_CODE_LEN as usize + 1];
    let mut code = 0u32;
    for l in 1..=MAX_CODE_LEN as usize {
        code = (code + count[l - 1]) << 1;
        next_code[l] = code;
    }
    lengths
        .iter()
        .map(|&l| {
            if l == 0 {
                0
            } else {
                let c = next_code[l as usize];
                next_code[l as usize] += 1;
                c as u16
            }
        })
        .collect()
}

fn reverse_bits(code: u16, len: u8) -> u16 {
    let mut c = code;
    let mut out = 0u16;
    for _ in 0..len {
        out = (out << 1) | (c & 1);
        c >>= 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(freqs: &[u64], stream: &[usize]) {
        let lens = build_lengths(freqs, MAX_CODE_LEN);
        let enc = Encoder::from_lengths(&lens);
        let dec = Decoder::from_lengths(&lens).unwrap();
        let mut w = BitWriter::new();
        for &s in stream {
            enc.encode(&mut w, s);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &s in stream {
            assert_eq!(dec.decode(&mut r), Some(s as u16));
        }
    }

    #[test]
    fn simple_roundtrip() {
        let freqs = [50u64, 20, 20, 5, 5];
        roundtrip(&freqs, &[0, 1, 2, 3, 4, 0, 0, 2, 1, 4, 3, 0]);
    }

    #[test]
    fn single_symbol_gets_one_bit() {
        let lens = build_lengths(&[0, 42, 0], MAX_CODE_LEN);
        assert_eq!(lens, vec![0, 1, 0]);
        roundtrip(&[0, 42, 0], &[1, 1, 1]);
    }

    #[test]
    fn empty_alphabet() {
        let lens = build_lengths(&[0, 0, 0], MAX_CODE_LEN);
        assert!(lens.iter().all(|&l| l == 0));
    }

    #[test]
    fn skewed_frequencies_respect_limit() {
        // Fibonacci-ish frequencies force deep trees; verify the limiter.
        let mut freqs = vec![0u64; 40];
        let (mut a, mut b) = (1u64, 1u64);
        for f in freqs.iter_mut() {
            *f = a;
            let c = a + b;
            a = b;
            b = c;
        }
        let lens = build_lengths(&freqs, 10);
        assert!(lens.iter().all(|&l| l <= 10 && l > 0));
        // Kraft inequality must hold.
        let kraft: u64 = lens.iter().map(|&l| 1u64 << (10 - l as u32)).sum();
        assert!(kraft <= 1 << 10);
        // And the code must still roundtrip.
        let stream: Vec<usize> = (0..40).chain((0..40).rev()).collect();
        let enc = Encoder::from_lengths(&lens);
        let dec = Decoder::from_lengths(&lens).unwrap();
        let mut w = BitWriter::new();
        for &s in &stream {
            enc.encode(&mut w, s);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &s in &stream {
            assert_eq!(dec.decode(&mut r), Some(s as u16));
        }
    }

    #[test]
    fn frequent_symbols_get_shorter_codes() {
        let freqs = [1000u64, 10, 10, 10];
        let lens = build_lengths(&freqs, MAX_CODE_LEN);
        assert!(lens[0] <= lens[1]);
        assert!(lens[0] <= lens[3]);
    }

    #[test]
    fn oversubscribed_lengths_rejected() {
        // Three codes of length 1 cannot exist.
        assert!(Decoder::from_lengths(&[1, 1, 1]).is_none());
        assert!(Decoder::from_lengths(&[16]).is_none());
    }
}
