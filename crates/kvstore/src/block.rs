//! SSTable data blocks.
//!
//! A block is a few KiB of consecutive entries — the unit of disk IO and
//! of checksum protection. Entries carry a tombstone flag so deletes
//! shadow older SSTables until compaction.
//!
//! There is one encoding: key prefix compression with restart points.
//! Each entry stores only the suffix that differs from the previous key;
//! every `RESTART_INTERVAL` entries a *restart point* stores the full
//! key, and a trailer lists the restart offsets so a seek
//! binary-searches the restarts and decodes at most one interval.
//!
//! ```text
//! entry   := shared(varint) unshared(varint) vflag(varint) key_suffix [value]
//! trailer := restart_offset(u32 LE)* restart_count(u32 LE)
//! ```
//!
//! `vflag = 0` marks a tombstone and `vflag = len(value)+1` a live value.
//!
//! A [`Block`] shares its bytes with the block cache (an `Arc`, never a
//! copy), and every read walks it with a [`BlockCursor`]: the cursor sits
//! on one entry at a time and lends its key and value as slices — the
//! key out of one buffer that prefix decoding rewrites in place, the
//! value straight out of the block. [`BlockCursor::seek`] compares the
//! restart keys where they lie in the block; nothing is allocated per
//! entry. [`Block::validate`] walks the same framing with key lengths
//! alone, and the SSTable reader serves no block it has not validated.

use std::sync::Arc;

/// Target on-disk block size in bytes (entries never split: a block can
/// exceed this by one oversized entry).
pub(crate) const DEFAULT_BLOCK_SIZE: usize = 4096;

/// Restart-point spacing: one full key every this many entries. Seeks
/// decode at most `RESTART_INTERVAL - 1` entries after the binary search.
pub(crate) const RESTART_INTERVAL: usize = 16;

fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn read_varint(buf: &[u8], pos: &mut usize) -> Option<usize> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *buf.get(*pos)?;
        *pos += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return usize::try_from(v).ok();
        }
        shift += 7;
        if shift >= 64 {
            return None;
        }
    }
}

fn shared_prefix_len(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut i = 0;
    while i < n && a[i] == b[i] {
        i += 1;
    }
    i
}

/// Accumulates entries into an encoded block.
#[derive(Debug, Default)]
pub(crate) struct BlockBuilder {
    buf: Vec<u8>,
    last_key: Vec<u8>,
    restarts: Vec<u32>,
    since_restart: usize,
    count: usize,
}

impl BlockBuilder {
    /// Empty builder.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Appends an entry. Keys must arrive in ascending order (enforced by
    /// the SSTable builder).
    pub(crate) fn add(&mut self, key: &[u8], value: Option<&[u8]>) {
        let shared = if self.since_restart == 0 || self.since_restart >= RESTART_INTERVAL {
            self.restarts.push(self.buf.len() as u32);
            self.since_restart = 0;
            0
        } else {
            shared_prefix_len(&self.last_key, key)
        };
        self.since_restart += 1;
        write_varint(&mut self.buf, shared as u64);
        write_varint(&mut self.buf, (key.len() - shared) as u64);
        match value {
            None => write_varint(&mut self.buf, 0),
            Some(v) => write_varint(&mut self.buf, v.len() as u64 + 1),
        }
        self.buf.extend_from_slice(&key[shared..]);
        if let Some(v) = value {
            self.buf.extend_from_slice(v);
        }
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        self.count += 1;
    }

    /// Current encoded size: entry bytes plus the trailer the block will
    /// carry when finished.
    pub(crate) fn size(&self) -> usize {
        self.buf.len() + 4 * self.restarts.len() + 4
    }

    /// Whether nothing has been added.
    pub(crate) fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Appends the restart trailer and lends the encoded block.
    /// [`BlockBuilder::clear`] starts the next block in the same buffers.
    pub(crate) fn finish(&mut self) -> &[u8] {
        for r in &self.restarts {
            self.buf.extend_from_slice(&r.to_le_bytes());
        }
        self.buf
            .extend_from_slice(&(self.restarts.len() as u32).to_le_bytes());
        &self.buf
    }

    /// Empties the builder, keeping its buffers' capacity.
    pub(crate) fn clear(&mut self) {
        self.buf.clear();
        self.restarts.clear();
        self.since_restart = 0;
        self.count = 0;
    }
}

/// One entry's framing: where its key suffix and its value (`None` for a
/// tombstone) lie, and where the entry ends.
struct Framing {
    shared: usize,
    suffix: (usize, usize),
    value: Option<(usize, usize)>,
    end: usize,
}

/// Decodes the framing of the entry at `pos`; `None` when it does not
/// fit in `entries`.
fn frame(entries: &[u8], mut pos: usize) -> Option<Framing> {
    let shared = read_varint(entries, &mut pos)?;
    let unshared = read_varint(entries, &mut pos)?;
    let vflag = read_varint(entries, &mut pos)?;
    let kend = pos.checked_add(unshared).filter(|&e| e <= entries.len())?;
    let value = match vflag {
        0 => None,
        n => Some((
            kend,
            kend.checked_add(n - 1).filter(|&e| e <= entries.len())?,
        )),
    };
    Some(Framing {
        shared,
        suffix: (pos, kend),
        value,
        end: value.map_or(kend, |(_, vend)| vend),
    })
}

/// An encoded block: its bytes, shared with the block cache.
#[derive(Debug)]
pub(crate) struct Block {
    data: Arc<Vec<u8>>,
    /// Byte offset where entry data ends and the restart array begins
    /// (`usize::MAX` for a malformed trailer).
    entries_end: usize,
    restart_count: usize,
}

impl Block {
    /// Wraps raw block bytes. The restart trailer is parsed (and
    /// bounds-checked) up front; a malformed trailer yields a block that
    /// fails [`Block::validate`] and has no entries.
    pub(crate) fn new(data: Arc<Vec<u8>>) -> Self {
        let (entries_end, restart_count) = parse_trailer(&data).unwrap_or((usize::MAX, 0));
        Block {
            data,
            entries_end,
            restart_count,
        }
    }

    /// The entry bytes, before the restart array.
    fn entries(&self) -> &[u8] {
        self.data.get(..self.entries_end).unwrap_or_default()
    }

    fn restart_offset(&self, i: usize) -> Option<usize> {
        let base = self.entries_end.checked_add(4 * i)?;
        let bytes = self.data.get(base..base + 4)?;
        let off = u32::from_le_bytes(bytes.try_into().unwrap()) as usize;
        (off < self.entries_end).then_some(off)
    }

    /// The full key stored at restart point `i`, where it lies in the
    /// block (restart entries always have `shared == 0`).
    fn restart_key(&self, i: usize) -> Option<&[u8]> {
        let entries = self.entries();
        let f = frame(entries, self.restart_offset(i)?)?;
        (f.shared == 0).then(|| &entries[f.suffix.0..f.suffix.1])
    }

    /// Checks that the whole block parses: every entry's framing fits and
    /// shares no more than the previous key holds, the entries end exactly
    /// where the restart array begins, and every restart point holds a
    /// full key.
    pub(crate) fn validate(&self) -> bool {
        if self.entries_end == usize::MAX {
            return false;
        }
        let entries = self.entries();
        let (mut pos, mut key_len) = (0, 0);
        while pos < entries.len() {
            match frame(entries, pos) {
                Some(f) if f.shared <= key_len => {
                    key_len = f.shared + (f.suffix.1 - f.suffix.0);
                    pos = f.end;
                }
                _ => return false,
            }
        }
        (entries.is_empty() || self.restart_count > 0)
            && (0..self.restart_count).all(|i| self.restart_key(i).is_some())
    }
}

/// Parses the trailer, returning `(entries_end, restart_count)`.
fn parse_trailer(data: &[u8]) -> Option<(usize, usize)> {
    if data.len() < 4 {
        return None;
    }
    let count = u32::from_le_bytes(data[data.len() - 4..].try_into().unwrap()) as usize;
    let trailer = count.checked_mul(4)?.checked_add(4)?;
    if trailer > data.len() {
        return None;
    }
    Some((data.len() - trailer, count))
}

/// A position in one block. A new cursor sits before the first entry;
/// [`BlockCursor::next`] and [`BlockCursor::seek`] move it onto an entry,
/// whose key and value it then lends. Malformed framing ends the walk as
/// the end of the block does (served blocks are validated first).
#[derive(Debug)]
pub(crate) struct BlockCursor {
    block: Block,
    /// Offset of the entry after the current one.
    next: usize,
    /// The current entry's full key, rebuilt in place entry by entry.
    key: Vec<u8>,
    /// The current entry's value bytes; `None` for a tombstone.
    value: Option<(usize, usize)>,
}

impl BlockCursor {
    pub(crate) fn new(block: Block) -> Self {
        BlockCursor {
            block,
            next: 0,
            key: Vec::new(),
            value: None,
        }
    }

    /// Moves to a fresh block, keeping the key buffer.
    pub(crate) fn reset(&mut self, block: Block) {
        self.block = block;
        self.next = 0;
        self.key.clear();
    }

    /// Moves onto the next entry; `false` past the last one.
    pub(crate) fn next(&mut self) -> bool {
        let entries = self.block.entries();
        match frame(entries, self.next) {
            Some(f) if f.shared <= self.key.len() => {
                self.key.truncate(f.shared);
                self.key.extend_from_slice(&entries[f.suffix.0..f.suffix.1]);
                self.value = f.value;
                self.next = f.end;
                true
            }
            _ => {
                self.next = usize::MAX;
                false
            }
        }
    }

    /// Moves onto the first entry with `key >= target`; `false` when the
    /// block holds none. Binary-searches the restart keys, then decodes
    /// at most one restart interval.
    pub(crate) fn seek(&mut self, target: &[u8]) -> bool {
        // Restart keys before `lo` are <= target, those at or after `hi`
        // are > target.
        let (mut lo, mut hi) = (0, self.block.restart_count);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.block.restart_key(mid) {
                Some(k) if k <= target => lo = mid + 1,
                Some(_) => hi = mid,
                None => {
                    self.next = usize::MAX;
                    return false;
                }
            }
        }
        self.next = match lo {
            0 => 0,
            _ => self.block.restart_offset(lo - 1).unwrap_or(usize::MAX),
        };
        self.key.clear();
        while self.next() {
            if self.key.as_slice() >= target {
                return true;
            }
        }
        false
    }

    /// The current entry's key.
    pub(crate) fn key(&self) -> &[u8] {
        &self.key
    }

    /// The current entry's value; `None` for a tombstone.
    pub(crate) fn value(&self) -> Option<&[u8]> {
        self.value.map(|(start, end)| &self.block.data[start..end])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use just_obs::Rng;

    type Entry = (Vec<u8>, Option<Vec<u8>>);

    fn block(bytes: Vec<u8>) -> Block {
        Block::new(Arc::new(bytes))
    }

    fn roundtrip(entries: &[(&[u8], Option<&[u8]>)]) -> Block {
        let mut b = BlockBuilder::new();
        for (k, v) in entries {
            b.add(k, *v);
        }
        block(b.finish().to_vec())
    }

    /// Every entry from the cursor's position on, owned.
    fn rest(c: &mut BlockCursor) -> Vec<Entry> {
        let mut out = Vec::new();
        while c.next() {
            out.push((c.key().to_vec(), c.value().map(<[u8]>::to_vec)));
        }
        out
    }

    fn all(block: Block) -> Vec<Entry> {
        rest(&mut BlockCursor::new(block))
    }

    /// The key a fresh cursor seeks to, if any.
    fn seek(block: &Block, target: &[u8]) -> Option<Vec<u8>> {
        let mut c = BlockCursor::new(Block::new(block.data.clone()));
        c.seek(target).then(|| c.key().to_vec())
    }

    #[test]
    fn roundtrip_entries_with_tombstones() {
        let block = roundtrip(&[(b"a", Some(b"1")), (b"b", None), (b"c", Some(b""))]);
        assert!(block.validate());
        let entries = all(block);
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].1.as_deref(), Some(&b"1"[..]));
        assert_eq!(entries[1].1, None);
        assert_eq!(entries[2].1.as_deref(), Some(&b""[..]));
    }

    #[test]
    fn corrupt_block_fails_validation() {
        let mut b = BlockBuilder::new();
        b.add(b"key-aaaa", Some(b"value"));
        b.add(b"key-bbbb", Some(b"value"));
        let mut bytes = b.finish().to_vec();
        bytes.truncate(bytes.len() - 2);
        assert!(!block(bytes).validate());
    }

    #[test]
    fn size_tracks_content() {
        let mut b = BlockBuilder::new();
        assert!(b.is_empty());
        b.add(b"0123456789", Some(&[0u8; 100]));
        assert!(b.size() > 110);
    }

    #[test]
    fn v2_prefix_compression_shrinks_shared_keys() {
        let keys: Vec<String> = (0..200)
            .map(|i| format!("traj/0001/point/{i:06}"))
            .collect();
        let mut v2 = BlockBuilder::new();
        for k in &keys {
            v2.add(k.as_bytes(), Some(b"v"));
        }
        // Against the raw key and value bytes alone, before any framing.
        let raw: usize = keys.iter().map(|k| k.len() + 1).sum();
        let encoded = v2.size();
        assert!(
            encoded * 10 < raw * 7,
            "prefix compression should save >30%: raw={raw} encoded={encoded}"
        );
        // And the compressed form still decodes identically.
        let block = block(v2.finish().to_vec());
        assert!(block.validate());
        let decoded: Vec<_> = all(block).into_iter().map(|e| e.0).collect();
        assert_eq!(decoded.len(), keys.len());
        for (d, k) in decoded.iter().zip(&keys) {
            assert_eq!(d, k.as_bytes());
        }
    }

    #[test]
    fn v2_empty_block() {
        let mut b = BlockBuilder::new();
        assert!(b.is_empty());
        let block = block(b.finish().to_vec());
        assert!(block.validate());
        assert_eq!(seek(&block, b"anything"), None);
        assert!(all(block).is_empty());
    }

    #[test]
    fn v2_single_entry_block() {
        let block = roundtrip(&[(b"only", Some(b"v"))]);
        assert!(block.validate());
        assert_eq!(seek(&block, b"a").unwrap(), b"only");
        assert_eq!(seek(&block, b"only").unwrap(), b"only");
        assert_eq!(seek(&block, b"z"), None);
        assert_eq!(all(block).len(), 1);
    }

    #[test]
    fn v2_duplicate_prefix_entries() {
        // Keys where one is a strict prefix of the next (shared == full
        // shorter key) must round-trip: the suffix can be empty-adjacent.
        let block = roundtrip(&[
            (b"a", Some(b"1")),
            (b"aa", Some(b"2")),
            (b"aaa", None),
            (b"aaab", Some(b"3")),
            (b"ab", Some(b"4")),
        ]);
        assert!(block.validate());
        assert_eq!(seek(&block, b"aaa").unwrap(), b"aaa");
        assert_eq!(seek(&block, b"aab").unwrap(), b"ab");
        let keys: Vec<_> = all(block).into_iter().map(|e| e.0).collect();
        assert_eq!(
            keys,
            vec![
                b"a".to_vec(),
                b"aa".to_vec(),
                b"aaa".to_vec(),
                b"aaab".to_vec(),
                b"ab".to_vec()
            ]
        );
    }

    #[test]
    fn v2_seek_hits_every_position_across_restarts() {
        // Enough entries to span several restart intervals; seeking to
        // every key, a predecessor, and a successor must all agree with
        // the linear scan.
        let keys: Vec<Vec<u8>> = (0..100u32)
            .map(|i| format!("key-{:06}", i * 3).into_bytes())
            .collect();
        let mut b = BlockBuilder::new();
        for k in &keys {
            b.add(k, Some(b"v"));
        }
        let block = block(b.finish().to_vec());
        assert!(block.validate());
        for (i, k) in keys.iter().enumerate() {
            // Exact hit.
            assert_eq!(seek(&block, k).as_ref(), Some(k), "exact {i}");
            // Between keys: key-{3i+1} seeks to the next entry.
            let between = format!("key-{:06}", i as u32 * 3 + 1).into_bytes();
            assert_eq!(
                seek(&block, &between).as_ref(),
                keys.get(i + 1),
                "between {i}"
            );
        }
        // Before the first key.
        assert_eq!(seek(&block, b"").unwrap(), keys[0]);
        // Walking on from a seek yields the ordered tail.
        let mut c = BlockCursor::new(block);
        assert!(c.seek(&keys[50]));
        let tail = rest(&mut c);
        assert_eq!(tail.len(), 49);
        assert_eq!(tail[0].0, keys[51]);
        assert_eq!(tail[48].0, keys[99]);
    }

    #[test]
    fn v2_corrupt_restart_trailer_fails_validation() {
        let mut b = BlockBuilder::new();
        for i in 0..40u32 {
            b.add(format!("k{i:04}").as_bytes(), Some(b"v"));
        }
        let mut bytes = b.finish().to_vec();
        // Claim more restarts than the block holds.
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(!block(bytes).validate());
    }

    /// A real block of `n` entries: shared prefixes, a few tombstones,
    /// values of assorted lengths.
    fn sample_block(rng: &mut Rng, n: u32) -> Vec<u8> {
        let mut b = BlockBuilder::new();
        for i in 0..n {
            let key = format!("traj/{:04}/{:06}", i / 7, i * 3);
            let value = vec![i as u8; rng.gen_range(0usize..40)];
            b.add(key.as_bytes(), (i % 11 != 5).then_some(&value[..]));
        }
        b.finish().to_vec()
    }

    /// One seeded mutation of an encoded block: a bit flip, a truncation,
    /// a rewritten restart offset or count, or an over-long varint spliced
    /// over an entry header.
    fn mutate(rng: &mut Rng, bytes: &mut Vec<u8>) {
        let n = bytes.len();
        match rng.gen_range(0u32..5) {
            0 => bytes[rng.gen_range(0..n)] ^= 1 << rng.gen_range(0u32..8),
            1 => bytes.truncate(rng.gen_range(0..n)),
            2 => {
                // Sample blocks hold at least one entry, so one restart.
                let count = u32::from_le_bytes(bytes[n - 4..].try_into().unwrap()) as usize;
                let slot = n - 4 - 4 * count + 4 * rng.gen_range(0..count);
                let off = rng.gen_range(0u32..n as u32 + 8);
                bytes[slot..slot + 4].copy_from_slice(&off.to_le_bytes());
            }
            3 => {
                let count = rng.gen_range(0u32..(n as u32 / 4 + 4));
                bytes[n - 4..].copy_from_slice(&count.to_le_bytes());
            }
            _ => {
                let at = rng.gen_range(0..n);
                let run = rng.gen_range(1usize..14).min(n - at);
                bytes[at..at + run].fill(0xff);
            }
        }
    }

    #[test]
    fn seeded_mutations_never_panic_and_validated_blocks_walk_their_entries() {
        let mut rng = Rng::seed_from_u64(0x0062_6c6f_636b);
        let (mut accepted, mut rejected) = (0u32, 0u32);
        for round in 0..5000u32 {
            let mut bytes = sample_block(&mut rng, 1 + round % 90);
            mutate(&mut rng, &mut bytes);
            let block = block(bytes);
            let valid = block.validate();
            // A full walk: on a block `validate` accepts it ends exactly
            // at the restart array, having decoded every entry.
            let mut c = BlockCursor::new(Block::new(block.data.clone()));
            let mut last = 0;
            while c.next() {
                last = c.next;
                c.value();
            }
            if valid {
                assert_eq!(last, block.entries().len(), "round {round}");
                accepted += 1;
            } else {
                rejected += 1;
            }
            // Seeks to random targets: never out of bounds, and what a
            // seek lands on is at or past its target.
            for _ in 0..4 {
                let target = format!("traj/{:04}/", rng.gen_range(0u32..16)).into_bytes();
                let mut c = BlockCursor::new(Block::new(block.data.clone()));
                if c.seek(&target) {
                    assert!(c.key() >= target.as_slice());
                    c.value();
                    while c.next() {}
                }
            }
        }
        assert!(accepted > 200 && rejected > 2000, "{accepted} / {rejected}");
    }
}
