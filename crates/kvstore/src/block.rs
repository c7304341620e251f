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

fn read_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *buf.get(*pos)?;
        *pos += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Some(v);
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

/// One decoded entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockEntry {
    /// The key bytes.
    pub key: Vec<u8>,
    /// `None` marks a tombstone (deleted key).
    pub value: Option<Vec<u8>>,
}

/// Accumulates entries into an encoded block.
#[derive(Debug, Default)]
pub(crate) struct BlockBuilder {
    buf: Vec<u8>,
    first_key: Option<Vec<u8>>,
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
        if self.first_key.is_none() {
            self.first_key = Some(key.to_vec());
        }
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

    /// First key in the block (insertion order = ascending).
    pub(crate) fn first_key(&self) -> Option<&[u8]> {
        self.first_key.as_deref()
    }

    /// Consumes the builder, returning the encoded bytes.
    pub(crate) fn finish(mut self) -> Vec<u8> {
        for r in &self.restarts {
            self.buf.extend_from_slice(&r.to_le_bytes());
        }
        self.buf
            .extend_from_slice(&(self.restarts.len() as u32).to_le_bytes());
        self.buf
    }
}

/// A decoded (or decodable) block.
#[derive(Debug)]
pub(crate) struct Block {
    data: Vec<u8>,
    /// Byte offset where entry data ends and the restart array begins
    /// (`usize::MAX` for a malformed trailer).
    entries_end: usize,
    restart_count: usize,
}

impl Block {
    /// Wraps raw block bytes. The restart trailer is parsed (and
    /// bounds-checked) up front; a malformed trailer yields a block that
    /// fails [`Block::validate`].
    pub(crate) fn new(data: Vec<u8>) -> Self {
        let (entries_end, restart_count) = parse_trailer(&data).unwrap_or((usize::MAX, 0));
        Block {
            data,
            entries_end,
            restart_count,
        }
    }

    /// Iterates entries in key order. Corrupt framing ends iteration with
    /// a `None` from the iterator and is surfaced by [`Block::validate`].
    pub(crate) fn iter(&self) -> BlockIter<'_> {
        BlockIter {
            buf: &self.data,
            pos: if self.entries_end == usize::MAX { 1 } else { 0 },
            end: if self.entries_end == usize::MAX {
                0
            } else {
                self.entries_end
            },
            key: Vec::new(),
            pending: None,
        }
    }

    /// An iterator positioned at the first entry with `key >= target`:
    /// binary-searches the restart array (full keys live at restart
    /// points) and decodes at most one restart interval.
    pub(crate) fn seek_iter(&self, target: &[u8]) -> BlockIter<'_> {
        let mut it = self.iter();
        // Largest restart whose key <= target (binary search); start
        // decoding there. If even restart 0 is > target the block start
        // is already the answer.
        let (mut lo, mut hi) = (0usize, self.restart_count);
        // Invariant: restart keys before `lo` are <= target (or lo==0),
        // restart keys at/after `hi` are > target.
        while lo < hi {
            let mid = (lo + hi) / 2;
            match self.restart_key(mid) {
                Some(k) if k.as_slice() <= target => lo = mid + 1,
                Some(_) => hi = mid,
                None => {
                    // Corrupt restart offset: poison and bail.
                    it.pos = it.end + 1;
                    return it;
                }
            }
        }
        if lo > 0 {
            if let Some(off) = self.restart_offset(lo - 1) {
                it.pos = off;
                it.key.clear();
            }
        }
        // Linear within the interval.
        while let Some(e) = it.next() {
            if e.key.as_slice() >= target {
                it.pending = Some(e);
                break;
            }
        }
        it
    }

    fn restart_offset(&self, i: usize) -> Option<usize> {
        let base = self.entries_end.checked_add(4 * i)?;
        let bytes = self.data.get(base..base + 4)?;
        let off = u32::from_le_bytes(bytes.try_into().unwrap()) as usize;
        (off < self.entries_end).then_some(off)
    }

    /// Decodes the full key stored at restart point `i` (restart entries
    /// always have `shared == 0`).
    fn restart_key(&self, i: usize) -> Option<Vec<u8>> {
        let mut pos = self.restart_offset(i)?;
        let buf = &self.data[..self.entries_end];
        let shared = read_varint(buf, &mut pos)?;
        if shared != 0 {
            return None;
        }
        let unshared = read_varint(buf, &mut pos)? as usize;
        read_varint(buf, &mut pos)?; // vflag, skipped
        buf.get(pos..pos.checked_add(unshared)?).map(|s| s.to_vec())
    }

    /// Checks that the whole block parses.
    pub(crate) fn validate(&self) -> bool {
        if self.entries_end == usize::MAX {
            return false;
        }
        let mut it = self.iter();
        let mut n = 0usize;
        for _ in it.by_ref() {
            n += 1;
        }
        if it.pos != it.end {
            return false;
        }
        // Every restart offset must point at a decodable full key and the
        // restart count must cover the entries present.
        if n > 0 && self.restart_count == 0 {
            return false;
        }
        (0..self.restart_count).all(|i| self.restart_key(i).is_some())
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

/// Streaming decoder over a block's entries.
#[derive(Debug)]
pub(crate) struct BlockIter<'a> {
    buf: &'a [u8],
    pos: usize,
    end: usize,
    /// Prefix state: the previous entry's full key.
    key: Vec<u8>,
    /// An entry decoded ahead by [`Block::seek_iter`].
    pending: Option<BlockEntry>,
}

impl<'a> BlockIter<'a> {
    fn poison(&mut self) {
        self.pos = self.end + 1; // validate() fails
    }

    fn read_value(&mut self, vflag: u64) -> Option<Option<Vec<u8>>> {
        if vflag == 0 {
            return Some(None);
        }
        let vlen = (vflag - 1) as usize;
        let vend = self.pos.checked_add(vlen)?;
        if vend > self.end {
            self.poison();
            return None;
        }
        let v = self.buf[self.pos..vend].to_vec();
        self.pos = vend;
        Some(Some(v))
    }
}

impl<'a> Iterator for BlockIter<'a> {
    type Item = BlockEntry;

    fn next(&mut self) -> Option<BlockEntry> {
        if let Some(e) = self.pending.take() {
            return Some(e);
        }
        if self.pos >= self.end {
            return None;
        }
        let entries = &self.buf[..self.end];
        let shared = read_varint(entries, &mut self.pos)? as usize;
        let unshared = read_varint(entries, &mut self.pos)? as usize;
        let vflag = read_varint(entries, &mut self.pos)?;
        if shared > self.key.len() {
            self.poison();
            return None;
        }
        let kend = self.pos.checked_add(unshared)?;
        if kend > self.end {
            self.poison();
            return None;
        }
        self.key.truncate(shared);
        self.key.extend_from_slice(&entries[self.pos..kend]);
        self.pos = kend;
        let value = self.read_value(vflag)?;
        Some(BlockEntry {
            key: self.key.clone(),
            value,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(entries: &[(&[u8], Option<&[u8]>)]) -> Block {
        let mut b = BlockBuilder::new();
        for (k, v) in entries {
            b.add(k, *v);
        }
        Block::new(b.finish())
    }

    #[test]
    fn roundtrip_entries_with_tombstones() {
        let block = roundtrip(&[(b"a", Some(b"1")), (b"b", None), (b"c", Some(b""))]);
        let entries: Vec<_> = block.iter().collect();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].value.as_deref(), Some(&b"1"[..]));
        assert_eq!(entries[1].value, None);
        assert_eq!(entries[2].value.as_deref(), Some(&b""[..]));
        assert!(block.validate());
    }

    #[test]
    fn corrupt_block_fails_validation() {
        let mut b = BlockBuilder::new();
        b.add(b"key-aaaa", Some(b"value"));
        b.add(b"key-bbbb", Some(b"value"));
        let mut bytes = b.finish();
        bytes.truncate(bytes.len() - 2);
        assert!(!Block::new(bytes).validate());
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
        let block = Block::new(v2.finish());
        let decoded: Vec<_> = block.iter().map(|e| e.key).collect();
        assert_eq!(decoded.len(), keys.len());
        for (d, k) in decoded.iter().zip(&keys) {
            assert_eq!(d, k.as_bytes());
        }
        assert!(block.validate());
    }

    #[test]
    fn v2_empty_block() {
        let b = BlockBuilder::new();
        assert!(b.is_empty());
        let block = Block::new(b.finish());
        assert_eq!(block.iter().count(), 0);
        assert!(block.validate());
        assert!(block.seek_iter(b"anything").next().is_none());
    }

    #[test]
    fn v2_single_entry_block() {
        let block = roundtrip(&[(b"only", Some(b"v"))]);
        assert!(block.validate());
        assert_eq!(block.iter().count(), 1);
        assert_eq!(block.seek_iter(b"a").next().unwrap().key, b"only");
        assert_eq!(block.seek_iter(b"only").next().unwrap().key, b"only");
        assert!(block.seek_iter(b"z").next().is_none());
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
        let keys: Vec<_> = block.iter().map(|e| e.key).collect();
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
        assert_eq!(block.seek_iter(b"aaa").next().unwrap().key, b"aaa");
        assert_eq!(block.seek_iter(b"aab").next().unwrap().key, b"ab");
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
        let block = Block::new(b.finish());
        assert!(block.validate());
        for (i, k) in keys.iter().enumerate() {
            // Exact hit.
            assert_eq!(&block.seek_iter(k).next().unwrap().key, k, "exact {i}");
            // Between keys: key-{3i+1} seeks to the next entry.
            let between = format!("key-{:06}", i as u32 * 3 + 1).into_bytes();
            let next = block.seek_iter(&between).next();
            match keys.get(i + 1) {
                Some(nk) => assert_eq!(&next.unwrap().key, nk, "between {i}"),
                None => assert!(next.is_none(), "past end"),
            }
        }
        // Before the first key.
        assert_eq!(block.seek_iter(b"").next().unwrap().key, keys[0]);
        // Iterating from a seek yields the ordered tail.
        let tail: Vec<_> = block.seek_iter(&keys[50]).map(|e| e.key).collect();
        assert_eq!(tail.len(), 50);
        assert_eq!(tail[0], keys[50]);
        assert_eq!(tail[49], keys[99]);
    }

    #[test]
    fn v2_corrupt_restart_trailer_fails_validation() {
        let mut b = BlockBuilder::new();
        for i in 0..40u32 {
            b.add(format!("k{i:04}").as_bytes(), Some(b"v"));
        }
        let mut bytes = b.finish();
        // Claim more restarts than the block holds.
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(!Block::new(bytes).validate());
    }
}
