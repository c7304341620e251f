//! The in-memory write buffer of a region: an arena skip list with
//! per-key MVCC version chains.
//!
//! A region's index nodes with their keys, and its version records with
//! their values, live in one arena addressed by 32-bit offsets, so a put
//! allocates nothing in the steady state and freezing, flushing or
//! holding a generation moves or drops whole chunks:
//!
//! ```text
//! node    [newest version u32][height u8][next@0 .. next@h-1 u32][key len][key]
//! version [seq u64][older version u32][value len + 1, or 0 for a delete][value]
//! ```
//!
//! Integers are little-endian and lengths LEB128. A node holds its key,
//! so a seek step reads one record. The arena grows in chunks of at most
//! 64 KiB that are never reallocated — HBase's MemStore-Local Allocation
//! Buffers, which carve the write buffer into fixed chunks so that a
//! freed memstore leaves no holes in the heap. An offset names its chunk
//! directly: chunk `off >> 16` holds offsets `[i << 16, (i + 1) << 16)`,
//! so a lookup is two array indexings. A record that does not fit the
//! open chunk starts the next one, and a record longer than a chunk's
//! span gets a chunk of its own spanning as many offsets as it needs.
//!
//! Nodes form a skip list (p = 1/4, at most [`MAX_HEIGHT`] levels; the
//! heights come from a fixed-seed xorshift, so a run repeats exactly).
//! The head node sits at offset 0, which is why 0 doubles as "no node"
//! and "no version" in every link.
//!
//! Every mutation carries the region-wide commit sequence allocated by
//! [`crate::Region`] under the memtable's lock, so a key's chain,
//! walked newest → older, has descending sequences. Readers pass a
//! snapshot sequence and see the newest version *older than* it. Chains
//! are kept until the whole memtable generation is flushed; a flushed
//! generation is then
//! retained as a "held generation" by the region for as long as the
//! low-watermark of open snapshots still needs any of its versions (see
//! `Region::snapshot`).

use just_compress::varint;

/// Snapshot sequence that sees every committed version. No store read
/// uses it — every read goes through a region snapshot — so it is what
/// the unit tests below the snapshot layer read at.
#[cfg(test)]
pub(crate) const LATEST: u64 = u64::MAX;

/// Tallest skip-list tower: 4^12 keys before the top level crowds.
const MAX_HEIGHT: usize = 12;
/// The head node's offset; also the "none" of node and version links.
const NIL: u32 = 0;
/// Node layout: newest version, tower height, the tower, then the key.
const NEWEST: usize = 0;
const HEIGHT: usize = 4;
const TOWER: usize = 5;
/// Version layout: commit sequence, older version, then the value.
const OLDER: usize = 8;
const VALUE: usize = 12;
/// Most bytes of a node or a version besides its key or value.
const NODE_BYTES: usize = TOWER + 4 * MAX_HEIGHT;
/// The head node: a full tower and an empty key.
const HEAD_BYTES: usize = NODE_BYTES + 1;
/// Most key and value bytes one table holds.
pub(crate) const MEM_CAP: usize = i32::MAX as usize;
/// Longest LEB128 length prefix of a key or value below [`MEM_CAP`].
const MAX_LEN_PREFIX: usize = 5;
/// Offsets a chunk spans: 64 KiB.
const SHIFT: u32 = 16;
const MASK: u32 = (1 << SHIFT) - 1;
/// Smallest chunk, in bytes. Later chunks take an eighth of what the
/// arena holds, up to the span (`Vec`'s doubling would let the flush
/// threshold fire at half load), which keeps reserved bytes within
/// 12.5 % of used bytes.
const MIN_CHUNK_BYTES: usize = 4096;

/// A growable byte array in chunks that never move: byte `i` lives in
/// chunk `i >> 16`. A record that does not fit the open chunk starts a
/// new one and leaves the open chunk's tail unused; a record longer than
/// the span gets a chunk covering as many spans as it needs, the spans
/// after its first holding empty placeholders.
#[derive(Default)]
struct Arena {
    chunks: Vec<Vec<u8>>,
    /// The chunk records are appended to.
    open: usize,
    /// Bytes the chunks hold, tails included.
    reserved: usize,
}

impl Arena {
    /// Most chunks addressable below `u32::MAX`, so no offset reaches it.
    const MAX_CHUNKS: usize = u32::MAX as usize >> SHIFT;

    /// Whether `records` more records of `len` bytes in all still
    /// address below [`Arena::MAX_CHUNKS`]. Each record opens at most
    /// `ceil(len_i / span)` chunks, and the sum of those is at most
    /// `len / span + records`.
    fn has_room(&self, records: usize, len: usize) -> bool {
        self.chunks.len() + (len >> SHIFT) + records <= Self::MAX_CHUNKS
    }

    /// The bytes from `off` to the end of its chunk.
    fn tail(&self, off: u32) -> &[u8] {
        &self.chunks[(off >> SHIFT) as usize][(off & MASK) as usize..]
    }

    fn set_u32(&mut self, off: u32, value: u32) {
        let at = (off & MASK) as usize;
        self.chunks[(off >> SHIFT) as usize][at..at + 4].copy_from_slice(&value.to_le_bytes());
    }

    /// The chunk to append a record of `len` bytes to, and the offset
    /// its first byte gets.
    fn room(&mut self, len: usize) -> (u32, &mut Vec<u8>) {
        let fits = (self.chunks.get(self.open)).is_some_and(|c| c.capacity() - c.len() >= len);
        if !fits {
            let span = 1 << SHIFT;
            let size = MIN_CHUNK_BYTES.max(self.reserved / 8).min(span);
            let chunk = Vec::with_capacity(len.max(size));
            self.reserved += chunk.capacity();
            self.open = self.chunks.len();
            let spans = chunk.capacity().div_ceil(span);
            self.chunks.push(chunk);
            self.chunks.extend((1..spans).map(|_| Vec::new()));
        }
        let chunk = &mut self.chunks[self.open];
        (((self.open << SHIFT) + chunk.len()) as u32, chunk)
    }
}

/// The little-endian `u32` at `at` of `record`.
fn u32_at(record: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(record[at..at + 4].try_into().expect("4 bytes"))
}

/// Node `record`'s link on `level`.
fn next_at(record: &[u8], level: usize) -> u32 {
    u32_at(record, TOWER + 4 * level)
}

/// The bytes behind the LEB128 length at the start of `at`.
fn len_prefixed(at: &[u8]) -> &[u8] {
    // Every key comparison of a seek lands here, and keys are short:
    // reading a one-byte length directly makes seeks a third faster than
    // the general decoder.
    let len = at[0] as usize;
    if len < 0x80 {
        return &at[1..1 + len];
    }
    varint::read_bytes(at, &mut 0).expect("a length-prefixed append")
}

/// Node `record`'s key.
fn key_of(record: &[u8]) -> &[u8] {
    len_prefixed(&record[TOWER + 4 * record[HEIGHT] as usize..])
}

/// Version `record`'s value; `None` for a delete.
fn value_of(record: &[u8]) -> Option<&[u8]> {
    let mut at = VALUE;
    let len = varint::read_u64(record, &mut at).expect("a version's length") as usize;
    (len > 0).then(|| &record[at..at + len - 1])
}

/// Bytes of the LEB128 length prefix of `len`.
fn prefix_len(len: usize) -> usize {
    1 + len.max(1).ilog2() as usize / 7
}

/// A sorted in-memory map of one region's most recent writes. Each key
/// holds its committed version chain; tombstones shadow older on-disk
/// data.
pub(crate) struct MemTable {
    arena: Arena,
    /// Key and value bytes appended, length prefixes included.
    used: usize,
    /// Levels in use by the tallest node.
    height: usize,
    keys: usize,
    seq_ub: u64,
    /// Xorshift state for tower heights.
    rng: u64,
    /// Key and value bytes at which the table reports full.
    cap: usize,
}

impl MemTable {
    /// Empty memtable that reports full at `cap` bytes ([`MEM_CAP`] in
    /// every store); allocates nothing until the first insert.
    pub(crate) fn new(cap: usize) -> Self {
        assert!(cap <= MEM_CAP, "offsets are 32-bit");
        MemTable {
            arena: Arena::default(),
            used: 0,
            height: 0,
            keys: 0,
            seq_ub: 0,
            rng: 0x9E37_79B9_7F4A_7C15,
            cap,
        }
    }

    /// Moves the contents out, leaving an empty table behind.
    pub(crate) fn take(&mut self) -> MemTable {
        std::mem::replace(self, Self::new(self.cap))
    }

    /// Most key and value bytes an entry takes: key, value and their
    /// length prefixes. An entry above a table's cap can never be stored.
    pub(crate) fn entry_bytes(key_len: usize, value_len: usize) -> usize {
        key_len + value_len + 2 * MAX_LEN_PREFIX
    }

    /// Whether `entries` more versions whose [`MemTable::entry_bytes`]
    /// sum to `bytes` fit under the cap and stay addressable. An empty
    /// table has room for any one entry of at most its cap.
    pub(crate) fn has_room(&self, entries: usize, bytes: usize) -> bool {
        // The head, then a node of full height and a version per entry.
        let records = HEAD_BYTES + bytes + entries * (NODE_BYTES + VALUE);
        self.used + bytes <= self.cap && self.arena.has_room(1 + 2 * entries, records)
    }

    /// Inserts or overwrites a key at commit sequence `seq`. The caller
    /// has checked [`MemTable::has_room`].
    pub(crate) fn put(&mut self, key: &[u8], seq: u64, value: &[u8]) {
        self.insert(key, seq, Some(value));
    }

    /// Records a delete (tombstone) at commit sequence `seq`. The caller
    /// has checked [`MemTable::has_room`].
    pub(crate) fn delete(&mut self, key: &[u8], seq: u64) {
        self.insert(key, seq, None);
    }

    fn insert(&mut self, key: &[u8], seq: u64, value: Option<&[u8]>) {
        // Past the cap an offset would wrap and corrupt the table.
        assert!(
            self.has_room(
                1,
                Self::entry_bytes(key.len(), value.map_or(0, <[u8]>::len))
            ),
            "memtable insert without has_room"
        );
        if self.arena.reserved == 0 {
            let (_, chunk) = self.arena.room(HEAD_BYTES);
            chunk.extend_from_slice(&[0; NODE_BYTES]);
            chunk[HEIGHT] = MAX_HEIGHT as u8;
            chunk.push(0);
        }
        self.seq_ub = self.seq_ub.max(seq.saturating_add(1));
        let mut prev = [NIL; MAX_HEIGHT];
        let found = self.seek(key, &mut prev);
        let node = if found != NIL && key_of(self.arena.tail(found)) == key {
            found
        } else {
            self.link_node(key, &prev)
        };
        let older = u32_at(self.arena.tail(node), NEWEST);
        let value_bytes = value.unwrap_or_default();
        let stored = value.map_or(0, |v| v.len() + 1);
        self.used += prefix_len(stored) + value_bytes.len();
        let (version, chunk) = self
            .arena
            .room(VALUE + prefix_len(stored) + value_bytes.len());
        chunk.extend_from_slice(&seq.to_le_bytes());
        chunk.extend_from_slice(&older.to_le_bytes());
        varint::write_u64(chunk, stored as u64);
        chunk.extend_from_slice(value_bytes);
        self.arena.set_u32(node + NEWEST as u32, version);
    }

    /// Appends a node for `key` after the nodes in `prev` (one per
    /// level, from [`MemTable::seek`]).
    fn link_node(&mut self, key: &[u8], prev: &[u32; MAX_HEIGHT]) -> u32 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let height = 1 + (self.rng.trailing_zeros() as usize / 2).min(MAX_HEIGHT - 1);
        self.height = self.height.max(height);
        let mut fixed = [0; NODE_BYTES];
        fixed[HEIGHT] = height as u8;
        for (level, &before) in prev.iter().enumerate().take(height) {
            let at = TOWER + 4 * level;
            let next = next_at(self.arena.tail(before), level);
            fixed[at..at + 4].copy_from_slice(&next.to_le_bytes());
        }
        let fixed = &fixed[..TOWER + 4 * height];
        self.used += prefix_len(key.len()) + key.len();
        let (node, chunk) = self
            .arena
            .room(fixed.len() + prefix_len(key.len()) + key.len());
        chunk.extend_from_slice(fixed);
        varint::write_bytes(chunk, key);
        for (level, &before) in prev.iter().enumerate().take(height) {
            self.arena
                .set_u32(before + (TOWER + 4 * level) as u32, node);
        }
        self.keys += 1;
        node
    }

    /// The first node with a key `>= key` ([`NIL`] when there is none).
    /// `prev[level]` receives the last node before it on each level in
    /// use; the caller presets the levels above to the head.
    fn seek(&self, key: &[u8], prev: &mut [u32; MAX_HEIGHT]) -> u32 {
        if self.keys == 0 {
            return NIL;
        }
        // `bound` is the nearest node known to be `>= key` (none yet): a
        // level that runs into it again need not compare it again. `at`
        // is `node`'s record, so each step looks one chunk up.
        let (mut node, mut bound) = (NIL, NIL);
        let mut at = self.arena.tail(NIL);
        for level in (0..self.height).rev() {
            loop {
                let next = next_at(at, level);
                if next == bound {
                    break;
                }
                let next_record = self.arena.tail(next);
                if key_of(next_record) >= key {
                    bound = next;
                    break;
                }
                (node, at) = (next, next_record);
            }
            prev[level] = node;
        }
        next_at(at, 0)
    }

    /// The newest version of node `record` visible at `snap` (i.e. with
    /// `seq < snap`), or `None` when the key did not exist yet at that
    /// snapshot and older layers must be consulted.
    fn visible(&self, record: &[u8], snap: u64) -> Option<Option<&[u8]>> {
        let mut version = u32_at(record, NEWEST);
        while version != NIL {
            let v = self.arena.tail(version);
            let seq = u64::from_le_bytes(v[..8].try_into().expect("8 bytes"));
            if seq < snap {
                return Some(value_of(v));
            }
            version = u32_at(v, OLDER);
        }
        None
    }

    /// Looks a key up at snapshot `snap`.
    /// `Some(None)` means "deleted here"; `None` means "not present at
    /// this snapshot, consult older data".
    pub(crate) fn get(&self, key: &[u8], snap: u64) -> Option<Option<&[u8]>> {
        let node = self.seek(key, &mut [NIL; MAX_HEIGHT]);
        if node == NIL {
            return None;
        }
        let record = self.arena.tail(node);
        if key_of(record) != key {
            return None;
        }
        self.visible(record, snap)
    }

    /// Entries with `start <= key <= end` visible at `snap`, in order,
    /// tombstones included (nothing when `start > end`). Keys whose
    /// every version is newer than the snapshot are skipped entirely.
    pub(crate) fn scan<'a>(
        &'a self,
        start: &[u8],
        end: &'a [u8],
        snap: u64,
    ) -> impl Iterator<Item = (&'a [u8], Option<&'a [u8]>)> + 'a {
        let mut node = self.seek(start, &mut [NIL; MAX_HEIGHT]);
        std::iter::from_fn(move || {
            while node != NIL {
                let record = self.arena.tail(node);
                let key = key_of(record);
                if key > end {
                    node = NIL;
                    break;
                }
                node = next_at(record, 0);
                if let Some(value) = self.visible(record, snap) {
                    return Some((key, value));
                }
            }
            None
        })
    }

    /// The newest version of every key, in order (for flushing: an
    /// SSTable stores only the newest version; older versions keep
    /// serving snapshot readers from the held generation).
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&[u8], Option<&[u8]>)> + '_ {
        let mut node = if self.keys == 0 {
            NIL
        } else {
            next_at(self.arena.tail(NIL), 0)
        };
        std::iter::from_fn(move || {
            (node != NIL).then(|| {
                let record = self.arena.tail(node);
                node = next_at(record, 0);
                let newest = self.arena.tail(u32_at(record, NEWEST));
                (key_of(record), value_of(newest))
            })
        })
    }

    /// Number of keys (tombstones included; versions of one key count
    /// once).
    pub(crate) fn len(&self) -> usize {
        self.keys
    }

    /// Whether the memtable holds nothing.
    pub(crate) fn is_empty(&self) -> bool {
        self.keys == 0
    }

    /// Heap bytes this table has reserved: the capacity of its chunks,
    /// which is what the region meters against the flush threshold and
    /// the write-buffer cap.
    pub(crate) fn reserved_bytes(&self) -> usize {
        self.arena.reserved
    }

    /// One past the highest commit sequence buffered here (0 when no
    /// sequenced write was ever inserted). This becomes the flushed
    /// SSTable's `seq_limit` and gates held-generation release.
    pub(crate) fn seq_ub(&self) -> u64 {
        self.seq_ub
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use just_obs::Rng;
    use std::collections::BTreeMap;
    use std::ops::Bound;

    type Entry = (Vec<u8>, Option<Vec<u8>>);
    /// One committed version: `(commit sequence, value)`; `None` is a
    /// tombstone.
    type Version = (u64, Option<Vec<u8>>);

    fn owned<'a>(it: impl Iterator<Item = (&'a [u8], Option<&'a [u8]>)>) -> Vec<Entry> {
        it.map(|(k, v)| (k.to_vec(), v.map(<[u8]>::to_vec)))
            .collect()
    }

    #[test]
    fn put_get_delete() {
        let mut m = MemTable::new(MEM_CAP);
        m.put(b"k", 1, b"v1");
        assert_eq!(m.get(b"k", LATEST), Some(Some(&b"v1"[..])));
        m.put(b"k", 2, b"v2");
        assert_eq!(m.get(b"k", LATEST), Some(Some(&b"v2"[..])));
        m.delete(b"k", 3);
        assert_eq!(m.get(b"k", LATEST), Some(None));
        assert_eq!(m.get(b"missing", LATEST), None);
        assert_eq!(m.len(), 1);
        assert_eq!(m.seq_ub(), 4);
    }

    #[test]
    fn snapshot_reads_pick_the_right_version() {
        let mut m = MemTable::new(MEM_CAP);
        m.put(b"k", 5, b"old");
        m.put(b"k", 9, b"new");
        // A snapshot taken before the first write sees nothing here.
        assert_eq!(m.get(b"k", 5), None);
        // Between the versions: the older one.
        assert_eq!(m.get(b"k", 6), Some(Some(&b"old"[..])));
        assert_eq!(m.get(b"k", 9), Some(Some(&b"old"[..])));
        // At or after the newest.
        assert_eq!(m.get(b"k", 10), Some(Some(&b"new"[..])));
        assert_eq!(m.get(b"k", LATEST), Some(Some(&b"new"[..])));
    }

    #[test]
    fn scan_is_inclusive_ordered_and_snapshot_filtered() {
        let mut m = MemTable::new(MEM_CAP);
        for (seq, k) in [b"a", b"c", b"e"].into_iter().enumerate() {
            m.put(k, seq as u64, b"x");
        }
        let keys = |start: &[u8], end: &[u8], snap| -> Vec<Vec<u8>> {
            m.scan(start, end, snap).map(|(k, _)| k.to_vec()).collect()
        };
        assert_eq!(keys(b"a", b"c", LATEST), vec![b"a".to_vec(), b"c".to_vec()]);
        assert_eq!(keys(b"b", b"z", LATEST), vec![b"c".to_vec(), b"e".to_vec()]);
        // Snapshot 1 predates "c" (seq 1) and "e" (seq 2).
        assert_eq!(keys(b"a", b"z", 1), vec![b"a".to_vec()]);
        // The parent's `BTreeMap::range` panicked on an inverted range.
        assert!(keys(b"e", b"a", LATEST).is_empty());
    }

    #[test]
    fn empty_table_allocates_nothing_and_reads_nothing() {
        let m = MemTable::new(MEM_CAP);
        assert_eq!(m.reserved_bytes(), 0);
        assert!(m.is_empty());
        assert_eq!(m.seq_ub(), 0);
        assert_eq!(m.get(b"k", LATEST), None);
        assert_eq!(m.scan(b"", b"\xff", LATEST).count(), 0);
        assert_eq!(m.iter().count(), 0);
    }

    #[test]
    fn reserved_bytes_are_the_buffers_and_take_moves_them() {
        let mut m = MemTable::new(MEM_CAP);
        m.put(&[0; 100], 1, &[0; 1000]);
        // One smallest chunk: the head, a node with its 100-byte key and
        // a version with its 1 000-byte value.
        let reserved = m.reserved_bytes();
        assert_eq!(reserved, MIN_CHUNK_BYTES);
        let taken = m.take();
        assert_eq!(taken.reserved_bytes(), reserved);
        assert_eq!(taken.len(), 1);
        assert!(m.is_empty());
        assert_eq!(m.reserved_bytes(), 0);
        for i in 0..20_000u64 {
            m.put(&i.to_be_bytes(), i, &[7; 60]);
        }
        assert_eq!(m.used, 20_000 * (1 + 8 + 1 + 60));
        // No chunk exceeds its 64 KiB span, and each closed chunk leaves a
        // tail shorter than one record (a node of at most 62 bytes, a
        // version of 73). The open chunk is at most an eighth of what the
        // arena reserves.
        let chunks = &m.arena.chunks;
        let used: usize = chunks.iter().map(Vec::len).sum();
        assert!(chunks.iter().all(|c| c.capacity() <= 1 << SHIFT));
        let reserved = m.reserved_bytes();
        assert!(reserved >= used);
        assert!(
            reserved <= used + chunks.len() * 73 + (reserved / 8).max(MIN_CHUNK_BYTES),
            "{reserved} reserved for {used} used in {} chunks",
            chunks.len()
        );
    }

    #[test]
    fn iter_returns_newest_versions_only() {
        let mut m = MemTable::new(MEM_CAP);
        m.put(b"a", 1, b"v1");
        m.put(b"a", 2, b"v2");
        m.delete(b"b", 3);
        assert_eq!(
            owned(m.iter()),
            vec![(b"a".to_vec(), Some(b"v2".to_vec())), (b"b".to_vec(), None)]
        );
    }

    #[test]
    fn a_table_at_its_cap_reports_full_before_any_offset_wraps() {
        let mut m = MemTable::new(4096);
        let (big, small) = (
            MemTable::entry_bytes(96, 4001),
            MemTable::entry_bytes(8, 100),
        );
        // Larger than the whole table: full while still empty.
        assert!(!m.has_room(1, big));
        // A run is checked at the most each entry could take.
        assert!(m.has_room(34, 34 * small) && !m.has_room(35, 35 * small));
        let mut stored = 0u64;
        while m.has_room(1, small) {
            m.put(&stored.to_be_bytes(), stored, &[stored as u8; 100]);
            stored += 1;
        }
        // 37 entries of 9 + 101 bytes leave no room for the most a 38th
        // could take.
        assert_eq!(stored, 37);
        for i in 0..stored {
            assert_eq!(
                m.get(&i.to_be_bytes(), LATEST),
                Some(Some(&[i as u8; 100][..]))
            );
        }
        // The emptied table keeps the cap.
        let taken = m.take();
        assert_eq!(taken.len() as u64, stored);
        assert!(m.has_room(1, small) && !m.has_room(1, big));
        // Offsets: an entry's node and version may each open a chunk,
        // and the records' bytes fill at most `bytes >> 16` more, so n
        // entries need at most `1 + 2n + (54 + bytes + 65n) >> 16` of the
        // 65 535 chunks whose offsets stay below `u32::MAX` (the head, a
        // full-height node and a version are 54 + 65n bytes besides the
        // keys and values). At the largest cap that bound binds before
        // the cap does.
        let m = MemTable::new(MEM_CAP);
        assert_eq!(Arena::MAX_CHUNKS, 65_535);
        assert!(m.has_room(32_751, 0) && !m.has_room(32_752, 0));
        assert!(m.has_room(16_375, MEM_CAP) && !m.has_room(16_376, MEM_CAP));
        assert!(!m.has_room(1, MEM_CAP + 1));
    }

    #[test]
    fn a_value_longer_than_a_chunk_gets_a_chunk_spanning_its_offsets() {
        let mut m = MemTable::new(MEM_CAP);
        m.put(b"a", 1, b"small");
        let long = vec![9; 3 << SHIFT];
        m.put(b"b", 2, &long);
        m.put(b"c", 3, b"after");
        // The smallest chunk, the long value's version in a chunk of its
        // own (12 bytes, a 3-byte length) with three placeholder spans,
        // then a chunk of an eighth of what the arena holds.
        let own = VALUE + 3 + (3 << SHIFT);
        let next = (MIN_CHUNK_BYTES + own) / 8;
        let caps: Vec<usize> = m.arena.chunks.iter().map(Vec::capacity).collect();
        assert_eq!(caps, [MIN_CHUNK_BYTES, own, 0, 0, 0, next]);
        assert_eq!(m.get(b"a", LATEST), Some(Some(&b"small"[..])));
        assert_eq!(m.get(b"b", LATEST), Some(Some(&long[..])));
        assert_eq!(m.get(b"c", LATEST), Some(Some(&b"after"[..])));
        assert_eq!(m.reserved_bytes(), MIN_CHUNK_BYTES + own + next);
    }

    #[test]
    #[should_panic(expected = "memtable insert without has_room")]
    fn inserting_past_the_cap_panics_instead_of_wrapping() {
        let mut m = MemTable::new(64);
        m.put(b"key", 1, &[0; 64]);
    }

    /// The memtable this one replaced: a map of version vectors, oldest
    /// first.
    #[derive(Default)]
    struct Oracle {
        map: BTreeMap<Vec<u8>, Vec<Version>>,
        seq_ub: u64,
    }

    impl Oracle {
        fn insert(&mut self, key: &[u8], seq: u64, value: Option<&[u8]>) {
            self.seq_ub = self.seq_ub.max(seq.saturating_add(1));
            self.map
                .entry(key.to_vec())
                .or_default()
                .push((seq, value.map(<[u8]>::to_vec)));
        }

        fn visible(chain: &[Version], snap: u64) -> Option<Option<Vec<u8>>> {
            chain
                .iter()
                .rev()
                .find(|(seq, _)| *seq < snap)
                .map(|(_, v)| v.clone())
        }

        fn get(&self, key: &[u8], snap: u64) -> Option<Option<Vec<u8>>> {
            self.map.get(key).and_then(|c| Self::visible(c, snap))
        }

        fn scan(&self, start: &[u8], end: &[u8], snap: u64) -> Vec<Entry> {
            self.map
                .range::<[u8], _>((Bound::Included(start), Bound::Included(end)))
                .filter_map(|(k, c)| Self::visible(c, snap).map(|v| (k.clone(), v)))
                .collect()
        }

        fn iter(&self) -> Vec<Entry> {
            self.map
                .iter()
                .map(|(k, c)| {
                    (
                        k.clone(),
                        c.last().expect("chains are never empty").1.clone(),
                    )
                })
                .collect()
        }
    }

    fn assert_same(arena: &MemTable, oracle: &Oracle, rng: &mut Rng, key_space: u32, seq: u64) {
        assert_eq!(arena.len(), oracle.map.len());
        assert_eq!(arena.is_empty(), oracle.map.is_empty());
        assert_eq!(arena.seq_ub(), oracle.seq_ub);
        assert_eq!(owned(arena.iter()), oracle.iter());
        let key = |rng: &mut Rng| format!("k{:05}", rng.gen_range(0..key_space + 2)).into_bytes();
        for _ in 0..24 {
            let snap = match rng.gen_range(0u32..4) {
                0 => LATEST,
                _ => rng.gen_range(0..seq + 2),
            };
            let k = key(rng);
            assert_eq!(
                arena.get(&k, snap).map(|v| v.map(<[u8]>::to_vec)),
                oracle.get(&k, snap),
                "get {k:?} at {snap}"
            );
            let (a, b) = (key(rng), key(rng));
            let (start, end) = if a <= b { (a, b) } else { (b, a) };
            assert_eq!(
                owned(arena.scan(&start, &end, snap)),
                oracle.scan(&start, &end, snap),
                "scan {start:?}..={end:?} at {snap}"
            );
            if start < end {
                assert_eq!(arena.scan(&end, &start, snap).count(), 0);
            }
        }
        assert_eq!(
            owned(arena.scan(b"", b"\xff", LATEST)),
            oracle.scan(b"", b"\xff", LATEST)
        );
    }

    /// Random puts, deletes and overwrites over `key_space` keys, checked
    /// against the oracle after every batch.
    fn differential(seed: u64, key_space: u32, steps: u64) {
        let mut rng = Rng::seed_from_u64(seed);
        let (mut arena, mut oracle) = (MemTable::new(MEM_CAP), Oracle::default());
        assert_same(&arena, &oracle, &mut rng, key_space, 0);
        let mut seq = 0u64;
        for step in 1..=steps {
            // Ascending, with gaps: a failed WAL append burns the
            // sequences it drew.
            seq += rng.gen_range(1u64..4);
            let key = format!("k{:05}", rng.gen_range(0..key_space)).into_bytes();
            if rng.gen_range(0u32..5) == 0 {
                arena.delete(&key, seq);
                oracle.insert(&key, seq, None);
            } else {
                // Mostly short; some need a two- or three-byte length.
                let len = match rng.gen_range(0u32..200) {
                    0 => rng.gen_range(16_384usize..20_000),
                    1..=10 => rng.gen_range(128usize..400),
                    _ => rng.gen_range(0usize..40),
                };
                let value = vec![step as u8; len];
                arena.put(&key, seq, &value);
                oracle.insert(&key, seq, Some(&value));
            }
            if step % 250 == 0 || step == 1 {
                assert_same(&arena, &oracle, &mut rng, key_space, seq);
            }
        }
        assert_same(&arena, &oracle, &mut rng, key_space, seq);
    }

    #[test]
    fn arena_matches_the_btreemap_memtable_it_replaced() {
        // A small key space makes chains some forty versions long.
        differential(0x19, 500, 20_000);
        // A single key: one chain, every version of it.
        differential(0x1a, 1, 300);
        // Mostly distinct keys: tall towers, short chains.
        differential(0x1b, 50_000, 5_000);
    }
}
