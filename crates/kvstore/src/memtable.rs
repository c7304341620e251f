//! The in-memory write buffer of a region: an arena skip list with
//! per-key MVCC version chains.
//!
//! A region's keys, values, index nodes and version records live in two
//! growable buffers addressed by 32-bit offsets, so a put allocates
//! nothing in the steady state and freezing, flushing or holding a
//! generation moves or drops two allocations:
//!
//! ```text
//! bytes: keys and values, each behind its LEB128 length, appended, never moved
//! slots: node    [key offset, newest version, next@0 .. next@h-1]
//!        version [seq low, seq high, value offset | TOMBSTONE, older version]
//! ```
//!
//! Nodes form a skip list (p = 1/4, at most [`MAX_HEIGHT`] levels; the
//! heights come from a fixed-seed xorshift, so a run repeats exactly).
//! The head node sits at slot 0, which is why 0 doubles as "no node" and
//! "no version" in every link.
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
/// The head node's slot; also the "none" of node and version links.
const NIL: u32 = 0;
/// Node layout: key offset, newest version, then the tower.
const KEY: usize = 0;
const NEWEST: usize = 1;
const TOWER: usize = 2;
/// Version layout.
const SEQ_LOW: usize = 0;
const SEQ_HIGH: usize = 1;
const VALUE: usize = 2;
const OLDER: usize = 3;
const VERSION_SLOTS: usize = 4;
/// Value offset marking a delete.
const TOMBSTONE: u32 = u32::MAX;
/// Most key and value bytes one table addresses. Half the offset range,
/// so no offset can reach [`TOMBSTONE`].
pub(crate) const MEM_CAP: usize = i32::MAX as usize;
/// Longest LEB128 length prefix of a key or value below [`MEM_CAP`].
const MAX_LEN_PREFIX: usize = 5;
/// Smallest growth of either buffer, in bytes. A full buffer grows by an
/// eighth (`Vec`'s doubling would let the flush threshold fire at half
/// load), which keeps reserved bytes within 12.5 % of used bytes.
const MIN_GROWTH_BYTES: usize = 2048;

/// Makes room for `additional` more elements, growing the allocation by
/// an eighth rather than doubling it.
fn reserve<T>(buf: &mut Vec<T>, additional: usize) {
    let spare = buf.capacity() - buf.len();
    if spare < additional {
        let step = (buf.capacity() / 8).max(MIN_GROWTH_BYTES / std::mem::size_of::<T>());
        buf.reserve_exact((spare + step).max(additional));
    }
}

/// A sorted in-memory map of one region's most recent writes. Each key
/// holds its committed version chain; tombstones shadow older on-disk
/// data.
pub(crate) struct MemTable {
    bytes: Vec<u8>,
    slots: Vec<u32>,
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
            bytes: Vec::new(),
            slots: Vec::new(),
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

    /// Most arena bytes an entry takes: key, value and their length
    /// prefixes. An entry above a table's cap can never be stored.
    pub(crate) fn entry_bytes(key_len: usize, value_len: usize) -> usize {
        key_len + value_len + 2 * MAX_LEN_PREFIX
    }

    /// Whether `entries` more versions whose [`MemTable::entry_bytes`]
    /// sum to `bytes` stay addressable. An empty table has room for any
    /// one entry of at most its cap.
    pub(crate) fn has_room(&self, entries: usize, bytes: usize) -> bool {
        // The head, then a node of full height and a version per entry.
        let slots =
            self.slots.len() + TOWER + MAX_HEIGHT + entries * (TOWER + MAX_HEIGHT + VERSION_SLOTS);
        self.bytes.len() + bytes <= self.cap && slots <= u32::MAX as usize
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
        if self.slots.is_empty() {
            reserve(&mut self.slots, TOWER + MAX_HEIGHT);
            self.slots.resize(TOWER + MAX_HEIGHT, NIL);
        }
        self.seq_ub = self.seq_ub.max(seq.saturating_add(1));
        let mut prev = [NIL; MAX_HEIGHT];
        let found = self.seek(key, &mut prev);
        let node = if found != NIL && self.key(found) == key {
            found
        } else {
            self.link_node(key, &prev)
        };
        let value = value.map_or(TOMBSTONE, |v| self.append(v));
        reserve(&mut self.slots, VERSION_SLOTS);
        let version = self.slots.len() as u32;
        let newest = node as usize + NEWEST;
        self.slots
            .extend_from_slice(&[seq as u32, (seq >> 32) as u32, value, self.slots[newest]]);
        self.slots[newest] = version;
    }

    /// Appends a node for `key` after the nodes in `prev` (one per
    /// level, from [`MemTable::seek`]).
    fn link_node(&mut self, key: &[u8], prev: &[u32; MAX_HEIGHT]) -> u32 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let height = 1 + (self.rng.trailing_zeros() as usize / 2).min(MAX_HEIGHT - 1);
        self.height = self.height.max(height);
        let key = self.append(key);
        reserve(&mut self.slots, TOWER + height);
        let node = self.slots.len() as u32;
        self.slots.extend_from_slice(&[key, NIL]);
        for (level, &before) in prev.iter().enumerate().take(height) {
            let link = before as usize + TOWER + level;
            self.slots.push(self.slots[link]);
            self.slots[link] = node;
        }
        self.keys += 1;
        node
    }

    /// Appends `data` behind its LEB128 length; returns where.
    fn append(&mut self, data: &[u8]) -> u32 {
        reserve(&mut self.bytes, MAX_LEN_PREFIX + data.len());
        let off = self.bytes.len() as u32;
        varint::write_bytes(&mut self.bytes, data);
        off
    }

    /// The bytes [`MemTable::append`] stored at `off`.
    fn bytes_at(&self, off: u32) -> &[u8] {
        // Every key comparison of a seek lands here, and keys are short:
        // reading a one-byte length directly makes seeks a third faster
        // than the general decoder.
        let at = off as usize;
        let len = self.bytes[at] as usize;
        if len < 0x80 {
            return &self.bytes[at + 1..at + 1 + len];
        }
        varint::read_bytes(&self.bytes, &mut (off as usize)).expect("offset of an append")
    }

    fn key(&self, node: u32) -> &[u8] {
        self.bytes_at(self.slots[node as usize + KEY])
    }

    fn value(&self, version: u32) -> Option<&[u8]> {
        let off = self.slots[version as usize + VALUE];
        (off != TOMBSTONE).then(|| self.bytes_at(off))
    }

    /// The node after `node` in key order.
    fn next(&self, node: u32) -> u32 {
        self.slots[node as usize + TOWER]
    }

    /// The first node with a key `>= key` ([`NIL`] when there is none).
    /// `prev[level]` receives the last node before it on each level in
    /// use; the caller presets the levels above to the head.
    fn seek(&self, key: &[u8], prev: &mut [u32; MAX_HEIGHT]) -> u32 {
        if self.keys == 0 {
            return NIL;
        }
        // `bound` is the nearest node known to be `>= key` (none yet): a
        // level that runs into it again need not compare it again.
        let (mut node, mut bound) = (NIL, NIL);
        for level in (0..self.height).rev() {
            loop {
                let next = self.slots[node as usize + TOWER + level];
                if next == bound || self.key(next) >= key {
                    bound = next;
                    break;
                }
                node = next;
            }
            prev[level] = node;
        }
        self.next(node)
    }

    /// The newest version of `node` visible at `snap` (i.e. with
    /// `seq < snap`), or `None` when the key did not exist yet at that
    /// snapshot and older layers must be consulted.
    fn visible(&self, node: u32, snap: u64) -> Option<Option<&[u8]>> {
        let mut version = self.slots[node as usize + NEWEST];
        while version != NIL {
            let v = version as usize;
            let seq = self.slots[v + SEQ_LOW] as u64 | (self.slots[v + SEQ_HIGH] as u64) << 32;
            if seq < snap {
                return Some(self.value(version));
            }
            version = self.slots[v + OLDER];
        }
        None
    }

    /// Looks a key up at snapshot `snap`.
    /// `Some(None)` means "deleted here"; `None` means "not present at
    /// this snapshot, consult older data".
    pub(crate) fn get(&self, key: &[u8], snap: u64) -> Option<Option<&[u8]>> {
        let node = self.seek(key, &mut [NIL; MAX_HEIGHT]);
        if node == NIL || self.key(node) != key {
            return None;
        }
        self.visible(node, snap)
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
                let (key, at) = (self.key(node), node);
                if key > end {
                    node = NIL;
                    break;
                }
                node = self.next(at);
                if let Some(value) = self.visible(at, snap) {
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
        let mut node = if self.keys == 0 { NIL } else { self.next(NIL) };
        std::iter::from_fn(move || {
            (node != NIL).then(|| {
                let at = node;
                node = self.next(at);
                (self.key(at), self.value(self.slots[at as usize + NEWEST]))
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

    /// Heap bytes this table has reserved: the capacity of its two
    /// buffers, which is what the region meters against the flush
    /// threshold and the stall cap.
    pub(crate) fn reserved_bytes(&self) -> usize {
        self.bytes.capacity() + self.slots.capacity() * std::mem::size_of::<u32>()
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
        let reserved = m.reserved_bytes();
        assert!((1100..=4096).contains(&reserved), "{reserved}");
        let taken = m.take();
        assert_eq!(taken.reserved_bytes(), reserved);
        assert_eq!(taken.len(), 1);
        assert!(m.is_empty());
        assert_eq!(m.reserved_bytes(), 0);
        // Reserved bytes stay within an eighth (plus the first
        // allocations) of what is stored.
        for i in 0..20_000u64 {
            m.put(&i.to_be_bytes(), i, &[7; 60]);
        }
        let used = m.bytes.len() + m.slots.len() * 4;
        assert!(m.reserved_bytes() >= used);
        assert!(m.reserved_bytes() <= used + used / 8 + 2 * MIN_GROWTH_BYTES);
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
