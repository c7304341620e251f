//! Immutable on-disk sorted string tables.
//!
//! There is one format, and the reader does not auto-detect anything: a
//! file either ends in the footer below or is refused. A file holds
//! prefix-compressed blocks with restart-point binary search
//! ([`crate::block`]), an optional per-table block compression codec, a
//! blocked bloom filter serialized between the index and the footer,
//! and a `seq_limit` in the footer — one past the highest MVCC commit
//! sequence any entry in the file carries (see `Region::snapshot`).
//! Snapshot readers skip tables whose `seq_limit` exceeds their read
//! sequence, and region open recovers the commit-sequence counter from
//! the maximum `seq_limit` on disk even when every WAL segment has been
//! retired.
//!
//! ```text
//! file   := data-block* index bloom footer
//! index  := count(u64) { klen(u32) first_key offset(u64) len(u32) crc(u32) }*
//!           minlen(u32) min_key maxlen(u32) max_key entry_count(u64)
//! footer := index_offset(u64) index_len(u64) bloom_len(u64)
//!           seq_limit(u64) codec(u8) magic(b"JSSTBL03")
//! ```
//!
//! A file whose magic names another `JSSTBL` generation is
//! [`KvError::Format`], not corruption: it is well-formed data this
//! build does not read (see the store's format epoch in `store.rs`).
//!
//! All integers little-endian. Every data block is CRC-32 protected over
//! its *on-disk* bytes (post-compression); compressed blocks carry a
//! second checksum of the decompressed payload inside the
//! [`just_compress::Codec`] container. Block reads go through
//! [`crate::IoMetrics`]; the [`crate::BlockCache`] stores *decompressed*
//! block bytes, so a hot block pays decompression exactly once, and a
//! table's blocks leave the cache when the table drops.
//!
//! An open table holds its `index` section as the bytes on disk, plus
//! one `u32` position per block: first keys, block positions and the
//! min/max keys are read out of those bytes, so the index costs two
//! allocations whatever the block count. The builder encodes the same
//! bytes as its blocks flush, writes them, and parses them as `open`
//! parses the ones it reads: a finished table and the table its file
//! opens to are one index by construction.

use crate::block::{Block, BlockBuilder, BlockCursor};
use crate::bloom::{BloomFilter, BITS_PER_KEY};
use crate::cache::{next_file_id, BlockCache};
use crate::error::{KvError, Result};
use crate::metrics::IoMetrics;
use just_compress::crc32::crc32;
use just_compress::Codec;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Positional read at `offset` without touching a shared cursor, so
/// concurrent block reads on one SSTable never serialize behind a lock
/// (the server layer runs many sessions against the same tables).
#[cfg(unix)]
fn read_exact_at(file: &File, _path: &Path, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
}

#[cfg(windows)]
fn read_exact_at(file: &File, _path: &Path, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::os::windows::fs::FileExt;
    let mut pos = 0usize;
    while pos < buf.len() {
        let n = file.seek_read(&mut buf[pos..], offset + pos as u64)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        pos += n;
    }
    Ok(())
}

/// Fallback for platforms without positional reads: reopen per read (the
/// shared handle's cursor cannot be raced, dup'd descriptors share it).
#[cfg(not(any(unix, windows)))]
fn read_exact_at(_file: &File, path: &Path, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    let mut f = File::open(path)?;
    f.seek(SeekFrom::Start(offset))?;
    f.read_exact(buf)
}

/// The footer magic [`SsTableBuilder::finish`] writes and the reader
/// accepts.
const MAGIC: &[u8; 8] = b"JSSTBL03";
/// What every SSTable generation's magic starts with; the last two bytes
/// number the generation.
const MAGIC_FAMILY: &[u8] = b"JSSTBL";
/// `index_offset index_len bloom_len seq_limit` (u64 each), `codec`
/// (u8), magic.
const FOOTER_LEN: usize = 4 * 8 + 1 + MAGIC.len();

/// Smallest encoding of one block in the index: an empty first key plus
/// `klen(u32) offset(u64) len(u32) crc(u32)`. Bounds the block count a
/// hostile index can claim.
const MIN_INDEX_ENTRY: usize = 20;

/// A block is flushed no later than this multiple of the target block
/// size, bounding builder memory and worst-case decompression work even
/// when the codec packs aggressively.
const MAX_BLOCK_INFLATE: usize = 8;
/// Buffer between a finishing builder and its file: the index, filter
/// and footer reach the file in writes of this size.
const WRITE_BUFFER: usize = 8 << 10;

/// Write-side tuning for one SSTable (assembled by the store from
/// [`crate::StoreOptions`]).
#[derive(Debug, Clone)]
pub(crate) struct SstOptions {
    /// Target on-disk block size in bytes.
    pub(crate) block_size: usize,
    /// Per-block compression codec (`Codec::None` stores blocks raw).
    /// With a real codec the builder packs entries until the *estimated
    /// on-disk* size reaches `block_size`, so compression turns into
    /// fewer blocks fetched per scan — the paper's compression→fewer-IOs
    /// effect — rather than just smaller ones.
    pub(crate) codec: Codec,
}

impl Default for SstOptions {
    fn default() -> Self {
        SstOptions {
            block_size: crate::block::DEFAULT_BLOCK_SIZE,
            codec: Codec::None,
        }
    }
}

/// The `n`-byte little-endian integer at `at` (`n` <= 8).
fn le(bytes: &[u8], at: usize, n: usize) -> u64 {
    let mut word = [0u8; 8];
    word[..n].copy_from_slice(&bytes[at..at + n]);
    u64::from_le_bytes(word)
}

/// A table's block index: the index section's own bytes, and where in
/// them each block's entry starts. Keys and block positions are read out
/// of the bytes, so the index is two allocations whatever the block
/// count.
struct Index {
    bytes: Box<[u8]>,
    /// Per block, the position of its entry (`klen`) in `bytes`.
    blocks: Box<[u32]>,
    /// Positions of `minlen` and `maxlen`.
    min_at: u32,
    max_at: u32,
    entry_count: u64,
}

impl Index {
    /// Checks that `bytes` is a whole index section and finds its
    /// entries. A short or inconsistent section is [`KvError::Corrupt`].
    fn parse(bytes: Vec<u8>, path: &Path) -> Result<Self> {
        let corrupt = |what: &str| KvError::Corrupt(format!("{}: {what}", path.display()));
        if u32::try_from(bytes.len()).is_err() {
            return Err(corrupt("index over 4 GiB"));
        }
        // Steps `pos` over `n` bytes; returns where they start.
        let field = |pos: &mut usize, n: usize| -> Result<usize> {
            let at = *pos;
            *pos = (at.checked_add(n))
                .filter(|&end| end <= bytes.len())
                .ok_or_else(|| corrupt("index truncated"))?;
            Ok(at)
        };
        let key = |pos: &mut usize| -> Result<u32> {
            let at = field(pos, 4)?;
            field(pos, le(&bytes, at, 4) as usize)?;
            Ok(at as u32)
        };
        let mut pos = 0;
        let count = le(&bytes, field(&mut pos, 8)?, 8);
        if count > (bytes.len() / MIN_INDEX_ENTRY) as u64 {
            return Err(corrupt("index claims more blocks than it can hold"));
        }
        let mut blocks = Vec::with_capacity(count as usize);
        for _ in 0..count {
            blocks.push(key(&mut pos)?);
            field(&mut pos, 16)?;
        }
        let (min_at, max_at) = (key(&mut pos)?, key(&mut pos)?);
        let entry_count = le(&bytes, field(&mut pos, 8)?, 8);
        Ok(Index {
            bytes: bytes.into_boxed_slice(),
            blocks: blocks.into_boxed_slice(),
            min_at,
            max_at,
            entry_count,
        })
    }

    /// The length-prefixed key at `at`.
    fn key(&self, at: u32) -> &[u8] {
        let at = at as usize;
        let len = le(&self.bytes, at, 4) as usize;
        &self.bytes[at + 4..at + 4 + len]
    }

    fn first_key(&self, block: usize) -> &[u8] {
        self.key(self.blocks[block])
    }

    fn min_key(&self) -> &[u8] {
        self.key(self.min_at)
    }

    fn max_key(&self) -> &[u8] {
        self.key(self.max_at)
    }

    /// Where data block `block` lies in the file and its checksum:
    /// `(offset, len, crc)`.
    fn block(&self, block: usize) -> (u64, usize, u32) {
        let at = self.blocks[block] as usize;
        let at = at + 4 + le(&self.bytes, at, 4) as usize;
        let (offset, len) = (le(&self.bytes, at, 8), le(&self.bytes, at + 8, 4));
        (offset, len as usize, le(&self.bytes, at + 12, 4) as u32)
    }
}

/// Streams ascending key/value pairs into an SSTable file.
pub(crate) struct SsTableBuilder {
    path: PathBuf,
    file: File,
    opts: SstOptions,
    current: BlockBuilder,
    /// The index section as it is written: a block count patched in at
    /// `finish`, then each block's entry — its first key encoded when the
    /// block opens, its position and checksum when it flushes.
    index: Vec<u8>,
    blocks: u64,
    offset: u64,
    entry_count: u64,
    /// Keys ascend, so this is also the table's max key.
    last_key: Vec<u8>,
    /// Filled as keys arrive, sized by the caller; folded to the entry
    /// count at `finish`.
    bloom: BloomFilter,
    /// Cumulative encoded vs on-disk bytes, driving the adaptive packing
    /// estimate when a compression codec is active.
    encoded_bytes: u64,
    disk_bytes: u64,
    /// One past the highest MVCC commit sequence of any entry, recorded
    /// in the footer; 0 means "unknown" and reads as
    /// visible to every snapshot.
    seq_limit: u64,
    metrics: Arc<IoMetrics>,
    cache: Arc<BlockCache>,
}

impl SsTableBuilder {
    /// Creates a builder writing to `path` (truncating any existing
    /// file) that fills `bloom`: [`BloomFilter::new`] for an exact entry
    /// count (a flush), [`BloomFilter::for_at_most`] for an upper
    /// estimate (a rewrite).
    pub(crate) fn create_opts(
        path: &Path,
        opts: SstOptions,
        bloom: BloomFilter,
        metrics: Arc<IoMetrics>,
        cache: Arc<BlockCache>,
    ) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(SsTableBuilder {
            path: path.to_path_buf(),
            file,
            current: BlockBuilder::new(),
            opts,
            index: vec![0; 8],
            blocks: 0,
            offset: 0,
            entry_count: 0,
            last_key: Vec::new(),
            bloom,
            encoded_bytes: 0,
            disk_bytes: 0,
            seq_limit: 0,
            metrics,
            cache,
        })
    }

    /// Records the exclusive upper bound of MVCC commit sequences the
    /// file will contain (one past the highest; 0 = unknown). Flushes
    /// pass the frozen generation's bound, compactions and region
    /// splits the maximum over their inputs.
    pub(crate) fn set_seq_limit(&mut self, seq_limit: u64) {
        self.seq_limit = seq_limit;
    }

    fn compressed(&self) -> bool {
        self.opts.codec != Codec::None
    }

    /// Whether the current block is full. With a codec active the cut is
    /// on the *estimated on-disk* size (encoded size times the ratio the
    /// codec has achieved on this table so far), capped at
    /// [`MAX_BLOCK_INFLATE`] so one block never balloons unboundedly.
    fn block_full(&self) -> bool {
        let size = self.current.size();
        if !self.compressed() {
            return size >= self.opts.block_size;
        }
        let ratio = if self.encoded_bytes == 0 {
            1.0
        } else {
            (self.disk_bytes as f64 / self.encoded_bytes as f64).clamp(0.05, 1.0)
        };
        (size as f64 * ratio) >= self.opts.block_size as f64
            || size >= self.opts.block_size * MAX_BLOCK_INFLATE
    }

    /// Appends an entry; keys must be strictly ascending.
    pub(crate) fn add(&mut self, key: &[u8], value: Option<&[u8]>) -> Result<()> {
        if self.entry_count > 0 && key <= self.last_key.as_slice() {
            return Err(KvError::Corrupt(format!(
                "keys out of order: {:?} after {:?}",
                key, self.last_key
            )));
        }
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        if self.current.is_empty() {
            self.index
                .extend_from_slice(&(key.len() as u32).to_le_bytes());
            self.index.extend_from_slice(key);
        }
        self.bloom.insert(key);
        self.current.add(key, value);
        self.entry_count += 1;
        if self.block_full() {
            self.flush_block()?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> Result<()> {
        if self.current.is_empty() {
            return Ok(());
        }
        let codec = self.opts.codec;
        let encoded = self.current.finish();
        self.encoded_bytes += encoded.len() as u64;
        let compressed;
        let data = if codec != Codec::None {
            compressed = codec.compress(encoded);
            &compressed[..]
        } else {
            encoded
        };
        self.disk_bytes += data.len() as u64;
        let crc = crc32(data);
        self.file.write_all(data)?;
        self.metrics.record_block_write(data.len() as u64);
        self.index.extend_from_slice(&self.offset.to_le_bytes());
        self.index
            .extend_from_slice(&(data.len() as u32).to_le_bytes());
        self.index.extend_from_slice(&crc.to_le_bytes());
        self.offset += data.len() as u64;
        self.blocks += 1;
        self.current.clear();
        Ok(())
    }

    /// Finishes the file and opens it for reading. The index, filter and
    /// footer go straight to the file; the table parses the index bytes
    /// written here as [`SsTable::open`] parses the ones it reads, and
    /// takes over the filter built here.
    pub(crate) fn finish(mut self) -> Result<SsTable> {
        self.flush_block()?;
        let index_offset = self.offset;
        // The table's min key is block 0's first key, its max the last.
        self.index[..8].copy_from_slice(&self.blocks.to_le_bytes());
        let first = match self.blocks {
            0 => 12..12,
            _ => 12..12 + le(&self.index, 8, 4) as usize,
        };
        self.index
            .extend_from_slice(&(first.len() as u32).to_le_bytes());
        self.index.extend_from_within(first);
        self.index
            .extend_from_slice(&(self.last_key.len() as u32).to_le_bytes());
        self.index.extend_from_slice(&self.last_key);
        self.index
            .extend_from_slice(&self.entry_count.to_le_bytes());
        let index_len = self.index.len() as u64;
        let bloom = (self.entry_count > 0).then(|| {
            self.bloom.fold(self.entry_count as usize, BITS_PER_KEY);
            self.bloom
        });
        let mut out = BufWriter::with_capacity(WRITE_BUFFER, &self.file);
        out.write_all(&self.index)?;
        let bloom_len = match &bloom {
            Some(bloom) => bloom.write_to(&mut out)?,
            None => 0,
        };
        for word in [index_offset, index_len, bloom_len, self.seq_limit] {
            out.write_all(&word.to_le_bytes())?;
        }
        out.write_all(&[self.opts.codec.code()])?;
        out.write_all(MAGIC)?;
        out.into_inner().map_err(|e| e.into_error())?;
        self.file.sync_all()?;
        // `sync_all` covers the file contents; the directory entry that
        // names it needs its own fsync, or power loss can erase the
        // table after the covering WAL segments are already deleted.
        if let Some(parent) = self.path.parent() {
            crate::wal::fsync_dir(parent)?;
        }
        Ok(SsTable {
            index: Index::parse(self.index, &self.path)?,
            path: self.path,
            file_id: next_file_id(),
            file: self.file,
            codec: self.opts.codec,
            bloom,
            file_size: index_offset + index_len + bloom_len + FOOTER_LEN as u64,
            seq_limit: self.seq_limit,
            metrics: self.metrics,
            cache: self.cache,
        })
    }
}

/// A readable, immutable SSTable. Its blocks leave the block cache when
/// it drops.
pub(crate) struct SsTable {
    path: PathBuf,
    /// Unique instance id for block-cache keying.
    file_id: u64,
    file: File,
    codec: Codec,
    bloom: Option<BloomFilter>,
    index: Index,
    file_size: u64,
    seq_limit: u64,
    metrics: Arc<IoMetrics>,
    cache: Arc<BlockCache>,
}

impl std::fmt::Debug for SsTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SsTable")
            .field("path", &self.path)
            .field("codec", &self.codec)
            .field("bloom", &self.bloom.is_some())
            .field("blocks", &self.block_count())
            .field("entries", &self.entry_count())
            .finish()
    }
}

impl Drop for SsTable {
    /// Whatever retired the file — a compaction, split or merge, a
    /// dropped table, or the last scan still reading it — no handle is
    /// left to ask for its blocks again.
    fn drop(&mut self) {
        self.cache.invalidate_file(self.file_id);
    }
}

impl SsTable {
    /// Opens an existing table sharing a block cache, loading its block
    /// index (and bloom filter, if present) into memory. A file whose
    /// magic names another SSTable generation is [`KvError::Format`];
    /// any other bad tail (a torn write) is [`KvError::Corrupt`].
    pub(crate) fn open(
        path: &Path,
        metrics: Arc<IoMetrics>,
        cache: Arc<BlockCache>,
    ) -> Result<Self> {
        let mut file = File::open(path)?;
        let file_size = file.metadata()?.len();
        let corrupt = |what: &str| KvError::Corrupt(format!("{}: {what}", path.display()));

        // The footer, or the whole file when it is shorter.
        let mut tail = [0u8; FOOTER_LEN];
        let tail = &mut tail[..file_size.min(FOOTER_LEN as u64) as usize];
        file.seek(SeekFrom::End(-(tail.len() as i64)))?;
        file.read_exact(tail)?;
        if !tail.ends_with(MAGIC) {
            let magic = &tail[tail.len().saturating_sub(MAGIC.len())..];
            if magic.len() == MAGIC.len() && magic.starts_with(MAGIC_FAMILY) {
                return Err(KvError::Format {
                    found: format!(
                        "SSTable footer {} in {}",
                        String::from_utf8_lossy(magic),
                        path.display()
                    ),
                    expected: format!("SSTable footer {}", String::from_utf8_lossy(MAGIC)),
                });
            }
            return Err(corrupt("bad magic"));
        }
        if tail.len() < FOOTER_LEN {
            return Err(corrupt("too small"));
        }
        let word = |i: usize| le(tail, 8 * i, 8);
        let (index_offset, index_len, bloom_len, seq_limit) = (word(0), word(1), word(2), word(3));
        let code = tail[4 * 8];
        let codec =
            Codec::from_code(code).ok_or_else(|| corrupt(&format!("unknown codec {code}")))?;
        // Index, bloom and footer must tile the rest of the file exactly.
        // The adds are checked so a sum that wraps round to `file_size`
        // cannot pass, and an exact tiling bounds every length by the
        // file's before anything is allocated for it.
        let tiled = index_offset
            .checked_add(index_len)
            .and_then(|end| end.checked_add(bloom_len))
            .and_then(|end| end.checked_add(FOOTER_LEN as u64));
        if tiled != Some(file_size) {
            return Err(corrupt("bad footer"));
        }

        // The index and the bloom filter lie end to end.
        file.seek(SeekFrom::Start(index_offset))?;
        let mut index = vec![0u8; index_len as usize];
        file.read_exact(&mut index)?;
        let bloom = if bloom_len > 0 {
            let mut buf = vec![0u8; bloom_len as usize];
            file.read_exact(&mut buf)?;
            Some(BloomFilter::deserialize(&buf).ok_or_else(|| corrupt("bloom filter malformed"))?)
        } else {
            None
        };

        Ok(SsTable {
            index: Index::parse(index, path)?,
            path: path.to_path_buf(),
            file_id: next_file_id(),
            file,
            codec,
            bloom,
            file_size,
            seq_limit,
            metrics,
            cache,
        })
    }

    /// Unique cache-keying id of this table instance.
    pub(crate) fn file_id(&self) -> u64 {
        self.file_id
    }

    /// Total entries (tombstones included).
    pub(crate) fn entry_count(&self) -> u64 {
        self.index.entry_count
    }

    /// Bytes of the bloom filter the table holds in memory.
    #[cfg(test)]
    pub(crate) fn bloom_bytes(&self) -> usize {
        self.bloom.as_ref().map_or(0, BloomFilter::bytes)
    }

    /// On-disk size in bytes.
    pub(crate) fn file_size(&self) -> u64 {
        self.file_size
    }

    /// Path of the backing file.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Moves the backing file to `path`; the open handle reads on.
    pub(crate) fn rename(&mut self, path: &Path) -> Result<()> {
        std::fs::rename(&self.path, path)?;
        self.path = path.to_path_buf();
        Ok(())
    }

    /// One past the highest MVCC commit sequence any entry in this file
    /// carries, from the footer (0 when unknown: visible to every
    /// snapshot). A snapshot at read sequence `S`
    /// must skip tables with `seq_limit > S` and read the held memtable
    /// generation instead (see `Region::snapshot`).
    pub(crate) fn seq_limit(&self) -> u64 {
        self.seq_limit
    }

    /// Whether every entry in this table is visible at snapshot `snap`
    /// (i.e. committed strictly before the snapshot's read sequence).
    pub(crate) fn visible_at(&self, snap: u64) -> bool {
        self.seq_limit <= snap
    }

    /// Whether the key range `[start, end]` could overlap this table.
    pub(crate) fn overlaps(&self, start: &[u8], end: &[u8]) -> bool {
        self.block_count() > 0 && start <= self.max_key() && end >= self.index.min_key()
    }

    /// Reads data block `idx`. A miss fills the cache only with `fill`:
    /// a rewrite reads around it, so a compaction or split neither evicts
    /// the blocks queries use nor fills the cache with blocks that die
    /// with their file.
    pub(crate) fn read_block(&self, idx: usize, seeked: bool, fill: bool) -> Result<Block> {
        // Cache hits skip the disk, the checksum, the decompression and
        // the framing check (all done at fill time) and share the cached
        // bytes; only real disk fetches count as block reads.
        if let Some(cached) = self.cache.get(self.file_id, idx) {
            self.metrics.record_cache_hit();
            return Ok(Block::new(cached));
        }
        let (offset, len, crc) = self.index.block(idx);
        let mut buf = vec![0u8; len];
        read_exact_at(&self.file, &self.path, &mut buf, offset)?;
        self.metrics.record_block_read(len as u64, seeked);
        if crc32(&buf) != crc {
            return Err(KvError::Corrupt(format!(
                "{}: block {idx} checksum mismatch",
                self.path.display()
            )));
        }
        let data = if self.codec != Codec::None {
            Codec::decompress(&buf).map_err(|e| {
                KvError::Corrupt(format!(
                    "{}: block {idx} decompression failed: {e}",
                    self.path.display()
                ))
            })?
        } else {
            buf
        };
        let data = Arc::new(data);
        let block = Block::new(data.clone());
        if !block.validate() {
            return Err(KvError::Corrupt(format!(
                "{}: block {idx} framing invalid",
                self.path.display()
            )));
        }
        if fill {
            self.cache.put(self.file_id, idx, data);
        }
        Ok(block)
    }

    /// The IO counters this table records into.
    pub(crate) fn metrics(&self) -> &Arc<IoMetrics> {
        &self.metrics
    }

    /// Largest key in the table (empty for an empty table).
    pub(crate) fn max_key(&self) -> &[u8] {
        self.index.max_key()
    }

    /// Number of data blocks in the table.
    pub(crate) fn block_count(&self) -> usize {
        self.index.blocks.len()
    }

    /// First key of data block `idx` (for end-of-range fencing in
    /// streaming scans).
    pub(crate) fn block_first_key(&self, idx: usize) -> &[u8] {
        self.index.first_key(idx)
    }

    /// Index of the first block that could contain `key`.
    pub(crate) fn seek_block(&self, key: &[u8]) -> usize {
        // partition_point: number of blocks whose first_key <= key.
        let index = &self.index;
        let n = (index.blocks).partition_point(|&at| index.key(at) <= key);
        n.saturating_sub(1)
    }

    /// Point lookup (tombstones surface as `Some(None)`).
    pub(crate) fn get(&self, key: &[u8]) -> Result<Option<Option<Vec<u8>>>> {
        if !self.overlaps(key, key) {
            self.metrics.record_index_skip();
            return Ok(None);
        }
        if let Some(bloom) = &self.bloom {
            if !bloom.may_contain(key) {
                // Definite miss: resolved without touching any block.
                self.metrics.record_bloom_skip();
                return Ok(None);
            }
        }
        let mut cursor = BlockCursor::new(self.read_block(self.seek_block(key), true, true)?);
        if cursor.seek(key) && cursor.key() == key {
            return Ok(Some(cursor.value().map(<[u8]>::to_vec)));
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture;
    use crate::scan::{MergeStream, ScanSource, SstRangeIter};

    /// A key and its value (`None` for a tombstone).
    type Entry = (Vec<u8>, Option<Vec<u8>>);

    /// Block CRCs are on disk: the checksum must stay the standard
    /// CRC-32 (its check value) or files written earlier stop verifying.
    #[test]
    fn block_checksum_is_standard_crc32() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// All entries with `start <= key <= end` (tombstones included),
    /// stepped through the merge and block cursor the scan path uses.
    fn scan(t: &Arc<SsTable>, start: &[u8], end: &[u8]) -> Result<Vec<Entry>> {
        let source = ScanSource::Sst(SstRangeIter::new(t.clone(), Default::default(), true));
        let mut merge = MergeStream::new(vec![source], Default::default());
        merge.reseek(start, end);
        let mut out = Vec::new();
        while merge.step()? {
            let (key, value) = merge.current().expect("stepped");
            out.push((key.to_vec(), value.map(<[u8]>::to_vec)));
        }
        Ok(out)
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("just-sst-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn small_blocks() -> SstOptions {
        SstOptions {
            block_size: 256,
            ..SstOptions::default()
        }
    }

    fn build_opts(dir: &Path, n: u32, opts: SstOptions) -> Arc<SsTable> {
        let mut b = fixture::builder(&dir.join("t.sst"), opts, Arc::new(IoMetrics::new()));
        for i in 0..n {
            let key = format!("key-{i:06}");
            let val = format!("value-{i}");
            b.add(key.as_bytes(), Some(val.as_bytes())).unwrap();
        }
        Arc::new(b.finish().unwrap())
    }

    fn build(dir: &Path, n: u32) -> Arc<SsTable> {
        build_opts(dir, n, small_blocks())
    }

    /// `n` rows under every codec the builder writes, each in its own
    /// directory.
    fn all_variants(name: &str, n: u32) -> Vec<(&'static str, PathBuf, Arc<SsTable>)> {
        [
            ("none", Codec::None),
            ("zip", Codec::Zip),
            ("gzip", Codec::Gzip),
        ]
        .into_iter()
        .map(|(label, codec)| {
            let dir = tmpdir(&format!("{name}-{label}"));
            let opts = SstOptions {
                block_size: 256,
                codec,
            };
            let t = build_opts(&dir, n, opts);
            (label, dir, t)
        })
        .collect()
    }

    #[test]
    fn a_finished_table_is_the_table_its_file_opens_to() {
        for (label, dir, built) in all_variants("handover", 300) {
            let opened = fixture::sstable(built.path());
            assert_eq!(
                built.file_size(),
                std::fs::metadata(built.path()).unwrap().len()
            );
            assert_eq!(
                (built.file_size(), built.entry_count(), built.seq_limit()),
                (opened.file_size(), opened.entry_count(), opened.seq_limit()),
                "{label}"
            );
            assert_eq!(
                (built.codec, built.bloom_bytes()),
                (opened.codec, opened.bloom_bytes())
            );
            let index = |t: &SsTable| {
                let i = &t.index;
                (i.bytes.clone(), i.blocks.clone(), i.min_at, i.max_at)
            };
            assert_eq!(index(&built), index(&opened), "{label}");
            assert!(built.block_count() > 1, "{label}");
            std::fs::remove_dir_all(dir).ok();
        }
    }

    #[test]
    fn build_and_scan() {
        for (label, dir, t) in all_variants("scan", 1000) {
            assert_eq!(t.entry_count(), 1000, "{label}");
            let hits = scan(&t, b"key-000100", b"key-000199").unwrap();
            assert_eq!(hits.len(), 100, "{label}");
            assert_eq!(hits[0].0, b"key-000100");
            assert_eq!(hits[99].0, b"key-000199");
            std::fs::remove_dir_all(dir).ok();
        }
    }

    #[test]
    fn scan_edges() {
        let dir = tmpdir("edges");
        let t = build(&dir, 50);
        // Before all keys.
        assert!(scan(&t, b"a", b"b").unwrap().is_empty());
        // After all keys.
        assert!(scan(&t, b"z", b"zz").unwrap().is_empty());
        // Exact single key.
        let hits = scan(&t, b"key-000007", b"key-000007").unwrap();
        assert_eq!(hits.len(), 1);
        // Full cover.
        assert_eq!(scan(&t, b"", b"\xff\xff").unwrap().len(), 50);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn get_hits_and_misses() {
        for (label, dir, t) in all_variants("get", 100) {
            assert_eq!(
                t.get(b"key-000042").unwrap(),
                Some(Some(b"value-42".to_vec())),
                "{label}"
            );
            assert_eq!(t.get(b"key-9999").unwrap(), None, "{label}");
            assert_eq!(t.get(b"aaa").unwrap(), None, "{label}");
            std::fs::remove_dir_all(dir).ok();
        }
    }

    #[test]
    fn bloom_skips_misses_without_block_reads() {
        let dir = tmpdir("bloom-skip");
        let metrics = Arc::new(IoMetrics::new());
        let mut b = fixture::builder(&dir.join("t.sst"), small_blocks(), metrics.clone());
        for i in 0..500u32 {
            b.add(format!("key-{i:06}").as_bytes(), Some(b"v")).unwrap();
        }
        let t = b.finish().unwrap();
        assert!(t.bloom.is_some());
        metrics.reset();
        // Misses *inside* the key fence (the fence would catch outside).
        let mut skips = 0u32;
        for i in 0..500u32 {
            let probe = format!("key-{:06}x", i);
            assert_eq!(t.get(probe.as_bytes()).unwrap(), None);
        }
        let snap = metrics.snapshot();
        skips += snap.bloom_skips as u32;
        assert!(
            skips >= 475,
            "bloom should skip >=95% of misses, skipped {skips}/500"
        );
        // ("key-000499x" sorts past max_key and is fence-skipped.)
        assert_eq!(
            snap.blocks_read + snap.bloom_skips + snap.index_skips,
            500,
            "every miss bloom-skips, fence-skips, or reads exactly one block: {snap:?}"
        );
        // Present keys never bloom-skip (no false negatives).
        metrics.reset();
        for i in 0..500u32 {
            assert!(t.get(format!("key-{i:06}").as_bytes()).unwrap().is_some());
        }
        assert_eq!(metrics.snapshot().bloom_skips, 0);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn compressed_tables_use_fewer_blocks() {
        // Compressible values: the adaptive packer should fit several
        // uncompressed-block-sizes worth of entries per on-disk block.
        let build_var = |dir: &Path, codec: Codec| -> (Arc<SsTable>, Arc<IoMetrics>) {
            let metrics = Arc::new(IoMetrics::new());
            let mut b = fixture::builder(
                &dir.join(format!("t-{codec}.sst")),
                SstOptions {
                    block_size: 1024,
                    codec,
                },
                metrics.clone(),
            );
            for i in 0..2000u32 {
                let key = format!("traj/0042/{i:08}");
                let val = format!(
                    "lng=116.{:05},lat=39.{:05},speed=12.5,heading=90;",
                    i,
                    i * 7
                );
                b.add(key.as_bytes(), Some(val.as_bytes())).unwrap();
            }
            (Arc::new(b.finish().unwrap()), metrics)
        };
        let dir = tmpdir("fewer-blocks");
        let (plain, m_plain) = build_var(&dir, Codec::None);
        let (zipped, m_zip) = build_var(&dir, Codec::Zip);
        assert!(zipped.file_size() < plain.file_size());
        m_plain.reset();
        m_zip.reset();
        let a = scan(&plain, b"", b"\xff\xff").unwrap();
        let b = scan(&zipped, b"", b"\xff\xff").unwrap();
        assert_eq!(a, b, "same data back");
        let plain_blocks = m_plain.snapshot().blocks_read;
        let zip_blocks = m_zip.snapshot().blocks_read;
        assert!(
            zip_blocks * 10 <= plain_blocks * 7,
            "compressed scan should read >=30% fewer blocks: {zip_blocks} vs {plain_blocks}"
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn tombstones_survive_roundtrip() {
        let dir = tmpdir("tomb");
        let metrics = Arc::new(IoMetrics::new());
        let mut b = fixture::builder(&dir.join("t.sst"), small_blocks(), metrics);
        b.add(b"a", Some(b"1")).unwrap();
        b.add(b"b", None).unwrap();
        let t = Arc::new(b.finish().unwrap());
        assert_eq!(t.get(b"b").unwrap(), Some(None));
        let all = scan(&t, b"", b"\xff").unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(all[1].1, None);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn out_of_order_keys_rejected() {
        let dir = tmpdir("order");
        let metrics = Arc::new(IoMetrics::new());
        let mut b = fixture::builder(&dir.join("t.sst"), small_blocks(), metrics);
        b.add(b"b", Some(b"1")).unwrap();
        assert!(b.add(b"a", Some(b"2")).is_err());
        assert!(b.add(b"b", Some(b"2")).is_err());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn concurrent_readers_see_consistent_blocks() {
        // Positional reads share no cursor: hammer one table from many
        // threads and check every scan returns the full, correct range.
        let dir = tmpdir("concurrent");
        let t = build(&dir, 2000);
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let t = t.clone();
                std::thread::spawn(move || {
                    for _ in 0..20 {
                        let lo = format!("key-{:06}", i * 100);
                        let hi = format!("key-{:06}", i * 100 + 99);
                        let hits = scan(&t, lo.as_bytes(), hi.as_bytes()).unwrap();
                        assert_eq!(hits.len(), 100);
                        assert_eq!(hits[0].0, lo.as_bytes());
                        let got = t.get(format!("key-{:06}", i * 7).as_bytes()).unwrap();
                        assert_eq!(got, Some(Some(format!("value-{}", i * 7).into_bytes())));
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn io_metrics_count_block_reads() {
        let dir = tmpdir("metrics");
        let metrics = Arc::new(IoMetrics::new());
        let mut b = fixture::builder(&dir.join("t.sst"), small_blocks(), metrics.clone());
        for i in 0..500u32 {
            b.add(format!("k{i:05}").as_bytes(), Some(&[0u8; 64]))
                .unwrap();
        }
        let t = Arc::new(b.finish().unwrap());
        let before = metrics.snapshot();
        scan(&t, b"k00000", b"k00010").unwrap();
        let narrow = metrics.snapshot().since(&before);
        let before = metrics.snapshot();
        scan(&t, b"k00000", b"k00499").unwrap();
        let wide = metrics.snapshot().since(&before);
        assert!(narrow.blocks_read >= 1);
        assert!(
            wide.blocks_read > 4 * narrow.blocks_read,
            "wide {wide:?} vs narrow {narrow:?}"
        );
        std::fs::remove_dir_all(dir).ok();
    }

    /// Rewrites block 0 of the table at `path` in place through `mutate`
    /// (same length) and stamps the mutated bytes' checksum into the
    /// index, so only the framing check stands between them and a reader.
    /// Returns the mutated block bytes.
    fn restamp_first_block(path: &Path, mutate: impl FnOnce(&mut [u8])) -> Vec<u8> {
        let mut bytes = std::fs::read(path).unwrap();
        let word = |at: usize, n: usize| le(&bytes, at, n) as usize;
        // index := count(u64) klen(u32) first_key offset(u64) len(u32) crc(u32) ...
        let entry = word(bytes.len() - FOOTER_LEN, 8) + 8;
        let at = entry + 4 + word(entry, 4);
        let (offset, len) = (word(at, 8), word(at + 8, 4));
        mutate(&mut bytes[offset..offset + len]);
        let block = bytes[offset..offset + len].to_vec();
        bytes[at + 12..at + 16].copy_from_slice(&crc32(&block).to_le_bytes());
        std::fs::write(path, bytes).unwrap();
        block
    }

    #[test]
    fn a_block_failing_its_framing_check_is_corrupt_to_get_and_scan() {
        let dir = tmpdir("mutated-block");
        let mut rng = just_obs::Rng::seed_from_u64(0x5eed);
        let mut caught = 0;
        for round in 0..300 {
            let t = build(&dir, 100);
            let path = t.path().to_path_buf();
            drop(t);
            // A bit flip, an over-long varint run, or a rewritten restart
            // offset, none of which changes the block's length.
            let block = restamp_first_block(&path, |b| {
                let n = b.len();
                match round % 3 {
                    0 => b[rng.gen_range(0..n)] ^= 1 << rng.gen_range(0u32..8),
                    1 => {
                        let at = rng.gen_range(0..n - 12);
                        b[at..at + 11].fill(0xff);
                    }
                    _ => b[n - 8..n - 4].copy_from_slice(&rng.gen_range(1u32..4096).to_le_bytes()),
                }
            });
            if Block::new(Arc::new(block)).validate() {
                continue;
            }
            caught += 1;
            let t = Arc::new(fixture::sstable(&path));
            let get = t.get(b"key-000000");
            assert!(
                matches!(get, Err(KvError::Corrupt(_))),
                "round {round}: {get:?}"
            );
            let scanned = scan(&t, b"", b"\xff");
            assert!(matches!(scanned, Err(KvError::Corrupt(_))), "round {round}");
        }
        assert!(
            caught >= 100,
            "only {caught} of 300 mutations broke the framing"
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn corruption_detected_on_read() {
        for (label, dir, t) in all_variants("corrupt", 200) {
            let path = t.path().to_path_buf();
            drop(t);
            // Flip a byte in the first data block.
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[10] ^= 0xff;
            std::fs::write(&path, &bytes).unwrap();
            let t = Arc::new(fixture::sstable(&path));
            assert!(
                matches!(scan(&t, b"", b"\xff\xff"), Err(KvError::Corrupt(_))),
                "{label}"
            );
            std::fs::remove_dir_all(dir).ok();
        }
    }

    #[test]
    fn empty_table() {
        let dir = tmpdir("empty");
        let metrics = Arc::new(IoMetrics::new());
        let b = fixture::builder(&dir.join("t.sst"), small_blocks(), metrics);
        let t = Arc::new(b.finish().unwrap());
        assert_eq!(t.entry_count(), 0);
        assert!(scan(&t, b"", b"\xff").unwrap().is_empty());
        assert_eq!(t.get(b"x").unwrap(), None);
        std::fs::remove_dir_all(dir).ok();
    }

    /// A file of `body` followed by a footer carrying the given section
    /// fields (seq_limit 0, codec none) and `magic`.
    fn file_with_footer(
        path: &Path,
        body: &[u8],
        magic: &[u8; 8],
        index_offset: u64,
        index_len: u64,
        bloom_len: u64,
    ) {
        let mut bytes = body.to_vec();
        for word in [index_offset, index_len, bloom_len, 0] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        bytes.push(Codec::None.code());
        bytes.extend_from_slice(magic);
        assert_eq!(bytes.len(), body.len() + FOOTER_LEN);
        std::fs::write(path, bytes).unwrap();
    }

    fn open_err(path: &Path) -> KvError {
        let (metrics, cache) = (Arc::new(IoMetrics::new()), Arc::new(BlockCache::new(0)));
        SsTable::open(path, metrics, cache).expect_err("hostile file must not open")
    }

    #[test]
    fn hostile_footers_are_corrupt_not_allocated() {
        // Section lengths come from bytes we did not write. Every case
        // here must be a typed error before anything is allocated: a
        // 2^62-byte `vec!` aborts the test process, an unchecked add
        // panics it.
        let dir = tmpdir("hostile-footer");
        let path = dir.join("t.sst");
        let body = [0u8; 64];
        let file_size = (body.len() + FOOTER_LEN) as u64;
        let corrupt = |what: &str| {
            assert!(matches!(open_err(&path), KvError::Corrupt(_)), "{what}");
        };
        // `x` such that x + len + footer wraps round to file_size.
        let wrapping = |len: u64| (body.len() as u64).wrapping_sub(len);
        // A small index_offset (seekable) with an index_len past
        // isize::MAX.
        let len = u64::MAX - 10;
        file_with_footer(&path, &body, MAGIC, wrapping(len), len, 0);
        corrupt("wrapping index_offset + index_len");
        // Offset 0 and an allocatable-looking 4 EiB index, with bloom_len
        // making up the wrap.
        let len = 1u64 << 62;
        file_with_footer(&path, &body, MAGIC, 0, len, wrapping(len));
        corrupt("wrapping index_len + bloom_len");
        // No wrap, just longer than the file.
        file_with_footer(&path, &body, MAGIC, 0, file_size * 4, 0);
        corrupt("oversized index_len");
        // A well-tiled file whose index claims 2^64-1 blocks.
        let mut index = [0xffu8; 64];
        index[8..].fill(0);
        file_with_footer(&path, &index, MAGIC, 0, index.len() as u64, 0);
        corrupt("hostile block count");
        // Too short for the footer its magic announces.
        std::fs::write(&path, MAGIC).unwrap();
        corrupt("magic alone");
        std::fs::write(&path, b"").unwrap();
        corrupt("empty file");
        // Another generation's magic on an otherwise well-tiled file is
        // a refused format, not a torn write.
        for magic in [b"JSSTBL01", b"JSSTBL02", b"JSSTBL09"] {
            file_with_footer(&path, &index, magic, 0, index.len() as u64, 0);
            match open_err(&path) {
                KvError::Format { found, expected } => {
                    assert!(found.contains(std::str::from_utf8(magic).unwrap()));
                    assert!(expected.contains("JSSTBL03"));
                }
                e => panic!("{magic:?}: want Format, got {e:?}"),
            }
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn v3_footer_roundtrips_seq_limit() {
        let dir = tmpdir("v3-seq");
        let metrics = Arc::new(IoMetrics::new());
        let mut b = fixture::builder(&dir.join("t.sst"), small_blocks(), metrics);
        b.set_seq_limit(12345);
        for i in 0..50u32 {
            b.add(format!("k{i:04}").as_bytes(), Some(b"v")).unwrap();
        }
        let t = b.finish().unwrap();
        assert_eq!(t.seq_limit(), 12345);
        let path = t.path().to_path_buf();
        drop(t);
        let bytes = std::fs::read(&path).unwrap();
        assert!(bytes.ends_with(MAGIC));
        let t = fixture::sstable(&path);
        assert_eq!(t.seq_limit(), 12345);
        // Snapshots at or past the bound see the table; earlier ones
        // must skip it.
        assert!(t.visible_at(12345));
        assert!(t.visible_at(u64::MAX));
        assert!(!t.visible_at(12344));
        assert_eq!(t.get(b"k0007").unwrap(), Some(Some(b"v".to_vec())));
        std::fs::remove_dir_all(dir).ok();
    }
}
