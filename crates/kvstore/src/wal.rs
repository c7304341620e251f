//! The per-region write-ahead log.
//!
//! HBase acknowledges a `PUT` only after appending it to the region
//! server's WAL; memtable contents therefore survive a crash. This module
//! reproduces that write-path contract for [`crate::Region`]:
//!
//! * every mutation is appended to the active WAL segment **before** it
//!   enters the memtable;
//! * on open, segments are replayed (oldest first) into the memtable,
//!   truncating a torn tail at the first bad record;
//! * when a memtable flush makes a covering SSTable durable, the WAL
//!   rotates to a fresh segment and deletes the ones it no longer needs.
//!
//! ## Record format
//!
//! Segments are named `wal_<id>.log` and hold length-prefixed records:
//!
//! ```text
//! record  := len(u32 LE) crc(u32 LE) payload
//! payload := op(u8: 3=put 4=delete) seq(u64 LE) klen(u32 LE) key value-bytes*
//! ```
//!
//! One op pair: every record carries the region-wide commit sequence
//! number replay orders records by (`ingest.rs`). Any other op byte is a
//! malformed payload.
//!
//! `crc` is the CRC-32 (from `just-compress`) of `payload`; `len` is the
//! payload length. A record whose length runs past end-of-file, whose CRC
//! mismatches, or whose payload is malformed marks the recovery point:
//! everything before it is applied, the file is truncated there, and
//! later bytes (and segments) are discarded — exactly the
//! "last good record" semantics of HBase WAL tail trimming.
//!
//! ## Sync policies
//!
//! [`SyncPolicy`] trades ingest speed for durability:
//!
//! * `PerWrite` — `write(2)` + `fsync` before every acknowledgement:
//!   acknowledged writes survive power loss.
//! * `Batched` — `write(2)` before every acknowledgement, `fsync` batched
//!   by the maintenance scheduler (group commit): acknowledged writes
//!   survive process crashes (`kill -9`); power loss may lose the last
//!   un-synced batch.
//!
//! The unit of a `write(2)` is an *append*: [`Wal::append_seq`] takes a
//! run of records (one region's share of a write batch — a single put is
//! a run of one), frames each as above, and hands the run to the OS
//! at once. Replay cannot tell a run from separate appends.
//! * `None` — records are buffered in user space and pushed to the OS
//!   opportunistically: a crash may lose the buffered tail.
//!
//! File IO goes through the [`WalFile`] trait so tests can inject faults
//! (short writes, fsync failures, torn tails) deterministically.

use crate::error::{KvError, Result};
use just_compress::crc32::crc32;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// How eagerly WAL appends reach stable storage. See the module docs for
/// the durability contract of each level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// Buffer in user space; flush to the OS opportunistically. Crashes
    /// can lose the buffered tail.
    None,
    /// `write(2)` per append — a run of records, one region's share of a
    /// write batch — before acknowledging (survives
    /// `kill -9`), `fsync` batched by the maintenance scheduler (bounded
    /// power-loss window). The default.
    #[default]
    Batched,
    /// `write(2)` per append + a group-commit `fsync` before
    /// acknowledging: survives power loss.
    PerWrite,
}

impl SyncPolicy {
    /// Parses a policy name as used by `justd --wal-sync` and the bench
    /// harness: `none`, `batched` or `per-write`.
    pub fn parse(s: &str) -> Option<SyncPolicy> {
        match s {
            "none" => Some(SyncPolicy::None),
            "batched" => Some(SyncPolicy::Batched),
            "per-write" | "perwrite" => Some(SyncPolicy::PerWrite),
            _ => None,
        }
    }
}

/// Write-path durability settings, shared by every region of a store.
#[derive(Debug, Clone)]
pub struct DurabilityOptions {
    /// Whether mutations are write-ahead logged at all. With `false` the
    /// store behaves like the pre-WAL versions of this crate: a crash
    /// loses every row still in a memtable.
    pub wal: bool,
    /// How eagerly WAL appends are synced.
    pub sync: SyncPolicy,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            wal: true,
            sync: SyncPolicy::Batched,
        }
    }
}

impl DurabilityOptions {
    /// WAL disabled (the paper-experiment setting: ingest speed over
    /// crash safety).
    pub fn disabled() -> Self {
        DurabilityOptions {
            wal: false,
            ..Default::default()
        }
    }
}

/// The byte sink behind a WAL segment. `append` has `write_all`
/// semantics (a partial write is an error whose written prefix may still
/// reach the file — a torn tail); `sync` is `fsync`.
///
/// Production code uses `StdWalFile`; tests inject
/// `FaultyWalFile` to simulate short writes, fsync failures and crash
/// survival deterministically.
///
/// Methods take `&self` so a group-commit leader can `fsync` a shared
/// handle *outside* the log lock — concurrent writers keep appending
/// (serialized by the `Wal`'s own lock) while the fsync is in flight,
/// which is what lets one fsync acknowledge many queued records.
pub(crate) trait WalFile: Send + Sync {
    /// Appends `buf` at the end of the file (write-through to the OS).
    fn append(&self, buf: &[u8]) -> std::io::Result<()>;
    /// Forces appended bytes to stable storage.
    fn sync(&self) -> std::io::Result<()>;
    /// Truncates the file to `len` bytes — the poison-repair path cuts a
    /// torn (unacknowledged) suffix so the acknowledged prefix stays
    /// replayable.
    fn truncate(&self, len: u64) -> std::io::Result<()>;
}

/// The real-file [`WalFile`].
#[derive(Debug)]
pub(crate) struct StdWalFile {
    file: File,
}

impl StdWalFile {
    /// Opens (creating or appending to) the segment at `path`.
    pub(crate) fn open(path: &Path) -> std::io::Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(StdWalFile { file })
    }
}

impl WalFile for StdWalFile {
    fn append(&self, buf: &[u8]) -> std::io::Result<()> {
        // `Write` is implemented for `&File`; the file is in append mode,
        // so the kernel serializes the position bump with the write.
        (&self.file).write_all(buf)
    }

    fn sync(&self) -> std::io::Result<()> {
        self.file.sync_data()
    }

    fn truncate(&self, len: u64) -> std::io::Result<()> {
        self.file.set_len(len)
    }
}

/// Shared observable state of a [`FaultyWalFile`] — the "disk" of the
/// simulation. `os` holds every byte accepted by `append` (what survives
/// a process kill); `synced_len` is the prefix covered by a successful
/// `sync` (what survives power loss).
#[cfg(test)]
#[derive(Debug, Default)]
pub(crate) struct FaultyWalState {
    /// Bytes the OS accepted (page cache): survive `kill -9`.
    pub(crate) os: Vec<u8>,
    /// Prefix length made durable by `sync`: survives power loss.
    pub(crate) synced_len: usize,
    /// Accept only this many more bytes, then fail with a short write.
    pub(crate) write_budget: Option<usize>,
    /// Fail every `sync` once this many succeeded.
    pub(crate) sync_budget: Option<usize>,
    /// Number of `append` calls (one per `write(2)`).
    pub(crate) writes: usize,
    /// Number of successful syncs.
    pub(crate) syncs: usize,
    /// Artificial latency per successful `sync`, in microseconds. Lets
    /// group-commit tests widen the window in which concurrent appends
    /// queue behind an in-flight fsync.
    pub(crate) sync_delay_us: u64,
    /// When armed, the next `sync` covers the bytes already accepted,
    /// reports on the first channel that it started, and parks until the
    /// second one receives — a fsync held in flight for as long as a test
    /// needs. Disarms itself.
    pub(crate) park_sync: Option<(std::sync::mpsc::Sender<()>, std::sync::mpsc::Receiver<()>)>,
}

/// A deterministic fault-injecting [`WalFile`] over an in-memory buffer.
///
/// Construct one, clone the shared [`FaultyWalState`] handle, and hand
/// the file to a WAL under test. After simulating a crash, write the
/// surviving bytes (`os` for `kill -9`, `os[..synced_len]` for power
/// loss) to a real `wal_*.log` file and reopen the region: replay must
/// recover exactly the acknowledged records.
#[cfg(test)]
#[derive(Debug)]
pub(crate) struct FaultyWalFile {
    state: std::sync::Arc<just_obs::sync::Mutex<FaultyWalState>>,
}

#[cfg(test)]
impl FaultyWalFile {
    /// A fresh file with no faults armed.
    pub(crate) fn new() -> (Self, std::sync::Arc<just_obs::sync::Mutex<FaultyWalState>>) {
        let state = std::sync::Arc::new(just_obs::sync::Mutex::new(FaultyWalState::default()));
        (
            FaultyWalFile {
                state: state.clone(),
            },
            state,
        )
    }
}

#[cfg(test)]
impl WalFile for FaultyWalFile {
    fn append(&self, buf: &[u8]) -> std::io::Result<()> {
        let mut s = self.state.lock();
        s.writes += 1;
        if let Some(budget) = s.write_budget {
            if buf.len() > budget {
                // Short write: the accepted prefix still lands in the
                // file (torn tail), then the device errors out.
                let take = budget;
                s.os.extend_from_slice(&buf[..take]);
                s.write_budget = Some(0);
                return Err(std::io::Error::other("injected short write"));
            }
            s.write_budget = Some(budget - buf.len());
        }
        s.os.extend_from_slice(buf);
        Ok(())
    }

    fn sync(&self) -> std::io::Result<()> {
        let (delay, park) = {
            let mut s = self.state.lock();
            if let Some(budget) = s.sync_budget {
                if s.syncs >= budget {
                    return Err(std::io::Error::other("injected fsync failure"));
                }
            }
            s.syncs += 1;
            s.synced_len = s.os.len();
            (s.sync_delay_us, s.park_sync.take())
        };
        if let Some((started, release)) = park {
            started.send(()).ok();
            release.recv().ok();
        }
        if delay > 0 {
            std::thread::sleep(std::time::Duration::from_micros(delay));
        }
        Ok(())
    }

    fn truncate(&self, len: u64) -> std::io::Result<()> {
        let mut s = self.state.lock();
        s.os.truncate(len as usize);
        s.synced_len = s.synced_len.min(len as usize);
        Ok(())
    }
}

/// One logged mutation and the commit sequence number it was logged
/// with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WalRecord {
    /// Region-wide commit sequence number.
    pub(crate) seq: u64,
    /// The key.
    pub(crate) key: Vec<u8>,
    /// `Some` for a put, `None` for a delete tombstone.
    pub(crate) value: Option<Vec<u8>>,
}

const OP_PUT_SEQ: u8 = 3;
const OP_DELETE_SEQ: u8 = 4;
const HEADER: usize = 8; // len + crc
/// `op(u8) seq(u64) klen(u32)`: the payload bytes before the key.
const PAYLOAD_HEAD: usize = 1 + 8 + 4;
/// Cap on a single record's payload during replay, guarding against a
/// corrupt length field committing gigabytes of allocation.
const MAX_RECORD: u32 = 256 << 20;

fn encode_record(out: &mut Vec<u8>, seq: u64, key: &[u8], value: Option<&[u8]>) {
    let plen = PAYLOAD_HEAD + key.len() + value.map_or(0, |v| v.len());
    out.reserve(HEADER + plen);
    out.extend_from_slice(&(plen as u32).to_le_bytes());
    let crc_at = out.len();
    out.extend_from_slice(&[0; 4]); // patched below
    let payload_at = out.len();
    out.push(if value.is_some() {
        OP_PUT_SEQ
    } else {
        OP_DELETE_SEQ
    });
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(key);
    if let Some(v) = value {
        out.extend_from_slice(v);
    }
    let crc = crc32(&out[payload_at..]);
    out[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
}

/// Parses `bytes`, returning the decoded records and the length of the
/// valid prefix. Parsing stops (without error) at the first torn or
/// corrupt record — the crash-recovery contract.
pub(crate) fn decode_records(bytes: &[u8]) -> (Vec<WalRecord>, usize) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while bytes.len() - pos >= HEADER {
        let plen = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if plen > MAX_RECORD {
            break;
        }
        let plen = plen as usize;
        let start = pos + HEADER;
        let Some(end) = start.checked_add(plen) else {
            break;
        };
        if end > bytes.len() {
            break; // torn tail
        }
        let payload = &bytes[start..end];
        if crc32(payload) != crc {
            break; // corrupt record
        }
        let Some(record) = decode_payload(payload) else {
            break;
        };
        records.push(record);
        pos = end;
    }
    (records, pos)
}

fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
    let head = payload.get(..PAYLOAD_HEAD)?;
    let seq = u64::from_le_bytes(head[1..9].try_into().expect("8 bytes"));
    let klen = u32::from_le_bytes(head[9..].try_into().expect("4 bytes")) as usize;
    let rest = &payload[PAYLOAD_HEAD..];
    let key = rest.get(..klen)?.to_vec();
    let value = match head[0] {
        OP_PUT_SEQ => Some(rest[klen..].to_vec()),
        OP_DELETE_SEQ if klen == rest.len() => None,
        _ => return None,
    };
    Some(WalRecord { seq, key, value })
}

/// Fsyncs a directory so entry creations and deletions inside it survive
/// power loss — fsync of a file covers its contents, not the directory
/// entry that names it.
pub(crate) fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

fn segment_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("wal_{id:010}.log"))
}

fn segment_id(name: &str) -> Option<u64> {
    name.strip_prefix("wal_")
        .and_then(|s| s.strip_suffix(".log"))
        .and_then(|s| s.parse::<u64>().ok())
}

/// Cached handles into the global metrics registry (`just_kvstore_wal_*`
/// names), resolved once per region.
#[derive(Debug, Clone)]
struct WalMetrics {
    appends: just_obs::Counter,
    bytes: just_obs::Counter,
    writes: just_obs::Counter,
    syncs: just_obs::Counter,
    sync_latency: just_obs::Histogram,
    replayed: just_obs::Counter,
    truncations: just_obs::Counter,
}

impl WalMetrics {
    fn new() -> Self {
        let obs = just_obs::global();
        WalMetrics {
            appends: obs.counter("just_kvstore_wal_appends"),
            bytes: obs.counter("just_kvstore_wal_bytes"),
            writes: obs.counter("just_kvstore_wal_writes"),
            syncs: obs.counter("just_kvstore_wal_syncs"),
            sync_latency: obs.histogram("just_kvstore_wal_sync_latency_us"),
            replayed: obs.counter("just_kvstore_wal_replayed_records"),
            truncations: obs.counter("just_kvstore_wal_truncations"),
        }
    }
}

/// Bytes [`SyncPolicy::None`] buffers in user space before a `write(2)`.
const BUFFER_BYTES: usize = 64 << 10;

/// The write-ahead log of one region: an active segment plus the not-yet
/// obsolete ones before it.
pub(crate) struct Wal {
    dir: PathBuf,
    policy: SyncPolicy,
    active_id: u64,
    /// Shared so [`Wal::begin_concurrent_sync`] can hand the group-commit
    /// leader a handle to fsync outside the WAL lock.
    file: Arc<dyn WalFile>,
    /// User-space buffer ([`SyncPolicy::None`] only).
    pending: Vec<u8>,
    /// Appended but not yet fsynced bytes (drives batched group commit).
    unsynced: bool,
    /// Set after a failed append or fsync: the active segment may hold a
    /// torn prefix (or unsynced pages the kernel is allowed to drop), so
    /// appending more records would put acknowledged history *after* a
    /// replay-stopping tear. Poisoned WALs reject writes until
    /// [`Wal::rotate_keep`] opens a fresh segment.
    poisoned: bool,
    /// Bytes of the active segment known to be whole records (every
    /// `write(2)` that returned success). The poison-repair path of
    /// [`Wal::rotate_keep`] truncates a torn suffix back to this point.
    good_len: u64,
    /// Records handed to the write path so far — the group-commit ticket
    /// counter ([`Wal::append_seq`] returns it; a later sync covering it
    /// makes the record durable).
    appended: u64,
    metrics: WalMetrics,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("dir", &self.dir)
            .field("policy", &self.policy)
            .field("active_id", &self.active_id)
            .finish()
    }
}

impl Wal {
    /// Opens the WAL under `dir`, replaying every surviving segment.
    ///
    /// Returns the log (with a fresh active segment) and the recovered
    /// records in file order; records keep their commit sequence numbers,
    /// which the caller sorts them by. Replay truncates the first
    /// torn/corrupt record and ignores everything after it; replayed
    /// segments are retained until the next flush-rotation proves them
    /// obsolete.
    pub(crate) fn open_seq(dir: &Path, policy: SyncPolicy) -> Result<(Wal, Vec<WalRecord>)> {
        let metrics = WalMetrics::new();
        let mut segments: Vec<u64> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if let Some(id) = segment_id(&entry.file_name().to_string_lossy()) {
                segments.push(id);
            }
        }
        segments.sort_unstable();
        let mut records = Vec::new();
        let mut clean = true;
        for &id in &segments {
            if !clean {
                // A corrupt segment orphans everything after it: those
                // records were acknowledged only after the lost ones,
                // so replaying them would reorder history.
                metrics.truncations.inc();
                std::fs::remove_file(segment_path(dir, id)).ok();
                continue;
            }
            let path = segment_path(dir, id);
            let bytes = std::fs::read(&path)?;
            let (recs, valid_len) = decode_records(&bytes);
            if valid_len < bytes.len() {
                clean = false;
                metrics.truncations.inc();
                let f = OpenOptions::new().write(true).open(&path)?;
                f.set_len(valid_len as u64)?;
                f.sync_data()?;
            }
            records.extend(recs);
        }
        metrics.replayed.add(records.len() as u64);
        let active_id = segments.last().map(|id| id + 1).unwrap_or(0);
        let file: Arc<dyn WalFile> = Arc::new(StdWalFile::open(&segment_path(dir, active_id))?);
        // Make the new active segment's directory entry (and any orphan
        // deletions above) durable before acknowledging writes into it.
        fsync_dir(dir)?;
        Ok((
            Wal {
                dir: dir.to_path_buf(),
                policy,
                active_id,
                file,
                pending: Vec::new(),
                unsynced: false,
                poisoned: false,
                good_len: 0,
                appended: 0,
                metrics,
            },
            records,
        ))
    }

    /// Replaces the active segment's backing file with an empty one
    /// (fault-injection tests only — the file no longer matches what is
    /// on disk).
    #[cfg(test)]
    pub(crate) fn set_file_for_test(&mut self, file: Box<dyn WalFile>) {
        self.file = Arc::from(file);
        self.good_len = 0;
    }

    /// Appends a run of mutations: the `i`-th `(key, value)` is framed as
    /// its own record with sequence `seq + i`, and the run reaches the OS
    /// as one `write(2)` under the `batched` and `per-write` policies.
    /// Fsync is left to the caller's group commit: the returned ticket
    /// (the run's last record) is durable once a [`Wal::sync`] issued at
    /// ticket count ≥ it succeeds (see [`Wal::ticket`]).
    ///
    /// After an IO failure the WAL is poisoned: the segment may end in a
    /// torn prefix of the rejected run, so further appends are refused
    /// (nothing acknowledged may land after a replay-stopping tear)
    /// until [`Wal::rotate_keep`] swaps in a fresh segment.
    pub(crate) fn append_seq<'a, I>(&mut self, seq: u64, records: I) -> Result<u64>
    where
        I: IntoIterator<Item = (&'a [u8], Option<&'a [u8]>)>,
        I::IntoIter: Clone,
    {
        if self.poisoned {
            return Err(KvError::WalPoisoned);
        }
        // Sized exactly: a 1 000-row batch is ~450 KiB of records, which
        // doubling would reach in a dozen copies.
        let records = records.into_iter();
        let framed = |(key, value): (&[u8], Option<&[u8]>)| {
            HEADER + PAYLOAD_HEAD + key.len() + value.map_or(0, <[u8]>::len)
        };
        self.pending
            .reserve_exact(records.clone().map(framed).sum());
        let before = self.pending.len();
        let mut n = 0;
        for (key, value) in records {
            encode_record(&mut self.pending, seq + n, key, value);
            n += 1;
        }
        self.metrics.appends.add(n);
        self.metrics.bytes.add((self.pending.len() - before) as u64);
        match self.policy {
            SyncPolicy::None => {
                if self.pending.len() >= BUFFER_BYTES {
                    self.flush_os()?;
                }
            }
            SyncPolicy::Batched | SyncPolicy::PerWrite => {
                self.flush_os()?;
            }
        }
        self.appended += n;
        Ok(self.appended)
    }

    /// Records handed to the write path so far — the group-commit ticket
    /// a leader snapshots before fsyncing (every ticket ≤ the snapshot is
    /// covered by that fsync).
    pub(crate) fn ticket(&self) -> u64 {
        self.appended
    }

    /// Pushes buffered bytes to the OS (`write(2)`), without fsync.
    ///
    /// On error the WAL is poisoned (see [`Wal::append_seq`]): a torn prefix
    /// of the buffer may already be in the segment, so the rejected
    /// bytes are dropped — never retried against the same file, where a
    /// later success would strand them behind the tear and resurrect an
    /// unacknowledged record on restart.
    pub(crate) fn flush_os(&mut self) -> Result<()> {
        if self.poisoned {
            return Err(KvError::WalPoisoned);
        }
        if !self.pending.is_empty() {
            self.metrics.writes.inc();
            if let Err(e) = self.file.append(&self.pending) {
                self.pending.clear();
                self.poisoned = true;
                return Err(KvError::Io(e));
            }
            self.good_len += self.pending.len() as u64;
            self.pending.clear();
            // A large batch's buffer is not kept for the log's life.
            if self.pending.capacity() > BUFFER_BYTES {
                self.pending = Vec::new();
            }
            self.unsynced = true;
        }
        Ok(())
    }

    /// Whether a [`Wal::sync`] would do work (unbuffered or unsynced
    /// bytes exist). Lets the maintenance tick skip idle regions — and
    /// poisoned WALs, which only a rotation can repair.
    pub(crate) fn needs_sync(&self) -> bool {
        !self.poisoned && (self.unsynced || !self.pending.is_empty())
    }

    /// Forces everything appended so far to stable storage.
    ///
    /// A failed fsync also poisons the WAL: the kernel may have dropped
    /// the dirty pages (fsyncgate semantics), so a later fsync success
    /// on the same file proves nothing about the bytes this one failed
    /// to cover.
    pub(crate) fn sync(&mut self) -> Result<()> {
        self.flush_os()?;
        if !self.unsynced {
            return Ok(());
        }
        let started = Instant::now();
        if let Err(e) = self.file.sync() {
            self.poisoned = true;
            return Err(KvError::Io(e));
        }
        self.unsynced = false;
        self.metrics.syncs.inc();
        self.metrics.sync_latency.record_duration(started.elapsed());
        Ok(())
    }

    /// First half of a group-commit fsync that runs *outside* the WAL
    /// lock: pushes buffered bytes to the OS and hands back the ticket
    /// this fsync will cover plus a shared handle to fsync — or `None`
    /// when everything is already durable (or an in-flight concurrent
    /// sync already covers it; its waiters are gated on that fsync's
    /// completion, not on this snapshot).
    ///
    /// `unsynced` is cleared optimistically here; a failed fsync poisons
    /// the WAL in [`Wal::finish_concurrent_sync`], so the flag is never
    /// consulted on that path again before a rotation repairs it.
    pub(crate) fn begin_concurrent_sync(&mut self) -> Result<(u64, Option<Arc<dyn WalFile>>)> {
        self.flush_os()?;
        if !self.unsynced {
            return Ok((self.appended, None));
        }
        self.unsynced = false;
        Ok((self.appended, Some(self.file.clone())))
    }

    /// Second half of [`Wal::begin_concurrent_sync`]: records the fsync
    /// outcome back under the WAL lock. A failure poisons the WAL even
    /// if a rotation swapped the active segment meanwhile — conservative
    /// (the new segment may be fine) but a failed fsync means the device
    /// is in trouble; the next rotation repairs the log.
    pub(crate) fn finish_concurrent_sync(&mut self, started: Instant, res: &std::io::Result<()>) {
        match res {
            Ok(()) => {
                self.metrics.syncs.inc();
                self.metrics.sync_latency.record_duration(started.elapsed());
            }
            Err(_) => self.poisoned = true,
        }
    }

    /// [`Wal::sync`] without the `unsynced` early-return. Shutdown and
    /// the batched-policy tick must not trust the flag: a concurrent
    /// leader clears it optimistically at [`Wal::begin_concurrent_sync`]
    /// while its fsync is still in flight.
    pub(crate) fn sync_always(&mut self) -> Result<()> {
        self.flush_os()?;
        let started = Instant::now();
        if let Err(e) = self.file.sync() {
            self.poisoned = true;
            return Err(KvError::Io(e));
        }
        self.unsynced = false;
        self.metrics.syncs.inc();
        self.metrics.sync_latency.record_duration(started.elapsed());
        Ok(())
    }

    /// Rotates to a fresh segment *without* deleting the old ones, and
    /// returns the last old segment's id as a retirement mark. This is
    /// the pipelined-flush shape: the frozen memtable generation keeps
    /// its covering segments alive until its SSTable is durable, at which
    /// point [`Wal::retire_through`] deletes them — while new writes land
    /// in the fresh segment the whole time.
    ///
    /// Doubles as the poison-repair path: a poisoned segment's torn
    /// (unacknowledged) suffix is truncated back to the last successful
    /// `write(2)`, so the acknowledged records before the tear stay
    /// replayable.
    pub(crate) fn rotate_keep(&mut self) -> Result<u64> {
        if !self.poisoned {
            // Push buffered (None-policy) bytes into the old segment so
            // its retirement mark covers them, and fsync it: once the
            // swap lands, a group-commit leader snapshots the *new*
            // file's handle, so a record still sitting un-fsynced in the
            // old segment would otherwise be acknowledged by a fsync
            // that never covered it. Failure poisons, handled next.
            let _ = self.sync();
        }
        if self.poisoned {
            self.pending.clear();
            self.file.truncate(self.good_len).map_err(KvError::Io)?;
            self.file.sync().map_err(KvError::Io)?;
            self.metrics.truncations.inc();
        }
        let old_last = self.active_id;
        self.active_id += 1;
        self.file = Arc::new(StdWalFile::open(&segment_path(&self.dir, self.active_id))?);
        // The new segment's directory entry must be durable before
        // writes are acknowledged into it.
        fsync_dir(&self.dir)?;
        self.pending.clear();
        self.unsynced = false;
        self.poisoned = false;
        self.good_len = 0;
        Ok(old_last)
    }

    /// Repairs a poisoned log by rotating it ([`Wal::rotate_keep`]); a
    /// healthy one is left alone. The mark is not needed: the segments
    /// rotated out hold records of the active memtable, so the next
    /// freeze's mark covers them.
    pub(crate) fn heal(&mut self) -> Result<()> {
        if self.poisoned {
            self.rotate_keep()?;
        }
        Ok(())
    }

    /// Deletes every segment with id ≤ `upto` (the mark returned by the
    /// [`Wal::rotate_keep`] that froze the generation whose SSTable is
    /// now durable). Never touches the active segment.
    pub(crate) fn retire_through(&mut self, upto: u64) -> Result<()> {
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            if let Some(id) = segment_id(&entry.file_name().to_string_lossy()) {
                if id <= upto && id != self.active_id {
                    std::fs::remove_file(entry.path()).map_err(KvError::Io)?;
                }
            }
        }
        // Half-persisted deletions could leave a gap that orphans a
        // surviving later segment; make them durable as a batch.
        fsync_dir(&self.dir)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "just-wal-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn open(dir: &Path, policy: SyncPolicy) -> (Wal, Vec<WalRecord>) {
        Wal::open_seq(dir, policy).unwrap()
    }

    fn rec(seq: u64, k: &[u8], v: Option<&[u8]>) -> WalRecord {
        WalRecord {
            seq,
            key: k.to_vec(),
            value: v.map(<[u8]>::to_vec),
        }
    }

    /// Appends one record as a run of one.
    fn append1(wal: &mut Wal, seq: u64, key: &[u8], value: Option<&[u8]>) -> Result<u64> {
        wal.append_seq(seq, [(key, value)])
    }

    /// One CRC-valid record around `payload`.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes
    }

    #[test]
    fn roundtrip_puts_and_deletes() {
        let dir = tmpdir("roundtrip");
        {
            let (mut wal, recovered) = open(&dir, SyncPolicy::PerWrite);
            assert!(recovered.is_empty());
            append1(&mut wal, 0, b"a", Some(b"1")).unwrap();
            append1(&mut wal, 1, b"b", Some(b"2")).unwrap();
            append1(&mut wal, 2, b"a", None).unwrap();
            wal.sync().unwrap();
        }
        let (_, recovered) = open(&dir, SyncPolicy::PerWrite);
        assert_eq!(
            recovered,
            vec![
                rec(0, b"a", Some(b"1")),
                rec(1, b"b", Some(b"2")),
                rec(2, b"a", None)
            ]
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_run_is_one_write_of_consecutive_records() {
        let dir = tmpdir("run");
        let (mut wal, _) = open(&dir, SyncPolicy::Batched);
        let (file, state) = FaultyWalFile::new();
        wal.set_file_for_test(Box::new(file));
        let run: [(&[u8], Option<&[u8]>); 3] =
            [(b"a", Some(b"1")), (b"b", None), (b"a", Some(b"2"))];
        assert_eq!(
            wal.append_seq(7, run).unwrap(),
            3,
            "ticket of the last record"
        );
        assert_eq!(state.lock().writes, 1);
        let mut framed = Vec::new();
        for (i, (k, v)) in run.iter().enumerate() {
            encode_record(&mut framed, 7 + i as u64, k, *v);
        }
        // Byte-identical to three appends of one, handed over at once.
        assert_eq!(state.lock().os, framed);
        assert_eq!(
            decode_records(&framed).0,
            vec![
                rec(7, b"a", Some(b"1")),
                rec(8, b"b", None),
                rec(9, b"a", Some(b"2"))
            ]
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn torn_tail_truncates_to_last_good_record() {
        let dir = tmpdir("torn");
        {
            let (mut wal, _) = open(&dir, SyncPolicy::PerWrite);
            append1(&mut wal, 0, b"good-1", Some(b"v1")).unwrap();
            append1(&mut wal, 1, b"good-2", Some(b"v2")).unwrap();
            wal.sync().unwrap();
        }
        // Append half a record by hand: a length header promising more
        // bytes than exist.
        let seg = segment_path(&dir, 0);
        let mut bytes = std::fs::read(&seg).unwrap();
        let full_len = bytes.len();
        bytes.extend_from_slice(&100u32.to_le_bytes());
        bytes.extend_from_slice(&0xDEADBEEFu32.to_le_bytes());
        bytes.extend_from_slice(b"partial");
        std::fs::write(&seg, &bytes).unwrap();

        let (_, recovered) = open(&dir, SyncPolicy::PerWrite);
        assert_eq!(
            recovered,
            vec![
                rec(0, b"good-1", Some(b"v1")),
                rec(1, b"good-2", Some(b"v2"))
            ]
        );
        // The torn tail was physically truncated.
        assert_eq!(std::fs::metadata(&seg).unwrap().len() as usize, full_len);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn corrupt_crc_stops_replay_at_last_good_record() {
        let dir = tmpdir("crc");
        {
            let (mut wal, _) = open(&dir, SyncPolicy::PerWrite);
            append1(&mut wal, 0, b"keep00", Some(b"v")).unwrap();
            append1(&mut wal, 1, b"victim", Some(b"v")).unwrap();
            append1(&mut wal, 2, b"after0", Some(b"v")).unwrap();
            wal.sync().unwrap();
        }
        let seg = segment_path(&dir, 0);
        let mut bytes = std::fs::read(&seg).unwrap();
        // Records are equal-sized; flip a payload byte of the second.
        let record_len = bytes.len() / 3;
        bytes[record_len + HEADER + 3] ^= 0xff;
        std::fs::write(&seg, &bytes).unwrap();

        let (_, recovered) = open(&dir, SyncPolicy::PerWrite);
        // Recovery point is the last record before the corruption; the
        // intact record *after* it is unreachable by design.
        assert_eq!(recovered, vec![rec(0, b"keep00", Some(b"v"))]);
        assert_eq!(std::fs::metadata(&seg).unwrap().len() as usize, record_len);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn rotation_deletes_obsolete_segments() {
        // The flush shape: rotate, keep writing into the fresh segment,
        // retire the old one once its SSTable would be durable.
        let dir = tmpdir("rotate");
        let (mut wal, _) = open(&dir, SyncPolicy::Batched);
        append1(&mut wal, 0, b"a", Some(b"1")).unwrap();
        let mark = wal.rotate_keep().unwrap();
        append1(&mut wal, 1, b"b", Some(b"2")).unwrap();
        assert!(segment_path(&dir, 0).exists(), "kept until retired");
        wal.retire_through(mark).unwrap();
        drop(wal);
        let (_, recovered) = open(&dir, SyncPolicy::Batched);
        // Only the post-rotation record survives; segment 0 is gone.
        assert_eq!(recovered, vec![rec(1, b"b", Some(b"2"))]);
        assert!(!segment_path(&dir, 0).exists());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn sync_none_buffers_in_user_space() {
        let dir = tmpdir("buffered");
        let (mut wal, _) = open(&dir, SyncPolicy::None);
        append1(&mut wal, 0, b"k", Some(b"v")).unwrap();
        assert!(!wal.pending.is_empty(), "should be buffered");
        assert_eq!(std::fs::metadata(segment_path(&dir, 0)).unwrap().len(), 0);
        // A crash here (drop without flush) loses the buffered record.
        drop(wal);
        let (_, recovered) = open(&dir, SyncPolicy::None);
        assert!(recovered.is_empty());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn fault_injected_short_write_recovers_to_acknowledged_prefix() {
        let dir = tmpdir("fault-short");
        let (mut wal, _) = open(&dir, SyncPolicy::PerWrite);
        let (file, state) = FaultyWalFile::new();
        // Two full records fit; the third is torn 5 bytes in.
        let mut probe = Vec::new();
        encode_record(&mut probe, 0, b"key-1", Some(b"value-1"));
        let record_len = probe.len();
        state.lock().write_budget = Some(2 * record_len + 5);
        wal.set_file_for_test(Box::new(file));

        assert!(append1(&mut wal, 0, b"key-1", Some(b"value-1")).is_ok());
        assert!(append1(&mut wal, 1, b"key-2", Some(b"value-2")).is_ok());
        let torn = append1(&mut wal, 2, b"key-3", Some(b"value-3"));
        assert!(torn.is_err(), "short write must fail the append");

        // Simulate kill -9: the OS kept everything write(2) accepted,
        // including the 5-byte torn tail. Recovery must surface exactly
        // the two acknowledged records.
        let crash_dir = tmpdir("fault-short-crash");
        std::fs::write(segment_path(&crash_dir, 0), &state.lock().os).unwrap();
        let (_, recovered) = open(&crash_dir, SyncPolicy::PerWrite);
        assert_eq!(
            recovered,
            vec![
                rec(0, b"key-1", Some(b"value-1")),
                rec(1, b"key-2", Some(b"value-2"))
            ]
        );
        std::fs::remove_dir_all(dir).ok();
        std::fs::remove_dir_all(crash_dir).ok();
    }

    #[test]
    fn failed_append_poisons_wal_until_rotation() {
        let dir = tmpdir("poison");
        let (mut wal, _) = open(&dir, SyncPolicy::Batched);
        let (file, state) = FaultyWalFile::new();
        state.lock().write_budget = Some(3); // torn 3 bytes into the first record
        wal.set_file_for_test(Box::new(file));

        assert!(matches!(
            append1(&mut wal, 0, b"torn", Some(b"v")),
            Err(KvError::Io(_))
        ));
        // The rejected record must not linger for a later retry: a
        // torn prefix of it is already in the segment, and appending
        // behind that tear would strand acknowledged history.
        assert!(wal.pending.is_empty());
        assert!(matches!(
            append1(&mut wal, 1, b"after", Some(b"v")),
            Err(KvError::WalPoisoned)
        ));
        assert!(!wal.needs_sync(), "poisoned wal must not invite syncs");

        // Rotation repairs the log: the torn suffix is cut back to the
        // last whole record, a fresh segment takes appends again, and
        // nothing more ever reaches the torn file.
        let mark = wal.rotate_keep().unwrap();
        assert!(state.lock().os.is_empty(), "torn tail truncated");
        append1(&mut wal, 2, b"fresh", Some(b"v")).unwrap();
        wal.retire_through(mark).unwrap();
        assert!(state.lock().os.is_empty());
        drop(wal);
        let (_, recovered) = open(&dir, SyncPolicy::Batched);
        assert_eq!(recovered, vec![rec(2, b"fresh", Some(b"v"))]);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn fault_injected_fsync_failure_fails_per_write_append() {
        // Through the write path itself: append, then the per-write
        // group commit's fsync gates the acknowledgement.
        let dir = tmpdir("fault-sync");
        let (wal, _) = crate::ingest::RegionWal::open(&dir, SyncPolicy::PerWrite).unwrap();
        let (file, state) = FaultyWalFile::new();
        state.lock().sync_budget = Some(1);
        wal.set_file_for_test(Box::new(file));

        assert!(wal.append(0, b"a", Some(b"1")).is_ok());
        assert!(
            wal.append(1, b"b", Some(b"2")).is_err(),
            "fsync failure must refuse the acknowledgement"
        );
        // Power-loss view: only the synced prefix survives — exactly
        // the one acknowledged record.
        let crash_dir = tmpdir("fault-sync-crash");
        let surviving = {
            let s = state.lock();
            s.os[..s.synced_len].to_vec()
        };
        std::fs::write(segment_path(&crash_dir, 0), surviving).unwrap();
        let (_, recovered) = open(&crash_dir, SyncPolicy::PerWrite);
        assert_eq!(recovered, vec![rec(0, b"a", Some(b"1"))]);
        std::fs::remove_dir_all(dir).ok();
        std::fs::remove_dir_all(crash_dir).ok();
    }

    #[test]
    fn corrupt_middle_segment_orphans_later_segments() {
        let dir = tmpdir("orphan");
        let (mut wal, _) = open(&dir, SyncPolicy::PerWrite);
        append1(&mut wal, 0, b"seg0", Some(b"v")).unwrap();
        drop(wal);
        // Reopen: segment 0 is replayed and retained, segment 1 becomes
        // active — two live segments.
        let (mut wal, recovered) = open(&dir, SyncPolicy::PerWrite);
        assert_eq!(recovered.len(), 1);
        append1(&mut wal, 1, b"seg1", Some(b"v")).unwrap();
        drop(wal);
        // Corrupt segment 0 entirely.
        std::fs::write(segment_path(&dir, 0), b"garbage-that-is-not-a-record").unwrap();
        let (_, recovered) = open(&dir, SyncPolicy::PerWrite);
        // Nothing from segment 0, and segment 1 must not leapfrog the
        // corruption.
        assert!(recovered.is_empty(), "got {recovered:?}");
        assert!(!segment_path(&dir, 1).exists(), "orphan segment kept");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn decode_rejects_malformed_payloads() {
        let mut head = vec![OP_PUT_SEQ];
        head.extend_from_slice(&7u64.to_le_bytes());
        // Oversized klen inside a CRC-valid payload.
        let mut payload = head.clone();
        payload.extend_from_slice(&1000u32.to_le_bytes());
        payload.extend_from_slice(b"short");
        // Unknown op code.
        let mut unknown = head.clone();
        unknown[0] = 7;
        unknown.extend_from_slice(&1u32.to_le_bytes());
        unknown.push(b'k');
        // Ops 1 (put) and 2 (delete): the unsequenced shape no build
        // writes, which must not replay as a record.
        let unsequenced = |op: u8, value: &[u8]| {
            let mut p = vec![op];
            p.extend_from_slice(&1u32.to_le_bytes());
            p.push(b'k');
            p.extend_from_slice(value);
            p
        };
        // Too short for the sequenced header.
        let short = head[..5].to_vec();
        for bad in [
            payload,
            unknown,
            unsequenced(1, b"v"),
            unsequenced(2, b""),
            short,
        ] {
            let (records, valid) = decode_records(&framed(&bad));
            assert!(records.is_empty(), "{bad:?}");
            assert_eq!(valid, 0, "{bad:?}");
        }
        // A delete must not carry value bytes.
        let mut delete = vec![OP_DELETE_SEQ];
        delete.extend_from_slice(&7u64.to_le_bytes());
        delete.extend_from_slice(&1u32.to_le_bytes());
        delete.extend_from_slice(b"kv");
        assert!(decode_records(&framed(&delete)).0.is_empty());
        delete.pop();
        assert_eq!(decode_records(&framed(&delete)).0, vec![rec(7, b"k", None)]);
    }
}
