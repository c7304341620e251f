//! The per-region write-ahead log and its group commit.
//!
//! HBase acknowledges a `PUT` only after appending it to the region
//! server's WAL, and batches the syncs of concurrent writers ("group
//! commit") so one `hsync` acknowledges many of them. A region here keeps
//! one log the same way ([`Wal`]):
//!
//! * every mutation is appended to the active segment **before** it
//!   enters the memtable, as one `write(2)` per append — a run of records,
//!   one region's share of a write batch ([`Wal::append`]);
//! * one routine fsyncs, [`Wal::sync_through`]: a single leader fsyncs
//!   everything appended so far *outside* the log lock, so writers keep
//!   appending while it is in flight, then publishes the `synced`
//!   high-water mark and wakes every writer it covered;
//! * on open, segments are replayed (oldest first), truncating a torn
//!   tail at the first bad record, and the records are returned in
//!   commit order;
//! * a memtable freeze rotates the log to a fresh segment
//!   ([`Wal::rotate_keep`]); once the frozen generation's SSTable is
//!   durable, the segments before it are deleted ([`Wal::retire_through`]).
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
//! Every record carries the region-wide commit sequence number assigned
//! under the memtable lock. A log need not hold its records in that
//! order — one written by an earlier build interleaves concurrent
//! writers' runs — so replay sorts by it. Any other op byte is a
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
//! * `PerWrite` — a writer's acknowledgement waits for
//!   [`Wal::sync_through`] its ticket: acknowledged writes survive power
//!   loss.
//! * `Batched` — the `write(2)` precedes the acknowledgement, and the
//!   maintenance scheduler calls [`Wal::sync_through`] within
//!   [`SYNC_WINDOW`] (10 ms) of the first append no fsync covers yet,
//!   or, for appends that land while an fsync is in flight, within
//!   10 ms of its end: acknowledged writes survive process crashes
//!   (`kill -9`); power loss may lose the last un-synced batch. The
//!   append that dirties a clean log asks the scheduler for a sweep as
//!   the window closes, so every append in the window shares one fsync
//!   and a clean log costs no wake-up.
//! * `Off` — no log: a crash loses every row still in a memtable.
//!
//! Clean shutdown syncs every log through its last ticket either way.
//!
//! ## Repair
//!
//! A failed append or fsync poisons the log, and with it every write to
//! the region, and kicks the scheduler. The next freeze or maintenance
//! sweep repairs it: the torn (unacknowledged) suffix is truncated and
//! the log rotates to a fresh segment ([`Wal::rotate_keep`]).
//!
//! File IO goes through the [`WalFile`] trait so tests can inject faults
//! (short writes, fsync failures, torn tails) deterministically.

use crate::error::{KvError, Result};
use crate::maintenance::Kick;
use just_compress::crc32::crc32;
use just_obs::sync::{Condvar, Mutex};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The `batched` group-commit window: a log is fsynced at most this long
/// after its first append that no fsync covers.
pub(crate) const SYNC_WINDOW: Duration = Duration::from_millis(10);

/// How eagerly a store's writes reach stable storage. See the module
/// docs for the durability contract of each level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// No write-ahead log: a crash loses every row still in a memtable
    /// (raw ingest speed over crash safety).
    Off,
    /// `write(2)` per append — a run of records, one region's share of a
    /// write batch — before acknowledging (survives
    /// `kill -9`), `fsync` batched by the maintenance scheduler within
    /// 10 ms of the first unsynced append, or of the end of the fsync in
    /// flight when it landed (bounded power-loss window).
    /// The default.
    #[default]
    Batched,
    /// `write(2)` per append + a group-commit `fsync` before
    /// acknowledging: survives power loss.
    PerWrite,
}

impl SyncPolicy {
    /// Parses a policy name as used by `justd --wal-sync`: `off`,
    /// `batched` or `per-write`.
    pub fn parse(s: &str) -> Option<SyncPolicy> {
        match s {
            "off" => Some(SyncPolicy::Off),
            "batched" => Some(SyncPolicy::Batched),
            "per-write" | "perwrite" => Some(SyncPolicy::PerWrite),
            _ => None,
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
    group_commits: just_obs::Counter,
    group_commit_records: just_obs::Histogram,
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
            group_commits: obs.counter("just_kvstore_wal_group_commits"),
            group_commit_records: obs.histogram("just_kvstore_wal_group_commit_records"),
            replayed: obs.counter("just_kvstore_wal_replayed_records"),
            truncations: obs.counter("just_kvstore_wal_truncations"),
        }
    }
}

/// An encode buffer above this many bytes is dropped after its append
/// rather than kept for the log's life.
const BUFFER_BYTES: usize = 64 << 10;

/// Everything of a [`Wal`] that its one lock guards.
struct WalState {
    active_id: u64,
    /// Shared so the group-commit leader can fsync it outside the lock.
    file: Arc<dyn WalFile>,
    /// The encode buffer: a run is framed here, then written at once.
    buf: Vec<u8>,
    /// Set after a failed append or fsync: the active segment may hold a
    /// torn prefix (or unsynced pages the kernel is allowed to drop), so
    /// appending more records would put acknowledged history *after* a
    /// replay-stopping tear. Poisoned logs reject writes until
    /// [`Wal::rotate_keep`] opens a fresh segment.
    poisoned: bool,
    /// Bytes of the active segment known to be whole records (every
    /// `write(2)` that returned success). The poison-repair path of
    /// [`Wal::rotate_keep`] truncates a torn suffix back to this point.
    good_len: u64,
    /// Records appended so far: the ticket of the latest append.
    appended: u64,
    /// The highest ticket a completed fsync covers; `synced < appended`
    /// means there is something to sync.
    synced: u64,
    /// A leader's fsync is in flight (one per log at a time).
    syncing: bool,
    /// `batched` only: when the oldest append no fsync covers landed, or
    /// when the fsync in flight as it landed ended (`None` while the log
    /// is clean). The log is due for its group commit [`SYNC_WINDOW`]
    /// later.
    dirty_since: Option<Instant>,
}

/// The write-ahead log of one region: an active segment plus the not-yet
/// obsolete ones before it, and its group commit (see the module docs).
pub(crate) struct Wal {
    dir: PathBuf,
    /// `Batched` or `PerWrite`: a store at `Off` opens no log.
    policy: SyncPolicy,
    /// Locked briefly per append; the group-commit leader fsyncs
    /// *outside* it.
    state: Mutex<WalState>,
    /// Signalled when a leader's fsync ends and when a rotation has
    /// fsynced the outgoing segment: what a waiting writer waits for.
    synced_cv: Condvar,
    /// The maintenance scheduler's latch: kicked when the log turns
    /// dirty under `batched` and when it is poisoned. `None` in a store
    /// without workers.
    kick: Option<Arc<Kick>>,
    metrics: WalMetrics,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("dir", &self.dir)
            .field("policy", &self.policy)
            .finish()
    }
}

impl Wal {
    /// Opens the WAL under `dir`, replaying every surviving segment.
    ///
    /// Returns the log (with a fresh active segment) and the recovered
    /// records in commit (sequence) order. Replay truncates the first
    /// torn/corrupt record and ignores everything after it; replayed
    /// segments are retained until the next flush-rotation proves them
    /// obsolete. `kick` is the scheduler the log asks for its syncs and
    /// repairs.
    pub(crate) fn open(
        dir: &Path,
        policy: SyncPolicy,
        kick: Option<Arc<Kick>>,
    ) -> Result<(Wal, Vec<WalRecord>)> {
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
        // Commit order is sequence order, not file order (module docs).
        records.sort_by_key(|r| r.seq);
        let active_id = segments.last().map(|id| id + 1).unwrap_or(0);
        let file: Arc<dyn WalFile> = Arc::new(StdWalFile::open(&segment_path(dir, active_id))?);
        // Make the new active segment's directory entry (and any orphan
        // deletions above) durable before acknowledging writes into it.
        fsync_dir(dir)?;
        let state = WalState {
            active_id,
            file,
            buf: Vec::new(),
            poisoned: false,
            good_len: 0,
            appended: 0,
            synced: 0,
            syncing: false,
            dirty_since: None,
        };
        let wal = Wal {
            dir: dir.to_path_buf(),
            policy,
            state: Mutex::new(state),
            synced_cv: Condvar::new(),
            kick,
            metrics,
        };
        Ok((wal, records))
    }

    /// Replaces the active segment's backing file with an empty one
    /// (fault-injection tests only — the file no longer matches what is
    /// on disk).
    #[cfg(test)]
    pub(crate) fn set_file_for_test(&self, file: Box<dyn WalFile>) {
        let mut st = self.state.lock();
        st.file = Arc::from(file);
        st.good_len = 0;
    }

    /// Appends a run of mutations: the `i`-th `(key, value)` is framed as
    /// its own record with sequence `seq + i`, and the run reaches the OS
    /// as one `write(2)`. Returns the run's ticket, which [`Wal::commit`]
    /// takes — split so a writer appends under the memtable lock but
    /// waits for the group commit *outside* it: a writer parked on an
    /// fsync must not hold the memtable hostage, or every other writer of
    /// the region chains behind its wait.
    ///
    /// After an IO failure the log is poisoned: the segment may end in a
    /// torn prefix of the rejected run, which is dropped — never retried
    /// against the same file, where a later success would strand it
    /// behind the tear and resurrect an unacknowledged record on
    /// restart. Further appends are refused until [`Wal::rotate_keep`]
    /// swaps in a fresh segment.
    ///
    /// Under `batched`, the append that dirties a clean log starts its
    /// [`SYNC_WINDOW`] and asks the scheduler for a sweep as it closes.
    pub(crate) fn append<'a, I>(&self, seq: u64, records: I) -> Result<u64>
    where
        I: IntoIterator<Item = (&'a [u8], Option<&'a [u8]>)>,
        I::IntoIter: Clone,
    {
        let mut guard = self.state.lock();
        if guard.poisoned {
            return Err(KvError::WalPoisoned);
        }
        // Sized exactly: a 1 000-row batch is ~450 KiB of records, which
        // doubling would reach in a dozen copies.
        let records = records.into_iter();
        let framed = |(key, value): (&[u8], Option<&[u8]>)| {
            HEADER + PAYLOAD_HEAD + key.len() + value.map_or(0, <[u8]>::len)
        };
        let st = &mut *guard;
        st.buf.reserve_exact(records.clone().map(framed).sum());
        let mut n = 0;
        for (key, value) in records {
            encode_record(&mut st.buf, seq + n, key, value);
            n += 1;
        }
        self.metrics.appends.add(n);
        self.metrics.bytes.add(st.buf.len() as u64);
        self.metrics.writes.inc();
        let written = st.file.append(&st.buf);
        let len = st.buf.len() as u64;
        st.buf.clear();
        // A large batch's buffer is not kept for the log's life.
        if st.buf.capacity() > BUFFER_BYTES {
            st.buf = Vec::new();
        }
        if let Err(e) = written {
            st.poisoned = true;
            drop(guard);
            self.wake();
            return Err(KvError::Io(e));
        }
        st.good_len += len;
        st.appended += n;
        let ticket = st.appended;
        let dirtied =
            (self.policy == SyncPolicy::Batched && st.dirty_since.is_none()).then(Instant::now);
        if dirtied.is_some() {
            st.dirty_since = dirtied;
        }
        drop(guard);
        if let (Some(at), Some(kick)) = (dirtied, &self.kick) {
            kick.kick_by(at + SYNC_WINDOW);
        }
        Ok(ticket)
    }

    /// Asks the maintenance scheduler for a sweep now.
    fn wake(&self) {
        if let Some(kick) = &self.kick {
            kick.kick();
        }
    }

    /// The durability half of the write path: blocks until `ticket` is
    /// covered per the sync policy (the `per-write` group commit gates
    /// the acknowledgement; `batched` leaves it to the scheduler).
    pub(crate) fn commit(&self, ticket: u64) -> Result<()> {
        match self.policy {
            SyncPolicy::PerWrite => self.sync_through(ticket),
            SyncPolicy::Off | SyncPolicy::Batched => Ok(()),
        }
    }

    /// The ticket of the latest append.
    pub(crate) fn ticket(&self) -> u64 {
        self.state.lock().appended
    }

    /// The group commit: blocks until a completed fsync covers `ticket`.
    /// A writer whose ticket a running fsync will cover waits for it;
    /// otherwise one leader takes the latest ticket and a handle to the
    /// segment, fsyncs *outside* the lock — concurrent writers keep
    /// appending meanwhile, which is where the batching comes from —
    /// then publishes `synced` and wakes the waiters.
    ///
    /// A failed fsync poisons the log: the kernel may have dropped the
    /// dirty pages (fsyncgate semantics), so a later fsync success on the
    /// same file proves nothing about the bytes this one failed to cover.
    /// It poisons even if a rotation swapped the segment meanwhile —
    /// conservative, but the device is in trouble; the next rotation
    /// repairs the log.
    pub(crate) fn sync_through(&self, ticket: u64) -> Result<()> {
        let mut st = self.state.lock();
        loop {
            if st.synced >= ticket {
                return Ok(());
            }
            if st.poisoned {
                return Err(KvError::WalPoisoned);
            }
            if !st.syncing {
                break;
            }
            // Every change is signalled under this lock, so a wakeup
            // cannot be lost; the timeout only bounds a wait.
            st = self.synced_cv.wait_timeout(st, Duration::from_secs(1)).0;
        }
        st.syncing = true;
        let (target, file) = (st.appended, st.file.clone());
        // Taken under the lock: no append beyond `target` is older.
        let started = Instant::now();
        drop(st);
        let res = file.sync();
        let mut st = self.state.lock();
        st.syncing = false;
        match res {
            Ok(()) => {
                self.metrics.syncs.inc();
                self.metrics.sync_latency.record_duration(started.elapsed());
                if target > st.synced {
                    self.metrics.group_commits.inc();
                    self.metrics.group_commit_records.record(target - st.synced);
                    st.synced = target;
                }
                // Appends that landed during the fsync share the next
                // one: their window opens as this one ends.
                if st.dirty_since.is_some() {
                    st.dirty_since = (st.synced < st.appended).then(Instant::now);
                }
            }
            Err(_) => st.poisoned = true,
        }
        drop(st);
        self.synced_cv.notify_all();
        if res.is_err() {
            self.wake();
        }
        res.map_err(KvError::Io)
    }

    /// The log's share of a maintenance sweep at `now`: repairs a
    /// poisoned log, then, under `batched`, issues the group commit of
    /// everything appended so far once the oldest unsynced append is
    /// three quarters of a [`SYNC_WINDOW`] old (`per-write` writers sync
    /// inline): logs dirtied close together share one sweep rather than
    /// each waking the worker a few microseconds after the last, and a
    /// worker sweeps for deadlines at most four times a window. Returns
    /// when the log is next due, or `None` while it is clean.
    pub(crate) fn maintain(&self, now: Instant) -> Result<Option<Instant>> {
        if self.state.lock().poisoned {
            // The mark is not needed: the segments rotated out hold
            // records of the active memtable, so the next freeze's mark
            // covers them.
            self.rotate_keep()?;
        }
        let due = || self.state.lock().dirty_since.map(|t| t + SYNC_WINDOW);
        match due() {
            Some(at) if at <= now + SYNC_WINDOW / 4 => self.sync_through(self.ticket())?,
            later => return Ok(later),
        }
        Ok(due())
    }

    /// Rotates to a fresh segment *without* deleting the old ones, and
    /// returns the last old segment's id as a retirement mark. This is
    /// the pipelined-flush shape: the frozen memtable generation keeps
    /// its covering segments alive until its SSTable is durable, at which
    /// point [`Wal::retire_through`] deletes them — while new writes land
    /// in the fresh segment the whole time.
    ///
    /// The outgoing segment is fsynced under the lock first: once the
    /// swap lands, a group-commit leader takes the *new* file's handle,
    /// so a record still un-fsynced in the old segment would otherwise be
    /// acknowledged by a fsync that never covered it. Doubles as the
    /// poison-repair path: a poisoned segment's torn (unacknowledged)
    /// suffix is truncated back to the last successful `write(2)`, so the
    /// acknowledged records before the tear stay replayable.
    pub(crate) fn rotate_keep(&self) -> Result<u64> {
        let mut st = self.state.lock();
        if !st.poisoned && st.synced < st.appended {
            let started = Instant::now();
            match st.file.sync() {
                Ok(()) => {
                    self.metrics.syncs.inc();
                    self.metrics.sync_latency.record_duration(started.elapsed());
                }
                Err(_) => st.poisoned = true,
            }
        }
        if st.poisoned {
            st.file.truncate(st.good_len).map_err(KvError::Io)?;
            st.file.sync().map_err(KvError::Io)?;
            self.metrics.truncations.inc();
        }
        let old_last = st.active_id;
        st.active_id += 1;
        st.file = Arc::new(StdWalFile::open(&segment_path(&self.dir, st.active_id))?);
        // The new segment's directory entry must be durable before
        // writes are acknowledged into it.
        fsync_dir(&self.dir)?;
        st.synced = st.appended;
        st.dirty_since = None;
        st.poisoned = false;
        st.good_len = 0;
        drop(st);
        self.synced_cv.notify_all();
        Ok(old_last)
    }

    /// Deletes every segment with id ≤ `upto` (the mark returned by the
    /// [`Wal::rotate_keep`] that froze the generation whose SSTable is
    /// now durable). Never touches the active segment.
    pub(crate) fn retire_through(&self, upto: u64) -> Result<()> {
        let active_id = self.state.lock().active_id;
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            if let Some(id) = segment_id(&entry.file_name().to_string_lossy()) {
                if id <= upto && id != active_id {
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
        Wal::open(dir, policy, None).unwrap()
    }

    /// A maintenance sweep once the sync window has closed.
    fn sweep(wal: &Wal) -> Result<Option<Instant>> {
        wal.maintain(Instant::now() + SYNC_WINDOW)
    }

    fn rec(seq: u64, k: &[u8], v: Option<&[u8]>) -> WalRecord {
        WalRecord {
            seq,
            key: k.to_vec(),
            value: v.map(<[u8]>::to_vec),
        }
    }

    /// Appends one record as a run of one.
    fn append1(wal: &Wal, seq: u64, key: &[u8], value: Option<&[u8]>) -> Result<u64> {
        wal.append(seq, [(key, value)])
    }

    /// Appends one record and commits it per the log's policy, as the
    /// write path does.
    fn log(wal: &Wal, seq: u64, key: &[u8], value: Option<&[u8]>) -> Result<()> {
        let ticket = append1(wal, seq, key, value)?;
        wal.commit(ticket)
    }

    /// Syncs everything appended so far, as shutdown does.
    fn sync_all(wal: &Wal) -> Result<()> {
        wal.sync_through(wal.ticket())
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
            let (wal, recovered) = open(&dir, SyncPolicy::PerWrite);
            assert!(recovered.is_empty());
            append1(&wal, 0, b"a", Some(b"1")).unwrap();
            append1(&wal, 1, b"b", Some(b"2")).unwrap();
            append1(&wal, 2, b"a", None).unwrap();
            sync_all(&wal).unwrap();
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
        let (wal, _) = open(&dir, SyncPolicy::Batched);
        let (file, state) = FaultyWalFile::new();
        wal.set_file_for_test(Box::new(file));
        let run: [(&[u8], Option<&[u8]>); 3] =
            [(b"a", Some(b"1")), (b"b", None), (b"a", Some(b"2"))];
        assert_eq!(wal.append(7, run).unwrap(), 3, "ticket of the last record");
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
            let (wal, _) = open(&dir, SyncPolicy::PerWrite);
            append1(&wal, 0, b"good-1", Some(b"v1")).unwrap();
            append1(&wal, 1, b"good-2", Some(b"v2")).unwrap();
            sync_all(&wal).unwrap();
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
            let (wal, _) = open(&dir, SyncPolicy::PerWrite);
            append1(&wal, 0, b"keep00", Some(b"v")).unwrap();
            append1(&wal, 1, b"victim", Some(b"v")).unwrap();
            append1(&wal, 2, b"after0", Some(b"v")).unwrap();
            sync_all(&wal).unwrap();
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
        let (wal, _) = open(&dir, SyncPolicy::Batched);
        append1(&wal, 0, b"a", Some(b"1")).unwrap();
        let mark = wal.rotate_keep().unwrap();
        append1(&wal, 1, b"b", Some(b"2")).unwrap();
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
    fn fault_injected_short_write_recovers_to_acknowledged_prefix() {
        let dir = tmpdir("fault-short");
        let (wal, _) = open(&dir, SyncPolicy::PerWrite);
        let (file, state) = FaultyWalFile::new();
        // Two full records fit; the third is torn 5 bytes in.
        let mut probe = Vec::new();
        encode_record(&mut probe, 0, b"key-1", Some(b"value-1"));
        let record_len = probe.len();
        state.lock().write_budget = Some(2 * record_len + 5);
        wal.set_file_for_test(Box::new(file));

        assert!(append1(&wal, 0, b"key-1", Some(b"value-1")).is_ok());
        assert!(append1(&wal, 1, b"key-2", Some(b"value-2")).is_ok());
        let torn = append1(&wal, 2, b"key-3", Some(b"value-3"));
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
        let (wal, _) = open(&dir, SyncPolicy::Batched);
        let (file, state) = FaultyWalFile::new();
        state.lock().write_budget = Some(3); // torn 3 bytes into the first record
        wal.set_file_for_test(Box::new(file));

        assert!(matches!(
            append1(&wal, 0, b"torn", Some(b"v")),
            Err(KvError::Io(_))
        ));
        // The rejected record must not linger for a later retry: a
        // torn prefix of it is already in the segment, and appending
        // behind that tear would strand acknowledged history.
        assert!(wal.state.lock().buf.is_empty());
        assert!(matches!(
            append1(&wal, 1, b"after", Some(b"v")),
            Err(KvError::WalPoisoned)
        ));
        assert!(
            matches!(wal.sync_through(1), Err(KvError::WalPoisoned)),
            "poisoned wal must not invite syncs"
        );
        assert_eq!(state.lock().syncs, 0);

        // Rotation repairs the log: the torn suffix is cut back to the
        // last whole record, a fresh segment takes appends again, and
        // nothing more ever reaches the torn file.
        let mark = wal.rotate_keep().unwrap();
        assert!(state.lock().os.is_empty(), "torn tail truncated");
        append1(&wal, 2, b"fresh", Some(b"v")).unwrap();
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
        let (wal, _) = open(&dir, SyncPolicy::PerWrite);
        let (file, state) = FaultyWalFile::new();
        state.lock().sync_budget = Some(1);
        wal.set_file_for_test(Box::new(file));

        assert!(log(&wal, 0, b"a", Some(b"1")).is_ok());
        assert!(
            log(&wal, 1, b"b", Some(b"2")).is_err(),
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
        let (wal, _) = open(&dir, SyncPolicy::PerWrite);
        append1(&wal, 0, b"seg0", Some(b"v")).unwrap();
        drop(wal);
        // Reopen: segment 0 is replayed and retained, segment 1 becomes
        // active — two live segments.
        let (wal, recovered) = open(&dir, SyncPolicy::PerWrite);
        assert_eq!(recovered.len(), 1);
        append1(&wal, 1, b"seg1", Some(b"v")).unwrap();
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

    #[test]
    fn replay_returns_records_in_sequence_order() {
        // A log holds records out of sequence order when concurrent
        // writers' runs interleave in it: the sequence must win.
        let dir = tmpdir("order");
        let (wal, _) = open(&dir, SyncPolicy::Batched);
        for (seq, value) in [(1, b"v1"), (0, b"v0"), (3, b"v3"), (2, b"v2")] {
            log(&wal, seq, b"k", Some(value)).unwrap();
        }
        drop(wal);
        let (_, recovered) = open(&dir, SyncPolicy::Batched);
        let seqs: Vec<u64> = recovered.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, [0, 1, 2, 3]);
        assert_eq!(recovered[3].value.as_deref(), Some(&b"v3"[..]));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn one_fsync_covers_queued_records() {
        // The deterministic group-commit contract: k records appended
        // without an inline sync are all covered by one fsync.
        let dir = tmpdir("group");
        let (wal, _) = open(&dir, SyncPolicy::Batched);
        let (file, state) = FaultyWalFile::new();
        wal.set_file_for_test(Box::new(file));
        let k = 10u64;
        for i in 0..k {
            log(&wal, i, format!("key-{i}").as_bytes(), Some(b"value")).unwrap();
        }
        assert_eq!(state.lock().syncs, 0, "batched appends must not fsync");
        sweep(&wal).unwrap();
        {
            let s = state.lock();
            assert_eq!(s.syncs, 1, "one group commit for all {k} records");
            assert_eq!(s.synced_len, s.os.len(), "fsync covered every byte");
            let (records, _) = decode_records(&s.os);
            assert_eq!(records.len(), k as usize);
        }
        // Nothing left to sync: the next sweep is a no-op.
        sweep(&wal).unwrap();
        assert_eq!(state.lock().syncs, 1);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_batched_log_is_due_one_window_after_it_turns_dirty() {
        // The append that dirties a clean log opens the window and asks
        // for a sweep as it closes; a sweep early in it only reports the
        // deadline, one in its last quarter syncs every append, and a
        // clean log is never due. A poisoned log kicks for its repair.
        let dir = tmpdir("window");
        let kick = Arc::new(Kick::new(1));
        let (wal, _) = Wal::open(&dir, SyncPolicy::Batched, Some(kick.clone())).unwrap();
        let (file, state) = FaultyWalFile::new();
        wal.set_file_for_test(Box::new(file));
        assert_eq!(wal.maintain(Instant::now()).unwrap(), None);
        let before = Instant::now();
        log(&wal, 0, b"a", Some(b"v")).unwrap();
        log(&wal, 1, b"b", Some(b"v")).unwrap();
        let asked = kick
            .take_sweep_by(0)
            .expect("the dirtying append asks for a sweep");
        assert_eq!(kick.take_sweep_by(0), None, "only the dirtying append asks");
        assert_eq!(kick.generation(), 0, "no kick");
        let due = wal
            .maintain(Instant::now())
            .unwrap()
            .expect("a dirty log is due");
        assert_eq!(due, asked);
        assert!(due >= before + SYNC_WINDOW && due <= Instant::now() + SYNC_WINDOW);
        assert_eq!(state.lock().syncs, 0, "no fsync inside the window");
        // A sweep a quarter window before the deadline takes the log.
        assert_eq!(wal.maintain(due - SYNC_WINDOW / 2).unwrap(), Some(due));
        assert_eq!(wal.maintain(due - SYNC_WINDOW / 4).unwrap(), None);
        assert_eq!(state.lock().syncs, 1, "one fsync for both appends");
        assert_eq!(wal.state.lock().synced, 2);
        log(&wal, 2, b"c", Some(b"v")).unwrap();
        assert!(
            kick.take_sweep_by(0).is_some(),
            "a log synced clean asks again"
        );
        state.lock().sync_budget = Some(1);
        assert!(sweep(&wal).is_err());
        assert_eq!(kick.generation(), 1, "a poisoned log kicks");
        state.lock().sync_budget = None;
        assert_eq!(sweep(&wal).unwrap(), None, "the sweep repairs the log");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn batched_tick_fsyncs_outside_the_stream_lock() {
        let dir = tmpdir("tick-unlocked");
        let (wal, _) = open(&dir, SyncPolicy::Batched);
        let (file, state) = FaultyWalFile::new();
        wal.set_file_for_test(Box::new(file));
        log(&wal, 0, b"first", Some(b"v")).unwrap();
        let first_len = state.lock().os.len();
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel();
        state.lock().park_sync = Some((started_tx, release_rx));
        let wal = &wal;
        let appended = std::thread::scope(|scope| {
            let ticker = scope.spawn(move || sweep(wal));
            started_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("the tick's fsync started");
            // The tick's fsync is parked: an append must land anyway.
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            scope.spawn(move || done_tx.send(log(wal, 1, b"second", Some(b"v"))));
            let appended = done_rx.recv_timeout(Duration::from_secs(2));
            let released = Instant::now();
            release_tx.send(()).unwrap();
            // The record that landed during the fsync gets a window of
            // its own, opened as the fsync ended.
            let due = ticker
                .join()
                .unwrap()
                .unwrap()
                .expect("the new record is due");
            assert!(
                due >= released + SYNC_WINDOW,
                "the window opened before the fsync ended"
            );
            appended
        });
        appended
            .expect("the append waited behind the tick's fsync")
            .unwrap();
        // The parked fsync covered the ticket it snapshotted, not the
        // record that landed while it was in flight.
        {
            let s = state.lock();
            assert_eq!((s.syncs, s.synced_len), (1, first_len));
            assert_eq!(decode_records(&s.os).0.len(), 2);
        }
        assert_eq!(wal.state.lock().synced, 1);
        // The next sweep syncs the new record.
        sweep(wal).unwrap();
        let s = state.lock();
        assert_eq!((s.syncs, s.synced_len), (2, s.os.len()));
        assert_eq!(wal.state.lock().synced, 2);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn per_write_group_commit_batches_concurrent_writers() {
        let dir = tmpdir("leader");
        let (wal, _) = open(&dir, SyncPolicy::PerWrite);
        let (file, state) = FaultyWalFile::new();
        // A slow fsync widens the window in which concurrent appends
        // queue behind the in-flight leader.
        state.lock().sync_delay_us = 2_000;
        wal.set_file_for_test(Box::new(file));
        let wal = Arc::new(wal);
        let seq = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let per_writer = 25u64;
        let writers = 8usize;
        std::thread::scope(|scope| {
            for w in 0..writers {
                let wal = wal.clone();
                let seq = seq.clone();
                scope.spawn(move || {
                    for i in 0..per_writer {
                        let s = seq.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        log(&wal, s, format!("w{w}-{i}").as_bytes(), Some(b"v")).unwrap();
                    }
                });
            }
        });
        let total = per_writer * writers as u64;
        let s = state.lock();
        assert_eq!(s.synced_len, s.os.len(), "every acked record durable");
        assert_eq!(decode_records(&s.os).0.len(), total as usize);
        assert!(
            (s.syncs as u64) < total,
            "group commit must batch: {} fsyncs for {total} acked records",
            s.syncs
        );
        std::fs::remove_dir_all(dir).ok();
    }

    /// Replays `dir` through the log's opener.
    fn replay(dir: &Path) -> Result<Vec<WalRecord>> {
        Wal::open(dir, SyncPolicy::Batched, None).map(|(_, records)| records)
    }

    /// Records largest single allocation sizes on threads that arm it,
    /// so the replay fuzz can bound what a corrupt length field makes
    /// replay ask for.
    struct LargestAlloc;

    thread_local! {
        /// `Some(largest)` while armed on this thread.
        static LARGEST: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
    }

    fn note_alloc(size: usize) {
        let _ = LARGEST.try_with(|l| {
            if let Some(m) = l.get() {
                l.set(Some(m.max(size)));
            }
        });
    }

    // SAFETY: every call forwards to `System` unchanged, which upholds
    // the `GlobalAlloc` contract; `note_alloc` only observes sizes.
    unsafe impl std::alloc::GlobalAlloc for LargestAlloc {
        unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
            note_alloc(layout.size());
            std::alloc::System.alloc(layout)
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
            std::alloc::System.dealloc(ptr, layout)
        }
        unsafe fn realloc(
            &self,
            ptr: *mut u8,
            layout: std::alloc::Layout,
            new_size: usize,
        ) -> *mut u8 {
            note_alloc(new_size);
            std::alloc::System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static ALLOC: LargestAlloc = LargestAlloc;

    /// One record parsed without `decode_records`: the replay oracle.
    fn parse_one(b: &[u8]) -> Option<(WalRecord, usize)> {
        let len = u32::from_le_bytes(b.get(0..4)?.try_into().ok()?) as usize;
        let crc = u32::from_le_bytes(b.get(4..8)?.try_into().ok()?);
        let payload = b.get(8..8usize.checked_add(len)?)?;
        if crc32(payload) != crc {
            return None;
        }
        let (&op, rest) = payload.split_first()?;
        let seq = u64::from_le_bytes(rest.get(..8)?.try_into().ok()?);
        let klen = u32::from_le_bytes(rest.get(8..12)?.try_into().ok()?) as usize;
        let body = &rest[12..];
        let key = body.get(..klen)?.to_vec();
        let value = match op {
            3 => Some(body[klen..].to_vec()),
            4 if body.len() == klen => None,
            _ => return None,
        };
        Some((WalRecord { seq, key, value }, 8 + len))
    }

    /// The longest valid prefix of `segments` in id order: every whole
    /// record up to the first bad one, nothing after it, in commit order.
    fn valid_prefix(segments: &[(u64, Vec<u8>)]) -> Vec<WalRecord> {
        let mut sorted: Vec<&(u64, Vec<u8>)> = segments.iter().collect();
        sorted.sort_by_key(|(id, _)| *id);
        let mut out = Vec::new();
        'segments: for (_, bytes) in sorted {
            let mut rest = &bytes[..];
            while !rest.is_empty() {
                let Some((record, used)) = parse_one(rest) else {
                    break 'segments;
                };
                out.push(record);
                rest = &rest[used..];
            }
        }
        out.sort_by_key(|r| r.seq);
        out
    }

    /// Offsets of the whole records at the head of `bytes`, and of the
    /// first byte after them.
    fn record_starts(bytes: &[u8]) -> Vec<usize> {
        let mut starts = vec![0];
        let mut at = 0;
        while let Some((_, used)) = parse_one(&bytes[at..]) {
            at += used;
            starts.push(at);
        }
        starts
    }

    /// Three segments in today's framing, ten records each, of mixed
    /// puts and deletes with keys and values of 0 to 40 bytes.
    fn golden_segments(rng: &mut just_obs::rng::Rng) -> Vec<(u64, Vec<u8>)> {
        let mut seq = 0;
        (0..3)
            .map(|id| {
                let mut bytes = Vec::new();
                for _ in 0..10 {
                    let key: Vec<u8> = (0..rng.gen_range(0..40usize)).map(|i| i as u8).collect();
                    let value: Vec<u8> = vec![b'v'; rng.gen_range(0..40usize)];
                    let value = rng.gen_bool(0.8).then_some(&value[..]);
                    encode_record(&mut bytes, seq, &key, value);
                    seq += 1;
                }
                (id, bytes)
            })
            .collect()
    }

    /// Applies one seeded mutation: a bit flip, a truncation, a spliced
    /// length field, or a duplicated or reordered segment.
    fn mutate(segments: &mut Vec<(u64, Vec<u8>)>, rng: &mut just_obs::rng::Rng) {
        let n = segments.len();
        let pick = rng.gen_range(0..n);
        let bytes = &mut segments[pick].1;
        match rng.gen_range(0..5u32) {
            0 if !bytes.is_empty() => {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] ^= 1 << rng.gen_range(0..8u32);
            }
            1 => {
                let len = rng.gen_range(0..bytes.len() + 1);
                bytes.truncate(len);
            }
            2 => {
                let starts = record_starts(bytes);
                let at = starts[rng.gen_range(0..starts.len())];
                let len: u32 = match rng.gen_range(0..6u32) {
                    0 => 0,
                    1 => rng.gen_range(0..64u32),
                    2 => MAX_RECORD,
                    3 => MAX_RECORD + 1,
                    4 => u32::MAX,
                    _ => rng.next_u64() as u32,
                };
                if at + 4 <= bytes.len() {
                    bytes[at..at + 4].copy_from_slice(&len.to_le_bytes());
                }
            }
            3 => {
                let copy = bytes.clone();
                let last = segments.iter().map(|(id, _)| *id).max().unwrap_or(0);
                segments.push((last + 1 + rng.gen_range(0..3u64), copy));
            }
            _ => {
                let other = rng.gen_range(0..n);
                let moved = std::mem::take(&mut segments[pick].1);
                segments[pick].1 = std::mem::replace(&mut segments[other].1, moved);
            }
        }
    }

    #[test]
    fn replay_fuzz_ends_in_an_error_or_the_valid_prefix() {
        let dir = tmpdir("fuzz");
        for case in 0..256u64 {
            let seed = 0x5eed_0000 + case;
            let mut rng = just_obs::rng::Rng::seed_from_u64(seed);
            let mut segments = golden_segments(&mut rng);
            for _ in 0..rng.gen_range(1..4u32) {
                mutate(&mut segments, &mut rng);
            }
            std::fs::remove_dir_all(&dir).ok();
            std::fs::create_dir_all(&dir).unwrap();
            for (id, bytes) in &segments {
                std::fs::write(segment_path(&dir, *id), bytes).unwrap();
            }
            let on_disk: usize = segments.iter().map(|(_, b)| b.len()).sum();
            LARGEST.with(|l| l.set(Some(0)));
            let replayed = std::panic::catch_unwind(|| replay(&dir));
            let largest = LARGEST.with(|l| l.take()).unwrap_or(0);
            let replayed = replayed.unwrap_or_else(|_| panic!("seed {seed:#x}: replay panicked"));
            let Ok(records) = replayed else {
                // Any typed error is an allowed end.
                continue;
            };
            assert_eq!(records, valid_prefix(&segments), "seed {seed:#x}");
            assert!(
                largest <= 2 * on_disk + 4096,
                "seed {seed:#x}: a {largest} B allocation for {on_disk} B of segments"
            );
            // The open left only the prefix on disk: a second replay
            // agrees and truncates nothing more.
            assert_eq!(replay(&dir).unwrap(), records, "seed {seed:#x}");
        }
        std::fs::remove_dir_all(dir).ok();
    }
}
