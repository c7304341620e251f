//! The concurrent ingest pipeline's sharded WAL: N streams per region
//! with cross-shard group commit.
//!
//! HBase gives every RegionServer *one* WAL that all its regions' writers
//! funnel through, batching their syncs ("group commit") so one `hsync`
//! acknowledges many writers. We invert the layout — a region fans its
//! memtable shards out over several WAL *streams* — but keep the group
//! commit: within a stream, a single fsync covers every record appended
//! since the last one, and writers block only until a sync at-or-past
//! their ticket completes.
//!
//! ## Layout
//!
//! Stream 0 lives in the region root and streams 1..N in `wal_sNN/`
//! subdirectories, so a one-stream region keeps its whole WAL in its
//! root. On open, *every* existing stream directory is replayed
//! regardless of the configured count, so lowering `wal_streams` across
//! restarts can't strand acknowledged records.
//!
//! A region write batch logs all its records to **one** stream: the one
//! [`ShardedWal::stream_of`] maps the batch's first memtable shard to
//! (for a single put, its own shard's). A statement therefore dirties
//! one stream per region, and the next group commit is one fsync there,
//! not one per stream its keys hash to.
//!
//! ## Replay reconciliation
//!
//! Each record carries the region-wide commit sequence number assigned
//! under its shard lock ([`crate::wal::WalRecord`]). Replay merges all
//! streams by that sequence and routes each record by its key, so it
//! never matters which stream a record was logged to, and a key
//! rewritten through two different streams still resolves newest-wins.
//!
//! ## Poison scope
//!
//! A failed append or fsync poisons *one stream*; sibling streams keep
//! accepting and acknowledging writes. The next memtable freeze repairs
//! the poisoned stream by truncating its torn (unacknowledged) suffix and
//! rotating to a fresh segment ([`crate::wal::Wal::rotate_keep`]).

use crate::error::{KvError, Result};
use crate::wal::{DurabilityOptions, SyncPolicy, Wal, WalRecord};
use just_obs::sync::{Condvar, Mutex};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Concurrent-ingest tuning: how finely a region's memtable and WAL are
/// sharded. Part of [`crate::StoreOptions`].
#[derive(Debug, Clone)]
pub struct IngestOptions {
    /// Memtable shards per region (each a finely-locked map, salted by
    /// key hash).
    pub mem_shards: usize,
    /// WAL streams per region. Clamped to `1..=mem_shards` (a stream
    /// with no shard mapped to it would never receive records).
    pub wal_streams: usize,
}

impl Default for IngestOptions {
    fn default() -> Self {
        IngestOptions {
            mem_shards: 8,
            wal_streams: 4,
        }
    }
}

impl IngestOptions {
    /// Single-shard, single-stream: one memtable, one WAL stream in the
    /// region root.
    #[cfg(test)]
    pub(crate) fn serial() -> Self {
        IngestOptions {
            mem_shards: 1,
            wal_streams: 1,
        }
    }

    /// The effective (shards, streams) after clamping.
    pub(crate) fn normalized(&self) -> (usize, usize) {
        let shards = self.mem_shards.max(1);
        (shards, self.wal_streams.clamp(1, shards))
    }
}

/// FNV-1a over the key, reduced to a shard index. Stable across restarts
/// only within a run's configuration — replay re-routes by the current
/// shard count, so changing `mem_shards` between runs is safe.
pub(crate) fn shard_of(key: &[u8], shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// Group-commit fsyncs allowed in flight per stream. The bookkeeping
/// supports overlapping fsyncs (`sync_begun` tracks what in-flight
/// snapshots cover), but on single-queue devices a second fsync on the
/// same fd just serializes behind the first in the journal while eroding
/// batching — measured on this workload, 2 in flight raised 16-writer
/// p99 ~20% over 1. Keep at 1 unless targeting deep-queue storage.
const MAX_INFLIGHT_SYNCS: u32 = 1;

/// Group-commit bookkeeping of one stream. `synced` is the highest
/// append ticket covered by a *completed* successful fsync; `sync_begun`
/// is the highest ticket handed to an in-flight (or completed) fsync, so
/// writers already covered by a running fsync wait for it instead of
/// electing themselves; `in_flight` caps concurrent leader fsyncs at
/// [`MAX_INFLIGHT_SYNCS`].
#[derive(Default)]
struct SyncState {
    synced: u64,
    sync_begun: u64,
    in_flight: u32,
}

struct Stream {
    /// Locked briefly per append; the group-commit leader fsyncs
    /// *outside* it, so queued appends land while the fsync is in
    /// flight and are covered by the next leader's single fsync.
    wal: Mutex<Wal>,
    state: Mutex<SyncState>,
    cv: Condvar,
}

/// A region's WAL fanned out over N streams (see the module docs).
pub(crate) struct ShardedWal {
    streams: Vec<Stream>,
    policy: SyncPolicy,
    group_commits: just_obs::Counter,
    group_commit_records: just_obs::Histogram,
}

impl std::fmt::Debug for ShardedWal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedWal")
            .field("streams", &self.streams.len())
            .field("policy", &self.policy)
            .finish()
    }
}

fn stream_dir(dir: &Path, i: usize) -> PathBuf {
    if i == 0 {
        dir.to_path_buf()
    } else {
        dir.join(format!("wal_s{i:02}"))
    }
}

impl ShardedWal {
    /// Opens `streams` WAL streams under the region directory `dir`,
    /// replaying every surviving stream (configured or discovered) and
    /// returning the records merged into global commit order.
    pub(crate) fn open(
        dir: &Path,
        durability: &DurabilityOptions,
        streams: usize,
    ) -> Result<(ShardedWal, Vec<WalRecord>)> {
        // Streams a previous run created must keep replaying (and
        // rotating, so their segments eventually retire) even if the
        // configured count shrank — orphaned segments would otherwise
        // resurrect flushed-then-deleted data forever.
        let mut count = streams.max(1);
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            if let Some(i) = entry
                .file_name()
                .to_string_lossy()
                .strip_prefix("wal_s")
                .and_then(|s| s.parse::<usize>().ok())
            {
                count = count.max(i + 1);
            }
        }
        let mut records = Vec::new();
        let mut walls = Vec::with_capacity(count);
        for i in 0..count {
            let sdir = stream_dir(dir, i);
            std::fs::create_dir_all(&sdir)?;
            let (wal, recs) = Wal::open_seq(&sdir, durability.sync)?;
            records.extend(recs);
            walls.push(Stream {
                wal: Mutex::new(wal),
                state: Mutex::new(SyncState::default()),
                cv: Condvar::new(),
            });
        }
        // Global commit order. Sequence numbers are unique — each is
        // drawn from the region counter under a shard lock.
        records.sort_by_key(|r| r.seq);
        let obs = just_obs::global();
        Ok((
            ShardedWal {
                streams: walls,
                policy: durability.sync,
                group_commits: obs.counter("just_kvstore_wal_group_commits"),
                group_commit_records: obs.histogram("just_kvstore_wal_group_commit_records"),
            },
            records,
        ))
    }

    /// Number of streams (≥ the configured count if older stream
    /// directories were discovered on open).
    #[cfg(test)]
    pub(crate) fn stream_count(&self) -> usize {
        self.streams.len()
    }

    /// The stream a memtable shard's records are routed to.
    pub(crate) fn stream_of(&self, shard: usize) -> usize {
        shard % self.streams.len()
    }

    /// Appends one sequenced mutation to `stream`, honouring the sync
    /// policy before returning (i.e. before the write may be
    /// acknowledged). Convenience for tests; the real write path calls
    /// the two halves separately around releasing the shard lock.
    #[cfg(test)]
    pub(crate) fn append(
        &self,
        stream: usize,
        seq: u64,
        key: &[u8],
        value: Option<&[u8]>,
    ) -> Result<()> {
        let ticket = self.append_nowait(stream, seq, [(key, value)])?;
        self.commit(stream, ticket)
    }

    /// The append half of the write path: a run of records with
    /// sequences `seq..` reaches the OS per the sync policy's `write(2)`
    /// discipline (one `write(2)` for the run, see
    /// [`Wal::append_seq`]) and the returned ticket names its last record
    /// for a later [`ShardedWal::commit`]. Split so a writer can append
    /// under its shard lock but wait for the group commit *outside* it —
    /// a writer parked on an fsync must not hold a shard hostage, or
    /// unrelated writers hashing to that shard chain behind its wait (a
    /// convoy that compounds with writer count).
    pub(crate) fn append_nowait<'a>(
        &self,
        stream: usize,
        seq: u64,
        records: impl IntoIterator<Item = (&'a [u8], Option<&'a [u8]>)>,
    ) -> Result<u64> {
        self.streams[stream].wal.lock().append_seq(seq, records)
    }

    /// The durability half of the write path: blocks until `ticket` is
    /// covered per the sync policy (a no-op except under `PerWrite`,
    /// where the group commit gates the acknowledgement).
    pub(crate) fn commit(&self, stream: usize, ticket: u64) -> Result<()> {
        match self.policy {
            SyncPolicy::None | SyncPolicy::Batched => Ok(()),
            SyncPolicy::PerWrite => self.group_commit(stream, ticket),
        }
    }

    /// Blocks until a successful fsync covers `ticket`. Writers whose
    /// ticket is already covered by an in-flight fsync (`sync_begun`)
    /// wait for its completion; otherwise, up to [`MAX_INFLIGHT_SYNCS`]
    /// leaders per stream snapshot the ticket high-water mark and fsync
    /// *outside* both locks — concurrent writers keep appending while a
    /// fsync is in flight (that is where the batching comes from), and a
    /// writer that just missed a snapshot starts the next fsync
    /// immediately instead of paying a full extra device round trip.
    fn group_commit(&self, stream: usize, ticket: u64) -> Result<()> {
        let s = &self.streams[stream];
        loop {
            let st = s.state.lock();
            if st.synced >= ticket {
                return Ok(());
            }
            if st.sync_begun >= ticket || st.in_flight >= MAX_INFLIGHT_SYNCS {
                // Timeout bounds the lost-wakeup window between the
                // check above and this wait.
                let (guard, _) = s.cv.wait_timeout(st, Duration::from_millis(50));
                drop(guard);
                continue;
            }
            let mut st = st;
            st.in_flight += 1;
            drop(st);
            let started = Instant::now();
            let begun = { s.wal.lock().begin_concurrent_sync() };
            // `Ok(Some(target))`: a completed fsync covers `target`.
            // `Ok(None)`: nothing to conclude — re-check and wait.
            let res: Result<Option<u64>> = match begun {
                Ok((target, Some(file))) => {
                    // Publish the snapshot before fsyncing so writers
                    // with tickets ≤ target queue on this fsync instead
                    // of electing themselves for a redundant one.
                    {
                        let mut g = s.state.lock();
                        g.sync_begun = g.sync_begun.max(target);
                    }
                    let r = file.sync();
                    s.wal.lock().finish_concurrent_sync(started, &r);
                    r.map(|()| Some(target)).map_err(KvError::Io)
                }
                // No unsynced bytes. Safe to treat as durable only if no
                // sibling fsync is in flight: a concurrent leader clears
                // the flag optimistically while its fsync (which may be
                // what covers our bytes) is still pending.
                Ok((target, None)) => {
                    let g = s.state.lock();
                    if g.in_flight == 1 {
                        Ok(Some(target))
                    } else {
                        Ok(None)
                    }
                }
                Err(e) => Err(e),
            };
            let mut st = s.state.lock();
            st.in_flight -= 1;
            let res = match res {
                Ok(Some(target)) => {
                    if target > st.synced {
                        self.group_commits.inc();
                        self.group_commit_records.record(target - st.synced);
                        st.synced = target;
                    }
                    st.sync_begun = st.sync_begun.max(target);
                    Ok(())
                }
                Ok(None) => Ok(()),
                Err(e) => {
                    // Roll the published snapshot back to what completed
                    // fsyncs actually cover, so waiters re-elect (and hit
                    // the poisoned stream's error themselves) instead of
                    // waiting forever on a fsync that failed.
                    st.sync_begun = st.synced;
                    Err(e)
                }
            };
            drop(st);
            s.cv.notify_all();
            // A failed fsync poisons the stream; our record is not
            // durable and the error is the acknowledgement's answer.
            res?;
        }
    }

    /// Fsyncs `stream` if it has unsynced bytes, crediting the covered
    /// records to the group-commit metrics (this *is* the group commit
    /// under `Batched`: the maintenance tick issues it). The fsync runs
    /// outside the stream lock, as a `per-write` leader's does, so a
    /// writer appending meanwhile is not held up behind the device; its
    /// record lands after the snapshotted ticket and the next tick
    /// covers it.
    fn sync_stream(&self, i: usize) -> Result<()> {
        let s = &self.streams[i];
        let started = Instant::now();
        let (target, file) = {
            let mut w = s.wal.lock();
            if !w.needs_sync() {
                return Ok(());
            }
            match w.begin_concurrent_sync()? {
                (target, Some(file)) => (target, file),
                (_, None) => return Ok(()),
            }
        };
        let res = file.sync();
        s.wal.lock().finish_concurrent_sync(started, &res);
        let mut st = s.state.lock();
        if res.is_ok() && target > st.synced {
            self.group_commits.inc();
            self.group_commit_records.record(target - st.synced);
            st.synced = target;
            st.sync_begun = st.sync_begun.max(target);
        }
        drop(st);
        s.cv.notify_all();
        res.map_err(KvError::Io)
    }

    /// Policy-aware periodic work (the maintenance tick): pushes
    /// buffered bytes to the OS (`None`) or issues the batched
    /// group-commit fsync (`Batched`). Per-write streams sync inline.
    pub(crate) fn tick(&self) -> Result<()> {
        for i in 0..self.streams.len() {
            match self.policy {
                SyncPolicy::None => {
                    let mut w = self.streams[i].wal.lock();
                    if w.needs_sync() {
                        w.flush_os()?;
                    }
                }
                SyncPolicy::Batched => self.sync_stream(i)?,
                SyncPolicy::PerWrite => {}
            }
        }
        Ok(())
    }

    /// Unconditionally fsyncs every stream (clean shutdown). Attempts
    /// all streams even after a failure; the first error is returned.
    pub(crate) fn sync_all(&self) -> Result<()> {
        let mut first_err = None;
        for i in 0..self.streams.len() {
            let res = {
                let mut w = self.streams[i].wal.lock();
                let target = w.ticket();
                // `sync_always`: an in-flight group-commit leader clears
                // the unsynced flag optimistically, so shutdown must not
                // trust `Wal::sync`'s early-return.
                w.sync_always().map(|()| target)
            };
            match res {
                Ok(target) => {
                    let mut st = self.streams[i].state.lock();
                    st.synced = st.synced.max(target);
                    st.sync_begun = st.sync_begun.max(target);
                }
                Err(e) => first_err = first_err.or(Some(e)),
            }
            self.streams[i].cv.notify_all();
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Rotates every stream to a fresh segment without deleting the old
    /// ones, returning per-stream retirement marks (see
    /// [`crate::wal::Wal::rotate_keep`]). Poisoned streams are repaired
    /// here. Attempts every stream even after a failure so a healthy
    /// sibling's rotation is never skipped; marks of failed streams are
    /// omitted (their segments are retired by a later successful
    /// rotation — `retire_through` is a ≤ sweep).
    pub(crate) fn rotate_keep_all(&self) -> Result<Vec<(usize, u64)>> {
        let mut marks = Vec::with_capacity(self.streams.len());
        let mut first_err = None;
        for (i, s) in self.streams.iter().enumerate() {
            match s.wal.lock().rotate_keep() {
                Ok(mark) => marks.push((i, mark)),
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        match first_err {
            None => Ok(marks),
            Some(e) => Err(e),
        }
    }

    /// Deletes each marked stream's segments up to its mark — called
    /// once the frozen generation the marks came from is durable in an
    /// SSTable.
    pub(crate) fn retire(&self, marks: &[(usize, u64)]) -> Result<()> {
        for &(i, mark) in marks {
            self.streams[i].wal.lock().retire_through(mark)?;
        }
        Ok(())
    }

    /// Replaces one stream's backing file (fault-injection tests only).
    #[cfg(test)]
    pub(crate) fn set_stream_file_for_test(
        &self,
        stream: usize,
        file: Box<dyn crate::wal::WalFile>,
    ) {
        self.streams[stream].wal.lock().set_file_for_test(file);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::KvError;
    use crate::wal::{decode_records, FaultyWalFile};
    use std::sync::Arc;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "just-ingest-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn opts(sync: SyncPolicy) -> DurabilityOptions {
        DurabilityOptions { wal: true, sync }
    }

    #[test]
    fn replay_merges_streams_by_sequence() {
        let dir = tmpdir("merge");
        {
            let (wal, recovered) = ShardedWal::open(&dir, &opts(SyncPolicy::Batched), 3).unwrap();
            assert!(recovered.is_empty());
            // Interleave one key's rewrites across streams out of stream
            // order: the *sequence* must win on replay.
            wal.append(2, 0, b"k", Some(b"v0")).unwrap();
            wal.append(0, 1, b"k", Some(b"v1")).unwrap();
            wal.append(1, 2, b"k", Some(b"v2")).unwrap();
            wal.append(0, 3, b"other", Some(b"x")).unwrap();
            wal.sync_all().unwrap();
        }
        let (_, recovered) = ShardedWal::open(&dir, &opts(SyncPolicy::Batched), 3).unwrap();
        let seqs: Vec<u64> = recovered.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        assert_eq!(recovered[2].value.as_deref(), Some(&b"v2"[..]));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn shrinking_stream_count_still_replays_old_streams() {
        let dir = tmpdir("shrink");
        {
            let (wal, _) = ShardedWal::open(&dir, &opts(SyncPolicy::Batched), 4).unwrap();
            for i in 0..8u64 {
                wal.append((i % 4) as usize, i, format!("k{i}").as_bytes(), Some(b"v"))
                    .unwrap();
            }
            wal.sync_all().unwrap();
        }
        // Reopen configured for a single stream: the three extra stream
        // dirs must still be discovered and replayed.
        let (wal, recovered) = ShardedWal::open(&dir, &opts(SyncPolicy::Batched), 1).unwrap();
        assert_eq!(wal.stream_count(), 4);
        assert_eq!(recovered.len(), 8);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn one_fsync_covers_queued_records() {
        // The deterministic group-commit contract: k records appended
        // without an inline sync are all covered by one fsync.
        let dir = tmpdir("group");
        let (wal, _) = ShardedWal::open(&dir, &opts(SyncPolicy::Batched), 1).unwrap();
        let (file, state) = FaultyWalFile::new();
        wal.set_stream_file_for_test(0, Box::new(file));
        let k = 10u64;
        for i in 0..k {
            wal.append(0, i, format!("key-{i}").as_bytes(), Some(b"value"))
                .unwrap();
        }
        assert_eq!(state.lock().syncs, 0, "batched appends must not fsync");
        wal.tick().unwrap();
        {
            let s = state.lock();
            assert_eq!(s.syncs, 1, "one group commit for all {k} records");
            assert_eq!(s.synced_len, s.os.len(), "fsync covered every byte");
            let (records, _) = decode_records(&s.os);
            assert_eq!(records.len(), k as usize);
        }
        // Nothing left to sync: the next tick is a no-op.
        wal.tick().unwrap();
        assert_eq!(state.lock().syncs, 1);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn batched_tick_fsyncs_outside_the_stream_lock() {
        let dir = tmpdir("tick-unlocked");
        let (wal, _) = ShardedWal::open(&dir, &opts(SyncPolicy::Batched), 1).unwrap();
        let (file, state) = FaultyWalFile::new();
        wal.set_stream_file_for_test(0, Box::new(file));
        wal.append(0, 0, b"first", Some(b"v")).unwrap();
        let first_len = state.lock().os.len();
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel();
        state.lock().park_sync = Some((started_tx, release_rx));
        let wal = &wal;
        let appended = std::thread::scope(|scope| {
            let ticker = scope.spawn(move || wal.tick());
            started_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("the tick's fsync started");
            // The tick's fsync is parked: an append must land anyway.
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            scope.spawn(move || done_tx.send(wal.append(0, 1, b"second", Some(b"v"))));
            let appended = done_rx.recv_timeout(Duration::from_secs(2));
            release_tx.send(()).unwrap();
            ticker.join().unwrap().unwrap();
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
        assert_eq!(wal.streams[0].state.lock().synced, 1);
        // The next tick syncs the new record.
        wal.tick().unwrap();
        let s = state.lock();
        assert_eq!((s.syncs, s.synced_len), (2, s.os.len()));
        assert_eq!(wal.streams[0].state.lock().synced, 2);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn per_write_group_commit_batches_concurrent_writers() {
        let dir = tmpdir("leader");
        let (wal, _) = ShardedWal::open(&dir, &opts(SyncPolicy::PerWrite), 1).unwrap();
        let (file, state) = FaultyWalFile::new();
        // A slow fsync widens the window in which concurrent appends
        // queue behind the in-flight leader.
        state.lock().sync_delay_us = 2_000;
        wal.set_stream_file_for_test(0, Box::new(file));
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
                        wal.append(0, s, format!("w{w}-{i}").as_bytes(), Some(b"v"))
                            .unwrap();
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

    #[test]
    fn poisoned_stream_does_not_block_siblings() {
        let dir = tmpdir("poison-scope");
        let (wal, _) = ShardedWal::open(&dir, &opts(SyncPolicy::Batched), 2).unwrap();
        let (file, state) = FaultyWalFile::new();
        state.lock().write_budget = Some(3); // torn 3 bytes into the first record
        wal.set_stream_file_for_test(0, Box::new(file));

        assert!(matches!(
            wal.append(0, 0, b"torn", Some(b"v")),
            Err(KvError::Io(_))
        ));
        assert!(matches!(
            wal.append(0, 1, b"after", Some(b"v")),
            Err(KvError::WalPoisoned)
        ));
        // The sibling stream keeps acknowledging.
        wal.append(1, 2, b"sibling", Some(b"v")).unwrap();
        wal.tick().unwrap();

        // Freeze-time rotation repairs the poisoned stream (truncating
        // its torn tail) and both streams accept again.
        let marks = wal.rotate_keep_all().unwrap();
        assert_eq!(marks.len(), 2);
        assert_eq!(state.lock().os.len(), 0, "torn tail truncated");
        wal.append(0, 3, b"fresh", Some(b"v")).unwrap();
        wal.append(1, 4, b"fresh2", Some(b"v")).unwrap();
        wal.sync_all().unwrap();
        drop(wal);
        let (_, recovered) = ShardedWal::open(&dir, &opts(SyncPolicy::Batched), 2).unwrap();
        let keys: Vec<&[u8]> = recovered.iter().map(|r| r.key.as_slice()).collect();
        assert_eq!(keys, vec![&b"sibling"[..], b"fresh", b"fresh2"]);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn shard_routing_is_stable_and_covers_all_shards() {
        let shards = 8;
        let mut seen = vec![false; shards];
        for i in 0..1000u32 {
            let key = format!("key-{i}");
            let s = shard_of(key.as_bytes(), shards);
            assert_eq!(s, shard_of(key.as_bytes(), shards));
            seen[s] = true;
        }
        assert!(seen.iter().all(|&s| s), "1000 keys must hit all 8 shards");
        assert_eq!(shard_of(b"anything", 1), 0);
    }
}
