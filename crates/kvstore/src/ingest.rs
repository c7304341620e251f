//! The concurrent ingest pipeline's write-ahead log: one log per region,
//! behind the region's one memtable, with group commit.
//!
//! HBase gives every RegionServer one WAL that all its regions' writers
//! funnel through, batching their syncs ("group commit") so one `hsync`
//! acknowledges many writers. A region here keeps one log the same way:
//! a writer appends its batch under the memtable lock, a single fsync
//! covers every record appended since the last one, and writers block
//! only until a sync at-or-past their ticket completes.
//!
//! ## Replay
//!
//! Each record carries the region-wide commit sequence number assigned
//! under the memtable lock ([`crate::wal::WalRecord`]). A log need not
//! hold its records in that order — one written by an earlier build
//! interleaves concurrent writers' runs — so replay sorts by it.
//!
//! ## Repair
//!
//! A failed append or fsync poisons the log, and with it every write to
//! the region. The next freeze or maintenance tick repairs it: the torn
//! (unacknowledged) suffix is truncated and the log rotates to a fresh
//! segment ([`crate::wal::Wal::rotate_keep`]).

use crate::error::{KvError, Result};
use crate::wal::{SyncPolicy, Wal, WalRecord};
use just_obs::sync::{Condvar, Mutex};
use std::path::Path;
use std::time::{Duration, Instant};

/// Group-commit fsyncs allowed in flight. The bookkeeping supports
/// overlapping fsyncs (`sync_begun` tracks what in-flight snapshots
/// cover), but on single-queue devices a second fsync on the same fd just
/// serializes behind the first in the journal while eroding batching —
/// measured on this workload, 2 in flight raised 16-writer p99 ~20% over
/// 1. Keep at 1 unless targeting deep-queue storage.
const MAX_INFLIGHT_SYNCS: u32 = 1;

/// Group-commit bookkeeping. `synced` is the highest append ticket
/// covered by a *completed* successful fsync; `sync_begun` is the highest
/// ticket handed to an in-flight (or completed) fsync, so writers already
/// covered by a running fsync wait for it instead of electing themselves;
/// `in_flight` caps concurrent leader fsyncs at [`MAX_INFLIGHT_SYNCS`].
#[derive(Default)]
struct SyncState {
    synced: u64,
    sync_begun: u64,
    in_flight: u32,
}

/// A region's one log and its group commit (see the module docs).
pub(crate) struct RegionWal {
    /// Locked briefly per append; the group-commit leader fsyncs
    /// *outside* it, so queued appends land while the fsync is in
    /// flight and are covered by the next leader's single fsync.
    wal: Mutex<Wal>,
    state: Mutex<SyncState>,
    cv: Condvar,
    policy: SyncPolicy,
    group_commits: just_obs::Counter,
    group_commit_records: just_obs::Histogram,
}

impl std::fmt::Debug for RegionWal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegionWal")
            .field("policy", &self.policy)
            .finish()
    }
}

impl RegionWal {
    /// Opens the log in the region directory `dir`, returning it with
    /// the surviving records in commit order.
    pub(crate) fn open(dir: &Path, policy: SyncPolicy) -> Result<(RegionWal, Vec<WalRecord>)> {
        let (wal, mut records) = Wal::open_seq(dir, policy)?;
        // Commit order is sequence order, not file order (module docs).
        records.sort_by_key(|r| r.seq);
        let obs = just_obs::global();
        Ok((
            RegionWal {
                wal: Mutex::new(wal),
                state: Mutex::new(SyncState::default()),
                cv: Condvar::new(),
                policy,
                group_commits: obs.counter("just_kvstore_wal_group_commits"),
                group_commit_records: obs.histogram("just_kvstore_wal_group_commit_records"),
            },
            records,
        ))
    }

    /// Appends one sequenced mutation, honouring the sync policy before
    /// returning (i.e. before the write may be acknowledged). Convenience
    /// for tests; the real write path calls the two halves separately
    /// around releasing the memtable lock.
    #[cfg(test)]
    pub(crate) fn append(&self, seq: u64, key: &[u8], value: Option<&[u8]>) -> Result<()> {
        let ticket = self.append_nowait(seq, [(key, value)])?;
        self.commit(ticket)
    }

    /// The append half of the write path: a run of records with
    /// sequences `seq..` reaches the OS per the sync policy's `write(2)`
    /// discipline (one `write(2)` for the run, see [`Wal::append_seq`])
    /// and the returned ticket names its last record for a later
    /// [`RegionWal::commit`]. Split so a writer can append under the
    /// memtable lock but wait for the group commit *outside* it — a
    /// writer parked on an fsync must not hold the memtable hostage, or
    /// every other writer of the region chains behind its wait (a convoy
    /// that compounds with writer count).
    pub(crate) fn append_nowait<'a>(
        &self,
        seq: u64,
        records: impl IntoIterator<Item = (&'a [u8], Option<&'a [u8]>)>,
    ) -> Result<u64> {
        self.wal.lock().append_seq(seq, records)
    }

    /// The durability half of the write path: blocks until `ticket` is
    /// covered per the sync policy (a no-op except under `PerWrite`,
    /// where the group commit gates the acknowledgement).
    pub(crate) fn commit(&self, ticket: u64) -> Result<()> {
        match self.policy {
            SyncPolicy::None | SyncPolicy::Batched => Ok(()),
            SyncPolicy::PerWrite => self.group_commit(ticket),
        }
    }

    /// Blocks until a successful fsync covers `ticket`. Writers whose
    /// ticket is already covered by an in-flight fsync (`sync_begun`)
    /// wait for its completion; otherwise, up to [`MAX_INFLIGHT_SYNCS`]
    /// leaders snapshot the ticket high-water mark and fsync *outside*
    /// both locks — concurrent writers keep appending while a fsync is in
    /// flight (that is where the batching comes from), and a writer that
    /// just missed a snapshot starts the next fsync immediately instead
    /// of paying a full extra device round trip.
    fn group_commit(&self, ticket: u64) -> Result<()> {
        loop {
            let st = self.state.lock();
            if st.synced >= ticket {
                return Ok(());
            }
            if st.sync_begun >= ticket || st.in_flight >= MAX_INFLIGHT_SYNCS {
                // Timeout bounds the lost-wakeup window between the
                // check above and this wait.
                let (guard, _) = self.cv.wait_timeout(st, Duration::from_millis(50));
                drop(guard);
                continue;
            }
            let mut st = st;
            st.in_flight += 1;
            drop(st);
            let started = Instant::now();
            let begun = { self.wal.lock().begin_concurrent_sync() };
            // `Ok(Some(target))`: a completed fsync covers `target`.
            // `Ok(None)`: nothing to conclude — re-check and wait.
            let res: Result<Option<u64>> = match begun {
                Ok((target, Some(file))) => {
                    // Publish the snapshot before fsyncing so writers
                    // with tickets ≤ target queue on this fsync instead
                    // of electing themselves for a redundant one.
                    {
                        let mut g = self.state.lock();
                        g.sync_begun = g.sync_begun.max(target);
                    }
                    let r = file.sync();
                    self.wal.lock().finish_concurrent_sync(started, &r);
                    r.map(|()| Some(target)).map_err(KvError::Io)
                }
                // No unsynced bytes. Safe to treat as durable only if no
                // other fsync is in flight: a concurrent leader clears
                // the flag optimistically while its fsync (which may be
                // what covers our bytes) is still pending.
                Ok((target, None)) => {
                    let g = self.state.lock();
                    if g.in_flight == 1 {
                        Ok(Some(target))
                    } else {
                        Ok(None)
                    }
                }
                Err(e) => Err(e),
            };
            let mut st = self.state.lock();
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
                    // the poisoned log's error themselves) instead of
                    // waiting forever on a fsync that failed.
                    st.sync_begun = st.synced;
                    Err(e)
                }
            };
            drop(st);
            self.cv.notify_all();
            // A failed fsync poisons the log; our record is not durable
            // and the error is the acknowledgement's answer.
            res?;
        }
    }

    /// Fsyncs the log if it has unsynced bytes, crediting the covered
    /// records to the group-commit metrics (this *is* the group commit
    /// under `Batched`: the maintenance tick issues it). The fsync runs
    /// outside the log lock, as a `per-write` leader's does, so a writer
    /// appending meanwhile is not held up behind the device; its record
    /// lands after the snapshotted ticket and the next tick covers it.
    fn sync_batched(&self) -> Result<()> {
        let started = Instant::now();
        let (target, file) = {
            let mut w = self.wal.lock();
            if !w.needs_sync() {
                return Ok(());
            }
            match w.begin_concurrent_sync()? {
                (target, Some(file)) => (target, file),
                (_, None) => return Ok(()),
            }
        };
        let res = file.sync();
        self.wal.lock().finish_concurrent_sync(started, &res);
        let mut st = self.state.lock();
        if res.is_ok() && target > st.synced {
            self.group_commits.inc();
            self.group_commit_records.record(target - st.synced);
            st.synced = target;
            st.sync_begun = st.sync_begun.max(target);
        }
        drop(st);
        self.cv.notify_all();
        res.map_err(KvError::Io)
    }

    /// Policy-aware periodic work (the maintenance tick): repairs a
    /// poisoned log, then pushes buffered bytes to the OS (`None`) or
    /// issues the batched group-commit fsync (`Batched`). Per-write logs
    /// sync inline.
    pub(crate) fn tick(&self) -> Result<()> {
        self.wal.lock().heal()?;
        match self.policy {
            SyncPolicy::None => {
                let mut w = self.wal.lock();
                if w.needs_sync() {
                    w.flush_os()?;
                }
                Ok(())
            }
            SyncPolicy::Batched => self.sync_batched(),
            SyncPolicy::PerWrite => Ok(()),
        }
    }

    /// Unconditionally fsyncs the log (clean shutdown).
    pub(crate) fn sync(&self) -> Result<()> {
        let target = {
            let mut w = self.wal.lock();
            let target = w.ticket();
            // `sync_always`: an in-flight group-commit leader clears the
            // unsynced flag optimistically, so shutdown must not trust
            // `Wal::sync`'s early-return.
            w.sync_always().map(|()| target)
        };
        if let Ok(target) = target {
            let mut st = self.state.lock();
            st.synced = st.synced.max(target);
            st.sync_begun = st.sync_begun.max(target);
        }
        self.cv.notify_all();
        target.map(drop)
    }

    /// Rotates to a fresh segment without deleting the old ones,
    /// returning the retirement mark (see [`Wal::rotate_keep`]); repairs
    /// a poisoned log on the way.
    pub(crate) fn rotate_keep(&self) -> Result<u64> {
        self.wal.lock().rotate_keep()
    }

    /// Deletes the segments up to `mark` — called once the frozen
    /// generation the mark came from is durable in an SSTable.
    pub(crate) fn retire(&self, mark: u64) -> Result<()> {
        self.wal.lock().retire_through(mark)
    }

    /// Replaces the log's backing file (fault-injection tests only).
    #[cfg(test)]
    pub(crate) fn set_file_for_test(&self, file: Box<dyn crate::wal::WalFile>) {
        self.wal.lock().set_file_for_test(file);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{decode_records, FaultyWalFile};
    use std::path::PathBuf;
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

    #[test]
    fn replay_returns_records_in_sequence_order() {
        // A log holds records out of sequence order when concurrent
        // writers' runs interleave in it: the sequence must win.
        let dir = tmpdir("order");
        let (wal, _) = RegionWal::open(&dir, SyncPolicy::Batched).unwrap();
        for (seq, value) in [(1, b"v1"), (0, b"v0"), (3, b"v3"), (2, b"v2")] {
            wal.append(seq, b"k", Some(value)).unwrap();
        }
        drop(wal);
        let (_, recovered) = RegionWal::open(&dir, SyncPolicy::Batched).unwrap();
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
        let (wal, _) = RegionWal::open(&dir, SyncPolicy::Batched).unwrap();
        let (file, state) = FaultyWalFile::new();
        wal.set_file_for_test(Box::new(file));
        let k = 10u64;
        for i in 0..k {
            wal.append(i, format!("key-{i}").as_bytes(), Some(b"value"))
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
        let (wal, _) = RegionWal::open(&dir, SyncPolicy::Batched).unwrap();
        let (file, state) = FaultyWalFile::new();
        wal.set_file_for_test(Box::new(file));
        wal.append(0, b"first", Some(b"v")).unwrap();
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
            scope.spawn(move || done_tx.send(wal.append(1, b"second", Some(b"v"))));
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
        assert_eq!(wal.state.lock().synced, 1);
        // The next tick syncs the new record.
        wal.tick().unwrap();
        let s = state.lock();
        assert_eq!((s.syncs, s.synced_len), (2, s.os.len()));
        assert_eq!(wal.state.lock().synced, 2);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn per_write_group_commit_batches_concurrent_writers() {
        let dir = tmpdir("leader");
        let (wal, _) = RegionWal::open(&dir, SyncPolicy::PerWrite).unwrap();
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
                        wal.append(s, format!("w{w}-{i}").as_bytes(), Some(b"v"))
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
}
