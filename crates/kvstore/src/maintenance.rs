//! The background maintenance scheduler: store-owned worker threads that
//! flush memtables, compact and split regions and issue the batched WAL
//! syncs off the write path — HBase's MemStore flusher + compaction
//! threads, scaled to one process.
//!
//! A worker sleeps until there is work. As HBase's flusher blocks on its
//! queue of flush requests, a worker blocks on the [`Kick`] with no
//! timeout while none of its regions owes anything, and events kick it:
//!
//! * a write that takes a region past its flush threshold;
//! * a `batched` append that dirties a clean log — not at once: it asks
//!   for a sweep as the log's [`SYNC_WINDOW`] closes ([`Kick::kick_by`]),
//!   which issues one group commit for every append in it;
//! * a flush, whoever ran it, that leaves a region at the compaction
//!   trigger, and any flush or compaction while auto-splits are on;
//! * a poisoned log, which the sweep repairs;
//! * a snapshot dropped from a region whose compaction it held back;
//! * a table registered, and a split or merge, which moves regions
//!   between the workers' partitions.
//!
//! A worker waits with a deadline only while something is due: a dirty
//! log's sync window, or the retry of a region whose maintenance failed.
//! Worker 0 checks a table for a split in its first sweep after one of
//! the table's regions flushed or compacted, as only those change a
//! region's size on disk.
//!
//! A writer that finds the region's memtables at twice the threshold —
//! one generation filling while one flushes — flushes it itself before
//! it returns (write backpressure, like HBase's
//! `hbase.hregion.memstore.block.multiplier`, except that the parked
//! writer runs the flush instead of waiting for a flusher). A flush
//! never waits for a compaction: a region merges outside its flush
//! lock. Shutdown is cooperative: workers drain the sweep they are
//! in, then exit; the store then force-syncs every WAL so a clean exit
//! is durable under every sync policy.

use crate::table::Table;
use crate::wal::SYNC_WINDOW;
use just_obs::sync::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::Instant;

/// Background-maintenance tuning, shared by every table of a store.
#[derive(Debug, Clone)]
pub struct MaintenanceOptions {
    /// Worker threads (regions are partitioned across them). With 0
    /// there are no background threads: nothing flushes before the
    /// threshold, which then is the cap a writer flushes at (twice the
    /// threshold otherwise);
    /// nothing compacts, splits or batch-syncs unless called, and
    /// [`crate::SyncPolicy::Batched`] syncs only on rotation and
    /// shutdown.
    pub workers: usize,
    /// Compact a region once it holds at least this many SSTables
    /// (0 disables background compaction).
    pub compact_trigger: usize,
    /// Auto-split a region once its footprint (disk + memtable)
    /// crosses this many bytes; 0 disables maintenance-driven splits.
    /// The analogue of HBase's region split policy, driven by the same
    /// sweep that flushes and compacts. Auto-splits stop at 64 regions
    /// per table.
    pub split_bytes: usize,
}

impl Default for MaintenanceOptions {
    fn default() -> Self {
        MaintenanceOptions {
            workers: 2,
            compact_trigger: 8,
            split_bytes: 256 << 20,
        }
    }
}

/// A wake-up latch: whatever gives a region work kicks it, and the
/// workers sweep.
///
/// Kicks are a generation counter, not a consumable flag: every worker
/// compares the counter against the generation it last observed, so one
/// kick wakes (or skips the wait of) *all* workers — a worker can never
/// swallow the wake-up meant for the region owned by another.
///
/// Work that is due later asks for a sweep by a time instead
/// ([`Kick::kick_by`]): it only brings forward the deadline of a worker
/// that would sweep later than that, so the dirtying appends of many
/// regions inside one sync window cost each worker a few sweeps (see
/// `Wal::maintain`), not one per region.
#[derive(Debug, Default)]
pub(crate) struct Kick {
    state: Mutex<KickState>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct KickState {
    /// Kicks so far.
    generation: u64,
    /// Per worker: when it must start its next sweep, or `None` while it
    /// may park without a deadline. Cleared as a sweep starts.
    sweep_by: Vec<Option<Instant>>,
}

/// The earlier of two optional deadlines (`None` is never).
fn earliest(a: Option<Instant>, b: Option<Instant>) -> Option<Instant> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

impl Kick {
    /// A latch for `workers` workers.
    pub(crate) fn new(workers: usize) -> Kick {
        Kick {
            state: Mutex::new(KickState {
                generation: 0,
                sweep_by: vec![None; workers],
            }),
            cv: Condvar::new(),
        }
    }

    /// Wakes every waiting worker.
    pub(crate) fn kick(&self) {
        self.state.lock().generation += 1;
        self.cv.notify_all();
    }

    /// Makes every worker start a sweep by `by`: one mid-sweep may have
    /// passed the region already. Wakes only workers whose deadline this
    /// brings forward, so they wait for the new one.
    pub(crate) fn kick_by(&self, by: Instant) {
        let mut sooner = false;
        for slot in &mut self.state.lock().sweep_by {
            if slot.is_none_or(|at| by < at) {
                *slot = Some(by);
                sooner = true;
            }
        }
        if sooner {
            self.cv.notify_all();
        }
    }

    /// Waits until the generation advances past `seen` or the worker's
    /// deadline — `due`, or an earlier one asked of it — passes, then
    /// records the observed generation in `seen`.
    fn wait(&self, worker: usize, seen: &mut u64, due: Option<Instant>) {
        let mut state = self.state.lock();
        state.sweep_by[worker] = earliest(state.sweep_by[worker], due);
        while state.generation == *seen {
            state = match state.sweep_by[worker] {
                None => self.cv.wait(state),
                Some(at) => {
                    let now = Instant::now();
                    if now >= at {
                        break;
                    }
                    self.cv.wait_timeout(state, at - now).0
                }
            };
        }
        *seen = state.generation;
        state.sweep_by[worker] = None;
    }

    /// Kicks so far.
    #[cfg(test)]
    pub(crate) fn generation(&self) -> u64 {
        self.state.lock().generation
    }

    /// The time `worker` must sweep by, cleared as if it swept.
    #[cfg(test)]
    pub(crate) fn take_sweep_by(&self, worker: usize) -> Option<Instant> {
        self.state.lock().sweep_by[worker].take()
    }
}

struct Shared {
    /// Tables, not regions: each sweep re-reads every table's live
    /// region map, so daughters minted by online splits are picked up
    /// without any registration step.
    tables: Mutex<Vec<Weak<Table>>>,
    kick: Arc<Kick>,
    /// Set by [`Scheduler::shutdown`]: workers finish their sweep and
    /// exit.
    stop: AtomicBool,
    opts: MaintenanceOptions,
    errors: just_obs::Counter,
    sweeps: just_obs::Counter,
}

/// The scheduler: worker threads sweeping registered regions.
pub(crate) struct Scheduler {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("tables", &self.shared.tables.lock().len())
            .finish()
    }
}

impl Scheduler {
    /// Spawns the worker pool: `workers` threads, possibly none.
    pub(crate) fn start(opts: MaintenanceOptions) -> Scheduler {
        let obs = just_obs::global();
        let shared = Arc::new(Shared {
            tables: Mutex::new(Vec::new()),
            kick: Arc::new(Kick::new(opts.workers)),
            stop: AtomicBool::new(false),
            errors: obs.counter("just_kvstore_maintenance_errors"),
            sweeps: obs.counter("just_kvstore_maintenance_sweeps"),
            opts,
        });
        let n = shared.opts.workers;
        let workers = (0..n)
            .map(|w| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("just-kv-maint-{w}"))
                    .spawn(move || worker_loop(&shared, w, n))
                    .expect("spawn maintenance worker")
            })
            .collect();
        Scheduler {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// The latch writers use to wake the pool.
    pub(crate) fn kick_handle(&self) -> Arc<Kick> {
        self.shared.kick.clone()
    }

    /// Adds a table to the sweep set (dead entries are pruned lazily)
    /// and kicks: a reopened table may owe a compaction.
    pub(crate) fn register(&self, table: &Arc<Table>) {
        {
            let mut list = self.shared.tables.lock();
            list.retain(|w| w.strong_count() > 0);
            list.push(Arc::downgrade(table));
        }
        self.shared.kick.kick();
    }

    /// Stops the pool and drains in-flight maintenance: each worker
    /// finishes its current sweep before exiting. Idempotent. One kick
    /// is enough: a worker between its stop check and its wait finds
    /// the generation advanced and does not block.
    pub(crate) fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.kick.kick();
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.workers.lock());
        for h in handles {
            h.join().expect("maintenance worker panicked");
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One worker: sweeps its share of every table's regions (index mod
/// `workers`) whenever it is kicked or the earliest deadline its last
/// sweep found passes.
fn worker_loop(shared: &Shared, worker: usize, workers: usize) {
    let mut seen_kick = 0u64;
    let mut due = None;
    loop {
        let stopping = shared.stop.load(Ordering::SeqCst);
        if !stopping {
            shared.kick.wait(worker, &mut seen_kick, due);
        }
        shared.sweeps.inc();
        due = None;
        let tables: Vec<Arc<Table>> = {
            let mut list = shared.tables.lock();
            list.retain(|w| w.strong_count() > 0);
            list.iter().filter_map(Weak::upgrade).collect()
        };
        for table in &tables {
            for region in table.regions().iter().skip(worker).step_by(workers) {
                // A region whose table was dropped mid-sweep errors on
                // its vanished directory; anything else is still not
                // worth killing the worker over — surface via counter,
                // and retry one sync window later.
                let next = region.maintain().unwrap_or_else(|_| {
                    shared.errors.inc();
                    Some(Instant::now() + SYNC_WINDOW)
                });
                due = earliest(due, next);
            }
            // One worker doubles as the split balancer so lifecycle
            // operations never race each other from within the pool.
            if worker == 0 && !stopping && table.maybe_split(shared.opts.split_bytes).is_err() {
                shared.errors.inc();
            }
        }
        if stopping {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn one_kick_wakes_every_worker() {
        let kick = Arc::new(Kick::new(4));
        let handles: Vec<_> = (0..4)
            .map(|w| {
                let kick = kick.clone();
                std::thread::spawn(move || {
                    // Each worker has its own observed generation, so no
                    // worker can consume a kick meant for another.
                    let mut seen = 0u64;
                    let started = std::time::Instant::now();
                    while seen == 0 && started.elapsed() < Duration::from_secs(10) {
                        kick.wait(
                            w,
                            &mut seen,
                            Some(Instant::now() + Duration::from_millis(20)),
                        );
                    }
                    seen
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(30));
        kick.kick();
        for h in handles {
            assert!(h.join().unwrap() >= 1, "a worker missed the kick");
        }
    }

    #[test]
    fn a_sweep_asked_by_a_time_starts_at_that_time() {
        // Workers parked with a later deadline take the earliest time
        // asked of them and sweep then, not at once; a later ask changes
        // nothing, and no ask bumps the generation.
        let kick = Arc::new(Kick::new(2));
        let parked_until = Instant::now() + Duration::from_secs(5);
        let handles: Vec<_> = (0..2)
            .map(|w| {
                let kick = kick.clone();
                std::thread::spawn(move || {
                    let mut seen = 0u64;
                    kick.wait(w, &mut seen, Some(parked_until));
                    (seen, Instant::now())
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(20));
        let by = Instant::now() + Duration::from_millis(50);
        kick.kick_by(by + Duration::from_millis(500));
        kick.kick_by(by);
        kick.kick_by(by + Duration::from_millis(5));
        for h in handles {
            let (seen, woke) = h.join().unwrap();
            assert_eq!(seen, 0);
            assert!(woke >= by, "a worker swept before it was asked to");
            assert!(
                woke < by + Duration::from_millis(400),
                "a worker slept past the ask"
            );
        }
        assert_eq!(kick.take_sweep_by(0), None, "the sweep clears the ask");
    }
}
