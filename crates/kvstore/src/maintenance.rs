//! The background maintenance scheduler: store-owned worker threads that
//! flush memtables, trigger compactions and batch WAL syncs off the
//! write path — HBase's MemStore flusher + compaction threads, scaled to
//! one process.
//!
//! Writers signal the workers (a [`Kick`]) when a region crosses its
//! flush threshold. A writer that finds the region's memtables at twice
//! the threshold — one generation filling while one flushes — flushes
//! it itself before it returns (write backpressure, like HBase's
//! `hbase.hregion.memstore.block.multiplier`, except that the parked
//! writer runs the flush instead of waiting for a flusher). A flush
//! never waits for a compaction: a region merges outside its flush
//! lock. Shutdown is cooperative: workers drain the sweep they are
//! in, then exit; the store then force-syncs every WAL so a clean exit
//! is durable under every sync policy.

use crate::table::Table;
use just_obs::sync::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

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

/// Sweep interval: how often idle regions are checked for flush /
/// compaction work and batched WAL syncs are issued.
const TICK: Duration = Duration::from_millis(10);

/// A wake-up latch: writers kick it when a region needs attention so the
/// scheduler reacts immediately instead of waiting out its tick.
///
/// Kicks are a generation counter, not a consumable flag: every worker
/// compares the counter against the generation it last observed, so one
/// kick wakes (or skips the wait of) *all* workers — a worker can never
/// swallow the wake-up meant for the region owned by another.
#[derive(Debug, Default)]
pub(crate) struct Kick {
    generation: Mutex<u64>,
    cv: Condvar,
}

impl Kick {
    /// Wakes every waiting worker.
    pub(crate) fn kick(&self) {
        *self.generation.lock() += 1;
        self.cv.notify_all();
    }

    /// Waits until the generation advances past `seen` or `timeout`
    /// elapses, then records the observed generation in `seen`.
    fn wait(&self, seen: &mut u64, timeout: Duration) {
        let mut generation = self.generation.lock();
        if *generation == *seen {
            let (g, _) = self.cv.wait_timeout(generation, timeout);
            generation = g;
        }
        *seen = *generation;
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
        let shared = Arc::new(Shared {
            tables: Mutex::new(Vec::new()),
            kick: Arc::new(Kick::default()),
            stop: AtomicBool::new(false),
            errors: just_obs::global().counter("just_kvstore_maintenance_errors"),
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

    /// Adds a table to the sweep set (dead entries are pruned lazily).
    pub(crate) fn register(&self, table: &Arc<Table>) {
        let mut list = self.shared.tables.lock();
        list.retain(|w| w.strong_count() > 0);
        list.push(Arc::downgrade(table));
    }

    /// Stops the pool and drains in-flight maintenance: each worker
    /// finishes its current sweep before exiting. Idempotent.
    pub(crate) fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.kick.kick();
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.workers.lock());
        for h in handles {
            // Keep kicking while joining: a worker that was between the
            // stop check and its wait would otherwise sleep out a tick.
            while !h.is_finished() {
                self.shared.kick.kick();
                std::thread::sleep(Duration::from_micros(200));
            }
            h.join().expect("maintenance worker panicked");
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &Shared, worker: usize, workers: usize) {
    let mut seen_kick = 0u64;
    loop {
        let stopping = shared.stop.load(Ordering::SeqCst);
        if !stopping {
            shared.kick.wait(&mut seen_kick, TICK);
        }
        let tables: Vec<Arc<Table>> = {
            let mut list = shared.tables.lock();
            list.retain(|w| w.strong_count() > 0);
            list.iter().filter_map(Weak::upgrade).collect()
        };
        for table in &tables {
            // A region whose table was dropped mid-sweep errors on its
            // vanished directory; anything else is still not worth
            // killing the worker over — surface via counter.
            if table
                .maintain_partition(shared.opts.compact_trigger, worker, workers)
                .is_err()
            {
                shared.errors.inc();
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

    #[test]
    fn one_kick_wakes_every_worker() {
        let kick = Arc::new(Kick::default());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let kick = kick.clone();
                std::thread::spawn(move || {
                    // Each worker has its own observed generation, so no
                    // worker can consume a kick meant for another.
                    let mut seen = 0u64;
                    let started = std::time::Instant::now();
                    while seen == 0 && started.elapsed() < Duration::from_secs(10) {
                        kick.wait(&mut seen, Duration::from_millis(20));
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
}
