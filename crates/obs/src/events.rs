//! A lock-lean ring-buffer event log for structured engine events.
//!
//! Metrics answer "how much"; the event log answers "what happened":
//! memtable flushes, compactions, slow queries, killed queries, server
//! request failures. It is fixed-capacity and overwrite-oldest, so it is
//! safe to leave on forever — an idle engine costs nothing, a busy one
//! keeps the most recent window.
//!
//! # Concurrency design
//!
//! Writers never contend on a shared lock. [`EventLog::emit`] claims a
//! globally unique sequence number with one relaxed `fetch_add`, then
//! locks *only* the slot `seq % capacity` to store the event. Two
//! writers collide on a slot lock only when they are a full capacity
//! apart — i.e. the ring wrapped between their claims — so under any
//! realistic load the emit path is one atomic plus one uncontended
//! mutex. Readers ([`EventLog::recent`]) walk back from the latest
//! claimed sequence and keep a slot only if the stored event's sequence
//! matches the one expected at that position, which filters out slots a
//! lapped writer has already overwritten (or not yet written): the
//! result is always a consistent newest-first view, never a torn one.

use crate::sync::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{SystemTime, UNIX_EPOCH};

/// One structured engine event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Globally unique, monotonically increasing sequence number.
    pub seq: u64,
    /// Wall-clock timestamp, milliseconds since the Unix epoch.
    pub ts_ms: u64,
    /// Dotted event kind, `area.what` (e.g. `region.flush`,
    /// `query.slow`, `query.killed`, `server.request_error`).
    pub kind: String,
    /// Human-readable detail line (key=value pairs by convention).
    pub detail: String,
}

/// A fixed-capacity, overwrite-oldest log of [`Event`]s.
#[derive(Debug)]
pub struct EventLog {
    next_seq: AtomicU64,
    slots: Vec<Mutex<Option<Event>>>,
}

/// Capacity of the process-global log: enough to hold minutes of flush/
/// compaction/slow-query traffic while staying a few hundred KB even
/// with verbose detail strings.
const GLOBAL_CAPACITY: usize = 1024;

impl EventLog {
    /// An empty log holding at most `capacity` events (min 1).
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        EventLog {
            next_seq: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// Appends one event, overwriting the oldest if full. Returns the
    /// event's sequence number.
    pub fn emit(&self, kind: &str, detail: impl Into<String>) -> u64 {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let slot = (seq % self.slots.len() as u64) as usize;
        *self.slots[slot].lock() = Some(Event {
            seq,
            ts_ms: now_ms(),
            kind: kind.to_string(),
            detail: detail.into(),
        });
        seq
    }

    /// The most recent events, newest first, at most `limit`.
    pub fn recent(&self, limit: usize) -> Vec<Event> {
        let cap = self.slots.len() as u64;
        let next = self.next_seq.load(Ordering::Relaxed);
        let mut out = Vec::with_capacity(limit.min(next as usize));
        let oldest = next.saturating_sub(cap);
        let mut seq = next;
        while seq > oldest && out.len() < limit {
            seq -= 1;
            let slot = (seq % cap) as usize;
            let guard = self.slots[slot].lock();
            // A mismatched sequence means a concurrent writer lapped
            // this slot (or hasn't filled it yet); skip, don't tear.
            if let Some(e) = guard.as_ref() {
                if e.seq == seq {
                    out.push(e.clone());
                }
            }
        }
        out
    }

    /// Sequence number the next [`EventLog::emit`] will claim (equals
    /// the total number of events ever emitted).
    pub fn next_seq(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed)
    }
}

/// The process-global event log. All engine layers emit here; `SHOW
/// EVENTS` and the slow-query log read from it.
pub fn global() -> &'static EventLog {
    static GLOBAL: OnceLock<EventLog> = OnceLock::new();
    GLOBAL.get_or_init(|| EventLog::with_capacity(GLOBAL_CAPACITY))
}

fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn emit_and_recent_newest_first() {
        let log = EventLog::with_capacity(8);
        for i in 0..5 {
            log.emit("test.tick", format!("i={i}"));
        }
        let got = log.recent(3);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].seq, 4);
        assert_eq!(got[0].detail, "i=4");
        assert_eq!(got[2].seq, 2);
        assert!(got.windows(2).all(|w| w[0].seq > w[1].seq));
    }

    #[test]
    fn overwrites_oldest_when_full() {
        let log = EventLog::with_capacity(4);
        for i in 0..10 {
            log.emit("test.tick", format!("i={i}"));
        }
        let got = log.recent(100);
        assert_eq!(got.len(), 4, "capacity bounds retention");
        let seqs: Vec<u64> = got.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![9, 8, 7, 6]);
        assert_eq!(log.next_seq(), 10);
    }

    #[test]
    fn recent_on_empty_is_empty() {
        let log = EventLog::with_capacity(4);
        assert!(log.recent(10).is_empty());
        assert_eq!(log.next_seq(), 0);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let log = EventLog::with_capacity(0);
        log.emit("test.tick", "x");
        log.emit("test.tick", "y");
        let kept = log.recent(10);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].detail, "y");
    }

    /// The satellite concurrency test: N writers hammer the ring; the
    /// reader must see, in every slot, an event whose sequence is
    /// congruent to the slot index mod capacity (i.e. slots never hold
    /// torn or misplaced events), and the claimed-sequence total must be
    /// exactly the number of emits.
    #[test]
    fn concurrent_writers_keep_slots_gap_free() {
        const WRITERS: usize = 8;
        const PER_WRITER: u64 = 500;
        const CAP: usize = 64;
        let log = Arc::new(EventLog::with_capacity(CAP));
        let mut handles = Vec::new();
        for w in 0..WRITERS {
            let log = Arc::clone(&log);
            handles.push(std::thread::spawn(move || {
                for i in 0..PER_WRITER {
                    log.emit("test.concurrent", format!("w={w} i={i}"));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let total = log.next_seq();
        assert_eq!(total, WRITERS as u64 * PER_WRITER);
        // Gap-free per slot: every slot holds an untorn event whose
        // sequence is congruent to the slot index mod capacity. (A
        // writer descheduled across a full lap may leave an *old* seq in
        // its slot, but never a misplaced or torn one.)
        for (slot, cell) in log.slots.iter().enumerate() {
            let guard = cell.lock();
            let e = guard.as_ref().expect("every slot written");
            assert_eq!(e.seq % CAP as u64, slot as u64, "slot {slot}");
            assert!(e.seq < total);
            assert!(e.detail.starts_with("w="), "torn detail: {:?}", e.detail);
        }
        // The reader view is strictly descending with no duplicates.
        let got = log.recent(CAP);
        assert!(!got.is_empty());
        assert!(got[0].seq < total);
        assert!(got.windows(2).all(|w| w[0].seq > w[1].seq));
    }
}
