//! The live query registry: what the engine is doing *right now*.
//!
//! Every query the SQL layer runs registers here for its lifetime: it
//! gets a process-unique id, carries its user, normalized text, start
//! time, the IO-counter snapshot taken at start (so live per-query IO is
//! a cheap delta against the global counters), and a kill token wired
//! into the streaming scan path. `SHOW QUERIES` lists the registry;
//! `KILL QUERY <id>` flips the token so a runaway scan stops within one
//! batch.
//!
//! Registration is two small allocations and one mutex-protected map
//! insert per *query* (not per row or batch), so it stays far inside the
//! crate's instrumentation overhead budget.

use just_kvstore::{CancelToken, IoSnapshot};
use just_obs::sync::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How much normalized query text the registry keeps per query.
const MAX_SQL: usize = 256;

/// One live (registered) query.
#[derive(Debug)]
pub struct QueryInfo {
    id: u64,
    user: String,
    sql: String,
    request_id: Option<u64>,
    started: Instant,
    io_start: IoSnapshot,
    kill: CancelToken,
}

impl QueryInfo {
    /// Process-unique query id (monotonically assigned).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The session user that issued the query.
    pub fn user(&self) -> &str {
        &self.user
    }

    /// Normalized (whitespace-collapsed, length-capped) query text.
    pub fn sql(&self) -> &str {
        &self.sql
    }

    /// The server request id this query arrived under, if it came over
    /// the wire.
    pub fn request_id(&self) -> Option<u64> {
        self.request_id
    }

    /// Time the query has been running.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// The store-wide IO counters as they were when the query started;
    /// `current.since(query.io_start())` is the query's live IO delta
    /// (exact when it runs alone, attribution-approximate under
    /// concurrency — same contract as `EXPLAIN ANALYZE`).
    pub fn io_start(&self) -> &IoSnapshot {
        &self.io_start
    }

    /// The kill token. The executor threads this into its scan streams;
    /// `KILL QUERY` cancels it.
    pub fn kill_token(&self) -> &CancelToken {
        &self.kill
    }
}

/// The engine-wide registry of live queries.
#[derive(Debug)]
pub struct QueryRegistry {
    next_id: AtomicU64,
    live: Mutex<BTreeMap<u64, Arc<QueryInfo>>>,
    active: just_obs::Gauge,
    started: just_obs::Counter,
    killed: just_obs::Counter,
}

impl Default for QueryRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl QueryRegistry {
    /// An empty registry. Ids start at 1 so 0 can mean "none".
    pub(crate) fn new() -> Self {
        let obs = just_obs::global();
        QueryRegistry {
            next_id: AtomicU64::new(1),
            live: Mutex::new(BTreeMap::new()),
            active: obs.gauge("just_core_queries_active"),
            started: obs.counter("just_core_queries_started"),
            killed: obs.counter("just_core_queries_killed"),
        }
    }

    /// Registers a query for its execution lifetime and returns the
    /// guard that deregisters it on drop (normal completion, error, or
    /// panic unwind all deregister).
    pub fn register(
        self: &Arc<Self>,
        user: &str,
        sql: &str,
        request_id: Option<u64>,
        io_start: IoSnapshot,
    ) -> QueryGuard {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let info = Arc::new(QueryInfo {
            id,
            user: user.to_string(),
            sql: normalize_sql(sql),
            request_id,
            started: Instant::now(),
            io_start,
            kill: CancelToken::new(),
        });
        self.live.lock().insert(id, info.clone());
        self.started.inc();
        self.active.inc();
        QueryGuard {
            registry: self.clone(),
            info,
        }
    }

    /// Every live query, in id (= start) order.
    pub fn list(&self) -> Vec<Arc<QueryInfo>> {
        self.live.lock().values().cloned().collect()
    }

    /// Looks up one live query.
    pub(crate) fn get(&self, id: u64) -> Option<Arc<QueryInfo>> {
        self.live.lock().get(&id).cloned()
    }

    /// Requests cancellation of a live query: cancels its kill token so
    /// in-flight scan streams stop within a batch.
    /// Returns `false` if no such query is live.
    pub(crate) fn kill(&self, id: u64) -> bool {
        let Some(info) = self.get(id) else {
            return false;
        };
        info.kill.cancel();
        self.killed.inc();
        just_obs::events::global().emit(
            "query.killed",
            format!("query_id={} user={} sql={}", info.id, info.user, info.sql),
        );
        true
    }

    fn deregister(&self, id: u64) {
        self.live.lock().remove(&id);
        self.active.dec();
    }
}

/// RAII registration handle: the query stays listed until this drops.
#[derive(Debug)]
pub struct QueryGuard {
    registry: Arc<QueryRegistry>,
    info: Arc<QueryInfo>,
}

impl QueryGuard {
    /// The registered query's live info.
    pub fn info(&self) -> &Arc<QueryInfo> {
        &self.info
    }
}

impl Drop for QueryGuard {
    fn drop(&mut self) {
        self.registry.deregister(self.info.id);
    }
}

/// Collapses runs of whitespace to single spaces and caps the length, so
/// registry rows render as one stable line no matter how the query was
/// formatted.
fn normalize_sql(sql: &str) -> String {
    let mut out = String::with_capacity(sql.len().min(MAX_SQL));
    let mut in_ws = false;
    for c in sql.trim().chars() {
        if c.is_whitespace() {
            in_ws = true;
            continue;
        }
        if in_ws && !out.is_empty() {
            out.push(' ');
        }
        in_ws = false;
        out.push(c);
        if out.len() >= MAX_SQL {
            out.push('…');
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> Arc<QueryRegistry> {
        Arc::new(QueryRegistry::new())
    }

    #[test]
    fn register_list_deregister() {
        let r = registry();
        assert!(r.list().is_empty());
        let g1 = r.register("alice", "SELECT  1", None, IoSnapshot::default());
        let g2 = r.register("bob", "SELECT\n 2", Some(7), IoSnapshot::default());
        assert_eq!(r.list().len(), 2);
        let live = r.list();
        assert_eq!(live[0].user(), "alice");
        assert_eq!(live[0].sql(), "SELECT 1");
        assert_eq!(live[1].sql(), "SELECT 2");
        assert_eq!(live[1].request_id(), Some(7));
        assert!(live[0].id() < live[1].id());
        drop(g1);
        assert_eq!(r.list().len(), 1);
        assert!(r.get(live[0].id()).is_none());
        drop(g2);
        assert!(r.list().is_empty());
    }

    #[test]
    fn kill_cancels_the_token() {
        let r = registry();
        let g = r.register("alice", "SELECT 1", None, IoSnapshot::default());
        let id = g.info().id();
        assert!(!g.info().kill_token().is_cancelled());
        assert!(r.kill(id));
        assert!(g.info().kill_token().is_cancelled());
        assert!(!r.kill(9999), "unknown id is reported");
        drop(g);
        assert!(!r.kill(id), "finished queries can no longer be killed");
    }

    #[test]
    fn normalization_collapses_and_caps() {
        assert_eq!(normalize_sql("  a \n\t b  "), "a b");
        let long = "x".repeat(1000);
        let n = normalize_sql(&long);
        assert!(n.chars().count() <= MAX_SQL + 1);
        assert!(n.ends_with('…'));
    }
}
