//! Set-up, warm-up and the timed closed-loop phase.

use crate::gen::{
    districts_sql, districts_user_bytes, insert_sql, Check, Class, Stmt, StmtGen, Table, Workload,
    CREATE_TABLES, STREAM_WARMUP,
};
use crate::oracle::{Observed, Oracle};
use crate::prom::Scrape;
use just_core::{Engine, EngineConfig, SessionManager};
use just_kvstore::IoSnapshot;
use just_ql::Client;
use just_server::{RemoteClient, Server, ServerConfig, ServerHandle};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Closed-loop load threads: one per core of the 2-core sandbox. SDK
/// callers wait for each reply before sending the next request.
pub const CLIENTS: usize = 2;
/// The namespace every connection (and the embedded preload) uses.
pub const USER: &str = "bench";
/// Statements each client runs before the timed phase, so caches fill
/// and lazily opened tables are open. A count, not a duration: set-up
/// work moved into the first requests then shows in `setup_s`.
const WARMUP_STMTS: usize = 16;
/// A timed run sets up this often (fresh data dir each time); the
/// median is reported as `setup_s` and the last set-up serves the run.
pub const SETUP_REPEATS: usize = 3;

const PRELOAD_BATCH: i64 = 1000;

/// A served engine over a fresh data directory.
pub struct Env {
    pub workload: &'static Workload,
    pub seed: u64,
    pub dir: PathBuf,
    pub engine: Arc<Engine>,
    pub sessions: SessionManager,
    server: Option<ServerHandle>,
    /// Fid ranges `[first, end)` per insert stream for (orders, routes).
    pub issued: Vec<[(i64, i64); 2]>,
    /// Rows acknowledged by the server, per table.
    pub acked_rows: [i64; 2],
}

impl Env {
    pub fn addr(&self) -> SocketAddr {
        self.server
            .as_ref()
            .expect("server runs until teardown")
            .local_addr()
    }

    pub fn embedded(&self) -> Client {
        Client::new(self.sessions.session(USER))
    }

    pub fn connect(&self) -> RemoteClient {
        RemoteClient::connect(self.addr(), USER).expect("connect to the in-process server")
    }

    /// Records what a finished insert stream sent and what was acked.
    pub fn note_inserts(&mut self, gen: &StmtGen, records: &[OpRecord]) {
        let first = gen.first_insert_fid();
        let issued = gen.issued();
        self.issued
            .push([(first, first + issued[0]), (first, first + issued[1])]);
        for r in records {
            if let (Check::Insert { table, .. }, Observed::Inserted(n)) = (&r.check, &r.observed) {
                self.acked_rows[usize::from(*table == Table::Routes)] += n;
            }
        }
    }

    /// Logical bytes of every row the tables hold.
    pub fn user_bytes(&self) -> u64 {
        let rows = |t: Table, slot: usize| {
            (self.workload.preloaded(t) + self.acked_rows[slot]) as u64 * t.row_user_bytes()
        };
        rows(Table::Orders, 0) + rows(Table::Routes, 1) + districts_user_bytes()
    }

    /// Bytes under the data directory right now.
    pub fn disk_bytes(&self) -> u64 {
        dir_bytes(&self.dir)
    }

    /// Flushes and compacts every table.
    pub fn compact_all(&self) {
        self.engine.flush_all().expect("flush");
        let session = self.sessions.session(USER);
        for name in ["orders", "routes", "districts"] {
            let table = self
                .engine
                .table(&session.physical(name))
                .expect("open table");
            table.compact().expect("compact");
        }
    }

    /// Stops the server and the engine and removes the data directory.
    pub fn teardown(mut self) {
        if let Some(server) = self.server.take() {
            server.join();
        }
        self.engine.shutdown();
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).expect("read data dir") {
        let entry = entry.expect("dir entry");
        let meta = entry.metadata().expect("metadata");
        total += if meta.is_dir() {
            dir_bytes(&entry.path())
        } else {
            meta.len()
        };
    }
    total
}

fn engine_config(w: &Workload) -> EngineConfig {
    // Defaults otherwise: WAL on with batched sync, 4 MiB flush
    // threshold, background maintenance on — the stated flush policy.
    let mut cfg = EngineConfig::default();
    cfg.store.block_cache_bytes = w.block_cache_bytes;
    cfg
}

fn set_up_once(w: &'static Workload, seed: u64, dir: PathBuf) -> Env {
    std::fs::remove_dir_all(&dir).ok();
    let engine = Arc::new(Engine::open(&dir, engine_config(w)).expect("open engine"));
    let sessions = SessionManager::new(engine.clone());
    let mut client = Client::new(sessions.session(USER));
    for ddl in CREATE_TABLES {
        client.execute(ddl).expect("create table");
    }
    client.execute(&districts_sql()).expect("load districts");
    if w.preload {
        for table in [Table::Orders, Table::Routes] {
            let rows = w.preloaded(table);
            let mut fid = 0;
            while fid < rows {
                let n = PRELOAD_BATCH.min(rows - fid);
                client
                    .execute(&insert_sql(seed, table, fid, n))
                    .expect("preload");
                fid += n;
            }
        }
    }
    let mut env = Env {
        workload: w,
        seed,
        dir,
        engine,
        sessions,
        server: None,
        issued: Vec::new(),
        acked_rows: [0; 2],
    };
    env.compact_all();
    env.server =
        Some(Server::start(env.engine.clone(), ServerConfig::default()).expect("start server"));
    // A workload on which warm-up requests fail is not one to measure.
    let (records, gens) = drive(&env, STREAM_WARMUP, Until::Count(WARMUP_STMTS));
    for (gen, recs) in gens.iter().zip(&records) {
        env.note_inserts(gen, recs);
        if let Some(r) = recs
            .iter()
            .find(|r| matches!(r.observed, Observed::Failed(_)))
        {
            panic!("warm-up request failed: {:?}", r.observed);
        }
    }
    env
}

/// Sets up `repeats` times; returns the last environment and every
/// set-up's wall time.
pub fn set_up(w: &'static Workload, seed: u64, out_dir: &Path, repeats: usize) -> (Env, Vec<f64>) {
    let mut times = Vec::new();
    let mut env = None;
    for i in 0..repeats {
        if let Some(prev) = env.take() {
            Env::teardown(prev);
        }
        let dir = out_dir.join(format!("data-{}-{}-{i}", w.name, std::process::id()));
        let started = Instant::now();
        env = Some(set_up_once(w, seed, dir));
        times.push(started.elapsed().as_secs_f64());
    }
    (env.expect("at least one set-up"), times)
}

/// One completed request of the timed phase.
pub struct OpRecord {
    pub class: Class,
    pub latency_us: f64,
    pub check: Check,
    pub observed: Observed,
}

#[derive(Clone, Copy)]
pub enum Until {
    Count(usize),
    Deadline(Duration),
}

/// Runs [`CLIENTS`] closed-loop clients on insert/statement streams
/// `first_stream..`, each until `until`. Returns per-client records and
/// the generators (for what they issued).
pub fn drive(env: &Env, first_stream: u64, until: Until) -> (Vec<Vec<OpRecord>>, Vec<StmtGen>) {
    let barrier = Barrier::new(CLIENTS);
    let results: Vec<(Vec<OpRecord>, StmtGen)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut gen = StmtGen::new(env.seed, env.workload, first_stream + c as u64);
                    let mut remote = env.connect();
                    let mut records = Vec::new();
                    barrier.wait();
                    let started = Instant::now();
                    loop {
                        match until {
                            Until::Count(n) if records.len() >= n => break,
                            Until::Deadline(d) if started.elapsed() >= d => break,
                            _ => {}
                        }
                        let Stmt { class, sql, check } = gen.next_stmt();
                        let sent = Instant::now();
                        let result = remote.execute(&sql);
                        let latency_us = sent.elapsed().as_secs_f64() * 1e6;
                        let observed = Observed::digest(&check, result);
                        records.push(OpRecord {
                            class,
                            latency_us,
                            check,
                            observed,
                        });
                    }
                    (records, gen)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    results.into_iter().unzip()
}

/// Everything measured around the timed phase.
pub struct Timed {
    pub records: Vec<Vec<OpRecord>>,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Registry deltas across the phase.
    pub metrics: Scrape,
    /// The scrape after the phase (histogram quantiles are cumulative).
    pub metrics_after: Scrape,
    pub io: IoSnapshot,
}

pub fn timed_phase(env: &mut Env, seconds: u64) -> Timed {
    // A connection per scrape: one held across the phase would sit idle
    // and meet the server's idle timeout on longer runs.
    let scrape = |env: &Env| Scrape::parse(&env.connect().metrics_text().expect("metrics"));
    let metrics_before = scrape(env);
    let io_before = env.engine.io_snapshot();
    let cpu_before = crate::sys::cpu_seconds();
    let started = Instant::now();
    let (records, gens) = drive(env, 0, Until::Deadline(Duration::from_secs(seconds)));
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = crate::sys::cpu_seconds() - cpu_before;
    let io = env.engine.io_snapshot().since(&io_before);
    let metrics_after = scrape(env);
    let metrics = metrics_after.since(&metrics_before);
    for (gen, recs) in gens.iter().zip(&records) {
        env.note_inserts(gen, recs);
    }
    Timed {
        records,
        wall_s,
        cpu_s,
        metrics,
        metrics_after,
        io,
    }
}

/// Checks every record against the oracle; returns the failure messages.
pub fn verify(env: &Env, oracle: &Oracle, records: &[Vec<OpRecord>]) -> Vec<String> {
    records
        .iter()
        .flatten()
        .filter_map(|r| {
            oracle
                .verify(&r.check, &r.observed, &env.issued)
                .err()
                .map(|e| format!("{}: {e}", r.class.name()))
        })
        .collect()
}

/// `SELECT count(*)` over the wire must count the preload plus every
/// acknowledged row. Returns one message per table that disagrees.
pub fn verify_row_counts(env: &Env) -> Vec<String> {
    let mut remote = env.connect();
    let mut failures = Vec::new();
    for (slot, table) in [Table::Orders, Table::Routes].into_iter().enumerate() {
        let want = env.workload.preloaded(table) + env.acked_rows[slot];
        let sql = format!("SELECT count(*) AS n FROM {}", table.name());
        let got = remote.execute(&sql).ok().and_then(|r| {
            let d = r.into_dataset()?;
            d.rows.first()?.values.first()?.as_int()
        });
        if got != Some(want) {
            failures.push(format!(
                "count(*) of {}: got {got:?}, want {want}",
                table.name()
            ));
        }
    }
    failures
}
