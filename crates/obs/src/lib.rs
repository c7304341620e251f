//! `just-obs` — the observability substrate for the JUST engine.
//!
//! Every performance claim in the JUST paper (ICDE 2020, Section VI) is an
//! IO/latency argument, so the engine needs to *see itself*: where a query
//! spends time, which operator produced the IO, how selective an index read
//! was. This crate provides that layer for the whole workspace:
//!
//! * [`trace`] — a lightweight span tracer. A [`trace::Trace`] is an arena of
//!   spans forming a tree; each span carries monotonic wall time, an output
//!   row count, and arbitrary named `u64` attributes (used by the executor to
//!   attach kvstore IO deltas). `Trace::render()` pretty-prints the tree;
//!   JustQL's `EXPLAIN ANALYZE` and slow-query log are both rendered from it.
//! * [`metrics`] — a process-wide registry of named counters, gauges, and
//!   log-scale latency histograms (p50/p90/p95/p99) with Prometheus-style
//!   text exposition via [`metrics::Registry::render_text`]. The kvstore,
//!   storage, and core crates record scan latency, memtable flushes,
//!   compactions, block-cache hit ratios, and index selectivity here.
//! * [`events`] — a lock-lean, fixed-capacity, overwrite-oldest ring-buffer
//!   **event log** for structured engine events (flushes, compactions, slow
//!   queries, killed queries, request errors). Emitting is one relaxed
//!   atomic plus one uncontended per-slot mutex; `SHOW EVENTS` and the
//!   slow-query log read from [`events::global`].
//! * [`sync`] — `Mutex`/`RwLock` shims over `std::sync` with a
//!   guard-returning (non-`Result`) API, recovering from poisoning. These
//!   keep lock call sites terse across the workspace without an external
//!   locking crate.
//! * [`rng`] — a seeded SplitMix64 PRNG used by the bench workload
//!   generators and the deterministic property tests.
//!
//! # Zero-dependency design
//!
//! The workspace builds fully offline, so this crate is hand-rolled on top
//! of `std` only — no tracing/metrics/rand crates. Everything is implemented
//! with atomics, `std::sync` primitives, and `std::time::Instant`.
//!
//! # Overhead budget
//!
//! Instrumentation must stay below **2% overhead on the fig11 query
//! workload** (spatial range queries at bench scale). The design choices
//! that keep it there:
//!
//! * Counters and histogram buckets are single relaxed atomic increments;
//!   there is no locking on the hot record path.
//! * Histograms bucket by the bit width of the recorded value (base-2
//!   log scale), so recording is a `leading_zeros` plus one atomic add.
//! * Every `SELECT` records one span per plan operator (a handful per
//!   query): a span is one `Vec` push and two `Instant` reads, attribute
//!   names are `&'static str`, and nothing is rendered unless the query
//!   is slow or ran under `EXPLAIN ANALYZE`.

#![deny(missing_docs)]

pub mod events;
pub mod metrics;
pub mod rng;
pub mod sync;
pub mod trace;

pub use events::EventLog;
pub use metrics::{global, Counter, Gauge, Histogram, MetricValue, Registry};
pub use rng::Rng;
pub use trace::{SpanId, Trace};
