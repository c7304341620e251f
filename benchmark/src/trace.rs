//! The traced run: one idle-server client, a fixed number of statements
//! per class, each executed once over the wire and then replayed stage
//! by stage through the crates' public functions.
//!
//! The benchmark records `(request, span, parent, start_ns, end_ns)`
//! around each call, in memory, and writes them out at exit. Under the
//! `remote` span sit the server's own measurement of the request
//! (`server.handle`, the request's sample in the always-on
//! `just_server_request_latency_us` histogram) and the replayed client
//! and response stages; under `server.handle` sit the replayed engine
//! stages. Replays run after the request, so a child lies after its
//! parent in time; self time is the span's duration minus its children's
//! durations either way. `remote`'s self time is the wire overhead:
//! socket transfer, thread hand-off and Nagle/delayed-ACK stalls.
//! `server.handle`'s self time is what the replayed stages do not
//! explain of the time the server measured.

use crate::gen::{order, route, Check, Class, Stmt, StmtGen, Table, STREAM_TRACE};
use crate::oracle::Observed;
use crate::run::Env;
use just_core::Session;
use just_curves::{RangeOptions, Xz2, Xz2t, Z2t, Z2};
use just_geo::{Geometry, LineString, Point, Rect};
use just_ql::{parse, JsonValue, LogicalPlan, Statement};
use just_server::frame::{read_frame, write_frame};
use just_server::{RemoteClient, Request, Response};
use just_storage::{IndexKind, IndexStrategy, Row, ScanOptions, SpatialPredicate, StTable, Value};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Statements traced per class: the first of the seeded trace stream,
/// so counts repeat exactly from run to run.
pub const STMTS_PER_CLASS: usize = 30;

const MAX_FRAME: usize = 64 << 20;

struct Span {
    request: usize,
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span log.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span; returns the span's id and `f`'s value.
    fn span<T>(
        &mut self,
        request: usize,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let value = f();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            request,
            name,
            parent,
            start_ns,
            end_ns,
        });
        (self.spans.len() - 1, value)
    }

    /// A child span whose duration something else measured (the server's
    /// own histogram): it starts with its parent and lasts `us`.
    fn measured(&mut self, request: usize, name: &'static str, parent: usize, us: f64) -> usize {
        let start_ns = self.spans[parent].start_ns;
        self.spans.push(Span {
            request,
            name,
            parent: Some(parent),
            start_ns,
            end_ns: start_ns + (us * 1e3) as u64,
        });
        self.spans.len() - 1
    }

    fn us(&self, id: usize) -> f64 {
        (self.spans[id].end_ns - self.spans[id].start_ns) as f64 / 1e3
    }

    /// Duration minus the children's durations, floored at zero.
    fn self_us(&self, id: usize) -> f64 {
        let children: f64 = (0..self.spans.len())
            .filter(|&c| self.spans[c].parent == Some(id))
            .map(|c| self.us(c))
            .sum();
        (self.us(id) - children).max(0.0)
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"request_id\":{},\"span_id\":{id},\"span\":\"{}\",\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// The lines of the per-class layer budget, in pipeline order. With the
/// unexplained rest of `server.handle` they sum to the remote wall.
pub const BUDGET: [&str; 10] = [
    "server.wire_overhead_us",
    "server.request_encode_us",
    "server.request_decode_us",
    "ql.parse_us",
    "ql.plan_us",
    "ql.optimize_us",
    "ql.execute_us",
    "ql.result_encode_us",
    "server.response_frame_us",
    "ql.result_decode_us",
];

/// Per-class samples of every traced quantity, keyed by metric name.
#[derive(Default)]
pub struct Samples(BTreeMap<(Class, &'static str), Vec<f64>>);

impl Samples {
    fn push(&mut self, class: Class, name: &'static str, v: f64) {
        self.0.entry((class, name)).or_default().push(v);
    }

    /// Median over the class's traced statements (0 when never sampled).
    pub fn median(&self, class: Class, name: &'static str) -> f64 {
        self.0
            .get(&(class, name))
            .map_or(0.0, |v| crate::stats::median(v))
    }

    pub fn has(&self, class: Class, name: &'static str) -> bool {
        self.0.contains_key(&(class, name))
    }

    pub fn count(&self, class: Class) -> usize {
        self.0.get(&(class, "remote_us")).map_or(0, Vec::len)
    }
}

pub struct Traced {
    pub samples: Samples,
    pub recorder: Recorder,
    /// Digests of the traced remote executions, for the oracle.
    pub records: Vec<crate::run::OpRecord>,
}

/// The client's half of the request codec: JSON, frame, and the frame
/// read on the other side. Returns the payload.
fn request_encode(sql: &str) -> Vec<u8> {
    let payload = Request::Execute {
        sql: sql.to_string(),
    }
    .to_json()
    .render();
    let mut wire = Vec::with_capacity(payload.len() + 4);
    write_frame(&mut wire, payload.as_bytes()).expect("write to memory");
    read_frame(&mut wire.as_slice(), MAX_FRAME, &mut || true).expect("read from memory")
}

/// The server's half: what `handle_payload` does before dispatching.
fn request_decode(payload: &[u8]) {
    let text = std::str::from_utf8(payload).expect("utf-8");
    let json = JsonValue::parse(text).expect("request json");
    std::hint::black_box(Request::from_json(&json).expect("request"));
}

fn order_row(seed: u64, fid: i64) -> Row {
    let o = order(seed, fid);
    Row::new(vec![
        Value::Int(o.fid),
        Value::Date(o.time),
        Value::Geom(Geometry::Point(Point::new(o.x, o.y))),
        Value::Float(o.amount),
        Value::Int(o.district),
    ])
}

fn route_row(seed: u64, fid: i64) -> Row {
    let r = route(seed, fid);
    let pts = r.pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
    Row::new(vec![
        Value::Int(r.fid),
        Value::Date(r.time),
        Value::Geom(Geometry::LineString(LineString::new(pts))),
        Value::Float(r.len),
    ])
}

/// The spans of a request made over the wire.
struct Wire {
    remote: usize,
    handle: usize,
    handle_us: f64,
}

struct Ctx<'a> {
    env: &'a mut Env,
    session: Session,
    remote: RemoteClient,
    gen: StmtGen,
    rec: Recorder,
    samples: Samples,
    records: Vec<crate::run::OpRecord>,
    /// Scratch kvstore table with the engine's store options, for timing
    /// a bare `put` (the engine's own kv tables are private).
    scratch: std::sync::Arc<just_kvstore::Table>,
    scratch_store: just_kvstore::Store,
}

/// Runs the traced replay for every class of the workload's mix.
pub fn traced_run(env: &mut Env) -> Traced {
    let scratch_dir = env.dir.join("trace-scratch-kv");
    let scratch_store =
        just_kvstore::Store::open(&scratch_dir, env.engine.config().store.clone()).expect("store");
    let scratch = scratch_store
        .create_table("puts", env.engine.config().storage.regions)
        .expect("scratch table");
    let mut ctx = Ctx {
        session: env.sessions.session(crate::run::USER),
        remote: env.connect(),
        gen: StmtGen::new(env.seed, env.workload, STREAM_TRACE),
        rec: Recorder::new(),
        samples: Samples::default(),
        records: Vec::new(),
        scratch,
        scratch_store,
        env,
    };
    let mut request = 0;
    for (class, _) in ctx.env.workload.mix {
        let stmts: Vec<Stmt> = (0..STMTS_PER_CLASS)
            .map(|_| ctx.gen.stmt_of(*class))
            .collect();
        // All requests first, back to back like a timed client's, so the
        // connection is in the state the timed run has it in (replays
        // between requests would let a delayed-ACK stall lapse).
        let wire: Vec<Wire> = stmts
            .iter()
            .enumerate()
            .map(|(i, stmt)| ctx.request(request + i, stmt))
            .collect();
        // No-op round trips, for comparison: not part of the budget,
        // because a stall that a fast reply suffers a slow one may not.
        for i in 0..STMTS_PER_CLASS {
            let (ping, _) = ctx.rec.span(request + i, "server.ping_rtt", None, || {
                ctx.remote.ping().expect("ping")
            });
            ctx.samples
                .push(*class, "server.ping_rtt_us", ctx.rec.us(ping));
        }
        for (stmt, wire) in stmts.into_iter().zip(wire) {
            ctx.replay(request, stmt, wire);
            request += 1;
        }
    }
    let gen = ctx.gen;
    let records = ctx.records;
    ctx.env.note_inserts(&gen, &records);
    ctx.scratch_store.shutdown();
    Traced {
        samples: ctx.samples,
        recorder: ctx.rec,
        records,
    }
}

impl Ctx<'_> {
    /// Sends one statement over the wire and records the server's own
    /// measurement of it (one client, so the histogram's new sample is
    /// this request's).
    fn request(&mut self, request: usize, stmt: &Stmt) -> Wire {
        let handled = just_obs::global().histogram("just_server_request_latency_us");
        let handled_before = handled.sum();
        let (remote, result) = self
            .rec
            .span(request, "remote", None, || self.remote.execute(&stmt.sql));
        let handle_us = (handled.sum() - handled_before) as f64;
        let handle = self
            .rec
            .measured(request, "server.handle", remote, handle_us);
        let remote_us = self.rec.us(remote);
        self.samples.push(stmt.class, "remote_us", remote_us);
        let observed = Observed::digest(&stmt.check, result);
        self.records.push(crate::run::OpRecord {
            class: stmt.class,
            latency_us: remote_us,
            check: stmt.check.clone(),
            observed,
        });
        Wire {
            remote,
            handle,
            handle_us,
        }
    }

    /// Replays the stages of a request already made, then probes deeper.
    fn replay(&mut self, request: usize, stmt: Stmt, wire: Wire) {
        let class = stmt.class;
        let Wire {
            remote: remote_span,
            handle: handle_span,
            handle_us,
        } = wire;
        let remote_us = self.rec.us(remote_span);

        // Inserts replay with fresh, identically shaped rows.
        let replay = match &stmt.check {
            Check::Insert { table, .. } => self.gen.insert_stmt(*table),
            _ => stmt.clone(),
        };
        let (encode_req, payload) =
            self.rec
                .span(request, "server.request_encode", Some(remote_span), || {
                    request_encode(&replay.sql)
                });
        let (decode_req, _) =
            self.rec
                .span(request, "server.request_decode", Some(handle_span), || {
                    request_decode(&payload)
                });
        self.samples
            .push(class, "server.request_encode_us", self.rec.us(encode_req));
        self.samples
            .push(class, "server.request_decode_us", self.rec.us(decode_req));
        self.samples
            .push(class, "server.request_bytes", payload.len() as f64);

        // Embedded execution and, inside it, the front-end stages.
        let mut embedded_client = self.env.embedded();
        let (embedded, result) = self.rec.span(request, "embedded", Some(handle_span), || {
            embedded_client.execute(&replay.sql).expect("embedded")
        });
        if let Check::Insert { table, rows, .. } = &replay.check {
            self.env.acked_rows[usize::from(*table == Table::Routes)] += rows;
        }
        let (parse_span, statement) = self.rec.span(request, "ql.parse", Some(embedded), || {
            parse(&replay.sql).expect("parse")
        });
        self.samples
            .push(class, "ql.parse_us", self.rec.us(parse_span));
        if let Statement::Query(select) = &statement {
            let (plan_span, plan) = self.rec.span(request, "ql.plan", Some(embedded), || {
                LogicalPlan::from_select(select).expect("plan")
            });
            let (optimize_span, _) = self.rec.span(request, "ql.optimize", Some(embedded), || {
                just_ql::optimize(plan).expect("optimize")
            });
            self.samples
                .push(class, "ql.plan_us", self.rec.us(plan_span));
            self.samples
                .push(class, "ql.optimize_us", self.rec.us(optimize_span));
        }
        self.samples
            .push(class, "ql.execute_us", self.rec.self_us(embedded));

        // The response's way back.
        let response = Response::Result(result);
        let (encode, bytes) = self
            .rec
            .span(request, "ql.result_encode", Some(remote_span), || {
                response.to_bytes()
            });
        let (frame, payload) =
            self.rec
                .span(request, "server.response_frame", Some(remote_span), || {
                    let mut wire = Vec::with_capacity(bytes.len() + 4);
                    write_frame(&mut wire, &bytes).expect("write to memory");
                    read_frame(&mut wire.as_slice(), MAX_FRAME, &mut || true)
                        .expect("read from memory")
                });
        let (decode, _) = self
            .rec
            .span(request, "ql.result_decode", Some(remote_span), || {
                let text = std::str::from_utf8(&payload).expect("utf-8");
                let json = JsonValue::parse(text).expect("response json");
                Response::from_json(&json).expect("response")
            });
        self.samples
            .push(class, "ql.result_encode_us", self.rec.us(encode));
        self.samples
            .push(class, "server.response_frame_us", self.rec.us(frame));
        self.samples
            .push(class, "ql.result_decode_us", self.rec.us(decode));
        self.samples
            .push(class, "server.response_bytes", bytes.len() as f64);
        if let Response::Result(just_ql::QueryResult::Data(d)) = &response {
            if !d.is_empty() {
                self.samples.push(
                    class,
                    "ql.result_bytes_per_row",
                    bytes.len() as f64 / d.len() as f64,
                );
            }
        }

        self.samples.push(
            class,
            "server.wire_overhead_us",
            self.rec.self_us(remote_span),
        );
        // Signed: negative when the replays ran slower than the request.
        let replayed = self.rec.us(decode_req) + self.rec.us(embedded);
        self.samples.push(
            class,
            "unexplained_share",
            (handle_us - replayed) / remote_us,
        );

        // Deeper probes are roots of their own: they explain
        // `ql.execute`, not the wire.
        match &replay.check {
            Check::Insert { table, .. } => self.probe_insert(request, *table),
            _ => self.probe_select(request, &replay),
        }
    }

    fn table(&self, table: Table) -> std::sync::Arc<StTable> {
        self.env
            .engine
            .table(&self.session.physical(table.name()))
            .expect("open table")
    }

    fn probe_insert(&mut self, request: usize, table: Table) {
        let class = Class::InsertBatch;
        let (first_fid, n) = match self.gen.insert_stmt(table).check {
            Check::Insert {
                first_fid, rows, ..
            } => (first_fid, rows),
            _ => unreachable!("insert_stmt yields an insert check"),
        };
        let seed = self.env.seed;
        let rows: Vec<Row> = (first_fid..first_fid + n)
            .map(|fid| match table {
                Table::Orders => order_row(seed, fid),
                Table::Routes => route_row(seed, fid),
            })
            .collect();
        let st = self.table(table);
        let per_row = |us: f64| us / n as f64;

        let (insert, _) = self.rec.span(request, "storage.insert", None, || {
            self.session.insert(table.name(), &rows).expect("insert")
        });
        self.env.acked_rows[usize::from(table == Table::Routes)] += n;
        let (encode, values) = self.rec.span(request, "storage.row_encode", None, || {
            rows.iter()
                .map(|r| r.encode(st.schema()).expect("encode"))
                .collect::<Vec<_>>()
        });
        let (key, keys) = self.rec.span(request, "storage.key_encode", None, || {
            rows.iter()
                .map(|r| st.strategy().key(&st.meta_of(r).expect("meta")))
                .collect::<Vec<_>>()
        });
        let (put, _) = self.rec.span(request, "kvstore.put", None, || {
            for (k, v) in keys.into_iter().zip(values) {
                self.scratch.put(k, v).expect("put");
            }
        });
        for (name, span) in [
            ("storage.insert_us_per_row", insert),
            ("storage.row_encode_us", encode),
            ("storage.key_encode_us", key),
            ("kvstore.put_us", put),
        ] {
            self.samples.push(class, name, per_row(self.rec.us(span)));
        }
    }

    fn probe_select(&mut self, request: usize, stmt: &Stmt) {
        let class = stmt.class;
        // Operator self times from the engine's own EXPLAIN ANALYZE.
        let mut client = self.env.embedded();
        let (_, (_, trace)) = self.rec.span(request, "ql.explain_analyze", None, || {
            client.explain_analyze(&stmt.sql).expect("explain analyze")
        });
        self.push_operator_times(class, &trace);

        // Index planning and the scan under the refine step, for the
        // statements whose scan has a window.
        let (table, rect, time) = match &stmt.check {
            Check::Range { table, rect, time } => (*table, rect, *time),
            Check::Topk { rect } => (Table::Orders, rect, None),
            _ => return,
        };
        let rect = Rect::new(rect.x0, rect.y0, rect.x1, rect.y1);
        let st = self.table(table);
        let primary = *st.strategy();
        // Spatial-only queries on a temporal primary go to the
        // secondary spatial index.
        let strategy = match (time, primary.kind()) {
            (None, IndexKind::Z2t) => {
                IndexStrategy::new(IndexKind::Z2, primary.period(), primary.shards())
            }
            (None, IndexKind::Xz2t) => {
                IndexStrategy::new(IndexKind::Xz2, primary.period(), primary.shards())
            }
            _ => primary,
        };
        let opts = RangeOptions::default();
        let (t0, t1) = time.unwrap_or((0, 0));
        let (decompose, curve_ranges) = self.rec.span(request, "curves.decompose", None, || {
            match strategy.kind() {
                IndexKind::Z2t => Z2t::new(strategy.period())
                    .ranges(&rect, t0, t1, &opts)
                    .len(),
                IndexKind::Xz2t => Xz2t::new(strategy.period())
                    .ranges(&rect, t0, t1, &opts)
                    .len(),
                IndexKind::Z2 => Z2::default().ranges(&rect, &opts).len(),
                IndexKind::Xz2 => Xz2::default().ranges(&rect, &opts).len(),
                other => unreachable!("benchmark tables never use {other:?}"),
            }
        });
        let (plan, key_ranges) = self.rec.span(request, "storage.plan", None, || {
            strategy.plan(Some(&rect), time).ranges.len()
        });
        let (raw, keys) = self.rec.span(request, "kvstore.raw_scan", None, || {
            let mut stream = st.query_raw_stream(Some(&rect), time, ScanOptions::default());
            let mut keys = 0usize;
            while let Some(batch) = stream.next_batch().expect("raw scan") {
                keys += batch.len();
            }
            keys
        });
        let (refined, rows) = self.rec.span(request, "storage.query_stream", None, || {
            let mut stream = st.query_stream(
                Some(&rect),
                time,
                SpatialPredicate::Within,
                None,
                ScanOptions::default(),
            );
            let mut rows = 0usize;
            while let Some(batch) = stream.next_batch().expect("query stream") {
                rows += batch.len();
            }
            rows
        });
        let s = &mut self.samples;
        s.push(class, "curves.decompose_us", self.rec.us(decompose));
        match strategy.kind() {
            IndexKind::Z2t => s.push(class, "curves.z2t_ranges_per_query", curve_ranges as f64),
            IndexKind::Xz2t => s.push(class, "curves.xz2t_ranges_per_query", curve_ranges as f64),
            _ => {}
        }
        s.push(class, "storage.plan_us", self.rec.us(plan));
        s.push(class, "storage.key_ranges_per_query", key_ranges as f64);
        s.push(class, "kvstore.raw_scan_us", self.rec.us(raw));
        s.push(
            class,
            "storage.refine_decode_us",
            (self.rec.us(refined) - self.rec.us(raw)).max(0.0),
        );
        s.push(
            class,
            "storage.keys_scanned_per_row_returned",
            keys as f64 / rows.max(1) as f64,
        );
    }

    /// Sums operator self times of an `EXPLAIN ANALYZE` trace by kind.
    fn push_operator_times(&mut self, class: Class, trace: &just_obs::Trace) {
        let root = trace.root();
        let Some(execute) = trace
            .children(root)
            .into_iter()
            .find(|&s| trace.name(s) == "execute")
        else {
            return;
        };
        let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut stack = trace.children(execute);
        while let Some(span) = stack.pop() {
            let children = trace.children(span);
            let child_time: f64 = children
                .iter()
                .map(|&c| trace.elapsed(c).as_secs_f64())
                .sum();
            let self_us = (trace.elapsed(span).as_secs_f64() - child_time).max(0.0) * 1e6;
            let name = trace.name(span);
            let attr = |a: &str| trace.attr(span, a).unwrap_or(0) as f64;
            let rows = trace.rows(span).unwrap_or(0) as f64;
            let kind = if name.starts_with("Scan") {
                "ql.op.scan_us"
            } else if name.starts_with("hash_join") || name.starts_with("Join") {
                self.samples.push(
                    class,
                    "exec.join_probe_rows_per_result",
                    attr("probe_rows") / rows.max(1.0),
                );
                "ql.op.join_us"
            } else if name.starts_with("Aggregate") {
                "ql.op.aggregate_us"
            } else if name.starts_with("topk") || name.starts_with("Sort") {
                let input: f64 = children
                    .iter()
                    .map(|&c| trace.rows(c).unwrap_or(0) as f64)
                    .sum();
                self.samples.push(
                    class,
                    "exec.topk_rows_pruned_share",
                    attr("rows_pruned") / input.max(1.0),
                );
                "ql.op.topk_us"
            } else if name.starts_with("Knn") {
                self.samples.push(
                    class,
                    "core.knn_keys_scanned_per_result",
                    attr("keys_scanned") / rows.max(1.0),
                );
                self.samples
                    .push(class, "core.knn_key_ranges", attr("key_ranges"));
                "core.knn_us"
            } else {
                // Filter, Project, FilterProject, Limit.
                "ql.op.filter_project_us"
            };
            *sums.entry(kind).or_default() += self_us;
            stack.extend(children);
        }
        for (kind, us) in sums {
            self.samples.push(class, kind, us);
        }
    }
}
