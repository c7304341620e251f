//! The plan executor ("SQL Execute"): spatio-temporal predicates are
//! served by the storage indexes; relational operators run on the
//! in-memory DataFrame engine (this repository's Spark SQL).
//!
//! Execution has one shape: a pull pipeline of batches. The executor
//! opens every plan node, inputs first, into an [`Op`] — a span, an
//! output header and a stage whose `next` pulls batches from its inputs;
//! each [`LogicalPlan`] variant is one stage:
//! - **sources**: the stored-table scan, the view scan, `Values` and
//!   `Knn`;
//! - **streaming stages**, one output batch per input batch: `Filter`,
//!   `Project` with or without a fused predicate (1-N table functions
//!   included) and `Limit`, which closes its input once satisfied, so the
//!   scan under it stops reading;
//! - **joins**, which drain their right input into memory, then stream
//!   the left one through it;
//! - **drains** (`Aggregate`, `Sort` — TOP-K when limited — and
//!   `st_DBSCAN`; see [`crate::sink`]), which pull their whole input,
//!   then emit.
//!
//! Opening a plan compiles its programs and opens its scan streams but
//! does no other work: rows, blocks and k-NN searches wait for the first
//! pull. Plain `EXPLAIN` ([`Executor::explain`]) therefore opens the same
//! pipeline, prints each operator's label and the programs its stage
//! compiled, and closes it unpulled.
//!
//! Only a join's right side and a drain's state are ever held whole; the
//! root's batches go to the caller as they arrive. A TOP-K over a stored
//! scan, directly or through pure-column projects, hands the scan its
//! heap's threshold as a [`RowGate`] with every pull.
//!
//! Every expression-bearing operator compiles its expressions into
//! `just-exec` bytecode when it opens, before any row is read — which is
//! also where analysis errors surface (see [`crate::compile`]) — and
//! evaluates batches through the vectorized VM. A program is compiled
//! from the input's column names alone, so a stored scan, a view and an
//! intermediate relation get the same opcodes. Three places evaluate
//! row-at-a-time with `eval()` because they are the only path for their
//! input, each after the same up-front analysis: the nested-loop join
//! (non-equi `ON`, unhashable key classes — its coercing comparator is
//! the semantics), and the arguments of 1-N table functions and
//! `st_DBSCAN`. The tree-walking operators the VM replaced live on as
//! the test oracle in [`crate::reference`]; nothing here calls them.

use crate::ast::{BinOp, Expr};
use crate::compile::compile;
use crate::error::QlError;
use crate::functions::{self, eval, exec_err, resolve_column, truthy};
use crate::plan::LogicalPlan;
use crate::sink::{Aggregation, Dbscan, Sink, TopK};
use crate::Result;
use just_core::{Dataset, Engine, Session};
use just_exec::{full_selection, keys_hashable, JoinHash, Program, Vm};
use just_geo::{Geometry, Point};
use just_obs::{Counter, SpanId, Trace};
use just_storage::{CancelToken, QueryStream, Row, RowGate, SpatialPredicate, Value};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Rows per batch for the sources that hold their rows in memory (views,
/// `Values`, `Knn`) and for a drain's output; stored-table scans use the
/// storage stream's own batching.
const BATCH: usize = 1024;

/// Handles to the process-wide counters the operators bump, resolved
/// once.
pub(crate) struct ExecObs {
    key_ranges: Counter,
    keys_scanned: Counter,
    rows_pruned_pushdown: Counter,
    rows_gated: Counter,
    join_build_rows: Counter,
    join_probe_rows: Counter,
    join_fallbacks: Counter,
    topk_queries: Counter,
    pub(crate) topk_rows_pruned: Counter,
}

pub(crate) fn exec_obs() -> &'static ExecObs {
    static OBS: OnceLock<ExecObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let obs = just_obs::global();
        ExecObs {
            key_ranges: obs.counter("just_index_ranges_generated"),
            keys_scanned: obs.counter("just_index_keys_scanned"),
            rows_pruned_pushdown: obs.counter("just_storage_rows_pruned_pushdown"),
            rows_gated: obs.counter("just_storage_rows_gated"),
            join_build_rows: obs.counter("just_exec_join_build_rows"),
            join_probe_rows: obs.counter("just_exec_join_probe_rows"),
            join_fallbacks: obs.counter("just_exec_join_fallbacks"),
            topk_queries: obs.counter("just_exec_topk_queries"),
            topk_rows_pruned: obs.counter("just_exec_topk_rows_pruned"),
        }
    })
}

/// Fails with [`QlError::Cancelled`] once the query's kill token is set.
fn check_kill(kill: Option<&CancelToken>) -> Result<()> {
    match kill {
        Some(k) if k.is_cancelled() => Err(QlError::Cancelled("killed via KILL QUERY".into())),
        _ => Ok(()),
    }
}

/// A pull's answer: the next batch of rows, or `None` once there are no
/// more.
type Batch = Result<Option<Vec<Row>>>;

/// TOP-K's threshold, handed down with a pull to the stored scan under it.
type Gate<'a, 'b> = Option<&'a mut (dyn RowGate + 'b)>;

/// The pull over a running plan's output batches.
pub(crate) type Pull<'p> = &'p mut dyn FnMut() -> Batch;

/// Collects a running plan's rows: the consumer of [`Executor::run`].
pub(crate) fn collect(columns: &[String], next: Pull) -> Result<Dataset> {
    let mut rows = Vec::new();
    while let Some(batch) = next()? {
        rows.extend(batch);
    }
    Ok(Dataset::new(columns.to_vec(), rows))
}

/// Executes logical plans against one session.
pub(crate) struct Executor<'a> {
    session: &'a Session,
    kill: Option<CancelToken>,
}

impl<'a> Executor<'a> {
    /// Creates an executor for the session, with the query-level kill
    /// token (from the live query registry) when the query has one. Every
    /// operator checks it before every pull; once cancelled, execution
    /// stops with [`QlError::Cancelled`] and closing the pipeline drops
    /// any in-flight scan stream, so its disk IO stops too. This token is
    /// distinct from a stream's own cancel token: a satisfied LIMIT must
    /// not poison the query's other scans.
    pub(crate) fn new(session: &'a Session, kill: Option<CancelToken>) -> Self {
        Executor { session, kill }
    }

    /// Runs a plan to completion under `parent` and collects its rows.
    pub(crate) fn run(
        &self,
        plan: &LogicalPlan,
        trace: &mut Trace,
        parent: SpanId,
    ) -> Result<Dataset> {
        self.stream(plan, trace, parent, collect)
    }

    /// Opens `plan` under `parent`, hands `consume` the root's header and
    /// a pull over its output batches, then closes every operator — after
    /// the last batch, an error, a kill or an early stop alike.
    ///
    /// Every operator records one span: its label, output rows (none once
    /// it failed), its time — the time spent inside its own open, pulls
    /// and close, inputs included, since a pipelined operator's calls
    /// interleave with its neighbours' — and its attributes. The leaves
    /// that read the store (`Scan`, `Knn`) carry the exact IO delta
    /// (blocks read, cache hits, bytes) and index selectivity (key ranges
    /// generated, keys scanned) of the calls into them; joins carry their
    /// build/probe row counts and TOP-K the rows it pruned. The deltas are
    /// of process-wide counters, so concurrent sessions pollute them.
    pub(crate) fn stream<T>(
        &self,
        plan: &LogicalPlan,
        trace: &mut Trace,
        parent: SpanId,
        consume: impl FnOnce(&[String], Pull) -> Result<T>,
    ) -> Result<T> {
        let mut root = self.open(plan, trace, parent)?;
        let columns = root.columns.clone();
        let out = consume(&columns, &mut || root.next(trace, None));
        root.close(trace);
        out
    }

    /// Plain `EXPLAIN`: opens `plan` as [`Executor::stream`] would, renders
    /// the pipeline it opened — each operator's label and the programs its
    /// stage compiled — and closes it unpulled, so no row is read and no
    /// k-NN runs. A query that fails to open fails here with the same
    /// error.
    pub(crate) fn explain(&self, plan: &LogicalPlan) -> Result<String> {
        let mut trace = Trace::new("explain");
        let root = trace.root();
        let mut op = self.open(plan, &mut trace, root)?;
        let mut out = String::new();
        op.explain(&trace, 0, &mut out);
        op.close(&mut trace);
        Ok(out)
    }

    /// Opens `plan`, its inputs first: every program compiles and every
    /// scan opens before any row is read. When an operator fails to open,
    /// the inputs it opened close, and its own span closes without a row
    /// count but with its counter deltas.
    fn open(&self, plan: &LogicalPlan, trace: &mut Trace, parent: SpanId) -> Result<Op> {
        check_kill(self.kill.as_ref())?;
        let span = trace.start(plan.label(), parent);
        let mut inputs: Vec<Op> = Vec::new();
        let mut cost = Cost {
            busy: Duration::ZERO,
            store: matches!(plan, LogicalPlan::Scan { .. } | LogicalPlan::Knn { .. })
                .then(|| Arc::clone(self.session.engine())),
            deltas: [0; METERED],
        };
        let opened = cost.charge(|| {
            for child in plan.children() {
                inputs.push(self.open(child, trace, span)?);
            }
            self.stage(plan, &inputs)
        });
        match opened {
            Ok((columns, stage)) => Ok(Op {
                columns,
                span,
                inputs,
                stage,
                kill: self.kill.clone(),
                cost,
                rows: 0,
                failed: false,
                closed: false,
            }),
            Err(e) => {
                for mut input in inputs {
                    input.close(trace);
                }
                cost.report(trace, span);
                trace.end(span, Some(cost.busy));
                Err(e)
            }
        }
    }

    /// Builds `plan`'s own stage over its opened `inputs` (in
    /// [`LogicalPlan::children`] order), with its output header.
    fn stage(&self, plan: &LogicalPlan, inputs: &[Op]) -> Result<(Vec<String>, Box<dyn Stage>)> {
        let input = || &inputs[0].columns;
        Ok(match plan {
            LogicalPlan::Scan { .. } => self.scan(plan)?,
            LogicalPlan::Values { columns, rows } => {
                let mut out = Vec::with_capacity(rows.len());
                for exprs in rows {
                    let values = exprs.iter().map(functions::eval_const);
                    out.push(Row::new(values.collect::<Result<_>>()?));
                }
                (columns.clone(), Box::new(Rows(out.into_iter())))
            }
            LogicalPlan::Knn { table, lng, lat, k } => {
                // The header `Engine::knn` answers with: the table's fields
                // and the distance.
                let def = self.session.describe(table)?;
                let mut columns: Vec<String> =
                    def.schema.fields().iter().map(|f| f.name.clone()).collect();
                columns.push("distance".into());
                let knn = Knn {
                    engine: Arc::clone(self.session.engine()),
                    table: self.session.physical(table),
                    q: Point::new(*lng, *lat),
                    k: *k,
                    rows: None,
                };
                (columns, Box::new(knn))
            }
            // A filter is the identity projection behind its predicate.
            LogicalPlan::Filter { predicate, .. } => {
                project(input(), Some(predicate), &[(Expr::Star, String::new())])?
            }
            LogicalPlan::Project {
                predicate, items, ..
            } => project(input(), predicate.as_ref(), items)?,
            LogicalPlan::Limit { n, .. } => (input().clone(), Box::new(Limit(*n))),
            LogicalPlan::Join { keys, residual, .. } => {
                Join::open(input(), &inputs[1].columns, keys, residual)?
            }
            LogicalPlan::Aggregate {
                group_by,
                aggregates,
                ..
            } => {
                let sink = Aggregation::new(input(), group_by, aggregates)?;
                let mut columns: Vec<String> = group_by.iter().map(|(_, n)| n.clone()).collect();
                columns.extend(aggregates.iter().map(|(_, _, n)| n.clone()));
                (columns, drain(sink, None))
            }
            // A sort is TOP-K with `k = usize::MAX`; only a limited one
            // gates the scan under it.
            LogicalPlan::Sort { keys, limit, .. } => {
                let stored = |c| limit.and(inputs[0].stored_field(c));
                let sink = TopK::new(input(), keys, limit.unwrap_or(usize::MAX), stored)?;
                let counter = limit.map(|_| &exec_obs().topk_queries);
                (input().clone(), drain(sink, counter))
            }
        })
    }

    /// Opens the scan `plan` of a stored table or, when the name is a
    /// view's, of the view (views are looked up first; they shadow
    /// nothing: names are namespaced apart).
    fn scan(&self, plan: &LogicalPlan) -> Result<(Vec<String>, Box<dyn Stage>)> {
        let LogicalPlan::Scan {
            table,
            alias,
            projection,
            spatial,
            time,
            residual,
            ..
        } = plan
        else {
            unreachable!("scan is given a Scan");
        };
        let (input, names, preds) = match self.session.view(table) {
            Ok(data) => {
                let names = data.columns.clone();
                let preds = view_preds(spatial, time, residual);
                (ScanInput::View { data, at: 0 }, names, preds)
            }
            Err(_) => {
                let (stream, names, preds) = open_stored_scan(self.session, plan)?;
                (ScanInput::Stored(Some(Box::new(stream))), names, preds)
            }
        };
        // Compile every in-memory predicate once for the whole scan.
        let (labels, preds): (Vec<_>, Vec<_>) = preds.into_iter().unzip();
        let progs = preds.iter().map(|p| compile(p, &names));
        let progs = progs.collect::<Result<Vec<Program>>>()?;
        let (keep, columns) = scan_header(&names, projection, alias);
        let vm = Vm::new();
        Ok((
            columns,
            Box::new(Scan {
                input,
                labels,
                progs,
                vm,
                keep,
            }),
        ))
    }
}

/// One opened plan node: its span, its output header, its opened inputs
/// and the stage that turns their batches into its own.
struct Op {
    /// The output header.
    columns: Vec<String>,
    span: SpanId,
    inputs: Vec<Op>,
    stage: Box<dyn Stage>,
    kill: Option<CancelToken>,
    cost: Cost,
    /// Rows emitted so far.
    rows: u64,
    failed: bool,
    closed: bool,
}

impl Op {
    /// The next non-empty batch of output rows, or `None` once the
    /// operator ran dry or was closed. `gate` is TOP-K's threshold; only
    /// a chain that answers [`Op::stored_field`] passes it on to its scan.
    /// The query's kill token is checked before every pull.
    fn next(&mut self, trace: &mut Trace, mut gate: Gate) -> Batch {
        if self.closed {
            return Ok(None);
        }
        let batch = self.cost.charge(|| loop {
            check_kill(self.kill.as_ref())?;
            match self
                .stage
                .next(&mut self.inputs, trace, gate.as_deref_mut())?
            {
                Some(rows) if rows.is_empty() => {}
                batch => return Ok(batch),
            }
        });
        match &batch {
            Ok(rows) => self.rows += rows.as_ref().map_or(0, Vec::len) as u64,
            Err(_) => self.failed = true,
        }
        batch
    }

    /// The stored field a gateable scan emits in output column `c`: what
    /// TOP-K's [`RowGate`] reads. `None` past anything but pure-column
    /// projects.
    fn stored_field(&self, c: usize) -> Option<usize> {
        self.stage.stored_field(&self.inputs, c)
    }

    /// Appends the operator's `EXPLAIN` lines at `depth`, then its
    /// inputs': its label, and each program its stage compiled with the
    /// program's listing.
    fn explain(&self, trace: &Trace, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth);
        out.push_str(&format!("{pad}{}\n", trace.name(self.span)));
        for (label, prog) in self.stage.programs(&self.columns) {
            out.push_str(&format!("{pad}  program {label}:\n"));
            for line in prog.listing() {
                out.push_str(&format!("{pad}    {line}\n"));
            }
        }
        for input in &self.inputs {
            input.explain(trace, depth + 1, out);
        }
    }

    /// Closes the operator, inputs first: releases what it holds — a scan
    /// drops its stream, so one stopped early counts an early termination
    /// — and closes its span. Closing twice does nothing.
    fn close(&mut self, trace: &mut Trace) {
        if std::mem::replace(&mut self.closed, true) {
            return;
        }
        let mut attrs = Vec::new();
        self.cost.charge(|| {
            for input in &mut self.inputs {
                input.close(trace);
            }
            self.stage.close(&mut attrs)
        });
        if !self.failed {
            trace.set_rows(self.span, self.rows);
        }
        for (name, value) in attrs {
            trace.add_attr(self.span, name, value);
        }
        self.cost.report(trace, self.span);
        trace.end(self.span, Some(self.cost.busy));
    }
}

/// What one operator does with its inputs' batches.
trait Stage {
    /// The stage's next batch, pulled from `inputs` (an empty one is
    /// skipped by [`Op::next`]), or `None` once it has no more.
    fn next(&mut self, inputs: &mut [Op], trace: &mut Trace, gate: Gate) -> Batch;

    /// See [`Op::stored_field`].
    fn stored_field(&self, _inputs: &[Op], _c: usize) -> Option<usize> {
        None
    }

    /// The programs the stage compiled, each with its label, given the
    /// operator's output `header`: what plain `EXPLAIN` lists.
    fn programs(&self, _header: &[String]) -> Vec<(String, &Program)> {
        Vec::new()
    }

    /// Releases what the stage holds and appends the span attributes it
    /// reports.
    fn close(&mut self, _attrs: &mut Vec<(&'static str, u64)>) {}
}

/// The counters a store-reading leaf reports, in [`reading`]'s order.
const METERED: usize = 13;

/// What an operator's calls cost: their summed time and, for a leaf that
/// reads the store, the counter deltas they caused. Summing over the
/// calls — its open, each pull, its close — keeps the reads of whatever
/// runs between its pulls out of its deltas.
struct Cost {
    busy: Duration,
    store: Option<Arc<Engine>>,
    deltas: [u64; METERED],
}

impl Cost {
    /// Runs one call into the operator, charging it what `f` costs.
    fn charge<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let was = self.store.as_deref().map(reading);
        let out = f();
        if let (Some(engine), Some(was)) = (&self.store, was) {
            let now = reading(engine);
            for ((delta, now), was) in self.deltas.iter_mut().zip(now).zip(was) {
                *delta += now - was;
            }
        }
        self.busy += started.elapsed();
        out
    }

    /// Attaches a store-reading leaf's deltas to its span.
    fn report(&self, trace: &mut Trace, span: SpanId) {
        if self.store.is_none() {
            return;
        }
        let [blocks, hits, bytes, batches, early, pruned, gated, bloom, index, memtable, ranges, keys, merges] =
            self.deltas;
        let mut attr = |name, value: u64, always: bool| {
            if always || value > 0 {
                trace.add_attr(span, name, value);
            }
        };
        attr("blocks_read", blocks, true);
        attr("cache_hits", hits, true);
        attr("bytes_read", bytes, true);
        attr("batches_emitted", batches, false);
        attr("scan_early_terminations", early, false);
        attr("rows_pruned_pushdown", pruned, false);
        attr("rows_gated", gated, false);
        // Of all block lookups the leaf issued, the share the block cache
        // absorbed (integer percent).
        if let Some(pct) = (hits * 100).checked_div(blocks + hits) {
            attr("cache_hit_pct", pct, true);
        }
        attr("bloom_skips", bloom, false);
        attr("index_skips", index, false);
        attr("memtable_hits", memtable, false);
        if ranges > 0 {
            attr("key_ranges", ranges, true);
            attr("keys_scanned", keys, true);
        }
        // Region merges the scan opened: one per region it entered,
        // however many of its key ranges fall there.
        attr("merges", merges, ranges > 0);
    }
}

/// The counters [`Cost::report`] reports, read now.
fn reading(engine: &Engine) -> [u64; METERED] {
    let io = engine.io_snapshot();
    let obs = exec_obs();
    [
        io.blocks_read,
        io.cache_hits,
        io.bytes_read,
        io.batches_emitted,
        io.scan_early_terminations,
        obs.rows_pruned_pushdown.get(),
        obs.rows_gated.get(),
        io.bloom_skips,
        io.index_skips,
        io.memtable_hits,
        obs.key_ranges.get(),
        obs.keys_scanned.get(),
        io.scan_merges,
    ]
}

/// Rows held in memory, emitted [`BATCH`] at a time: `Values`, `Knn`'s
/// neighbours and a drain's output.
struct Rows(std::vec::IntoIter<Row>);

impl Stage for Rows {
    fn next(&mut self, _: &mut [Op], _: &mut Trace, _: Gate) -> Batch {
        let batch: Vec<Row> = self.0.by_ref().take(BATCH).collect();
        Ok((!batch.is_empty()).then_some(batch))
    }
}

/// k-NN (Algorithm 1) over the stored table `table` (its physical name),
/// run on the first pull.
struct Knn {
    engine: Arc<Engine>,
    table: String,
    q: Point,
    k: usize,
    rows: Option<Rows>,
}

impl Stage for Knn {
    fn next(&mut self, inputs: &mut [Op], trace: &mut Trace, gate: Gate) -> Batch {
        if self.rows.is_none() {
            let found = self.engine.knn(&self.table, self.q, self.k)?;
            self.rows = Some(Rows(found.rows.into_iter()));
        }
        let rows = self.rows.as_mut().expect("k-NN ran");
        rows.next(inputs, trace, gate)
    }
}

/// Where a scan's rows come from.
enum ScanInput {
    /// A stored table's storage stream; `None` once released.
    Stored(Option<Box<QueryStream>>),
    /// A view's cached rows, from row `at` on.
    View { data: Arc<Dataset>, at: usize },
}

/// A table or view scan. For a stored table the indexed spatio-temporal
/// predicate and the column projection run *inside* the storage decode;
/// every other predicate runs in memory per batch. A view's rows are
/// filtered by reference and only survivors are cloned out. A pushed-down
/// `LIMIT` only sizes the storage batches: the `Limit` above, which the
/// optimizer keeps, closes the scan — stopping block reads mid-range — as
/// soon as enough rows have surfaced.
struct Scan {
    input: ScanInput,
    /// What each in-memory predicate is: `spatial`, `time` or `residual`.
    labels: Vec<&'static str>,
    progs: Vec<Program>,
    vm: Vm,
    /// Input columns the advisory projection keeps (`None` = all).
    keep: Option<Vec<usize>>,
}

impl Stage for Scan {
    fn next(&mut self, _: &mut [Op], _: &mut Trace, gate: Gate) -> Batch {
        let rows = match &mut self.input {
            ScanInput::Stored(None) => return Ok(None),
            ScanInput::Stored(Some(stream)) => {
                let next = stream.next_batch_gated(gate);
                let Some(batch) = next.map_err(just_core::CoreError::Storage)? else {
                    return Ok(None);
                };
                let sel = select_rows(&mut self.vm, &self.progs, &batch)?;
                take_selected(batch, &sel)
            }
            ScanInput::View { data, at } => {
                let chunk = &data.rows[*at..data.rows.len().min(*at + BATCH)];
                if chunk.is_empty() {
                    return Ok(None);
                }
                *at += chunk.len();
                let sel = select_rows(&mut self.vm, &self.progs, chunk)?;
                sel.iter().map(|&i| chunk[i as usize].clone()).collect()
            }
        };
        Ok(Some(keep_columns(rows, &self.keep)))
    }

    /// Only a stored scan that emits its values unfiltered may be gated.
    fn stored_field(&self, _: &[Op], c: usize) -> Option<usize> {
        let gateable = matches!(self.input, ScanInput::Stored(_)) && self.progs.is_empty();
        gateable.then(|| self.keep.as_ref().map_or(c, |keep| keep[c]))
    }

    fn programs(&self, _: &[String]) -> Vec<(String, &Program)> {
        let labels = self.labels.iter().map(|l| l.to_string());
        labels.zip(&self.progs).collect()
    }

    fn close(&mut self, _: &mut Vec<(&'static str, u64)>) {
        if let ScanInput::Stored(stream) = &mut self.input {
            *stream = None;
        }
    }
}

/// `Filter`, `Project` and the fused `FilterProject`: each batch runs the
/// predicate's selection and the projection programs in one pass, so the
/// filtered relation is never materialized and computed items only
/// evaluate over surviving rows. Output rows are assembled by moving
/// values out of the computed columns (passthrough items clone from the
/// input row); an identity projection just keeps the selected rows.
struct Map {
    pred: Option<Program>,
    plans: Vec<ProjectItem>,
    progs: Vec<(usize, Program)>,
    identity: bool,
    /// Whether every output column is an input column, unfiltered.
    pure: bool,
    vm: Vm,
}

impl Stage for Map {
    fn next(&mut self, inputs: &mut [Op], trace: &mut Trace, gate: Gate) -> Batch {
        let gate = if self.pure { gate } else { None };
        let Some(batch) = inputs[0].next(trace, gate)? else {
            return Ok(None);
        };
        let sel = select_rows(&mut self.vm, self.pred.as_slice(), &batch)?;
        if self.identity {
            return Ok(Some(take_selected(batch, &sel)));
        }
        let mut computed: Vec<Vec<Value>> = vec![Vec::new(); self.plans.len()];
        for (idx, prog) in &self.progs {
            let col = &mut computed[*idx];
            self.vm.eval(prog, &batch, &sel, col).map_err(exec_err)?;
        }
        let mut rows = Vec::with_capacity(sel.len());
        for (j, &lane) in sel.iter().enumerate() {
            let row = &batch[lane as usize];
            let values = self
                .plans
                .iter()
                .zip(&mut computed)
                .map(|(p, col)| match p {
                    ProjectItem::Passthrough(c) => row.values[*c].clone(),
                    ProjectItem::Compute(_) => std::mem::replace(&mut col[j], Value::Null),
                });
            rows.push(Row::new(values.collect()));
        }
        Ok(Some(rows))
    }

    fn stored_field(&self, inputs: &[Op], c: usize) -> Option<usize> {
        match self.plans[c] {
            ProjectItem::Passthrough(i) if self.pure => inputs[0].stored_field(i),
            _ => None,
        }
    }

    fn programs(&self, header: &[String]) -> Vec<(String, &Program)> {
        let items = self.progs.iter().map(|(i, p)| (header[*i].clone(), p));
        predicate(&self.pred).chain(items).collect()
    }
}

/// A fused predicate's program, labelled for `EXPLAIN`.
pub(crate) fn predicate(pred: &Option<Program>) -> impl Iterator<Item = (String, &Program)> {
    pred.iter().map(|p| ("predicate".to_string(), p))
}

/// A 1-N table function over the rows passing the fused predicate: one
/// input row yields a variable number of output rows, its arguments
/// evaluated row-at-a-time.
struct Expand {
    pred: Option<Program>,
    name: String,
    args: Vec<Expr>,
    input: Vec<String>,
    vm: Vm,
}

impl Stage for Expand {
    fn next(&mut self, inputs: &mut [Op], trace: &mut Trace, _: Gate) -> Batch {
        let Some(batch) = inputs[0].next(trace, None)? else {
            return Ok(None);
        };
        let mut rows = Vec::new();
        for lane in select_rows(&mut self.vm, self.pred.as_slice(), &batch)? {
            let row = &batch[lane as usize].values;
            let vals = self.args.iter().map(|a| eval(a, row, &self.input));
            let expanded = functions::table_function(&self.name, vals.collect::<Result<_>>()?)?;
            rows.extend(expanded.into_iter().map(Row::new));
        }
        Ok(Some(rows))
    }

    fn programs(&self, _: &[String]) -> Vec<(String, &Program)> {
        predicate(&self.pred).collect()
    }
}

/// `LIMIT n`: passes rows on until `n` have gone by, then closes its
/// input, so the scans under it stop reading.
struct Limit(usize);

impl Stage for Limit {
    fn next(&mut self, inputs: &mut [Op], trace: &mut Trace, _: Gate) -> Batch {
        let pull = (self.0 > 0).then(|| inputs[0].next(trace, None));
        let mut batch = pull.transpose()?.flatten();
        if let Some(rows) = &mut batch {
            rows.truncate(self.0);
            self.0 -= rows.len();
        }
        if self.0 == 0 {
            inputs[0].close(trace);
        }
        Ok(batch)
    }
}

/// A drain: pulls its whole input into a [`Sink`] — handing the sink's
/// gate down with every pull — closes the input, then emits the sink's
/// output. `counter` counts the drain once, when it first runs.
struct Drain<S> {
    sink: S,
    out: Option<Rows>,
    counter: Option<&'static Counter>,
}

fn drain(sink: impl Sink + 'static, counter: Option<&'static Counter>) -> Box<dyn Stage> {
    Box::new(Drain {
        sink,
        out: None,
        counter,
    })
}

impl<S: Sink> Stage for Drain<S> {
    fn next(&mut self, inputs: &mut [Op], trace: &mut Trace, gate: Gate) -> Batch {
        if self.out.is_none() {
            if let Some(counter) = self.counter.take() {
                counter.inc();
            }
            while let Some(batch) = inputs[0].next(trace, self.sink.gate())? {
                self.sink.push(batch)?;
            }
            inputs[0].close(trace);
            self.out = Some(Rows(self.sink.finish().into_iter()));
        }
        let out = self.out.as_mut().expect("drained");
        out.next(inputs, trace, gate)
    }

    fn programs(&self, _: &[String]) -> Vec<(String, &Program)> {
        self.sink.programs()
    }

    fn close(&mut self, attrs: &mut Vec<(&'static str, u64)>) {
        self.out = None;
        self.sink.report(attrs);
    }
}

/// A scan's predicates run in memory per batch, each with what it is:
/// `spatial`, `time` or `residual`.
pub(crate) type ScanPreds = Vec<(&'static str, Expr)>;

/// The pushed-down predicates as expressions run in memory per batch,
/// as all of a view scan's are.
pub(crate) fn view_preds(
    spatial: &Option<(String, just_geo::Rect)>,
    time: &Option<(String, i64, i64)>,
    residual: &Option<Expr>,
) -> ScanPreds {
    let mut preds = Vec::new();
    if let Some((col, rect)) = spatial {
        preds.push(("spatial", spatial_expr(col, *rect)));
    }
    if let Some((col, lo, hi)) = time {
        preds.push(("time", temporal_expr(col, *lo, *hi)));
    }
    preds.extend(residual.clone().map(|r| ("residual", r)));
    preds
}

/// The header a scan emits over the input header `input` — the one rule
/// the executor and the reference scan share. The column projection is
/// advisory: names the relation doesn't have are skipped (they can be
/// outer-query names when a subquery renamed things), and when none
/// resolves every column is kept; the alias then prefixes each name. Returns the input indices to keep (`None` = all)
/// and the header.
pub(crate) fn scan_header(
    input: &[String],
    projection: &Option<Vec<String>>,
    alias: &Option<String>,
) -> (Option<Vec<usize>>, Vec<String>) {
    let keep: Vec<usize> = projection
        .iter()
        .flatten()
        .filter_map(|c| resolve_column(c, input).ok())
        .collect();
    let keep = (!keep.is_empty()).then_some(keep);
    let kept: Vec<&String> = match &keep {
        Some(keep) => keep.iter().map(|&i| &input[i]).collect(),
        None => input.iter().collect(),
    };
    let header = kept
        .into_iter()
        .map(|c| match alias {
            Some(alias) => format!("{alias}.{c}"),
            None => c.clone(),
        })
        .collect();
    (keep, header)
}

/// The rows cut down to the columns `keep` names (`None` = all).
pub(crate) fn keep_columns(rows: Vec<Row>, keep: &Option<Vec<usize>>) -> Vec<Row> {
    match keep {
        Some(keep) => rows
            .into_iter()
            .map(|r| Row::new(keep.iter().map(|&i| r.values[i].clone()).collect()))
            .collect(),
        None => rows,
    }
}

/// Opens the stored-table scan `scan`'s storage stream with everything
/// the index can serve pushed into it (the spatio-temporal window on the
/// indexed fields, the column projection, a batch size sized to the
/// limit), and returns it with its header and the predicates left to run
/// in memory per batch.
pub(crate) fn open_stored_scan(
    session: &Session,
    scan: &LogicalPlan,
) -> Result<(QueryStream, Vec<String>, ScanPreds)> {
    let LogicalPlan::Scan {
        table,
        projection,
        spatial,
        time,
        residual,
        limit,
        ..
    } = scan
    else {
        unreachable!("open_stored_scan is given a Scan");
    };
    let def = session.describe(table)?;
    let fields = def.schema.fields();
    let matches_name = |col: &str, field: &str| {
        col.eq_ignore_ascii_case(field)
            || col
                .to_ascii_lowercase()
                .ends_with(&format!(".{}", field.to_ascii_lowercase()))
    };
    let indexed =
        |col: &str, i: Option<usize>| i.is_some_and(|i| matches_name(col, &fields[i].name));
    let spatial_ok = spatial
        .as_ref()
        .filter(|(col, _)| indexed(col, def.schema.geom_index()));
    let time_ok = time
        .as_ref()
        .filter(|(col, ..)| indexed(col, def.schema.time_index()));

    // Resolve the projected column names onto schema field indices so
    // the storage layer can skip decoding dropped fields. Any name
    // that fails to resolve (outer-query aliases can leak into
    // advisory projections) falls back to decoding everything.
    let proj_indices: Option<Vec<usize>> = projection.as_ref().and_then(|cols| {
        let mut idx = Vec::with_capacity(cols.len());
        for c in cols {
            let i = fields.iter().position(|f| matches_name(c, &f.name))?;
            if !idx.contains(&i) {
                idx.push(i);
            }
        }
        Some(idx)
    });

    let stream_spatial = match (spatial_ok, time_ok) {
        (Some((_, rect)), _) => Some(rect),
        // Time-only predicate: the whole world spatially, so the
        // temporal index still prunes periods.
        (None, Some(_)) => Some(&just_geo::WORLD),
        (None, None) => None,
    };
    let stream_time = time_ok.map(|(_, lo, hi)| (*lo, *hi));
    let mut opts = just_storage::ScanOptions::default();
    if let Some(k) = limit {
        // Don't overfetch: a satisfiable limit should stop within
        // roughly one batch instead of paying for a full default one.
        opts.batch_rows = opts.batch_rows.min((*k).max(1));
    }
    let stream = session.query_stream(
        table,
        stream_spatial,
        stream_time,
        SpatialPredicate::Within,
        proj_indices.as_deref(),
        opts,
    )?;

    // Predicates that didn't match the indexed fields run in memory
    // per batch so results stay correct — and *before* rows count
    // toward the limit.
    let mem_preds = view_preds(
        &spatial.clone().filter(|_| spatial_ok.is_none()),
        &time.clone().filter(|_| time_ok.is_none()),
        residual,
    );
    let names = fields.iter().map(|f| f.name.clone()).collect();
    Ok((stream, names, mem_preds))
}

/// The rows of `rows` every program keeps, by progressive narrowing:
/// each predicate re-examines only the rows its predecessors kept.
pub(crate) fn select_rows(vm: &mut Vm, progs: &[Program], rows: &[Row]) -> Result<Vec<u32>> {
    let mut sel = full_selection(rows.len());
    for prog in progs {
        if sel.is_empty() {
            break;
        }
        let mut next = Vec::with_capacity(sel.len());
        vm.select(prog, rows, &sel, &mut next).map_err(exec_err)?;
        sel = next;
    }
    Ok(sel)
}

/// Moves the rows at the (sorted) selected indices out of `rows` without
/// cloning any surviving row.
fn take_selected(rows: Vec<Row>, sel: &[u32]) -> Vec<Row> {
    if sel.len() == rows.len() {
        return rows;
    }
    let mut out = Vec::with_capacity(sel.len());
    let mut sel = sel.iter().peekable();
    for (i, row) in rows.into_iter().enumerate() {
        if sel.peek() == Some(&&(i as u32)) {
            sel.next();
            out.push(row);
        }
    }
    out
}

fn spatial_expr(col: &str, rect: just_geo::Rect) -> Expr {
    Expr::Binary {
        op: crate::ast::BinOp::Within,
        lhs: Box::new(Expr::Column(col.to_string())),
        rhs: Box::new(Expr::Literal(Value::Geom(Geometry::Rect(rect)))),
    }
}

fn temporal_expr(col: &str, lo: i64, hi: i64) -> Expr {
    Expr::Between {
        expr: Box::new(Expr::Column(col.to_string())),
        lo: Box::new(Expr::Literal(Value::Date(lo))),
        hi: Box::new(Expr::Literal(Value::Date(hi))),
    }
}

/// Raises `expr`'s analysis errors for the operators that evaluate it
/// row-at-a-time with `eval()`: [`compile`] is the one analyzer, so
/// whether a bad name is reported never depends on a row existing. The
/// discarded program still counts in `just_exec_programs_compiled`.
fn analyze(expr: &Expr, columns: &[String]) -> Result<()> {
    compile(expr, columns).map(|_| ())
}

/// The sole projection item when it is a 1-N table function or
/// `st_DBSCAN`, as `(name, args)`: those expand or regroup rows instead
/// of computing a column.
pub(crate) fn row_function(items: &[(Expr, String)]) -> Option<(&str, &[Expr])> {
    match items {
        [(Expr::Func { name, args }, _)]
            if functions::is_table_function(name) || functions::is_cluster_function(name) =>
        {
            Some((name, args))
        }
        _ => None,
    }
}

/// The stage of a projection over `input`, behind `predicate` when it
/// is fused, with its header. Everything compiles — a row function's
/// arguments are analyzed — before a row is read.
fn project(
    input: &[String],
    predicate: Option<&Expr>,
    items: &[(Expr, String)],
) -> Result<(Vec<String>, Box<dyn Stage>)> {
    let pred = predicate.map(|p| compile(p, input)).transpose()?;
    if let Some((name, args)) = row_function(items) {
        for a in args {
            analyze(a, input)?;
        }
        let input = input.to_vec();
        if functions::is_cluster_function(name) {
            let dbscan = Dbscan::new(input, pred, args)?;
            return Ok((vec!["geom".into(), "cluster".into()], drain(dbscan, None)));
        }
        let expand = Expand {
            pred,
            name: name.to_string(),
            args: args.to_vec(),
            input,
            vm: Vm::new(),
        };
        return Ok((functions::table_columns(name), Box::new(expand)));
    }
    let (columns, plans) = plan_items(items, input)?;
    let mut progs: Vec<(usize, Program)> = Vec::new();
    for (i, p) in plans.iter().enumerate() {
        if let ProjectItem::Compute(e) = p {
            progs.push((i, compile(e, input)?));
        }
    }
    let identity = is_identity(&plans, input.len());
    let map = Map {
        pure: pred.is_none() && progs.is_empty(),
        pred,
        plans,
        progs,
        identity,
        vm: Vm::new(),
    };
    Ok((columns, Box::new(map)))
}

/// How one output column of a projection is produced.
pub(crate) enum ProjectItem {
    /// Copy of input column `i` (`*` expansion, bare column names): a
    /// reshuffle, not a computation — no VM, no per-value evaluation.
    Passthrough(usize),
    Compute(Expr),
}

/// Plans a projection list against the input header: output column
/// names and how each is produced.
pub(crate) fn plan_items(
    items: &[(Expr, String)],
    input: &[String],
) -> Result<(Vec<String>, Vec<ProjectItem>)> {
    let mut columns = Vec::new();
    let mut plans: Vec<ProjectItem> = Vec::new();
    for (e, name) in items {
        match e {
            Expr::Star => {
                for (i, c) in input.iter().enumerate() {
                    columns.push(c.clone());
                    plans.push(ProjectItem::Passthrough(i));
                }
            }
            Expr::Column(c) => {
                columns.push(name.clone());
                plans.push(ProjectItem::Passthrough(resolve_column(c, input)?));
            }
            other => {
                columns.push(name.clone());
                plans.push(ProjectItem::Compute(other.clone()));
            }
        }
    }
    Ok((columns, plans))
}

/// Whether a projection is the identity over its input — every item a
/// passthrough of column `i` at position `i`, covering the full width.
/// Such a projection can rename columns but never needs to touch rows.
fn is_identity(plans: &[ProjectItem], width: usize) -> bool {
    plans.len() == width
        && plans
            .iter()
            .enumerate()
            .all(|(i, p)| matches!(p, ProjectItem::Passthrough(c) if *c == i))
}

/// Evaluates `prog` over every row of `rows` into one output column.
pub(crate) fn eval_column(vm: &mut Vm, rows: &[Row], prog: &Program) -> Result<Vec<Value>> {
    let mut col: Vec<Value> = Vec::with_capacity(rows.len());
    vm.eval(prog, rows, &full_selection(rows.len()), &mut col)
        .map_err(exec_err)?;
    Ok(col)
}

/// Whether `e` reads the left input alone (`Some(true)`) or the right one
/// alone (`Some(false)`), judged by where its columns resolve in the
/// combined header.
fn side_of(e: &Expr, columns: &[String], left_width: usize) -> Option<bool> {
    let mut side = None;
    for c in e.columns() {
        let left = resolve_column(&c, columns).ok()? < left_width;
        if *side.get_or_insert(left) != left {
            return None;
        }
    }
    side
}

/// Rebuilds the `ON` conjunction a [`LogicalPlan::Join`]'s keys and
/// residual were split from, for the nested loop.
pub(crate) fn reconstruct_on(keys: &[(Expr, Expr)], residual: &Option<Expr>) -> Expr {
    let mut conjuncts: Vec<Expr> = keys
        .iter()
        .map(|(l, r)| Expr::Binary {
            op: BinOp::Eq,
            lhs: Box::new(l.clone()),
            rhs: Box::new(r.clone()),
        })
        .collect();
    conjuncts.extend(residual.clone());
    conjuncts
        .into_iter()
        .reduce(|a, b| Expr::Binary {
            op: BinOp::And,
            lhs: Box::new(a),
            rhs: Box::new(b),
        })
        .expect("join condition is non-empty")
}

fn combined_row(l: &Row, r: &Row) -> Row {
    let mut v = Vec::with_capacity(l.values.len() + r.values.len());
    v.extend(l.values.iter().cloned());
    v.extend(r.values.iter().cloned());
    Row::new(v)
}

/// An inner join: drains its right input — rows, and key columns for the
/// hash path — then streams its left input through it a batch at a time,
/// so the output is left-major with right rows in input order, the
/// nested loop's order, on either path.
///
/// A join with equi keys evaluates each left batch's key expressions
/// and, when [`keys_hashable`] holds for them against the right side's,
/// probes a [`JoinHash`] built over the right keys' encoded bytes (once,
/// on first use) and runs the residual as one program over the matched
/// combined rows. Otherwise — no equi key (a non-equi or cross join), no
/// key that splits across the inputs, or runtime value classes that
/// aren't hashable (mixed classes, NaN, geometries, or a cross-side class
/// mismatch where the coercing comparator would coerce or error) — the
/// batch runs the nested loop, counted once per join, when it first
/// runs, by `just_exec_join_fallbacks`. Each output pair depends on its
/// two rows alone, so deciding per left batch gives the nested loop's
/// rows.
/// Error caveat: key expressions evaluate column-at-a-time here, so
/// *which* row's error surfaces first can differ from the pair-at-a-time
/// loop; whether an error surfaces does not.
struct Join {
    /// Each equi key's `(left, right)` programs, over its own input's
    /// header; empty for the nested loop alone.
    keys: Vec<(Program, Program)>,
    /// The hash path's residual, over the combined header.
    residual: Option<Program>,
    /// The nested loop's condition, over the combined header.
    on: Expr,
    columns: Vec<String>,
    /// Whether the span reports build and probe counts: the plan gave
    /// the join equi keys.
    hash: bool,
    vm: Vm,
    /// The drained right input: its rows and key columns.
    right: Option<(Vec<Row>, Vec<Vec<Value>>)>,
    table: Option<JoinHash>,
    build_rows: u64,
    probe_rows: u64,
    nested: bool,
}

impl Join {
    /// The join on the equi `keys`, then `residual`, over inputs with the
    /// headers `left` and `right` — with no keys, the nested loop on
    /// `residual` — and its header.
    fn open(
        left: &[String],
        right: &[String],
        keys: &[(Expr, Expr)],
        residual: &Option<Expr>,
    ) -> Result<(Vec<String>, Box<dyn Stage>)> {
        let columns = [left, right].concat();
        // Assign each candidate pair's sides from the headers; pairs that
        // straddle the inputs (or compare an input to itself) demote to
        // the residual.
        let mut pairs: Vec<(Expr, Expr)> = Vec::new();
        let mut extra: Vec<(Expr, Expr)> = Vec::new();
        for (l, r) in keys.iter().cloned() {
            let sides = |e| side_of(e, &columns, left.len());
            match (sides(&l), sides(&r)) {
                (Some(true), Some(false)) => pairs.push((l, r)),
                (Some(false), Some(true)) => pairs.push((r, l)),
                _ => extra.push((l, r)),
            }
        }
        let residual =
            (!extra.is_empty() || residual.is_some()).then(|| reconstruct_on(&extra, residual));
        // A key expression classified left resolves identically against
        // the left-only header (exact/suffix/bare precedence is unchanged
        // when every match lives in the left range), so each side's keys
        // compile against its own input.
        let mut progs = Vec::with_capacity(pairs.len());
        for (l, r) in &pairs {
            progs.push((compile(l, left)?, compile(r, right)?));
        }
        let on = reconstruct_on(&pairs, &residual);
        let nested = pairs.is_empty();
        let residual = match residual {
            // No usable equi key: every conjunct is the nested loop's.
            Some(_) if nested => {
                analyze(&on, &columns)?;
                None
            }
            Some(r) => Some(compile(&r, &columns)?),
            None => None,
        };
        let join = Join {
            keys: progs,
            residual,
            on,
            columns: columns.clone(),
            hash: !keys.is_empty(),
            vm: Vm::new(),
            right: None,
            table: None,
            build_rows: 0,
            probe_rows: 0,
            nested,
        };
        Ok((columns, Box::new(join)))
    }

    /// Joins one left batch against the drained right side.
    fn join_batch(&mut self, left: Vec<Row>) -> Result<Vec<Row>> {
        let (right, right_keys) = self.right.as_ref().expect("right side drained");
        if !self.keys.is_empty() {
            let mut left_keys = Vec::with_capacity(self.keys.len());
            for (prog, _) in &self.keys {
                left_keys.push(eval_column(&mut self.vm, &left, prog)?);
            }
            if keys_hashable(&left_keys, right_keys) {
                let obs = exec_obs();
                let table = self.table.get_or_insert_with(|| {
                    let table = JoinHash::build(right.len(), right_keys);
                    self.build_rows = table.rows_built();
                    obs.join_build_rows.add(self.build_rows);
                    table
                });
                self.probe_rows += left.len() as u64;
                obs.join_probe_rows.add(left.len() as u64);
                let mut candidates = Vec::new();
                for (l, row) in left.iter().enumerate() {
                    for &r in table.probe(&left_keys, l).unwrap_or_default() {
                        candidates.push(combined_row(row, &right[r as usize]));
                    }
                }
                let sel = select_rows(&mut self.vm, self.residual.as_slice(), &candidates)?;
                return Ok(take_selected(candidates, &sel));
            }
            if !std::mem::replace(&mut self.nested, true) {
                exec_obs().join_fallbacks.inc();
            }
        }
        // The nested loop: one scratch `combined` buffer is reused across
        // pairs — the left row's values are cloned once per left row, each
        // right row's once per pair, and the buffer itself only for pairs
        // that pass.
        let mut rows = Vec::new();
        let mut combined: Vec<Value> = Vec::with_capacity(self.columns.len());
        for l in &left {
            combined.clear();
            combined.extend(l.values.iter().cloned());
            for r in right {
                combined.truncate(l.values.len());
                combined.extend(r.values.iter().cloned());
                if truthy(&eval(&self.on, &combined, &self.columns)?) {
                    rows.push(Row::new(combined.clone()));
                }
            }
        }
        Ok(rows)
    }
}

impl Stage for Join {
    fn next(&mut self, inputs: &mut [Op], trace: &mut Trace, _: Gate) -> Batch {
        if self.right.is_none() {
            if self.nested {
                exec_obs().join_fallbacks.inc();
            }
            let (mut rows, mut keys) = (Vec::new(), vec![Vec::new(); self.keys.len()]);
            while let Some(batch) = inputs[1].next(trace, None)? {
                for ((_, prog), col) in self.keys.iter().zip(&mut keys) {
                    col.extend(eval_column(&mut self.vm, &batch, prog)?);
                }
                rows.extend(batch);
            }
            inputs[1].close(trace);
            self.right = Some((rows, keys));
        }
        match inputs[0].next(trace, None)? {
            Some(left) => self.join_batch(left).map(Some),
            None => Ok(None),
        }
    }

    fn programs(&self, _: &[String]) -> Vec<(String, &Program)> {
        let mut out = Vec::new();
        for (i, (l, r)) in self.keys.iter().enumerate() {
            out.push((format!("key {i} left"), l));
            out.push((format!("key {i} right"), r));
        }
        out.extend(self.residual.iter().map(|r| ("residual".to_string(), r)));
        out
    }

    fn close(&mut self, attrs: &mut Vec<(&'static str, u64)>) {
        (self.right, self.table) = (None, None);
        if self.hash {
            attrs.push(("build_rows", self.build_rows));
            attrs.push(("probe_rows", self.probe_rows));
            if self.nested {
                attrs.push(("nested_loop", 1));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{optimize, parse, Client, Statement};
    use just_core::{Engine, EngineConfig, SessionManager};
    use std::sync::Arc;

    /// An aggregate that does not compile over the folded scan's header
    /// fails under its own span: the scan opened, read nothing and closed.
    #[test]
    fn folded_aggregate_compile_error_is_the_aggregates() {
        let dir = std::env::temp_dir().join(format!("just-ql-exec-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let engine = Arc::new(Engine::open(&dir, EngineConfig::default()).unwrap());
        let mut client = Client::new(SessionManager::new(engine).session("t"));
        client
            .execute("CREATE TABLE fa (k integer:primary key, g integer)")
            .unwrap();
        client.execute("INSERT INTO fa VALUES (1, 1)").unwrap();
        let Statement::Query(query) = parse("SELECT sum(nope) AS s FROM fa").unwrap() else {
            panic!("a query");
        };
        let plan = optimize(LogicalPlan::from_select(&query).unwrap()).unwrap();
        let mut trace = Trace::new("query");
        let root = trace.root();
        Executor::new(client.session(), None)
            .run(&plan, &mut trace, root)
            .unwrap_err();
        let mut aggregate = trace.children(root)[0];
        while !trace.name(aggregate).starts_with("Aggregate") {
            aggregate = trace.children(aggregate)[0];
        }
        assert_eq!(trace.rows(aggregate), None);
        assert_eq!(trace.rows(trace.children(aggregate)[0]), Some(0));
        std::fs::remove_dir_all(dir).ok();
    }
}
