//! The plan executor ("SQL Execute"): spatio-temporal predicates are
//! served by the storage indexes; relational operators run on the
//! in-memory DataFrame engine (this repository's Spark SQL).
//!
//! There is one execution path. Every expression-bearing operator
//! (filter, project, aggregate, sort / TOP-K keys, join keys and
//! residuals, and the residual scan predicate) compiles its expressions
//! into `just-exec` bytecode once, before it reads a row — which is also
//! where analysis errors surface (see [`crate::compile`]) — and evaluates
//! batches through the vectorized VM. A program is compiled from the
//! input's column names alone, so a stored scan, a view and an
//! intermediate dataset get the same opcodes. Three places evaluate
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
use crate::optimizer::is_pure_columns;
use crate::plan::LogicalPlan;
use crate::sink::{sink_for, sort, Sink};
use crate::Result;
use just_analysis::{dbscan, DbscanParams};
use just_core::{Dataset, Session};
use just_exec::{full_selection, keys_hashable, JoinHash, Program, Vm};
use just_geo::{Geometry, Point};
use just_obs::{Counter, SpanId, Trace};
use just_storage::{CancelToken, QueryStream, Row, RowGate, SpatialPredicate, Value};
use std::sync::OnceLock;

/// Rows per evaluation batch for in-memory operators (stored-table scans
/// use the storage stream's own batching).
pub(crate) const BATCH: usize = 1024;

/// Handles to the process-wide counters the operators bump and the plan
/// walker diffs around an operator, resolved once.
pub(crate) struct ExecObs {
    key_ranges: Counter,
    keys_scanned: Counter,
    rows_pruned_pushdown: Counter,
    rows_gated: Counter,
    join_build_rows: Counter,
    join_probe_rows: Counter,
    join_fallbacks: Counter,
    pub(crate) topk_queries: Counter,
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

/// Executes logical plans against one session.
pub(crate) struct Executor<'a> {
    session: &'a Session,
    kill: Option<CancelToken>,
}

impl<'a> Executor<'a> {
    /// Creates an executor for the session, with the query-level kill
    /// token (from the live query registry) when the query has one. The
    /// executor checks it between operators and between scan batches;
    /// once cancelled, execution stops with [`QlError::Cancelled`] and
    /// any in-flight scan stream is cancelled so its disk IO stops too.
    /// This token is distinct from the per-stream LIMIT cancel token: a
    /// satisfied LIMIT must not poison the query's other scans.
    pub(crate) fn new(session: &'a Session, kill: Option<CancelToken>) -> Self {
        Executor { session, kill }
    }

    fn check_kill(&self) -> Result<()> {
        check_kill(self.kill.as_ref())
    }

    /// Runs a plan to a dataset — the only plan walker. Every operator
    /// gets one span under `parent` carrying its label, wall time
    /// (children included) and output row count. The index-serving leaves
    /// (`Scan`, `Knn`), the only operators that touch the kvstore, also
    /// carry their exact IO delta (blocks read, cache hits, bytes) and
    /// index selectivity (key ranges generated, keys scanned); joins and
    /// TOP-K carry their build/probe/pruned row counts. The deltas are of
    /// process-wide counters, so concurrent sessions pollute them.
    ///
    /// A [`Sink`] (`Aggregate`, `TopK`) over a stored-table `Scan`,
    /// directly or through pure-column `Project`s, does not wait for its
    /// input's dataset: [`Executor::run_sink`] pushes it the scan's
    /// batches as they arrive.
    ///
    /// When an input fails (or the query is killed) the spans above it
    /// stay open and report their running time; the failed operator's
    /// own span is closed and carries its deltas, without a row count.
    pub(crate) fn run(
        &self,
        plan: &LogicalPlan,
        trace: &mut Trace,
        parent: SpanId,
    ) -> Result<Dataset> {
        self.check_kill()?;
        let span = trace.start(plan.label(), parent);
        if let Some(inputs) = self.sink_inputs(plan) {
            return self.run_sink(inputs, trace, span);
        }
        let mut children = Vec::new();
        for child in plan.children() {
            children.push(self.run(child, trace, span)?);
        }
        self.observed(plan, trace, span, || {
            let data = self.execute_node(plan, children)?;
            let rows = data.len();
            Ok((data, rows))
        })
    }

    /// Runs `plan`'s own work `op` (its inputs already ran) and closes
    /// `span` with its output row count and counter deltas.
    fn observed<T>(
        &self,
        plan: &LogicalPlan,
        trace: &mut Trace,
        span: SpanId,
        op: impl FnOnce() -> Result<(T, usize)>,
    ) -> Result<T> {
        // Everything is read *after* the children ran, so a nested
        // operator's counts stay out of this operator's delta.
        let obs = exec_obs();
        let engine = self.session.engine();
        let scan_was =
            matches!(plan, LogicalPlan::Scan { .. } | LogicalPlan::Knn { .. }).then(|| {
                (
                    engine.io_snapshot(),
                    obs.key_ranges.get(),
                    obs.keys_scanned.get(),
                    obs.rows_pruned_pushdown.get(),
                    obs.rows_gated.get(),
                )
            });
        let (build, probe, falls, topk) = (
            obs.join_build_rows.get(),
            obs.join_probe_rows.get(),
            obs.join_fallbacks.get(),
            obs.topk_rows_pruned.get(),
        );
        let result = op();
        // A failed (or killed) operator still reports what it cost.
        if let Ok((_, rows)) = &result {
            trace.set_rows(span, *rows as u64);
        }
        let mut attr = |name, value: u64, always: bool| {
            if always || value > 0 {
                trace.add_attr(span, name, value);
            }
        };
        match plan {
            LogicalPlan::HashJoin { .. } => {
                attr("build_rows", obs.join_build_rows.get() - build, true);
                attr("probe_rows", obs.join_probe_rows.get() - probe, true);
                attr("nested_loop", obs.join_fallbacks.get() - falls, false);
            }
            LogicalPlan::TopK { .. } => {
                attr("rows_pruned", obs.topk_rows_pruned.get() - topk, true)
            }
            _ => {}
        }
        if let Some((io, ranges, keys, pruned, gated)) = scan_was {
            let d = engine.io_snapshot().since(&io);
            attr("blocks_read", d.blocks_read, true);
            attr("cache_hits", d.cache_hits, true);
            attr("bytes_read", d.bytes_read, true);
            attr("batches_emitted", d.batches_emitted, false);
            attr("scan_early_terminations", d.scan_early_terminations, false);
            let pruned = obs.rows_pruned_pushdown.get() - pruned;
            attr("rows_pruned_pushdown", pruned, false);
            attr("rows_gated", obs.rows_gated.get() - gated, false);
            // Of all block lookups this operator issued, the share the
            // block cache absorbed (integer percent).
            let lookups = d.blocks_read + d.cache_hits;
            if let Some(pct) = (d.cache_hits * 100).checked_div(lookups) {
                attr("cache_hit_pct", pct, true);
            }
            attr("bloom_skips", d.bloom_skips, false);
            attr("index_skips", d.index_skips, false);
            attr("memtable_hits", d.memtable_hits, false);
            let ranges = obs.key_ranges.get() - ranges;
            if ranges > 0 {
                attr("key_ranges", ranges, true);
                attr("keys_scanned", obs.keys_scanned.get() - keys, true);
            }
        }
        trace.end(span);
        result.map(|(out, _)| out)
    }

    /// Evaluates one operator given its already-computed child datasets
    /// (in [`LogicalPlan::children`] order).
    pub(crate) fn execute_node(
        &self,
        plan: &LogicalPlan,
        children: Vec<Dataset>,
    ) -> Result<Dataset> {
        let mut children = children.into_iter();
        let mut next = || {
            children
                .next()
                .expect("child dataset count matches plan arity")
        };
        match plan {
            LogicalPlan::Scan {
                table,
                alias,
                projection,
                spatial,
                time,
                residual,
                limit,
            } => {
                if self.scans_stored(plan) {
                    let mut scan = self.open_scan(plan)?;
                    let mut rows = Vec::new();
                    while let Some(batch) = scan.next_batch(None)? {
                        rows.extend(batch);
                    }
                    return Ok(Dataset::new(scan.columns, rows));
                }
                let view = self.session.view(table)?;
                let preds = view_preds(spatial, time, residual);
                let rows = scan_view_rows(&view, &preds, *limit)?;
                let data = Dataset::new(view.columns.clone(), rows);
                Ok(finish_scan(data, projection, alias))
            }
            LogicalPlan::Values { columns, rows } => {
                let mut out_rows = Vec::with_capacity(rows.len());
                for exprs in rows {
                    let mut values = Vec::with_capacity(exprs.len());
                    for e in exprs {
                        values.push(functions::eval_const(e)?);
                    }
                    out_rows.push(Row::new(values));
                }
                Ok(Dataset::new(columns.clone(), out_rows))
            }
            LogicalPlan::Filter { predicate, .. } => filter(next(), predicate),
            LogicalPlan::Project { items, .. } => filter_project(next(), None, items),
            LogicalPlan::Aggregate { .. } | LogicalPlan::TopK { .. } => {
                let data = next();
                let mut sink = sink_for(plan, &data.columns, |_| None)?;
                let mut rows = data.rows.into_iter();
                loop {
                    let chunk: Vec<Row> = rows.by_ref().take(BATCH).collect();
                    if chunk.is_empty() {
                        return Ok(sink.finish());
                    }
                    sink.push(chunk)?;
                }
            }
            LogicalPlan::Sort { keys, .. } => sort(next(), keys),
            LogicalPlan::FilterProject {
                predicate, items, ..
            } => filter_project(next(), Some(predicate), items),
            LogicalPlan::Limit { n, .. } => {
                let mut data = next();
                data.rows.truncate(*n);
                Ok(data)
            }
            LogicalPlan::Join { on, .. } => {
                let l = next();
                let r = next();
                join(l, r, on)
            }
            LogicalPlan::HashJoin { keys, residual, .. } => {
                let l = next();
                let r = next();
                hash_join(l, r, keys, residual)
            }
            LogicalPlan::Knn { table, lng, lat, k } => {
                Ok(self.session.knn(table, Point::new(*lng, *lat), *k)?)
            }
        }
    }

    /// Whether `plan` scans a stored table rather than a view (views are
    /// looked up first; they shadow nothing: names are namespaced apart).
    fn scans_stored(&self, plan: &LogicalPlan) -> bool {
        matches!(plan, LogicalPlan::Scan { table, .. } if self.session.view(table).is_err())
    }

    /// `[sink, pure-column Project…, Scan]`, top-down, when `plan` is a
    /// [`Sink`] whose input is a stored-table scan under nothing but
    /// pure-column projects.
    fn sink_inputs<'p>(&self, plan: &'p LogicalPlan) -> Option<Vec<&'p LogicalPlan>> {
        if !matches!(
            plan,
            LogicalPlan::Aggregate { .. } | LogicalPlan::TopK { .. }
        ) {
            return None;
        }
        let mut chain = vec![plan];
        let mut node = plan.children()[0];
        while let LogicalPlan::Project { input, items } = node {
            if !is_pure_columns(items) {
                return None;
            }
            chain.push(node);
            node = input;
        }
        chain.push(node);
        self.scans_stored(node).then_some(chain)
    }

    /// Runs the sink `chain[0]` straight off the stored scan that ends
    /// the chain: the projects between them fold into the scan's column
    /// selection, and every batch the stream yields is pushed into the
    /// sink as it arrives — before each pull the sink may gate the
    /// stream. Each operator keeps its span: the scan's covers the
    /// pushing, a project's the rows that passed through it.
    fn run_sink(
        &self,
        chain: Vec<&LogicalPlan>,
        trace: &mut Trace,
        span: SpanId,
    ) -> Result<Dataset> {
        let mut spans = vec![span];
        for node in &chain[1..] {
            self.check_kill()?;
            spans.push(trace.start(node.label(), spans[spans.len() - 1]));
        }
        let last = chain.len() - 1;
        // The fed sink and the rows read, or the error of the operator
        // `chain[i]` that failed to set up over the scan's header.
        let mut fed = self.observed(chain[last], trace, spans[last], || {
            let mut scan = self.open_scan(chain[last])?;
            let mut sink = match scan.sink(&chain) {
                Ok(sink) => sink,
                Err(failed) => return Ok((Err(failed), 0)),
            };
            let mut rows = 0;
            while let Some(batch) = scan.next_batch(sink.gate())? {
                rows += batch.len();
                sink.push(batch)?;
            }
            Ok((Ok((sink, rows)), rows))
        })?;
        for i in (1..last).rev() {
            fed = self.observed(chain[i], trace, spans[i], || match fed {
                Err((at, e)) if at == i => Err(e),
                Err(failed) => Ok((Err(failed), 0)),
                Ok((sink, rows)) => Ok((Ok((sink, rows)), rows)),
            })?;
        }
        self.observed(chain[0], trace, span, || {
            let data = fed.map_err(|(_, e)| e)?.0.finish();
            let rows = data.len();
            Ok((data, rows))
        })
    }

    /// Opens the stored-table scan `plan`.
    fn open_scan(&self, plan: &LogicalPlan) -> Result<StoredScan<'_>> {
        let LogicalPlan::Scan {
            table,
            alias,
            projection,
            spatial,
            time,
            residual,
            limit,
        } = plan
        else {
            unreachable!("open_scan is given a Scan");
        };
        let (stream, mem_preds) = open_stored_scan(
            self.session,
            table,
            projection,
            spatial,
            time,
            residual,
            limit,
        )?;
        let input: Vec<String> = stream
            .schema()
            .fields()
            .iter()
            .map(|f| f.name.clone())
            .collect();

        // Compile every in-memory predicate once for the whole scan.
        let progs = mem_preds
            .iter()
            .map(|p| compile(p, &input))
            .collect::<Result<Vec<Program>>>()?;
        let (keep, columns) = scan_header(&input, projection, alias);
        Ok(StoredScan {
            kill: self.kill.as_ref(),
            stream,
            progs,
            vm: Vm::new(),
            wanted: *limit,
            keep,
            columns,
        })
    }
}

/// A stored table's scan through the storage read path, pulled one batch
/// at a time: the indexed spatio-temporal predicate and the column
/// projection run *inside* the storage decode, residual predicates run
/// in memory per batch, and a pushed-down `LIMIT` cancels the stream —
/// stopping block reads — as soon as enough matching rows have surfaced.
struct StoredScan<'a> {
    kill: Option<&'a CancelToken>,
    stream: QueryStream,
    progs: Vec<Program>,
    vm: Vm,
    /// Rows still to emit under a pushed-down `LIMIT`.
    wanted: Option<usize>,
    /// Stream columns the advisory projection keeps (`None` = all).
    keep: Option<Vec<usize>>,
    /// The output header.
    columns: Vec<String>,
}

impl StoredScan<'_> {
    /// The next non-empty batch of output rows, of those `gate` passes.
    fn next_batch(&mut self, mut gate: Option<&mut dyn RowGate>) -> Result<Option<Vec<Row>>> {
        while self.wanted != Some(0) {
            let Some(batch) = self
                .stream
                .next_batch_gated(gate.as_deref_mut())
                .map_err(just_core::CoreError::Storage)?
            else {
                break;
            };
            // Query-level kill: cancel the stream first so the drop is
            // counted as an early termination and block reads stop here.
            if let Err(e) = check_kill(self.kill) {
                self.stream.cancel_token().cancel();
                return Err(e);
            }
            let mut kept = if self.progs.is_empty() {
                batch
            } else {
                let sel = select_rows(&mut self.vm, &self.progs, &batch)?;
                take_selected(batch, &sel)
            };
            if let Some(wanted) = &mut self.wanted {
                kept.truncate(*wanted);
                *wanted -= kept.len();
                if *wanted == 0 {
                    // Satisfied: stop the disk IO mid-range.
                    self.stream.cancel_token().cancel();
                }
            }
            if !kept.is_empty() {
                return Ok(Some(keep_columns(kept, &self.keep)));
            }
        }
        Ok(None)
    }

    /// Folds the projects of a sink chain (see
    /// [`Executor::sink_inputs`]) into the scan's column selection,
    /// bottom-up, and builds the sink over the result; an error comes
    /// with the chain index of the operator that raised it. Only a scan
    /// that emits its stored values unfiltered and uncut may be gated.
    fn sink(
        &mut self,
        chain: &[&LogicalPlan],
    ) -> std::result::Result<Box<dyn Sink>, (usize, QlError)> {
        for i in (1..chain.len() - 1).rev() {
            let LogicalPlan::Project { items, .. } = chain[i] else {
                unreachable!("a sink chain's middle is projects");
            };
            let (columns, plans) = plan_items(items, &self.columns).map_err(|e| (i, e))?;
            let keep = plans.iter().map(|p| match p {
                ProjectItem::Passthrough(c) => self.keep.as_ref().map_or(*c, |keep| keep[*c]),
                ProjectItem::Compute(_) => unreachable!("a pure-column project"),
            });
            self.keep = Some(keep.collect());
            self.columns = columns;
        }
        let gateable = self.progs.is_empty() && self.wanted.is_none();
        let keep = &self.keep;
        let stored = |c: usize| gateable.then(|| keep.as_ref().map_or(c, |keep| keep[c]));
        sink_for(chain[0], &self.columns, stored).map_err(|e| (0, e))
    }
}

/// The pushed-down predicates of a view scan, which all run in memory.
pub(crate) fn view_preds(
    spatial: &Option<(String, just_geo::Rect)>,
    time: &Option<(String, i64, i64)>,
    residual: &Option<Expr>,
) -> Vec<Expr> {
    let mut preds: Vec<Expr> = Vec::new();
    if let Some((col, rect)) = spatial {
        preds.push(spatial_expr(col, *rect));
    }
    if let Some((col, lo, hi)) = time {
        preds.push(temporal_expr(col, *lo, *hi));
    }
    preds.extend(residual.clone());
    preds
}

/// The header a scan emits over the input header `input` — the one rule
/// the executor and `EXPLAIN`'s static header derivation share. The
/// column projection is advisory: names the relation doesn't have are
/// skipped (they can be outer-query names when a subquery renamed
/// things), and when none resolves every column is kept; the alias then
/// prefixes each name. Returns the input indices to keep (`None` = all)
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

/// Applies a scan's advisory column projection and alias prefix.
pub(crate) fn finish_scan(
    data: Dataset,
    projection: &Option<Vec<String>>,
    alias: &Option<String>,
) -> Dataset {
    let (keep, header) = scan_header(&data.columns, projection, alias);
    Dataset::new(header, keep_columns(data.rows, &keep))
}

/// The rows cut down to the columns `keep` names (`None` = all).
fn keep_columns(rows: Vec<Row>, keep: &Option<Vec<usize>>) -> Vec<Row> {
    match keep {
        Some(keep) => rows
            .into_iter()
            .map(|r| Row::new(keep.iter().map(|&i| r.values[i].clone()).collect()))
            .collect(),
        None => rows,
    }
}

/// Opens a stored table's storage stream with everything the index can
/// serve pushed into it (the spatio-temporal window on the indexed
/// fields, the column projection, a batch size sized to the limit), and
/// returns it with the predicates left to run in memory per batch.
pub(crate) fn open_stored_scan(
    session: &Session,
    table: &str,
    projection: &Option<Vec<String>>,
    spatial: &Option<(String, just_geo::Rect)>,
    time: &Option<(String, i64, i64)>,
    residual: &Option<Expr>,
    limit: &Option<usize>,
) -> Result<(QueryStream, Vec<Expr>)> {
    let def = session.describe(table)?;
    let geom_name = def
        .schema
        .geom_index()
        .map(|i| def.schema.fields()[i].name.clone());
    let time_name = def
        .schema
        .time_index()
        .map(|i| def.schema.fields()[i].name.clone());

    let matches_name = |col: &str, field: &str| {
        col.eq_ignore_ascii_case(field)
            || col
                .to_ascii_lowercase()
                .ends_with(&format!(".{}", field.to_ascii_lowercase()))
    };
    let matches_field = |col: &str, field: &Option<String>| {
        field
            .as_ref()
            .map(|f| matches_name(col, f))
            .unwrap_or(false)
    };

    let spatial_ok = spatial
        .as_ref()
        .filter(|(col, _)| matches_field(col, &geom_name));
    let time_ok = time
        .as_ref()
        .filter(|(col, _, _)| matches_field(col, &time_name));

    // Resolve the projected column names onto schema field indices so
    // the storage layer can skip decoding dropped fields. Any name
    // that fails to resolve (outer-query aliases can leak into
    // advisory projections) falls back to decoding everything.
    let proj_indices: Option<Vec<usize>> = projection.as_ref().and_then(|cols| {
        let mut idx = Vec::with_capacity(cols.len());
        for c in cols {
            let i = def
                .schema
                .fields()
                .iter()
                .position(|f| matches_name(c, &f.name))?;
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
    let mut mem_preds: Vec<Expr> = Vec::new();
    if spatial_ok.is_none() {
        if let Some((col, rect)) = spatial {
            mem_preds.push(spatial_expr(col, *rect));
        }
    }
    if time_ok.is_none() {
        if let Some((col, lo, hi)) = time {
            mem_preds.push(temporal_expr(col, *lo, *hi));
        }
    }
    mem_preds.extend(residual.clone());
    Ok((stream, mem_preds))
}

/// The rows of `rows` every program keeps, by progressive narrowing:
/// each predicate re-examines only the rows its predecessors kept.
fn select_rows(vm: &mut Vm, progs: &[Program], rows: &[Row]) -> Result<Vec<u32>> {
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

/// Filters a view's rows in place: predicates run against the shared
/// dataset by reference and only surviving rows — capped by the pushed
/// `LIMIT` — are cloned out.
fn scan_view_rows(view: &Dataset, preds: &[Expr], limit: Option<usize>) -> Result<Vec<Row>> {
    let cap = limit.unwrap_or(usize::MAX);
    if preds.is_empty() {
        let take = view.rows.len().min(cap);
        return Ok(view.rows[..take].to_vec());
    }
    let progs = preds
        .iter()
        .map(|p| compile(p, &view.columns))
        .collect::<Result<Vec<Program>>>()?;
    let mut out: Vec<Row> = Vec::new();
    let mut vm = Vm::new();
    'batches: for batch in view.rows.chunks(BATCH) {
        for &lane in &select_rows(&mut vm, &progs, batch)? {
            out.push(batch[lane as usize].clone());
            if out.len() >= cap {
                break 'batches;
            }
        }
    }
    Ok(out)
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

/// Filters `data`: the predicate lowers to bytecode once, then batches of
/// [`BATCH`] rows run through the vectorized VM.
fn filter(data: Dataset, predicate: &Expr) -> Result<Dataset> {
    let prog = compile(predicate, &data.columns)?;
    Ok(Dataset::new(data.columns, filter_rows(data.rows, &prog)?))
}

fn filter_rows(rows: Vec<Row>, prog: &Program) -> Result<Vec<Row>> {
    let mut vm = Vm::new();
    let mut kept = Vec::with_capacity(rows.len());
    let mut chunk = rows;
    while !chunk.is_empty() {
        let rest = chunk.split_off(chunk.len().min(BATCH));
        let sel = select_rows(&mut vm, std::slice::from_ref(prog), &chunk)?;
        kept.extend(take_selected(chunk, &sel));
        chunk = rest;
    }
    Ok(kept)
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

/// Runs a [`row_function`] projection over the rows passing
/// `predicate`. The predicate is compiled and every argument analyzed
/// before a row is read; arguments are then evaluated row-at-a-time: one
/// input row yields a variable number of output rows.
pub(crate) fn project_rows(
    data: Dataset,
    predicate: Option<&Expr>,
    name: &str,
    args: &[Expr],
    out_name: &str,
) -> Result<Dataset> {
    let pred_prog = predicate.map(|p| compile(p, &data.columns)).transpose()?;
    for a in args {
        analyze(a, &data.columns)?;
    }
    let data = match pred_prog {
        Some(prog) => Dataset::new(data.columns, filter_rows(data.rows, &prog)?),
        None => data,
    };
    if functions::is_cluster_function(name) {
        return run_dbscan(data, args);
    }
    let mut columns: Option<Vec<String>> = None;
    let mut rows = Vec::new();
    for row in &data.rows {
        let mut vals = Vec::with_capacity(args.len());
        for a in args {
            vals.push(eval(a, &row.values, &data.columns)?);
        }
        if let Some((cols, expanded)) = functions::table_function(name, vals)? {
            columns.get_or_insert(cols);
            rows.extend(expanded.into_iter().map(Row::new));
        }
    }
    let columns = columns.unwrap_or_else(|| vec![out_name.to_string()]);
    Ok(Dataset::new(columns, rows))
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

/// `Project`, and the fused `Filter`→`Project` when `predicate` is given:
/// each batch runs the predicate's selection and the projection programs
/// in one pass, so the filtered relation is never materialized and
/// computed items only evaluate over surviving rows. Output rows are
/// assembled by moving values out of the computed columns (passthrough
/// items clone from the input row).
fn filter_project(
    data: Dataset,
    predicate: Option<&Expr>,
    items: &[(Expr, String)],
) -> Result<Dataset> {
    if let Some((name, args)) = row_function(items) {
        return project_rows(data, predicate, name, args, &items[0].1);
    }
    let pred_prog = predicate.map(|p| compile(p, &data.columns)).transpose()?;
    let (columns, plans) = plan_items(items, &data.columns)?;
    let mut progs: Vec<(usize, Program)> = Vec::new();
    for (i, p) in plans.iter().enumerate() {
        if let ProjectItem::Compute(e) = p {
            progs.push((i, compile(e, &data.columns)?));
        }
    }
    // The identity reshuffle doesn't even touch the rows.
    if pred_prog.is_none() && is_identity(&plans, data.columns.len()) {
        return Ok(Dataset::new(columns, data.rows));
    }

    let mut vm = Vm::new();
    let mut rows = Vec::new();
    for chunk in data.rows.chunks(BATCH) {
        let sel = select_rows(&mut vm, pred_prog.as_slice(), chunk)?;
        if sel.is_empty() {
            continue;
        }
        let mut computed: Vec<Option<Vec<Value>>> = vec![None; plans.len()];
        for (idx, prog) in &progs {
            let mut col = Vec::with_capacity(sel.len());
            vm.eval(prog, chunk, &sel, &mut col).map_err(exec_err)?;
            computed[*idx] = Some(col);
        }
        for (j, &lane) in sel.iter().enumerate() {
            let row = &chunk[lane as usize];
            let mut values = Vec::with_capacity(plans.len());
            for (i, p) in plans.iter().enumerate() {
                values.push(match p {
                    ProjectItem::Passthrough(c) => row.values[*c].clone(),
                    ProjectItem::Compute(_) => std::mem::replace(
                        &mut computed[i].as_mut().expect("computed column")[j],
                        Value::Null,
                    ),
                });
            }
            rows.push(Row::new(values));
        }
    }
    Ok(Dataset::new(columns, rows))
}

/// `st_DBSCAN(geom, minPts, radius)` — the N-M operation: clusters every
/// input row's geometry; output is `(geom, cluster)` with cluster `-1`
/// for noise.
fn run_dbscan(data: Dataset, args: &[Expr]) -> Result<Dataset> {
    if args.len() != 3 {
        return Err(QlError::Eval(
            "st_DBSCAN(geom, minPts, radius) takes 3 arguments".into(),
        ));
    }
    let mut pts = Vec::with_capacity(data.rows.len());
    for row in &data.rows {
        match eval(&args[0], &row.values, &data.columns)? {
            Value::Geom(g) => pts.push(g.representative_point()),
            other => {
                return Err(QlError::Eval(format!(
                    "st_DBSCAN over non-geometry {other:?}"
                )))
            }
        }
    }
    let min_pts = functions::eval_const(&args[1])?
        .as_int()
        .ok_or_else(|| QlError::Eval("st_DBSCAN: minPts must be an integer".into()))?
        .max(1) as usize;
    let radius = functions::eval_const(&args[2])?
        .as_float()
        .ok_or_else(|| QlError::Eval("st_DBSCAN: radius must be numeric".into()))?;
    let labels = dbscan(
        &pts,
        &DbscanParams {
            eps: radius,
            min_pts,
        },
    );
    let rows = pts
        .iter()
        .zip(labels)
        .map(|(p, l)| {
            Row::new(vec![
                Value::Geom(Geometry::Point(*p)),
                Value::Int(match l {
                    just_analysis::ClusterLabel::Cluster(c) => c as i64,
                    just_analysis::ClusterLabel::Noise => -1,
                }),
            ])
        })
        .collect();
    Ok(Dataset::new(vec!["geom".into(), "cluster".into()], rows))
}

/// Evaluates `prog` over `rows`, batch-at-a-time, into one output column.
pub(crate) fn eval_column(vm: &mut Vm, rows: &[Row], prog: &Program) -> Result<Vec<Value>> {
    let mut col: Vec<Value> = Vec::with_capacity(rows.len());
    for chunk in rows.chunks(BATCH) {
        vm.eval(prog, chunk, &full_selection(chunk.len()), &mut col)
            .map_err(exec_err)?;
    }
    Ok(col)
}

/// Nested-loop inner join: the only path for non-equi conditions and for
/// equi keys [`hash_join`] finds unhashable, selected from the plan and
/// the data. The condition is evaluated pair-at-a-time with `eval()`,
/// whose coercing comparator (`'3' = 3`) *is* the semantics the hash
/// path must fall back to. One scratch `combined` buffer is reused
/// across pairs — the left row's values are cloned once per left row,
/// each right row's values once per pair, and the buffer itself is only
/// cloned out for pairs that pass the predicate.
pub(crate) fn join(left: Dataset, right: Dataset, on: &Expr) -> Result<Dataset> {
    let mut columns = left.columns.clone();
    columns.extend(right.columns.iter().cloned());
    analyze(on, &columns)?;
    exec_obs().join_fallbacks.inc();
    let left_width = left.columns.len();
    let mut rows = Vec::new();
    let mut combined: Vec<Value> = Vec::with_capacity(columns.len());
    for l in &left.rows {
        combined.clear();
        combined.extend(l.values.iter().cloned());
        for r in &right.rows {
            combined.truncate(left_width);
            combined.extend(r.values.iter().cloned());
            if truthy(&eval(on, &combined, &columns)?) {
                rows.push(Row::new(combined.clone()));
            }
        }
    }
    Ok(Dataset::new(columns, rows))
}

/// Which input of a join an expression reads from, judged by where its
/// columns resolve in the combined header.
#[derive(Clone, Copy, PartialEq)]
enum Side {
    Left,
    Right,
}

fn side_of(e: &Expr, columns: &[String], left_width: usize) -> Option<Side> {
    let mut side = None;
    for c in e.columns() {
        let idx = resolve_column(&c, columns).ok()?;
        let s = if idx < left_width {
            Side::Left
        } else {
            Side::Right
        };
        match side {
            None => side = Some(s),
            Some(p) if p == s => {}
            _ => return None,
        }
    }
    side
}

/// Rebuilds the `on` conjunction a [`LogicalPlan::HashJoin`] was planned
/// from, for the nested loop.
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

/// Vectorized equi-join: evaluate each side's key expressions, build a
/// [`JoinHash`] over the smaller side's encoded key bytes, probe with
/// the other side, and run the residual as one program over the matched
/// combined rows.
///
/// Output order is exactly the nested loop's (left-major, right rows in
/// input order): build-right probes the left rows in order; build-left
/// accumulates per-left-row match lists before emitting.
///
/// Runs the nested loop ([`join`], counted by `just_exec_join_fallbacks`)
/// instead when no key splits across the inputs, or when the runtime
/// value classes aren't hashable (mixed classes, NaN, geometries, or a
/// cross-side class mismatch where the coercing comparator would coerce
/// or error). Error caveat: key expressions evaluate column-at-a-time
/// here, so *which* row's error surfaces first can differ from the
/// pair-at-a-time loop; whether an error surfaces does not.
fn hash_join(
    left: Dataset,
    right: Dataset,
    keys: &[(Expr, Expr)],
    residual: &Option<Expr>,
) -> Result<Dataset> {
    let mut columns = left.columns.clone();
    columns.extend(right.columns.iter().cloned());

    // Assign each candidate pair's sides from the headers; pairs that
    // straddle the inputs (or compare an input to itself) demote to the
    // residual.
    let left_width = left.columns.len();
    let mut pairs: Vec<(&Expr, &Expr)> = Vec::new();
    let mut extra: Vec<Expr> = Vec::new();
    for (lhs, rhs) in keys {
        match (
            side_of(lhs, &columns, left_width),
            side_of(rhs, &columns, left_width),
        ) {
            (Some(Side::Left), Some(Side::Right)) => pairs.push((lhs, rhs)),
            (Some(Side::Right), Some(Side::Left)) => pairs.push((rhs, lhs)),
            _ => extra.push(Expr::Binary {
                op: BinOp::Eq,
                lhs: Box::new(lhs.clone()),
                rhs: Box::new(rhs.clone()),
            }),
        }
    }
    let residual = {
        let mut parts = extra;
        parts.extend(residual.clone());
        parts.into_iter().reduce(|a, b| Expr::Binary {
            op: BinOp::And,
            lhs: Box::new(a),
            rhs: Box::new(b),
        })
    };
    if pairs.is_empty() {
        // No usable equi key at runtime: every conjunct is in `residual`.
        return join(left, right, &residual.expect("join condition is non-empty"));
    }

    // A key expression classified Left resolves identically against the
    // left-only header (exact/suffix/bare precedence is unchanged when
    // every match lives in the left range), so each side's keys compile
    // and evaluate against its own input. Everything compiles before
    // anything is evaluated.
    let mut left_progs = Vec::with_capacity(pairs.len());
    let mut right_progs = Vec::with_capacity(pairs.len());
    for &(l, r) in &pairs {
        left_progs.push(compile(l, &left.columns)?);
        right_progs.push(compile(r, &right.columns)?);
    }
    let residual_prog = residual
        .as_ref()
        .map(|p| compile(p, &columns))
        .transpose()?;
    let mut vm = Vm::new();
    let mut left_keys = Vec::with_capacity(pairs.len());
    let mut right_keys = Vec::with_capacity(pairs.len());
    for (lp, rp) in left_progs.iter().zip(&right_progs) {
        left_keys.push(eval_column(&mut vm, &left.rows, lp)?);
        right_keys.push(eval_column(&mut vm, &right.rows, rp)?);
    }

    if !keys_hashable(&left_keys, &right_keys) {
        let key_exprs: Vec<(Expr, Expr)> =
            pairs.iter().map(|&(l, r)| (l.clone(), r.clone())).collect();
        return join(left, right, &reconstruct_on(&key_exprs, &residual));
    }

    let obs = exec_obs();
    let build_left = left.rows.len() <= right.rows.len();
    let mut candidates: Vec<Row> = Vec::new();
    if build_left {
        let mut table = JoinHash::build(left.rows.len(), &left_keys);
        obs.join_build_rows.add(table.rows_built());
        obs.join_probe_rows.add(right.rows.len() as u64);
        let mut matches: Vec<Vec<u32>> = vec![Vec::new(); left.rows.len()];
        for r in 0..right.rows.len() {
            if let Some(bucket) = table.probe(&right_keys, r) {
                for &l in bucket {
                    matches[l as usize].push(r as u32);
                }
            }
        }
        for (l, rs) in matches.iter().enumerate() {
            for &r in rs {
                candidates.push(combined_row(&left.rows[l], &right.rows[r as usize]));
            }
        }
    } else {
        let mut table = JoinHash::build(right.rows.len(), &right_keys);
        obs.join_build_rows.add(table.rows_built());
        obs.join_probe_rows.add(left.rows.len() as u64);
        for l in 0..left.rows.len() {
            if let Some(bucket) = table.probe(&left_keys, l) {
                for &r in bucket {
                    candidates.push(combined_row(&left.rows[l], &right.rows[r as usize]));
                }
            }
        }
    }

    let rows = match &residual_prog {
        None => candidates,
        Some(prog) => filter_rows(candidates, prog)?,
    };
    Ok(Dataset::new(columns, rows))
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
