//! The JustQL client: one call per statement, the way the paper's SDKs
//! (`client.executeQuery(sql)`) expose the engine.

use crate::ast::{ColumnDef, Select, ShowTarget, Statement};
use crate::csvload::load_csv;
use crate::error::QlError;
use crate::exec::{collect, Executor, Pull};
use crate::functions::eval_const;
use crate::json::Json;
use crate::optimizer::optimize;
use crate::parser::parse;
use crate::plan::LogicalPlan;
use crate::Result;
use just_compress::Codec;
use just_core::{Dataset, ResultSet, Session};
use just_curves::TimePeriod;
use just_obs::{SpanId, Trace};
use just_storage::{Field, FieldType, IndexKind, Row, Schema, Value};

/// The outcome of executing one statement.
#[derive(Debug)]
pub enum QueryResult {
    /// Rows (queries, SHOW, DESC).
    Data(Dataset),
    /// A status message (DDL/DML).
    Message(String),
}

impl QueryResult {
    /// The dataset, when this is a data result.
    pub fn dataset(&self) -> Option<&Dataset> {
        match self {
            QueryResult::Data(d) => Some(d),
            QueryResult::Message(_) => None,
        }
    }

    /// Consumes into a dataset.
    pub fn into_dataset(self) -> Option<Dataset> {
        match self {
            QueryResult::Data(d) => Some(d),
            QueryResult::Message(_) => None,
        }
    }

    /// The message, when this is a status result.
    pub fn message(&self) -> Option<&str> {
        match self {
            QueryResult::Message(m) => Some(m),
            QueryResult::Data(_) => None,
        }
    }
}

/// A JustQL session client.
pub struct Client {
    session: Session,
    request_id: Option<u64>,
}

impl Client {
    /// Wraps a session.
    pub fn new(session: Session) -> Self {
        Client {
            session,
            request_id: None,
        }
    }

    /// The underlying session (for API-level operations).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Tags subsequent statements with a server request id: it shows up
    /// in `SHOW QUERIES` and the slow-query log. The server sets this
    /// per request; embedded clients leave it unset.
    pub fn set_request_id(&mut self, id: Option<u64>) {
        self.request_id = id;
    }

    /// Parses, optimizes and executes one statement.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        let stmt = parse(sql)?;
        self.run(stmt, sql)
    }

    /// Executes a statement into the Figure 2 cursor. A query's rows go
    /// to the cursor batch by batch as the plan's root produces them, so
    /// a result past the engine's `spill_threshold` is written out chunk
    /// by chunk and never held whole.
    pub fn execute_query(&mut self, sql: &str) -> Result<ResultSet> {
        let stmt = parse(sql)?;
        let engine = self.session.engine().clone();
        if let Statement::Query(q) = &stmt {
            return self.select(q, sql, &mut Trace::new("query"), |columns, next| {
                engine.result_set(columns.len(), next)
            });
        }
        let (columns, rows) = match self.run(stmt, sql)? {
            QueryResult::Data(d) => (d.columns.len(), d.rows),
            QueryResult::Message(m) => (1, vec![Row::new(vec![Value::Str(m)])]),
        };
        let mut rows = Some(rows);
        engine.result_set(columns, || Ok(rows.take()))
    }

    /// Returns `(analyzed plan, optimized plan)` renderings — the
    /// Figure 8 demonstration.
    pub fn explain(&self, sql: &str) -> Result<(String, String)> {
        match parse(sql)? {
            Statement::Query(q) => {
                let analyzed = LogicalPlan::from_select(&q)?;
                let optimized = optimize(analyzed.clone())?;
                Ok((analyzed.render(), optimized.render()))
            }
            _ => Err(QlError::Analyze("EXPLAIN supports SELECT only".into())),
        }
    }

    /// Executes `sql` (a SELECT) and returns the result rows together
    /// with the recorded per-operator trace — the programmatic form of
    /// `EXPLAIN ANALYZE`. The trace root covers parse → analyze →
    /// optimize → execute; each executor operator gets a child span with
    /// wall time, output rows and (on scan/knn leaves) kvstore IO deltas.
    pub fn explain_analyze(&mut self, sql: &str) -> Result<(Dataset, Trace)> {
        let mut trace = Trace::new("query");
        let span = trace.start("parse", trace.root());
        let stmt = parse(sql)?;
        trace.end(span, None);
        let query = match stmt {
            Statement::Query(q) | Statement::Explain { query: q, .. } => q,
            _ => {
                return Err(QlError::Analyze(
                    "EXPLAIN ANALYZE supports SELECT only".into(),
                ))
            }
        };
        let data = self.select(&query, sql, &mut trace, collect)?;
        Ok((data, trace))
    }

    /// The one SELECT pipeline, behind plain queries, `EXPLAIN ANALYZE`,
    /// `CREATE VIEW ... AS` and [`Client::execute_query`]: analyze →
    /// optimize → execute, each a span under `trace`'s root; `consume`
    /// takes the result's header and a pull over its batches (see
    /// [`Executor::stream`]). Execution registers in the live query
    /// registry (unless `query_tracking` is off), so `SHOW QUERIES` lists
    /// the statement and `KILL QUERY` stops it, and when the wall time
    /// reaches the engine's `slow_query_ms` a `query.slow` event carries
    /// the per-operator breakdown read from the same spans.
    fn select<T>(
        &self,
        query: &Select,
        sql: &str,
        trace: &mut Trace,
        consume: impl FnOnce(&[String], Pull) -> Result<T>,
    ) -> Result<T> {
        let root = trace.root();
        let span = trace.start("analyze", root);
        let analyzed = LogicalPlan::from_select(query)?;
        trace.end(span, None);
        let span = trace.start("optimize", root);
        let plan = optimize(analyzed)?;
        trace.end(span, None);

        let engine = self.session.engine();
        let before = engine.io_snapshot();
        let guard = engine.config().query_tracking.then(|| {
            engine
                .queries()
                .register(self.session.user(), sql, self.request_id, before)
        });
        let kill = guard.as_ref().map(|g| g.info().kill_token().clone());
        let span = trace.start("execute", root);
        let result = Executor::new(&self.session, kill).stream(&plan, trace, span, consume);
        if result.is_ok() {
            // The result's rows are what the plan's root emitted.
            let rows = trace.rows(trace.children(span)[0]).unwrap_or(0);
            let d = engine.io_snapshot().since(&before);
            trace.set_rows(span, rows);
            trace.add_attr(span, "blocks_read", d.blocks_read);
            trace.add_attr(span, "cache_hits", d.cache_hits);
            trace.add_attr(span, "bytes_read", d.bytes_read);
            let lookups = d.blocks_read + d.cache_hits;
            if let Some(pct) = (d.cache_hits * 100).checked_div(lookups) {
                trace.add_attr(span, "cache_hit_pct", pct);
            }
            if d.bloom_skips > 0 {
                trace.add_attr(span, "bloom_skips", d.bloom_skips);
            }
            trace.set_rows(root, rows);
        }
        trace.end(span, None);
        trace.end(root, None);

        let threshold = engine.config().slow_query_ms;
        let elapsed_ms = trace.elapsed(span).as_millis() as u64;
        if threshold > 0 && elapsed_ms >= threshold {
            let mut ops = Vec::new();
            push_ops(trace, span, &mut ops);
            let id = guard.as_ref().map_or(0, |g| g.info().id());
            just_obs::events::global().emit(
                "query.slow",
                format!(
                    "query_id={id} user={} elapsed_ms={elapsed_ms} ok={} ops=[{}] sql={}",
                    self.session.user(),
                    result.is_ok(),
                    ops.join(","),
                    sql.split_whitespace().collect::<Vec<_>>().join(" "),
                ),
            );
        }
        result
    }

    fn run(&mut self, stmt: Statement, sql: &str) -> Result<QueryResult> {
        match stmt {
            Statement::CreateTable {
                name,
                columns,
                userdata,
            } => {
                let schema = build_schema(&columns)?;
                let (index, period) = index_hints(&userdata)?;
                self.session.create_table(&name, schema, index, period)?;
                Ok(QueryResult::Message(format!("table '{name}' created")))
            }
            Statement::CreatePluginTable {
                name,
                plugin,
                userdata,
            } => {
                let (index, period) = index_hints(&userdata)?;
                self.session
                    .create_plugin_table(&name, &plugin, index, period)?;
                Ok(QueryResult::Message(format!(
                    "plugin table '{name}' ({plugin}) created"
                )))
            }
            Statement::CreateView { name, query } => {
                let data = self.select(&query, sql, &mut Trace::new("query"), collect)?;
                let n = data.len();
                self.session.create_view(&name, data)?;
                Ok(QueryResult::Message(format!(
                    "view '{name}' created ({n} rows cached)"
                )))
            }
            Statement::Drop { view, name } => {
                if view {
                    self.session.drop_view(&name)?;
                } else {
                    self.session.drop_table(&name)?;
                }
                Ok(QueryResult::Message(format!("'{name}' dropped")))
            }
            Statement::Show { target } => Ok(QueryResult::Data(self.show(target))),
            Statement::KillQuery { id } => {
                if self.session.engine().kill_query(id) {
                    Ok(QueryResult::Message(format!(
                        "kill requested for query {id}"
                    )))
                } else {
                    Err(QlError::Eval(format!("no live query with id {id}")))
                }
            }
            Statement::SplitRegion { table, region } => {
                match self.session.split_region(&table, region)? {
                    Some(key) => {
                        let hex: String = key.iter().map(|b| format!("{b:02x}")).collect();
                        Ok(QueryResult::Message(format!(
                            "region {region} of '{table}' split at key 0x{hex}"
                        )))
                    }
                    None => Ok(QueryResult::Message(format!(
                        "region {region} of '{table}' too small to split"
                    ))),
                }
            }
            Statement::MergeRegions {
                table,
                first,
                second,
            } => {
                self.session.merge_regions(&table, first)?;
                Ok(QueryResult::Message(format!(
                    "regions {first} and {second} of '{table}' merged"
                )))
            }
            Statement::Desc { name } => {
                let def = self.session.describe(&name)?;
                let rows = def
                    .schema
                    .fields()
                    .iter()
                    .map(|f| {
                        let mut opts = Vec::new();
                        if f.primary_key {
                            opts.push("primary key".to_string());
                        }
                        if f.compress != Codec::None {
                            opts.push(format!("compress={}", f.compress));
                        }
                        Row::new(vec![
                            Value::Str(f.name.clone()),
                            Value::Str(f.ty.name().to_string()),
                            Value::Str(opts.join(", ")),
                        ])
                    })
                    .collect();
                Ok(QueryResult::Data(Dataset::new(
                    vec!["field".into(), "type".into(), "options".into()],
                    rows,
                )))
            }
            Statement::Insert { table, rows } => {
                let def = self.session.describe(&table)?;
                let mut out = Vec::with_capacity(rows.len());
                for exprs in rows {
                    if exprs.len() != def.schema.len() {
                        return Err(QlError::Analyze(format!(
                            "INSERT has {} values, table '{}' has {} fields",
                            exprs.len(),
                            table,
                            def.schema.len()
                        )));
                    }
                    let mut values = Vec::with_capacity(exprs.len());
                    for (e, f) in exprs.iter().zip(def.schema.fields()) {
                        let v = eval_const(e)?;
                        values.push(coerce_insert(v, f.ty)?);
                    }
                    out.push(Row::new(values));
                }
                let n = self.session.insert(&table, &out)?;
                Ok(QueryResult::Message(format!("{n} rows inserted")))
            }
            Statement::Load {
                source,
                table,
                config,
                filter,
            } => {
                let path = source.strip_prefix("csv:").ok_or_else(|| {
                    QlError::Analyze(format!("unsupported LOAD source '{source}' (csv: only)"))
                })?;
                let n = load_csv(&self.session, path, &table, &config, filter.as_deref())?;
                Ok(QueryResult::Message(format!("{n} rows loaded")))
            }
            Statement::StoreView { view, table } => {
                let n = self.session.store_view(&view, &table)?;
                Ok(QueryResult::Message(format!(
                    "view '{view}' stored to table '{table}' ({n} rows)"
                )))
            }
            Statement::Query(q) => self
                .select(&q, sql, &mut Trace::new("query"), collect)
                .map(QueryResult::Data),
            Statement::Explain { analyze, query } => {
                let rendered = if analyze {
                    let mut trace = Trace::new("query");
                    self.select(&query, sql, &mut trace, collect)?;
                    trace.render()
                } else {
                    // Plain EXPLAIN lists the pipeline the executor opens,
                    // with each operator's compiled bytecode.
                    let plan = optimize(LogicalPlan::from_select(&query)?)?;
                    Executor::new(&self.session, None).explain(&plan)?
                };
                Ok(QueryResult::Data(Dataset::new(
                    vec!["plan".into()],
                    rendered
                        .lines()
                        .map(|l| Row::new(vec![Value::Str(l.to_string())]))
                        .collect(),
                )))
            }
        }
    }
}

impl Client {
    /// Builds the dataset for one `SHOW <target>`.
    fn show(&self, target: ShowTarget) -> Dataset {
        match target {
            ShowTarget::Tables | ShowTarget::Views => {
                let names = if target == ShowTarget::Views {
                    self.session.show_views()
                } else {
                    self.session.show_tables()
                };
                Dataset::new(
                    vec!["name".into()],
                    names
                        .into_iter()
                        .map(|n| Row::new(vec![Value::Str(n)]))
                        .collect(),
                )
            }
            ShowTarget::Metrics => show_metrics(),
            ShowTarget::Queries => show_queries(&self.session),
            ShowTarget::Regions => show_regions(&self.session),
            ShowTarget::Events { limit } => show_events(limit.unwrap_or(100)),
        }
    }
}

/// Appends the slow-log rendering of the operators under `span`, inputs
/// first: `label:<n>rows:<t>us`, then `:name=value` per span attribute.
fn push_ops(trace: &Trace, span: SpanId, out: &mut Vec<String>) {
    for op in trace.children(span) {
        push_ops(trace, op, out);
        let mut text = format!(
            "{}:{}rows:{}us",
            trace.name(op),
            trace.rows(op).unwrap_or(0),
            trace.elapsed(op).as_micros()
        );
        for (name, value) in trace.attrs(op) {
            text.push_str(&format!(":{name}={value}"));
        }
        out.push(text);
    }
}

/// `SHOW METRICS`: one row per counter/gauge, five rows per histogram
/// (`_count`, `_sum`, `_p50`, `_p90`, `_p99`), sorted by metric name.
fn show_metrics() -> Dataset {
    let columns = vec!["metric".into(), "kind".into(), "value".into()];
    let mut rows = Vec::new();
    for (name, value) in just_obs::global().snapshot() {
        match value {
            just_obs::MetricValue::Counter(v) => rows.push(Row::new(vec![
                Value::Str(name),
                Value::Str("counter".into()),
                Value::Int(v as i64),
            ])),
            just_obs::MetricValue::Gauge(v) => rows.push(Row::new(vec![
                Value::Str(name),
                Value::Str("gauge".into()),
                Value::Int(v as i64),
            ])),
            just_obs::MetricValue::Histogram(s) => {
                let mut push = |suffix: &str, v: Value| {
                    rows.push(Row::new(vec![
                        Value::Str(format!("{name}_{suffix}")),
                        Value::Str("histogram".into()),
                        v,
                    ]));
                };
                push("count", Value::Int(s.count as i64));
                push("sum", Value::Int(s.sum as i64));
                push("p50", Value::Int(s.p50 as i64));
                push("p90", Value::Int(s.p90 as i64));
                push("p99", Value::Int(s.p99 as i64));
            }
        }
    }
    Dataset::new(columns, rows)
}

/// `SHOW QUERIES`: the live query registry with each query's IO delta
/// since it started (exact when it runs alone; attribution-approximate
/// under concurrency, like `EXPLAIN ANALYZE`).
fn show_queries(session: &Session) -> Dataset {
    let engine = session.engine();
    let now = engine.io_snapshot();
    let columns = vec![
        "id".into(),
        "user".into(),
        "request_id".into(),
        "elapsed_ms".into(),
        "blocks_read".into(),
        "cache_hits".into(),
        "bytes_read".into(),
        "batches".into(),
        "query".into(),
    ];
    let rows = engine
        .queries()
        .list()
        .into_iter()
        .map(|q| {
            let io = now.since(q.io_start());
            Row::new(vec![
                Value::Int(q.id() as i64),
                Value::Str(q.user().to_string()),
                q.request_id()
                    .map(|r| Value::Int(r as i64))
                    .unwrap_or(Value::Null),
                Value::Int(q.elapsed().as_millis() as i64),
                Value::Int(io.blocks_read as i64),
                Value::Int(io.cache_hits as i64),
                Value::Int(io.bytes_read as i64),
                Value::Int(io.batches_emitted as i64),
                Value::Str(q.sql().to_string()),
            ])
        })
        .collect();
    Dataset::new(columns, rows)
}

/// `SHOW REGIONS`: per-region size and traffic stats for this session's
/// tables only (names come back logical, the namespace prefix stripped).
fn show_regions(session: &Session) -> Dataset {
    let columns = vec![
        "table".into(),
        "region".into(),
        "start_key".into(),
        "entries".into(),
        "disk_bytes".into(),
        "memtable_bytes".into(),
        "sstables".into(),
        "generations".into(),
        "next_seq".into(),
        "snapshots".into(),
        "held_gens".into(),
        "sealed".into(),
        "reads".into(),
        "writes".into(),
        "bytes_read".into(),
        "bytes_written".into(),
        "scans".into(),
        "scan_blocks".into(),
    ];
    let rows = session
        .region_stats()
        .into_iter()
        .map(|(table, s)| {
            let start_key: String = s.start_key.iter().map(|b| format!("{b:02x}")).collect();
            Row::new(vec![
                Value::Str(table),
                Value::Int(s.index as i64),
                Value::Str(start_key),
                Value::Int(s.entries as i64),
                Value::Int(s.disk_bytes as i64),
                Value::Int(s.memtable_bytes as i64),
                Value::Int(s.sstables as i64),
                Value::Int(s.generations as i64),
                Value::Int(s.next_seq as i64),
                Value::Int(s.open_snapshots as i64),
                Value::Int(s.held_generations as i64),
                Value::Bool(s.sealed),
                Value::Int(s.traffic.reads as i64),
                Value::Int(s.traffic.writes as i64),
                Value::Int(s.traffic.bytes_read as i64),
                Value::Int(s.traffic.bytes_written as i64),
                Value::Int(s.traffic.scans as i64),
                Value::Int(s.traffic.scan_blocks as i64),
            ])
        })
        .collect();
    Dataset::new(columns, rows)
}

/// `SHOW EVENTS [LIMIT n]`: the most recent event-log entries, newest
/// first.
fn show_events(limit: usize) -> Dataset {
    let columns = vec!["seq".into(), "ts_ms".into(), "kind".into(), "detail".into()];
    let rows = just_obs::events::global()
        .recent(limit)
        .into_iter()
        .map(|e| {
            Row::new(vec![
                Value::Int(e.seq as i64),
                Value::Int(e.ts_ms as i64),
                Value::Str(e.kind),
                Value::Str(e.detail),
            ])
        })
        .collect();
    Dataset::new(columns, rows)
}

/// Maps AST column definitions onto a storage schema.
fn build_schema(columns: &[ColumnDef]) -> Result<Schema> {
    let mut fields = Vec::with_capacity(columns.len());
    for c in columns {
        let ty = FieldType::parse(&c.type_name)
            .ok_or_else(|| QlError::Analyze(format!("unknown type '{}'", c.type_name)))?;
        let mut field = Field::new(c.name.clone(), ty);
        for opt in &c.options {
            if opt.eq_ignore_ascii_case("primary key") {
                field.primary_key = true;
            } else if let Some(v) = opt.strip_prefix("compress=") {
                field.compress = Codec::parse(v)
                    .ok_or_else(|| QlError::Analyze(format!("unknown codec '{v}'")))?;
            } else if let Some(v) = opt.strip_prefix("srid=") {
                field.srid = v
                    .parse()
                    .map_err(|_| QlError::Analyze(format!("bad srid '{v}'")))?;
            } else {
                return Err(QlError::Analyze(format!("unknown column option '{opt}'")));
            }
        }
        fields.push(field);
    }
    Schema::new(fields).map_err(|e| QlError::Analyze(e.to_string()))
}

/// Reads the `USERDATA` hints: `geomesa.indices.enabled` picks the index
/// (`z2`, `z3`, `xz2`, `xz3`, `z2t`, `xz2t`), `period` the time period.
fn index_hints(userdata: &Option<Json>) -> Result<(Option<IndexKind>, Option<TimePeriod>)> {
    let Some(j) = userdata else {
        return Ok((None, None));
    };
    let index = match j.get("geomesa.indices.enabled").or_else(|| j.get("index")) {
        Some(name) => Some(
            IndexKind::parse(name)
                .ok_or_else(|| QlError::Analyze(format!("unknown index '{name}'")))?,
        ),
        None => None,
    };
    let period = match j.get("period") {
        Some(name) => Some(
            TimePeriod::parse(name)
                .ok_or_else(|| QlError::Analyze(format!("unknown period '{name}'")))?,
        ),
        None => None,
    };
    Ok((index, period))
}

/// INSERT-time coercion (Int literals into Date/Float fields, WKT strings
/// into geometry fields).
fn coerce_insert(v: Value, ty: FieldType) -> Result<Value> {
    Ok(match (ty, v) {
        (FieldType::Date, Value::Int(i)) => Value::Date(i),
        (FieldType::Float, Value::Int(i)) => Value::Float(i as f64),
        (
            FieldType::Point | FieldType::LineString | FieldType::Polygon | FieldType::Geometry,
            Value::Str(s),
        ) => Value::Geom(just_geo::parse_wkt(&s).map_err(|e| QlError::Eval(e.to_string()))?),
        (_, other) => other,
    })
}
