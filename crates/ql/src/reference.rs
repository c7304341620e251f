//! The tree-walking operators the compiled executor replaced, kept as
//! the oracle the suites under `tests/` (`compiled_parity.rs`,
//! `join_sort_parity.rs`, `optimizer_equivalence.rs`, `e2e.rs`) compare
//! [`crate::Client`] against. Nothing in the executor or the compiler
//! calls into this module; it is `pub` only because those integration
//! tests call it.
//!
//! [`run`] executes an *optimized* plan with every expression evaluated
//! by `functions::eval`, one row at a time, and what the optimizer
//! planned into an operator desugared: a limited `Sort` (TOP-K) is
//! sort-then-truncate, a `Join` with keys the nested loop over its
//! reconstructed `ON`, a `Project` with a predicate filter-then-project.
//! The storage side of a scan, `Values`, `Knn` and `st_DBSCAN`'s clustering
//! are the executor's own. Analysis is the
//! interpreter's: names are validated per operator before its row loop,
//! but aggregates over zero rows never look at their argument.

use crate::ast::Expr;
use crate::compile::compile;
use crate::error::QlError;
use crate::exec::{self, Executor, ProjectItem};
use crate::functions::{self, eval, resolve_column, truthy};
use crate::plan::LogicalPlan;
use crate::sink::{Dbscan, Sink};
use crate::Result;
use just_core::{Dataset, Session};
use just_exec::total_compare;
use just_obs::Trace;
use just_storage::{Row, Value};
use std::collections::HashMap;

/// Runs an optimized plan to a dataset on the interpreted operators.
pub fn run(session: &Session, plan: &LogicalPlan) -> Result<Dataset> {
    let mut children = Vec::new();
    for child in plan.children() {
        children.push(run(session, child)?);
    }
    let mut inputs = children.into_iter();
    let mut child = || inputs.next().expect("one dataset per input");
    match plan {
        LogicalPlan::Scan {
            table,
            alias,
            projection,
            spatial,
            time,
            residual,
            ..
        } => {
            let (mut data, preds) = match session.view(table) {
                Ok(view) => (
                    Dataset::clone(&view),
                    exec::view_preds(spatial, time, residual),
                ),
                Err(_) => scan_stored(session, plan)?,
            };
            // A later predicate only ever sees rows the earlier ones kept.
            for (_, pred) in &preds {
                data = filter_interpreted(data, pred)?;
            }
            let (keep, header) = exec::scan_header(&data.columns, projection, alias);
            Ok(Dataset::new(header, exec::keep_columns(data.rows, &keep)))
        }
        // The leaves that evaluate no expression are the executor's own.
        LogicalPlan::Values { .. } | LogicalPlan::Knn { .. } => {
            let mut trace = Trace::new("reference");
            let root = trace.root();
            Executor::new(session, None).run(plan, &mut trace, root)
        }
        LogicalPlan::Filter { predicate, .. } => filter_interpreted(child(), predicate),
        LogicalPlan::Project {
            predicate, items, ..
        } => match predicate {
            Some(p) => project(filter_interpreted(child(), p)?, items),
            None => project(child(), items),
        },
        LogicalPlan::Aggregate {
            group_by,
            aggregates,
            ..
        } => aggregate_interpreted(child(), group_by, aggregates),
        LogicalPlan::Sort { keys, limit, .. } => {
            let mut d = sort(child(), keys)?;
            d.rows.truncate(limit.unwrap_or(usize::MAX));
            Ok(d)
        }
        LogicalPlan::Limit { n, .. } => {
            let mut d = child();
            d.rows.truncate(*n);
            Ok(d)
        }
        LogicalPlan::Join { keys, residual, .. } => {
            let left = child();
            join(left, child(), &exec::reconstruct_on(keys, residual))
        }
    }
}

/// The nested-loop inner join: the condition is evaluated pair at a time
/// with `eval()`, whose coercing comparator (`'3' = 3`) is the semantics
/// the executor's hash path must reproduce. The condition is analyzed
/// first, as the executor's join does.
fn join(left: Dataset, right: Dataset, on: &Expr) -> Result<Dataset> {
    let mut columns = left.columns;
    columns.extend(right.columns);
    compile(on, &columns)?;
    let mut rows = Vec::new();
    for l in &left.rows {
        for r in &right.rows {
            let mut values = l.values.clone();
            values.extend(r.values.iter().cloned());
            if truthy(&eval(on, &values, &columns)?) {
                rows.push(Row::new(values));
            }
        }
    }
    Ok(Dataset::new(columns, rows))
}

/// A stored table's rows in the window its index serves, with the
/// predicates left to run in memory. A pushed `LIMIT` is left to the
/// `Limit` above it.
fn scan_stored(session: &Session, scan: &LogicalPlan) -> Result<(Dataset, exec::ScanPreds)> {
    let (mut stream, columns, preds) = exec::open_stored_scan(session, scan)?;
    let mut rows = Vec::new();
    while let Some(batch) = stream.next_batch().map_err(just_core::CoreError::Storage)? {
        rows.extend(batch);
    }
    Ok((Dataset::new(columns, rows), preds))
}

/// Errors on column references that cannot resolve against the header and
/// on unknown function names — run before row-wise evaluation so empty
/// relations still reject bad queries (like any SQL analyzer).
fn validate_columns(expr: &Expr, columns: &[String]) -> Result<()> {
    for c in expr.columns() {
        resolve_column(&c, columns)?;
    }
    let mut bad_fn: Option<String> = None;
    expr.walk(&mut |e| {
        if let Expr::Func { name, .. } = e {
            if bad_fn.is_none() && !functions::is_known_function(name) {
                bad_fn = Some(name.clone());
            }
        }
    });
    match bad_fn {
        Some(name) => Err(QlError::Analyze(format!("unknown function '{name}'"))),
        None => Ok(()),
    }
}

/// The interpreted fallback: row-at-a-time `eval()`.
fn filter_interpreted(data: Dataset, predicate: &Expr) -> Result<Dataset> {
    validate_columns(predicate, &data.columns)?;
    let mut rows = Vec::with_capacity(data.rows.len());
    for row in data.rows {
        let keep = truthy(&eval(predicate, &row.values, &data.columns)?);
        if keep {
            rows.push(row);
        }
    }
    Ok(Dataset::new(data.columns, rows))
}

/// `Project`: every item evaluates per row; a 1-N table function expands
/// each row, and `st_DBSCAN` clusters them all through the executor's own
/// operator. Row functions' arguments are analyzed first, as the
/// executor does.
fn project(data: Dataset, items: &[(Expr, String)]) -> Result<Dataset> {
    if let Some((name, args)) = exec::row_function(items) {
        for a in args {
            compile(a, &data.columns)?;
        }
        if functions::is_cluster_function(name) {
            let mut dbscan = Dbscan::new(data.columns, None, args)?;
            dbscan.push(data.rows)?;
            let columns = vec!["geom".into(), "cluster".into()];
            return Ok(Dataset::new(columns, dbscan.finish()));
        }
        let mut rows = Vec::new();
        for row in &data.rows {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval(a, &row.values, &data.columns)?);
            }
            rows.extend(
                functions::table_function(name, vals)?
                    .into_iter()
                    .map(Row::new),
            );
        }
        return Ok(Dataset::new(functions::table_columns(name), rows));
    }
    for (e, _) in items {
        if !matches!(e, Expr::Star) {
            validate_columns(e, &data.columns)?;
        }
    }
    let (columns, plans) = exec::plan_items(items, &data.columns)?;
    project_interpreted(data, columns, &plans)
}

/// The interpreted fallback: row-at-a-time `eval()` per computed item.
fn project_interpreted(
    data: Dataset,
    columns: Vec<String>,
    plans: &[ProjectItem],
) -> Result<Dataset> {
    let mut rows = Vec::with_capacity(data.rows.len());
    for row in &data.rows {
        let mut values = Vec::with_capacity(plans.len());
        for p in plans {
            values.push(match p {
                ProjectItem::Passthrough(i) => row.values[*i].clone(),
                ProjectItem::Compute(e) => eval(e, &row.values, &data.columns)?,
            });
        }
        rows.push(Row::new(values));
    }
    Ok(Dataset::new(columns, rows))
}

/// The interpreted fallback: groups rows by encoded key (hash-indexed,
/// with the encode buffer and key scratch reused across rows), then runs
/// [`eval_aggregate`] per group.
fn aggregate_interpreted(
    data: Dataset,
    group_by: &[(Expr, String)],
    aggregates: &[(String, Expr, String)],
) -> Result<Dataset> {
    let mut groups: Vec<(Vec<Value>, Vec<usize>)> = Vec::new();
    let mut index: HashMap<Vec<u8>, usize> = HashMap::new();
    let mut key_bytes: Vec<u8> = Vec::new();
    let mut key_vals: Vec<Value> = Vec::new();
    for (row_idx, row) in data.rows.iter().enumerate() {
        key_bytes.clear();
        key_vals.clear();
        for (e, _) in group_by {
            let v = eval(e, &row.values, &data.columns)?;
            v.encode(&mut key_bytes);
            key_vals.push(v);
        }
        let slot = match index.get(key_bytes.as_slice()) {
            Some(&slot) => slot,
            None => {
                index.insert(key_bytes.clone(), groups.len());
                groups.push((std::mem::take(&mut key_vals), Vec::new()));
                groups.len() - 1
            }
        };
        groups[slot].1.push(row_idx);
    }
    // A global aggregate over zero rows still yields one row.
    if groups.is_empty() && group_by.is_empty() {
        groups.push((Vec::new(), Vec::new()));
    }

    let mut columns: Vec<String> = group_by.iter().map(|(_, n)| n.clone()).collect();
    columns.extend(aggregates.iter().map(|(_, _, n)| n.clone()));

    let mut rows = Vec::with_capacity(groups.len());
    for (key_vals, members) in groups {
        let mut values = key_vals;
        for (func, arg, _) in aggregates {
            values.push(eval_aggregate(func, arg, &members, &data)?);
        }
        rows.push(Row::new(values));
    }
    Ok(Dataset::new(columns, rows))
}

fn eval_aggregate(func: &str, arg: &Expr, members: &[usize], data: &Dataset) -> Result<Value> {
    let mut vals: Vec<Value> = Vec::with_capacity(members.len());
    if matches!(arg, Expr::Star) {
        if func != "count" {
            return Err(QlError::Eval(format!("{func}(*) is not supported")));
        }
        return Ok(Value::Int(members.len() as i64));
    }
    for &i in members {
        let v = eval(arg, &data.rows[i].values, &data.columns)?;
        if !v.is_null() {
            vals.push(v);
        }
    }
    Ok(match func {
        "count" => Value::Int(vals.len() as i64),
        "sum" => {
            if vals.is_empty() {
                Value::Null
            } else if vals.iter().all(|v| matches!(v, Value::Int(_))) {
                Value::Int(vals.iter().map(|v| v.as_int().unwrap()).sum())
            } else {
                let mut acc = 0.0;
                for v in &vals {
                    acc += v
                        .as_float()
                        .ok_or_else(|| QlError::Eval(format!("sum over {v:?}")))?;
                }
                Value::Float(acc)
            }
        }
        "avg" => {
            if vals.is_empty() {
                Value::Null
            } else {
                let mut acc = 0.0;
                for v in &vals {
                    acc += v
                        .as_float()
                        .ok_or_else(|| QlError::Eval(format!("avg over {v:?}")))?;
                }
                Value::Float(acc / vals.len() as f64)
            }
        }
        "min" | "max" => {
            let mut best: Option<Value> = None;
            for v in vals {
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let ord = functions::compare(&v, &b)?;
                        let take = if func == "min" {
                            ord == std::cmp::Ordering::Less
                        } else {
                            ord == std::cmp::Ordering::Greater
                        };
                        if take {
                            v
                        } else {
                            b
                        }
                    }
                });
            }
            best.unwrap_or(Value::Null)
        }
        other => return Err(QlError::Eval(format!("unknown aggregate '{other}'"))),
    })
}

/// The interpreted sort: decorate each row with its evaluated keys, then
/// stable-sort with [`total_compare`] per key. The total order makes
/// incomparable pairs (mixed types the coercing comparator would reject)
/// order deterministically by cross-type rank instead of silently tying.
fn sort(mut data: Dataset, keys: &[(Expr, bool)]) -> Result<Dataset> {
    // Precompute sort keys (eval can fail; do it before sorting).
    let mut decorated: Vec<(Vec<Value>, Row)> = Vec::with_capacity(data.rows.len());
    for row in data.rows.drain(..) {
        let mut k = Vec::with_capacity(keys.len());
        for (e, _) in keys {
            k.push(eval(e, &row.values, &data.columns)?);
        }
        decorated.push((k, row));
    }
    decorated.sort_by(|(ka, _), (kb, _)| {
        for (i, (_, asc)) in keys.iter().enumerate() {
            let ord = total_compare(&ka[i], &kb[i]);
            let ord = if *asc { ord } else { ord.reverse() };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    data.rows = decorated.into_iter().map(|(_, r)| r).collect();
    Ok(data)
}
