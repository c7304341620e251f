//! The rule-based SQL optimizer (Section VI, "SQL Optimize").
//!
//! Three rewrite rules, exactly the paper's list:
//!
//! 1. **Calculate constant expressions** — `fid = 52*9` becomes
//!    `fid = 468`, `st_makeMBR(...)` becomes a rectangle literal.
//! 2. **Push down selections** — spatio-temporal predicates
//!    (`geom WITHIN <rect>`, `time BETWEEN a AND b`, `time >= a AND
//!    time <= b`) and residual predicates move through projections and
//!    through inner joins, by alias, into the `Scan`, where the storage
//!    layer turns them into index key ranges.
//! 3. **Push down projections** — only the columns needed by filters,
//!    sorts and outputs are retained at the scan, through projections
//!    and through inner joins, by alias.
//!
//! No catalog enters the optimizer, so a join routes a name to an input
//! by its qualifier alone ([`side_by_alias`]): `o.geom` belongs to the
//! input holding the one `Scan` aliased `o`. A qualified name its own
//! table doesn't have therefore fails at that scan as an unknown column,
//! where the unoptimized plan's suffix-matching resolver could still
//! have found a bare column of the same name in the other input.
//!
//! Plus one rule beyond the paper's list, enabled by the streaming read
//! path:
//!
//! 4. **Push down limits** — a `LIMIT k` whose input is a scan (possibly
//!    behind pure-column projections) annotates the scan with `limit=k`,
//!    so the executor stops pulling batches — and the kvstore stops
//!    reading blocks — after the k-th *matching* row. The `Limit` node is
//!    kept as the authoritative truncation.
//!
//! And three that plan the executor's stages, each filling in a node's
//! fields rather than swapping its variant: 5. a limited `Sort` (TOP-K),
//! 6. a `Join`'s equi keys, 7. a `Project`'s fused predicate.

use crate::ast::{BinOp, Expr};
use crate::functions::eval_const;
use crate::plan::LogicalPlan;
use crate::Result;
use just_storage::Value;

/// Runs all rules to fixpoint-ish (each rule once; they are confluent for
/// the plans the parser produces).
pub fn optimize(plan: LogicalPlan) -> Result<LogicalPlan> {
    let plan = fold_constants(plan)?;
    let plan = eliminate_trivial_filters(plan);
    let plan = push_down_filters(plan);
    let plan = push_down_projections(plan);
    let plan = push_down_limits(plan);
    let plan = fuse_topk(plan);
    let plan = plan_hash_joins(plan);
    let plan = fuse_filter_project(plan);
    Ok(plan)
}

// ----------------------------------------------------------------------
// Rule 1: constant folding
// ----------------------------------------------------------------------

/// Folds constant sub-expressions throughout the plan.
fn fold_constants(plan: LogicalPlan) -> Result<LogicalPlan> {
    plan.map_exprs(&mut fold_expr)
}

fn fold_expr(e: Expr) -> Result<Expr> {
    // Fold children first.
    let e = match e {
        Expr::Binary { op, lhs, rhs } => Expr::Binary {
            op,
            lhs: Box::new(fold_expr(*lhs)?),
            rhs: Box::new(fold_expr(*rhs)?),
        },
        Expr::Unary { not, expr } => Expr::Unary {
            not,
            expr: Box::new(fold_expr(*expr)?),
        },
        Expr::Func { name, args } => Expr::Func {
            name,
            args: args.into_iter().map(fold_expr).collect::<Result<_>>()?,
        },
        Expr::Between { expr, lo, hi } => Expr::Between {
            expr: Box::new(fold_expr(*expr)?),
            lo: Box::new(fold_expr(*lo)?),
            hi: Box::new(fold_expr(*hi)?),
        },
        other => other,
    };
    if e.is_constant() && !matches!(e, Expr::Literal(_)) && !contains_volatile(&e) {
        // Aggregates and errors are left in place for the executor.
        if let Ok(v) = eval_const(&e) {
            return Ok(Expr::Literal(v));
        }
    }
    Ok(e)
}

/// Whether any function in the expression is volatile (side-effecting,
/// like `sleep_ms`) — folding one at plan time would run the side effect
/// once instead of per row and bake the result into the plan.
fn contains_volatile(e: &Expr) -> bool {
    let mut volatile = false;
    e.walk(&mut |x| {
        if let Expr::Func { name, .. } = x {
            if crate::functions::is_volatile(name) {
                volatile = true;
            }
        }
    });
    volatile
}

// ----------------------------------------------------------------------
// Rule 1b: trivial-filter elimination
// ----------------------------------------------------------------------

/// Removes filter work that constant folding already decided: truthy
/// literal conjuncts are deleted (evaluating a literal has no effects,
/// so this is position-independent), `WHERE 1 = 1` disappears from the
/// plan entirely — no Filter node, no residual, no per-row work — and a
/// predicate that is false before any row-dependent conjunct becomes
/// `Limit [0]`: the input relation's header survives but no rows are
/// pulled. A falsy literal *after* a row-dependent conjunct stays put,
/// preserving the interpreter's left-to-right evaluation (the earlier
/// conjunct may error). Runs right after constant folding, which is what
/// produces the literal predicates this rule consumes.
fn eliminate_trivial_filters(plan: LogicalPlan) -> LogicalPlan {
    plan.map_plan(&mut |node| match node {
        LogicalPlan::Filter { input, predicate } => {
            let mut kept: Vec<Expr> = Vec::new();
            for c in split_conjuncts(predicate) {
                match &c {
                    Expr::Literal(v) if crate::functions::truthy(v) => {}
                    Expr::Literal(_) if kept.is_empty() => {
                        return LogicalPlan::Limit { input, n: 0 };
                    }
                    _ => kept.push(c),
                }
            }
            match merge_residual(None, kept) {
                Some(predicate) => LogicalPlan::Filter { input, predicate },
                None => *input,
            }
        }
        other => other,
    })
}

// ----------------------------------------------------------------------
// Rule 2: selection pushdown
// ----------------------------------------------------------------------

fn push_down_filters(plan: LogicalPlan) -> LogicalPlan {
    plan.map_plan(&mut |node| match node {
        LogicalPlan::Filter {
            mut input,
            predicate,
        } => {
            sink_filter(&mut input, predicate);
            *input
        }
        // All joins are inner, so an `ON` conjunct over one input is a
        // filter on that input; what is left is the cross-side part
        // `plan_hash_joins` looks for its keys in (`true` when nothing
        // is left: a cross join of the filtered inputs).
        LogicalPlan::Join {
            mut left,
            mut right,
            keys,
            residual: Some(on),
        } if keys.is_empty() => {
            let on = sink_into_join(&mut left, &mut right, on)
                .unwrap_or(Expr::Literal(Value::Bool(true)));
            LogicalPlan::Join {
                left,
                right,
                keys,
                residual: Some(on),
            }
        }
        other => other,
    })
}

/// A join input.
#[derive(Clone, Copy, PartialEq)]
enum Side {
    Left,
    Right,
}

/// How many scans under `plan` carry `alias`.
fn scans_aliased(plan: &LogicalPlan, alias: &str) -> usize {
    let own =
        matches!(plan, LogicalPlan::Scan { alias: Some(a), .. } if a.eq_ignore_ascii_case(alias));
    let below: usize = plan
        .children()
        .into_iter()
        .map(|c| scans_aliased(c, alias))
        .sum();
    own as usize + below
}

/// The one input of a join all of `columns` belong to — the routing both
/// pushdown rules share. A name belongs to an input when it is qualified
/// by an alias that exactly one `Scan` in the whole join subtree carries
/// and that scan is in the input, so nested joins route to the side
/// holding the scan and a self-join's two aliases each go their own way.
/// `None` when there is no such input: a bare name, a subquery's alias
/// (no scan carries it), an alias a subquery side re-uses (two scans
/// do), names of both inputs, or no name at all.
fn side_by_alias<'a>(
    columns: impl IntoIterator<Item = &'a String>,
    left: &LogicalPlan,
    right: &LogicalPlan,
) -> Option<Side> {
    let mut side = None;
    for name in columns {
        let (alias, _) = name.split_once('.')?;
        let s = match (scans_aliased(left, alias), scans_aliased(right, alias)) {
            (1, 0) => Side::Left,
            (0, 1) => Side::Right,
            _ => return None,
        };
        if side.is_some_and(|p| p != s) {
            return None;
        }
        side = Some(s);
    }
    side
}

/// Sinks the conjuncts of `predicate` that [`side_by_alias`] routes to
/// one input of a join into that input, and returns the rest: what
/// names both inputs, a bare name, or calls a volatile function
/// (filtering earlier would change how often it runs).
fn sink_into_join(
    left: &mut LogicalPlan,
    right: &mut LogicalPlan,
    predicate: Expr,
) -> Option<Expr> {
    let (mut to_left, mut to_right, mut rest) = (Vec::new(), Vec::new(), Vec::new());
    for conjunct in split_conjuncts(predicate) {
        let side = if contains_volatile(&conjunct) {
            None
        } else {
            side_by_alias(&conjunct.columns(), left, right)
        };
        match side {
            Some(Side::Left) => to_left.push(conjunct),
            Some(Side::Right) => to_right.push(conjunct),
            None => rest.push(conjunct),
        }
    }
    for (input, conjuncts) in [(left, to_left), (right, to_right)] {
        if let Some(p) = merge_residual(None, conjuncts) {
            sink_filter(input, p);
        }
    }
    merge_residual(None, rest)
}

/// Whether a projection only passes columns through under their own
/// names (or `*`): it neither adds nor drops rows and renames nothing,
/// so filters, limits and TOP-K fusion sink through it (like the paper's
/// example where the filter sinks through `SELECT * FROM t`).
pub(crate) fn is_pure_columns(items: &[(Expr, String)]) -> bool {
    items
        .iter()
        .all(|(e, name)| matches!(e, Expr::Column(c) if c == name) || matches!(e, Expr::Star))
}

/// Sinks `predicate` to the scan under `plan`, where the spatial and
/// temporal conjuncts become the index window and the rest the residual;
/// a join passes each single-input conjunct on to that input; where no
/// scan is reachable the predicate becomes a `Filter` at that point.
fn sink_filter(plan: &mut LogicalPlan, predicate: Expr) {
    match plan {
        LogicalPlan::Project {
            input,
            predicate: None,
            items,
        } if is_pure_columns(items) => sink_filter(input, predicate),
        LogicalPlan::Join { left, right, .. } => {
            if let Some(predicate) = sink_into_join(left, right, predicate) {
                *plan = LogicalPlan::Filter {
                    input: Box::new(plan.take()),
                    predicate,
                };
            }
        }
        LogicalPlan::Scan {
            spatial,
            time,
            residual,
            ..
        } => {
            let mut leftovers: Vec<Expr> = Vec::new();
            for conjunct in split_conjuncts(predicate) {
                if spatial.is_none() {
                    if let Some(hit) = match_spatial(&conjunct) {
                        *spatial = Some(hit);
                        continue;
                    }
                }
                if time.is_none() {
                    if let Some(hit) = match_temporal(&conjunct) {
                        *time = Some(hit);
                        continue;
                    }
                }
                leftovers.push(conjunct);
            }
            if time.is_none() {
                *time = pair_time_bounds(&mut leftovers);
            }
            *residual = merge_residual(residual.take(), leftovers);
        }
        other => {
            *other = LogicalPlan::Filter {
                input: Box::new(other.take()),
                predicate,
            }
        }
    }
}

fn split_conjuncts(e: Expr) -> Vec<Expr> {
    match e {
        Expr::Binary {
            op: BinOp::And,
            lhs,
            rhs,
        } => {
            let mut out = split_conjuncts(*lhs);
            out.extend(split_conjuncts(*rhs));
            out
        }
        other => vec![other],
    }
}

fn merge_residual(existing: Option<Expr>, leftovers: Vec<Expr>) -> Option<Expr> {
    let mut all: Vec<Expr> = existing.into_iter().collect();
    all.extend(leftovers);
    all.into_iter().reduce(|a, b| Expr::Binary {
        op: BinOp::And,
        lhs: Box::new(a),
        rhs: Box::new(b),
    })
}

/// `geom WITHIN <rect literal>` (after constant folding).
fn match_spatial(e: &Expr) -> Option<(String, just_geo::Rect)> {
    if let Expr::Binary {
        op: BinOp::Within,
        lhs,
        rhs,
    } = e
    {
        if let (Expr::Column(col), Expr::Literal(Value::Geom(g))) = (lhs.as_ref(), rhs.as_ref()) {
            return Some((col.clone(), g.mbr()));
        }
    }
    // st_within(geom, <rect>)
    if let Expr::Func { name, args } = e {
        if name == "st_within" && args.len() == 2 {
            if let (Expr::Column(col), Expr::Literal(Value::Geom(g))) = (&args[0], &args[1]) {
                return Some((col.clone(), g.mbr()));
            }
        }
    }
    None
}

/// `time BETWEEN <a> AND <b>` (after constant folding);
/// [`pair_time_bounds`] recognizes the `time >= a AND time <= b` spelling.
fn match_temporal(e: &Expr) -> Option<(String, i64, i64)> {
    if let Expr::Between { expr, lo, hi } = e {
        if let (Expr::Column(col), Expr::Literal(a), Expr::Literal(b)) =
            (expr.as_ref(), lo.as_ref(), hi.as_ref())
        {
            let a = a.as_date()?;
            let b = b.as_date()?;
            return Some((col.clone(), a.min(b), a.max(b)));
        }
    }
    None
}

/// One half of a time window: `column >= at` when `lower`, else
/// `column <= at`. A `strict` half (`>`, `<`) excludes `at` itself.
#[derive(Clone, Copy)]
struct TimeBound<'a> {
    column: &'a str,
    lower: bool,
    at: i64,
    strict: bool,
}

/// A comparison of a column with a date-able literal, either way round
/// (`time >= a`, `a <= time`).
fn match_time_bound(e: &Expr) -> Option<TimeBound<'_>> {
    let Expr::Binary { op, lhs, rhs } = e else {
        return None;
    };
    let (lower, strict) = match op {
        BinOp::Ge => (true, false),
        BinOp::Gt => (true, true),
        BinOp::Le => (false, false),
        BinOp::Lt => (false, true),
        _ => return None,
    };
    let (column, literal, lower) = match (lhs.as_ref(), rhs.as_ref()) {
        (Expr::Column(c), Expr::Literal(v)) => (c, v, lower),
        // `a <= time` bounds `time` from below.
        (Expr::Literal(v), Expr::Column(c)) => (c, v, !lower),
        _ => return None,
    };
    Some(TimeBound {
        column,
        lower,
        at: literal.as_date()?,
        strict,
    })
}

/// Pairs the first lower-bound conjunct with the first upper-bound
/// conjunct on the same column into an inclusive time window, removing
/// them from `conjuncts` — except a strict bound, which the inclusive
/// window over-approximates and which therefore also stays. An empty
/// range (`lo > hi`) is left to the residual.
fn pair_time_bounds(conjuncts: &mut Vec<Expr>) -> Option<(String, i64, i64)> {
    let bounds: Vec<(usize, TimeBound)> = conjuncts
        .iter()
        .enumerate()
        .filter_map(|(i, c)| Some((i, match_time_bound(c)?)))
        .collect();
    let (lo, hi) = bounds.iter().filter(|(_, b)| b.lower).find_map(|lo| {
        let closes = |hi: &TimeBound| {
            !hi.lower && hi.column.eq_ignore_ascii_case(lo.1.column) && lo.1.at <= hi.at
        };
        Some((*lo, *bounds.iter().find(|(_, hi)| closes(hi))?))
    })?;
    let window = (lo.1.column.to_string(), lo.1.at, hi.1.at);
    // Higher index first, so that the other stays valid.
    let mut covered = [(lo.0, lo.1.strict), (hi.0, hi.1.strict)];
    covered.sort_unstable_by_key(|(i, _)| std::cmp::Reverse(*i));
    for (i, strict) in covered {
        if !strict {
            conjuncts.remove(i);
        }
    }
    Some(window)
}

// ----------------------------------------------------------------------
// Rule 3: projection pushdown
// ----------------------------------------------------------------------

fn push_down_projections(plan: LogicalPlan) -> LogicalPlan {
    // Top-down: compute required columns; `None` = everything.
    prune(plan, None)
}

fn prune(plan: LogicalPlan, required: Option<Vec<String>>) -> LogicalPlan {
    match plan {
        LogicalPlan::Project {
            input,
            predicate,
            items,
        } => {
            // An identity projection (`SELECT *`) adds nothing: elide it
            // and pass the parent's requirement straight through — this is
            // how the paper's Figure 8 subquery collapses.
            if predicate.is_none() && items.len() == 1 && matches!(items[0].0, Expr::Star) {
                return prune(*input, required);
            }
            // Columns the projection itself needs (a Star needs all).
            let mut needed: Vec<String> = predicate.iter().flat_map(Expr::columns).collect();
            let mut star = false;
            for (e, _) in &items {
                if matches!(e, Expr::Star) {
                    star = true;
                }
                needed.extend(e.columns());
            }
            let child_req = if star { None } else { Some(needed) };
            LogicalPlan::Project {
                input: Box::new(prune(*input, child_req)),
                predicate,
                items,
            }
        }
        LogicalPlan::Filter { input, predicate } => {
            let child_req = required.map(|mut r| {
                r.extend(predicate.columns());
                r
            });
            LogicalPlan::Filter {
                input: Box::new(prune(*input, child_req)),
                predicate,
            }
        }
        LogicalPlan::Sort { input, keys, limit } => {
            let child_req = required.map(|mut r| {
                for (e, _) in &keys {
                    r.extend(e.columns());
                }
                r
            });
            LogicalPlan::Sort {
                input: Box::new(prune(*input, child_req)),
                keys,
                limit,
            }
        }
        LogicalPlan::Limit { input, n } => LogicalPlan::Limit {
            input: Box::new(prune(*input, required)),
            n,
        },
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggregates,
        } => {
            let mut needed = Vec::new();
            for (e, _) in &group_by {
                needed.extend(e.columns());
            }
            for (_, e, _) in &aggregates {
                // count(*) needs no concrete column beyond the group keys;
                // the scan still produces rows regardless.
                if !matches!(e, Expr::Star) {
                    needed.extend(e.columns());
                }
            }
            LogicalPlan::Aggregate {
                input: Box::new(prune(*input, Some(needed))),
                group_by,
                aggregates,
            }
        }
        LogicalPlan::Scan {
            table,
            alias,
            projection,
            spatial,
            time,
            residual,
            limit,
        } => {
            let projection = match (projection, required) {
                (Some(p), _) => Some(p),
                (None, Some(mut req)) => {
                    // The scan itself also needs its pushed-down columns.
                    if let Some((c, _)) = &spatial {
                        req.push(c.clone());
                    }
                    if let Some((c, _, _)) = &time {
                        req.push(c.clone());
                    }
                    if let Some(r) = &residual {
                        req.extend(r.columns());
                    }
                    req.sort();
                    req.dedup();
                    Some(req)
                }
                (None, None) => None,
            };
            LogicalPlan::Scan {
                table,
                alias,
                projection,
                spatial,
                time,
                residual,
                limit,
            }
        }
        LogicalPlan::Join {
            left,
            right,
            keys,
            residual,
        } => {
            // Each input keeps what the operators above and the `ON`
            // condition read of it; one name that `side_by_alias` cannot
            // route (bare, ambiguous) and both inputs stay whole.
            let (l, r) = required
                .and_then(|mut names| {
                    let on = keys.iter().flat_map(|(l, r)| [l, r]).chain(&residual);
                    names.extend(on.flat_map(Expr::columns));
                    let (mut l, mut r) = (Vec::new(), Vec::new());
                    for name in names {
                        match side_by_alias([&name], &left, &right)? {
                            Side::Left => l.push(name),
                            Side::Right => r.push(name),
                        }
                    }
                    Some((l, r))
                })
                .unzip();
            LogicalPlan::Join {
                left: Box::new(prune(*left, l)),
                right: Box::new(prune(*right, r)),
                keys,
                residual,
            }
        }
        leaf => leaf,
    }
}

// ----------------------------------------------------------------------
// Rule 4: limit pushdown
// ----------------------------------------------------------------------

fn push_down_limits(plan: LogicalPlan) -> LogicalPlan {
    plan.map_plan(&mut |mut node| {
        if let LogicalPlan::Limit { input, n } = &mut node {
            sink_limit(input, *n);
        }
        node
    })
}

/// Annotates the scan under `LIMIT n`, if it is reachable through
/// row-count-preserving operators only. Pure-column projections (and
/// `SELECT *`) neither add nor drop rows, so a limit sinks through them;
/// `Filter`, `Sort`, `Aggregate`, `Join` and expression-computing
/// projections (table functions like `st_traj2points` may *expand* rows)
/// all block it. The scan's own pushed-down predicates don't block the
/// sink: the streaming executor counts rows *after* its refine step.
fn sink_limit(plan: &mut LogicalPlan, n: usize) {
    match plan {
        LogicalPlan::Project {
            input,
            predicate: None,
            items,
        } if is_pure_columns(items) => sink_limit(input, n),
        LogicalPlan::Limit { input, n: inner } => sink_limit(input, n.min(*inner)),
        LogicalPlan::Scan { limit, .. } => *limit = Some(limit.map_or(n, |l| l.min(n))),
        _ => {}
    }
}

// ----------------------------------------------------------------------
// Rule 5: Sort+Limit → TOP-K
// ----------------------------------------------------------------------

/// Gives a `Sort` reachable from a `LIMIT k` through row-count-preserving
/// pure-column projections the limit `k`: the executor keeps a bounded
/// heap of k rows over normalized keys instead of fully sorting and then
/// truncating. The `Limit` node is kept as the authoritative truncation,
/// exactly like scan limit pushdown.
fn fuse_topk(plan: LogicalPlan) -> LogicalPlan {
    plan.map_plan(&mut |mut node| {
        if let LogicalPlan::Limit { input, n } = &mut node {
            sink_topk(input, *n);
        }
        node
    })
}

/// Sets the limit of the unlimited `Sort` reachable from the limit, if
/// there is one. Only pure-column projections are sunk through — the
/// same condition as limit pushdown (the hidden-ORDER-BY-column shape
/// puts exactly such a projection between Limit and Sort).
fn sink_topk(plan: &mut LogicalPlan, k: usize) {
    match plan {
        LogicalPlan::Sort {
            limit: limit @ None,
            ..
        } => *limit = Some(k),
        LogicalPlan::Project {
            input,
            predicate: None,
            items,
        } if is_pure_columns(items) => sink_topk(input, k),
        _ => {}
    }
}

// ----------------------------------------------------------------------
// Rule 6: equi-join planning
// ----------------------------------------------------------------------

/// Splits each `Join`'s `ON` conjunction into candidate equi-key pairs
/// (`lhs = rhs` where both sides reference columns), its `keys`, and the
/// rest, its `residual`. Side assignment of the key expressions needs the
/// input headers, so it happens in the executor; conjuncts that straddle
/// both inputs (or whose runtime value classes aren't hashable) demote to
/// the residual / nested-loop fallback there. A join with no equi
/// candidate (cross join, pure inequality) keeps no key and runs the
/// nested loop.
fn plan_hash_joins(plan: LogicalPlan) -> LogicalPlan {
    plan.map_plan(&mut |node| match node {
        LogicalPlan::Join {
            left,
            right,
            keys,
            residual: Some(on),
        } if keys.is_empty() => {
            let mut keys = Vec::new();
            let mut rest = Vec::new();
            for c in split_conjuncts(on) {
                match c {
                    Expr::Binary {
                        op: BinOp::Eq,
                        lhs,
                        rhs,
                    } if !lhs.columns().is_empty() && !rhs.columns().is_empty() => {
                        keys.push((*lhs, *rhs));
                    }
                    other => rest.push(other),
                }
            }
            LogicalPlan::Join {
                left,
                right,
                keys,
                residual: merge_residual(None, rest),
            }
        }
        other => other,
    })
}

// ----------------------------------------------------------------------
// Rule 7: Filter→Project fusion
// ----------------------------------------------------------------------

/// Moves a `Filter` directly below a `Project` into the projection's
/// `predicate`, so each batch is filtered and projected in a single pass
/// without materializing the intermediate relation. Filters that pushed
/// into scans are already gone by this point; the survivors sit above
/// aggregates and joins — exactly the spots where an extra
/// materialization hurts.
fn fuse_filter_project(plan: LogicalPlan) -> LogicalPlan {
    plan.map_plan(&mut |node| match node {
        LogicalPlan::Project {
            input,
            predicate: None,
            items,
        } => match *input {
            LogicalPlan::Filter { input, predicate } => LogicalPlan::Project {
                input,
                predicate: Some(predicate),
                items,
            },
            other => LogicalPlan::Project {
                input: Box::new(other),
                predicate: None,
                items,
            },
        },
        other => other,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::Statement;

    fn optimized(sql: &str) -> LogicalPlan {
        match parse(sql).unwrap() {
            Statement::Query(q) => optimize(LogicalPlan::from_select(&q).unwrap()).unwrap(),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn paper_figure8_pipeline() {
        // The exact statement of Section VI.
        let plan = optimized(
            "SELECT name, geom FROM (SELECT * FROM tbl) t \
             WHERE fid = 52*9 AND geom WITHIN st_makeMBR(1, 2, 3, 4) \
             ORDER BY time",
        );
        let rendered = plan.render();
        // Constant folding: no trace of 52*9 survives; pushdown: the scan
        // carries the spatial window and the fid=468 residual; projection
        // pushdown: the scan retains only the needed fields.
        assert!(!rendered.contains("52"), "{rendered}");
        assert!(rendered.contains("spatial=(geom within"), "{rendered}");
        assert!(rendered.contains("+residual"), "{rendered}");
        assert!(
            rendered.contains(r#"project=["fid", "geom", "name", "time"]"#),
            "{rendered}"
        );
        // No Filter node remains above the scan.
        assert!(!rendered.contains("Filter"), "{rendered}");
    }

    #[test]
    fn st_range_predicates_reach_the_scan() {
        let plan = optimized(
            "SELECT fid FROM t WHERE geom WITHIN st_makeMBR(1,2,3,4) \
             AND time BETWEEN 100 AND 200",
        );
        let rendered = plan.render();
        assert!(rendered.contains("spatial=(geom within"));
        assert!(rendered.contains("time=(time in [100,200])"));
        assert!(!rendered.contains("+residual"));
    }

    #[test]
    fn non_pushable_predicates_stay_as_residual() {
        let plan = optimized("SELECT a FROM t WHERE a > b + 1");
        let rendered = plan.render();
        assert!(rendered.contains("+residual"));
    }

    #[test]
    fn constants_fold_in_projections() {
        let plan = optimized("SELECT 1 + 2 * 3 AS x FROM t");
        match plan {
            LogicalPlan::Project { items, .. } => {
                assert_eq!(items[0].0, Expr::Literal(Value::Int(7)));
            }
            other => panic!("{}", other.render()),
        }
    }

    #[test]
    fn limit_sinks_through_pure_projections_into_scan() {
        let plan =
            optimized("SELECT fid, geom FROM t WHERE geom WITHIN st_makeMBR(1,2,3,4) LIMIT 10");
        let rendered = plan.render();
        // Limit node kept, scan annotated.
        assert!(rendered.contains("Limit [10]"), "{rendered}");
        assert!(rendered.contains("limit=10"), "{rendered}");
    }

    #[test]
    fn limit_blocked_by_sort() {
        // Sorting needs the full input; the scan must not stop early.
        let plan = optimized("SELECT fid FROM t ORDER BY time LIMIT 5");
        let rendered = plan.render();
        assert!(rendered.contains("Limit [5]"), "{rendered}");
        assert!(!rendered.contains("limit=5"), "{rendered}");
    }

    #[test]
    fn tautological_filters_vanish() {
        // `WHERE 1 = 1` folds to a literal and the filter disappears:
        // no Filter node, no residual at the scan, no per-row work.
        let plan = optimized("SELECT a FROM t WHERE 1 = 1");
        let rendered = plan.render();
        assert!(!rendered.contains("Filter"), "{rendered}");
        assert!(!rendered.contains("residual"), "{rendered}");

        // Conjunction with a real predicate: the tautology folds away
        // inside the conjunct, the rest still pushes down.
        let plan = optimized("SELECT a FROM t WHERE 1 = 1 AND a > b");
        let rendered = plan.render();
        assert!(!rendered.contains("Filter"), "{rendered}");
        assert!(rendered.contains("+residual"), "{rendered}");
    }

    #[test]
    fn contradictory_filters_become_limit_zero() {
        let plan = optimized("SELECT a FROM t WHERE 1 = 2");
        let rendered = plan.render();
        assert!(!rendered.contains("Filter"), "{rendered}");
        assert!(rendered.contains("Limit [0]"), "{rendered}");
    }

    #[test]
    fn sort_limit_fuses_to_topk() {
        // The hidden-ORDER-BY-column shape: `time` isn't projected, so a
        // pure-column projection sits between Limit and Sort — TOP-K must
        // fuse through it. The Limit node stays as the authoritative
        // truncation.
        let plan = optimized("SELECT fid FROM t ORDER BY time LIMIT 5");
        let rendered = plan.render();
        assert!(rendered.contains("topk [k=5, 1 keys]"), "{rendered}");
        assert!(rendered.contains("Limit [5]"), "{rendered}");
        assert!(!rendered.contains("Sort"), "{rendered}");
    }

    #[test]
    fn sort_without_limit_stays_a_full_sort() {
        let plan = optimized("SELECT fid FROM t ORDER BY time");
        let rendered = plan.render();
        assert!(rendered.contains("Sort"), "{rendered}");
        assert!(!rendered.contains("topk"), "{rendered}");
    }

    #[test]
    fn equi_join_plans_hash_join() {
        let plan = optimized("SELECT a.x, b.y FROM ta a JOIN tb b ON a.k = b.k");
        let rendered = plan.render();
        assert!(rendered.contains("hash_join [1 keys]"), "{rendered}");
        assert!(!rendered.contains("Join ["), "{rendered}");

        // Mixed condition: the equi conjunct becomes the key, the
        // inequality the residual.
        let plan = optimized("SELECT a.x, b.y FROM ta a JOIN tb b ON a.k = b.k AND a.x < b.y");
        let rendered = plan.render();
        assert!(
            rendered.contains("hash_join [1 keys] +residual"),
            "{rendered}"
        );
    }

    #[test]
    fn non_equi_join_keeps_nested_loop() {
        let plan = optimized("SELECT a.x, b.y FROM ta a JOIN tb b ON a.x < b.y");
        let rendered = plan.render();
        assert!(rendered.contains("Join ["), "{rendered}");
        assert!(!rendered.contains("hash_join"), "{rendered}");
    }

    #[test]
    fn filter_above_join_fuses_with_projection() {
        let plan = optimized("SELECT a.x, b.y FROM ta a JOIN tb b ON a.k = b.k WHERE a.x > b.y");
        let rendered = plan.render();
        assert!(rendered.contains("FilterProject"), "{rendered}");
        assert!(rendered.contains("hash_join"), "{rendered}");
    }

    const JOIN_AGG: &str = "SELECT d.name, count(*) AS n, sum(o.amount) AS total FROM orders o \
         JOIN districts d ON o.district = d.fid WHERE o.geom WITHIN st_makeMBR(1,2,3,4) \
         GROUP BY d.name";

    /// The rendered line of the scan of `table`.
    fn scan_line<'a>(rendered: &'a str, table: &str) -> &'a str {
        let scan = format!("Scan [{table}]");
        rendered
            .lines()
            .find(|l| l.contains(&scan))
            .unwrap_or_else(|| panic!("no {scan} in {rendered}"))
    }

    #[test]
    fn single_side_conjuncts_sink_through_a_join() {
        // The benchmark's `join_agg` shape: the window reaches `o`'s scan
        // and nothing is left to filter above the join.
        let rendered = optimized(JOIN_AGG).render();
        assert!(
            scan_line(&rendered, "orders").contains("spatial=(o.geom within"),
            "{rendered}"
        );
        assert!(!rendered.contains("Filter"), "{rendered}");
        assert!(rendered.contains("hash_join [1 keys]\n"), "{rendered}");

        // One conjunct per side, and a cross-side one that stays above.
        let rendered = optimized(
            "SELECT a.x FROM ta a JOIN tb b ON a.k = b.k \
             WHERE a.x > 1 AND b.y < 2 AND a.x > b.y",
        )
        .render();
        assert!(
            scan_line(&rendered, "ta").contains("+residual"),
            "{rendered}"
        );
        assert!(
            scan_line(&rendered, "tb").contains("+residual"),
            "{rendered}"
        );
        assert!(
            rendered.starts_with(
                "FilterProject [Binary { op: Gt, lhs: Column(\"a.x\"), rhs: Column(\"b.y\") }]"
            ),
            "{rendered}"
        );
    }

    #[test]
    fn unroutable_conjuncts_stay_above_the_join() {
        for predicate in [
            // A bare name (even one only one input has: no catalog here).
            "x > 1",
            // A subquery's alias: no scan carries it.
            "s.x > 1",
            // A volatile call runs once per joined row.
            "a.x > sleep_ms(0)",
        ] {
            let rendered = optimized(&format!(
                "SELECT a.x FROM ta a JOIN tb b ON a.k = b.k WHERE {predicate}"
            ))
            .render();
            assert!(rendered.starts_with("FilterProject"), "{rendered}");
            assert!(!rendered.contains("+residual"), "{rendered}");
        }
        // A subquery side re-using the alias: `a.x` could be either's.
        let rendered = optimized(
            "SELECT a.x FROM ta a JOIN (SELECT a.k, a.y FROM tb a) s ON a.k = y WHERE a.x > 1",
        )
        .render();
        assert!(rendered.starts_with("FilterProject"), "{rendered}");
        assert!(!rendered.contains("+residual"), "{rendered}");
    }

    #[test]
    fn nested_and_self_joins_route_by_alias() {
        // Through the pure projection of a subquery side into the inner
        // join, and there to the one scan aliased `b`.
        let rendered = optimized(
            "SELECT a.x, c.z FROM (SELECT a.x, a.k, b.y FROM ta a JOIN tb b ON a.k = b.k) s \
             JOIN tc c ON a.k = c.k WHERE b.y > 1 AND c.z > 2",
        )
        .render();
        assert!(
            scan_line(&rendered, "tb").contains("+residual"),
            "{rendered}"
        );
        assert!(
            scan_line(&rendered, "tc").contains("+residual"),
            "{rendered}"
        );
        assert!(
            !scan_line(&rendered, "ta").contains("+residual"),
            "{rendered}"
        );
        assert!(!rendered.contains("Filter"), "{rendered}");

        // Two aliases of one table: each window goes to its own scan.
        let rendered = optimized(
            "SELECT l.fid, r.fid FROM t l JOIN t r ON l.k = r.k \
             WHERE l.geom WITHIN st_makeMBR(1,2,3,4) AND r.time BETWEEN 5 AND 6",
        )
        .render();
        let scans: Vec<&str> = rendered
            .lines()
            .filter(|l| l.contains("Scan [t]"))
            .collect();
        assert!(
            scans[0].contains("spatial=(l.geom") && !scans[0].contains("time="),
            "{rendered}"
        );
        assert!(
            scans[1].contains("time=(r.time in [5,6])") && !scans[1].contains("spatial="),
            "{rendered}"
        );
    }

    #[test]
    fn single_side_on_conjuncts_sink() {
        let rendered = optimized(
            "SELECT a.x FROM ta a JOIN tb b ON a.x > 1 AND a.k = b.k AND b.y < 2 AND a.x < b.y",
        )
        .render();
        assert!(
            scan_line(&rendered, "ta").contains("+residual"),
            "{rendered}"
        );
        assert!(
            scan_line(&rendered, "tb").contains("+residual"),
            "{rendered}"
        );
        assert!(
            rendered.contains("hash_join [1 keys] +residual"),
            "{rendered}"
        );

        // Nothing cross-side left: a cross join of the filtered inputs.
        let rendered = optimized("SELECT a.x FROM ta a JOIN tb b ON b.y = 2").render();
        assert!(
            rendered.contains("Join [Literal(Bool(true))]"),
            "{rendered}"
        );
        assert!(
            scan_line(&rendered, "tb").contains("+residual"),
            "{rendered}"
        );
    }

    #[test]
    fn join_inputs_keep_only_routed_columns() {
        let rendered = optimized(JOIN_AGG).render();
        assert!(
            scan_line(&rendered, "orders")
                .contains(r#"project=["o.amount", "o.district", "o.geom"]"#),
            "{rendered}"
        );
        assert!(
            scan_line(&rendered, "districts").contains(r#"project=["d.fid", "d.name"]"#),
            "{rendered}"
        );

        // One bare (or otherwise unroutable) name above the join and both
        // inputs stay whole; so they do under `*`.
        for sql in [
            "SELECT a.x, y FROM ta a JOIN tb b ON a.k = b.k",
            "SELECT a.x FROM ta a JOIN tb b ON a.k = k2",
            "SELECT * FROM ta a JOIN tb b ON a.k = b.k",
        ] {
            let rendered = optimized(sql).render();
            assert!(!rendered.contains("project="), "{rendered}");
        }
    }

    #[test]
    fn comparison_halves_pair_into_a_time_window() {
        let rendered = optimized(
            "SELECT fid FROM t WHERE geom WITHIN st_makeMBR(1,2,3,4) \
             AND time >= 100 AND time <= 200",
        )
        .render();
        assert!(rendered.contains("time=(time in [100,200])"), "{rendered}");
        assert!(!rendered.contains("+residual"), "{rendered}");

        // Reversed operands; a strict bound widens to the inclusive
        // window and stays in the residual.
        let rendered = optimized("SELECT fid FROM t WHERE 100 <= time AND 200 > time").render();
        assert!(rendered.contains("time=(time in [100,200])"), "{rendered}");
        assert!(rendered.contains("+residual"), "{rendered}");

        // No window from one half, two columns, or an empty range.
        for predicate in [
            "time >= 100",
            "time >= 100 AND fid <= 200",
            "time >= 200 AND time <= 100",
        ] {
            let rendered = optimized(&format!("SELECT fid FROM t WHERE {predicate}")).render();
            assert!(!rendered.contains("time="), "{rendered}");
            assert!(rendered.contains("+residual"), "{rendered}");
        }
    }

    #[test]
    fn filters_above_aggregates_do_not_sink() {
        // HAVING-style filtering is expressed via subqueries; a filter
        // above an aggregate must stay put.
        let plan = optimized(
            "SELECT n FROM (SELECT name, count(*) AS n FROM t GROUP BY name) s WHERE n > 5",
        );
        let rendered = plan.render();
        assert!(rendered.contains("Filter"), "{rendered}");
        assert!(rendered.contains("Aggregate"), "{rendered}");
    }
}
