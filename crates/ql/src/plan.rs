//! Logical query plans (the output of SQL Parse + analysis, the input of
//! SQL Optimize).

use crate::ast::{Expr, FromItem, Select};
use crate::error::QlError;
use crate::Result;
use std::fmt;

/// A relational operator tree.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Scan of a named table or view. The spatio-temporal sub-predicates
    /// are populated by the optimizer's selection pushdown; `residual` is
    /// whatever couldn't be pushed into the index.
    Scan {
        /// Table or view name.
        table: String,
        /// Optional alias (prefixes output columns as `alias.col`).
        alias: Option<String>,
        /// Columns to retain early (projection pushdown), `None` = all.
        projection: Option<Vec<String>>,
        /// Pushed-down spatial predicate: `(geometry column, window)`.
        spatial: Option<(String, just_geo::Rect)>,
        /// Pushed-down temporal predicate: `(time column, t_min, t_max)`.
        time: Option<(String, i64, i64)>,
        /// Remaining pushed-down predicate evaluated during the scan.
        residual: Option<Expr>,
        /// Pushed-down row limit: the storage batches are sized to it,
        /// so the scan reads little past this many rows before the
        /// enclosing `Limit` — kept by the optimizer's limit pushdown as
        /// the authoritative truncation — closes it.
        limit: Option<usize>,
    },
    /// Literal rows (`SELECT 1+1` and `INSERT ... VALUES`).
    Values {
        /// Output column names.
        columns: Vec<String>,
        /// Row expressions (must be constant).
        rows: Vec<Vec<Expr>>,
    },
    /// Row filter.
    Filter {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Predicate.
        predicate: Expr,
    },
    /// Projection / scalar computation, behind an optional row filter.
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Rows failing it are dropped before the items are computed:
        /// the optimizer's filter → project fusion moves a `Filter`
        /// directly below here, so each batch is filtered and projected
        /// in one pass.
        predicate: Option<Expr>,
        /// `(expression, output name)` pairs; `Expr::Star` expands.
        items: Vec<(Expr, String)>,
    },
    /// Grouped aggregation.
    Aggregate {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Group keys `(expression, output name)`.
        group_by: Vec<(Expr, String)>,
        /// Aggregates `(function, argument, output name)`; argument `Star`
        /// for `count(*)`.
        aggregates: Vec<(String, Expr, String)>,
    },
    /// Sort, or TOP-K when `limit` is set.
    Sort {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Keys with ascending flags.
        keys: Vec<(Expr, bool)>,
        /// Rows to keep, set by the optimizer's TOP-K rule from a
        /// `LIMIT k` above: the executor then keeps a bounded heap of k
        /// rows. The enclosing `Limit` node stays the authoritative
        /// truncation (mirroring the scan limit pushdown).
        limit: Option<usize>,
    },
    /// Row-count limit.
    Limit {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Maximum rows.
        n: usize,
    },
    /// Inner join. The analyzer puts the whole `ON` condition in
    /// `residual`; the optimizer's equi-join rule moves its `lhs = rhs`
    /// conjuncts into `keys`. The executor compiles both sides' key
    /// expressions, builds a hash table over encoded key bytes from the
    /// right input and streams the left through it; with no key whose
    /// columns split across the inputs (or runtime value classes that
    /// aren't hashable) it runs the nested loop over the reconstructed
    /// condition instead.
    Join {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Candidate equi-key conjuncts as `(lhs, rhs)` of `lhs = rhs`;
        /// sides are assigned against the actual headers at runtime.
        keys: Vec<(Expr, Expr)>,
        /// Remaining `ON` conjuncts, evaluated over matched pairs.
        residual: Option<Expr>,
    },
    /// k-NN query (Algorithm 1), recognised from
    /// `WHERE geom IN st_KNN(point, k)`.
    Knn {
        /// Target table.
        table: String,
        /// Query longitude.
        lng: f64,
        /// Query latitude.
        lat: f64,
        /// Neighbour count.
        k: usize,
    },
}

impl LogicalPlan {
    /// Builds the *analyzed* (unoptimized) plan for a SELECT.
    pub fn from_select(q: &Select) -> Result<LogicalPlan> {
        // Special case: k-NN as the sole WHERE predicate over a table.
        if let (Some(Expr::InFunc { func, .. }), Some(FromItem::Table { name, .. })) =
            (&q.where_clause, &q.from)
        {
            if let Expr::Func { name: fname, args } = func.as_ref() {
                if fname == "st_knn" {
                    let plan = Self::knn_plan(name, args)?;
                    return Self::wrap_projection(plan, q);
                }
            }
        }

        let mut plan = match &q.from {
            None => LogicalPlan::Values {
                columns: vec![],
                rows: vec![vec![]],
            },
            Some(item) => Self::from_item(item)?,
        };
        if let Some((right, on)) = &q.join {
            plan = LogicalPlan::Join {
                left: Box::new(Self::qualified(plan)),
                right: Box::new(Self::qualified(Self::from_item(right)?)),
                keys: Vec::new(),
                residual: Some(on.clone()),
            };
        }
        if let Some(w) = &q.where_clause {
            plan = LogicalPlan::Filter {
                input: Box::new(plan),
                predicate: w.clone(),
            };
        }
        Self::wrap_projection(plan, q)
    }

    fn knn_plan(table: &str, args: &[Expr]) -> Result<LogicalPlan> {
        if args.len() != 2 {
            return Err(QlError::Analyze(
                "st_KNN(point, k) takes 2 arguments".into(),
            ));
        }
        let point = crate::functions::eval_const(&args[0])?;
        let k = crate::functions::eval_const(&args[1])?
            .as_int()
            .ok_or_else(|| QlError::Analyze("st_KNN: k must be an integer".into()))?;
        match point {
            just_storage::Value::Geom(just_geo::Geometry::Point(p)) => Ok(LogicalPlan::Knn {
                table: table.to_string(),
                lng: p.x,
                lat: p.y,
                k: k.max(0) as usize,
            }),
            _ => Err(QlError::Analyze(
                "st_KNN: first argument must be a point".into(),
            )),
        }
    }

    /// A joined table without an alias takes its own name as one, so a
    /// qualified name binds to its own side (`b.fid` never to `a.fid`)
    /// and a bare name both sides carry is ambiguous.
    fn qualified(mut plan: LogicalPlan) -> LogicalPlan {
        if let LogicalPlan::Scan {
            table,
            alias: alias @ None,
            ..
        } = &mut plan
        {
            *alias = Some(table.clone());
        }
        plan
    }

    fn from_item(item: &FromItem) -> Result<LogicalPlan> {
        match item {
            FromItem::Table { name, alias } => Ok(LogicalPlan::Scan {
                table: name.clone(),
                alias: alias.clone(),
                projection: None,
                spatial: None,
                time: None,
                residual: None,
                limit: None,
            }),
            FromItem::Subquery { query, alias } => {
                let inner = Self::from_select(query)?;
                // Subquery aliases are only needed for qualified column
                // references; the suffix-matching resolver handles bare
                // names, so we keep the inner plan as-is.
                let _ = alias;
                Ok(inner)
            }
        }
    }

    fn wrap_projection(plan: LogicalPlan, q: &Select) -> Result<LogicalPlan> {
        let mut plan = plan;
        // Aggregate vs plain projection.
        let has_agg = q.items.iter().any(|i| contains_aggregate(&i.expr));
        if has_agg || !q.group_by.is_empty() {
            let mut group_by = Vec::new();
            for (i, g) in q.group_by.iter().enumerate() {
                // When a select item projects this exact group expression,
                // reuse its alias so `GROUP BY st_x(geom)` with
                // `SELECT st_x(geom) AS lng` produces a column named `lng`.
                let name = q
                    .items
                    .iter()
                    .find(|item| &item.expr == g)
                    .and_then(|item| item.alias.clone())
                    .unwrap_or_else(|| name_of(g, i));
                group_by.push((g.clone(), name));
            }
            let mut aggregates = Vec::new();
            let mut out_items = Vec::new();
            for (i, item) in q.items.iter().enumerate() {
                let out_name = item.alias.clone().unwrap_or_else(|| name_of(&item.expr, i));
                match &item.expr {
                    Expr::Func { name, args } if crate::functions::is_aggregate(name) => {
                        let arg = args.first().cloned().unwrap_or(Expr::Star);
                        aggregates.push((name.clone(), arg, out_name.clone()));
                    }
                    other => {
                        // Non-aggregate projections must be group keys.
                        if !q.group_by.iter().any(|g| g == other) {
                            return Err(QlError::Analyze(format!(
                                "'{out_name}' must appear in GROUP BY or an aggregate"
                            )));
                        }
                    }
                }
                out_items.push(out_name);
            }
            plan = LogicalPlan::Aggregate {
                input: Box::new(plan),
                group_by,
                aggregates,
            };
            // Order output columns as written: group keys and aggregates
            // already carry the right names; a Project re-orders them.
            let items = q
                .items
                .iter()
                .enumerate()
                .map(|(i, item)| {
                    let out_name = item.alias.clone().unwrap_or_else(|| name_of(&item.expr, i));
                    (Expr::Column(out_name.clone()), out_name)
                })
                .collect();
            plan = LogicalPlan::Project {
                input: Box::new(plan),
                predicate: None,
                items,
            };
        } else {
            let mut items: Vec<(Expr, String)> = q
                .items
                .iter()
                .enumerate()
                .map(|(i, item)| {
                    let name = item.alias.clone().unwrap_or_else(|| name_of(&item.expr, i));
                    (item.expr.clone(), name)
                })
                .collect();
            // ORDER BY may reference columns the projection drops (the
            // paper's Figure 8 orders by `time` while projecting
            // name/geom). Carry them as hidden columns through the sort,
            // then strip them with a final projection.
            let has_star = items.iter().any(|(e, _)| matches!(e, Expr::Star));
            let mut hidden: Vec<String> = Vec::new();
            if !q.order_by.is_empty() && !has_star {
                let visible: Vec<String> = items.iter().map(|(_, n)| n.clone()).collect();
                for (e, _) in &q.order_by {
                    for c in e.columns() {
                        let bare = c.rsplit('.').next().unwrap_or(&c).to_ascii_lowercase();
                        let known = visible.iter().chain(hidden.iter()).any(|v| {
                            let vb = v.rsplit('.').next().unwrap_or(v).to_ascii_lowercase();
                            vb == bare
                        });
                        if !known {
                            hidden.push(c.clone());
                        }
                    }
                }
            }
            if hidden.is_empty() {
                plan = LogicalPlan::Project {
                    input: Box::new(plan),
                    predicate: None,
                    items,
                };
                if !q.order_by.is_empty() {
                    plan = LogicalPlan::Sort {
                        input: Box::new(plan),
                        keys: q.order_by.clone(),
                        limit: None,
                    };
                }
            } else {
                let final_items: Vec<(Expr, String)> = items
                    .iter()
                    .map(|(_, n)| (Expr::Column(n.clone()), n.clone()))
                    .collect();
                for c in &hidden {
                    items.push((Expr::Column(c.clone()), c.clone()));
                }
                plan = LogicalPlan::Project {
                    input: Box::new(plan),
                    predicate: None,
                    items,
                };
                plan = LogicalPlan::Sort {
                    input: Box::new(plan),
                    keys: q.order_by.clone(),
                    limit: None,
                };
                plan = LogicalPlan::Project {
                    input: Box::new(plan),
                    predicate: None,
                    items: final_items,
                };
            }
            if let Some(n) = q.limit {
                plan = LogicalPlan::Limit {
                    input: Box::new(plan),
                    n,
                };
            }
            return Ok(plan);
        }
        if !q.order_by.is_empty() {
            plan = LogicalPlan::Sort {
                input: Box::new(plan),
                keys: q.order_by.clone(),
                limit: None,
            };
        }
        if let Some(n) = q.limit {
            plan = LogicalPlan::Limit {
                input: Box::new(plan),
                n,
            };
        }
        Ok(plan)
    }

    /// Indented tree rendering (used by the Figure 8 demonstration).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        out.push_str(&"  ".repeat(depth));
        out.push_str(&self.label());
        out.push('\n');
        for child in self.children() {
            child.render_into(out, depth + 1);
        }
    }

    /// The operator's one-line description, without indentation or
    /// children — shared by [`LogicalPlan::render`] and the executor's
    /// operator spans, which `EXPLAIN` and `EXPLAIN ANALYZE` print.
    pub(crate) fn label(&self) -> String {
        match self {
            LogicalPlan::Scan {
                table,
                projection,
                spatial,
                time,
                residual,
                limit,
                ..
            } => {
                let mut s = format!("Scan [{table}]");
                if let Some(p) = projection {
                    s.push_str(&format!(" project={p:?}"));
                }
                if let Some((col, r)) = spatial {
                    s.push_str(&format!(
                        " spatial=({col} within [{:.3},{:.3},{:.3},{:.3}])",
                        r.min_x, r.min_y, r.max_x, r.max_y
                    ));
                }
                if let Some((col, a, b)) = time {
                    s.push_str(&format!(" time=({col} in [{a},{b}])"));
                }
                if residual.is_some() {
                    s.push_str(" +residual");
                }
                if let Some(n) = limit {
                    s.push_str(&format!(" limit={n}"));
                }
                s
            }
            LogicalPlan::Values { rows, .. } => format!("Values [{} rows]", rows.len()),
            LogicalPlan::Filter { predicate, .. } => format!("Filter [{predicate:?}]"),
            LogicalPlan::Project {
                predicate, items, ..
            } => {
                let names: Vec<&str> = items.iter().map(|(_, n)| n.as_str()).collect();
                match predicate {
                    Some(p) => format!("FilterProject [{p:?}] {names:?}"),
                    None => format!("Project {names:?}"),
                }
            }
            LogicalPlan::Aggregate {
                group_by,
                aggregates,
                ..
            } => {
                let keys: Vec<&str> = group_by.iter().map(|(_, n)| n.as_str()).collect();
                let aggs: Vec<&str> = aggregates.iter().map(|(_, _, n)| n.as_str()).collect();
                format!("Aggregate keys={keys:?} aggs={aggs:?}")
            }
            LogicalPlan::Sort { keys, limit, .. } => match limit {
                Some(k) => format!("topk [k={k}, {} keys]", keys.len()),
                None => format!("Sort [{} keys]", keys.len()),
            },
            LogicalPlan::Limit { n, .. } => format!("Limit [{n}]"),
            LogicalPlan::Join { keys, residual, .. } => match (keys.len(), residual) {
                (0, Some(on)) => format!("Join [{on:?}]"),
                (n, residual) => {
                    let plus = if residual.is_some() { " +residual" } else { "" };
                    format!("hash_join [{n} keys]{plus}")
                }
            },
            LogicalPlan::Knn { table, lng, lat, k } => {
                format!("Knn [{table}] q=({lng},{lat}) k={k}")
            }
        }
    }

    /// Moves the plan out, leaving an empty `Values` behind.
    pub(crate) fn take(&mut self) -> LogicalPlan {
        std::mem::replace(
            self,
            LogicalPlan::Values {
                columns: Vec::new(),
                rows: Vec::new(),
            },
        )
    }

    /// Rebuilds the plan bottom-up, applying `f` to every node after its
    /// inputs have been rewritten.
    pub(crate) fn map_plan(
        mut self,
        f: &mut impl FnMut(LogicalPlan) -> LogicalPlan,
    ) -> LogicalPlan {
        for child in self.children_mut() {
            *child = child.take().map_plan(f);
        }
        f(self)
    }

    /// Rewrites every operator's expressions with `f`, inputs first.
    /// Leaves are left alone: a scan's pushed-down predicates are built
    /// by the optimizer itself and `Values` rows are evaluated as
    /// written.
    pub(crate) fn map_exprs(
        mut self,
        f: &mut impl FnMut(Expr) -> Result<Expr>,
    ) -> Result<LogicalPlan> {
        for child in self.children_mut() {
            *child = child.take().map_exprs(f)?;
        }
        let exprs: Vec<&mut Expr> = match &mut self {
            LogicalPlan::Scan { .. }
            | LogicalPlan::Values { .. }
            | LogicalPlan::Knn { .. }
            | LogicalPlan::Limit { .. } => Vec::new(),
            LogicalPlan::Filter { predicate, .. } => vec![predicate],
            LogicalPlan::Project {
                predicate, items, ..
            } => {
                let items = items.iter_mut().map(|(e, _)| e);
                predicate.iter_mut().chain(items).collect()
            }
            LogicalPlan::Aggregate {
                group_by,
                aggregates,
                ..
            } => {
                let keys = group_by.iter_mut().map(|(e, _)| e);
                keys.chain(aggregates.iter_mut().map(|(_, e, _)| e))
                    .collect()
            }
            LogicalPlan::Sort { keys, .. } => keys.iter_mut().map(|(e, _)| e).collect(),
            LogicalPlan::Join { keys, residual, .. } => {
                let keys = keys.iter_mut().flat_map(|(l, r)| [l, r]);
                keys.chain(residual.iter_mut()).collect()
            }
        };
        for e in exprs {
            *e = f(std::mem::replace(e, Expr::Star))?;
        }
        Ok(self)
    }

    fn children_mut(&mut self) -> Vec<&mut LogicalPlan> {
        match self {
            LogicalPlan::Scan { .. } | LogicalPlan::Values { .. } | LogicalPlan::Knn { .. } => {
                Vec::new()
            }
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => vec![input],
            LogicalPlan::Join { left, right, .. } => vec![left, right],
        }
    }

    /// The operator's direct inputs, left to right.
    pub fn children(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::Scan { .. } | LogicalPlan::Values { .. } | LogicalPlan::Knn { .. } => {
                Vec::new()
            }
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => vec![input],
            LogicalPlan::Join { left, right, .. } => vec![left, right],
        }
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Whether the expression contains an aggregate call.
pub(crate) fn contains_aggregate(expr: &Expr) -> bool {
    let mut found = false;
    expr.walk(&mut |e| {
        if let Expr::Func { name, .. } = e {
            if crate::functions::is_aggregate(name) {
                found = true;
            }
        }
    });
    found
}

/// A printable name for an unaliased projection.
pub(crate) fn name_of(expr: &Expr, idx: usize) -> String {
    match expr {
        Expr::Column(c) => c.clone(),
        Expr::Star => "*".to_string(),
        Expr::Func { name, .. } => name.clone(),
        _ => format!("col{idx}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::Statement;

    fn plan_of(sql: &str) -> LogicalPlan {
        match parse(sql).unwrap() {
            Statement::Query(q) => LogicalPlan::from_select(&q).unwrap(),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn simple_select_shape() {
        let p = plan_of("SELECT a, b FROM t WHERE a = 1 ORDER BY b LIMIT 5");
        // Limit > Sort > Project > Filter > Scan
        let rendered = p.render();
        let lines: Vec<&str> = rendered.lines().collect();
        assert!(lines[0].starts_with("Limit"));
        assert!(lines[1].trim_start().starts_with("Sort"));
        assert!(lines[2].trim_start().starts_with("Project"));
        assert!(lines[3].trim_start().starts_with("Filter"));
        assert!(lines[4].trim_start().starts_with("Scan"));
    }

    #[test]
    fn aggregate_plan() {
        let p = plan_of("SELECT name, count(*) AS n FROM t GROUP BY name");
        assert!(p.render().contains("Aggregate"));
    }

    #[test]
    fn non_grouped_projection_rejected() {
        let parsed = parse("SELECT name, count(*) FROM t").unwrap();
        match parsed {
            Statement::Query(q) => {
                assert!(LogicalPlan::from_select(&q).is_err());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn knn_recognised() {
        let p = plan_of("SELECT * FROM t WHERE geom IN st_KNN(st_makePoint(116.4, 39.9), 50)");
        assert!(p.render().contains("Knn [t] q=(116.4,39.9) k=50"));
    }

    #[test]
    fn subquery_inlines() {
        let p = plan_of("SELECT x FROM (SELECT * FROM t) sub WHERE x > 1");
        let rendered = p.render();
        assert!(rendered.contains("Scan [t]"));
        assert_eq!(rendered.matches("Project").count(), 2);
    }
}
