//! The operators that drain their whole input before they emit —
//! `Aggregate`, `Sort` (TOP-K when limited) and `st_DBSCAN` — behind one
//! [`Sink`] trait, and the key normalization sort and TOP-K share. The
//! executor's drain stage pulls its input a batch at a time into the
//! sink, asking it before every pull for a [`RowGate`] to hand down to a
//! stored scan, then emits what [`Sink::finish`] returns.

use crate::ast::Expr;
use crate::compile::compile;
use crate::error::QlError;
use crate::exec::{eval_column, exec_obs, predicate, select_rows};
use crate::functions::{self, eval, exec_err, resolve_column};
use crate::Result;
use just_analysis::{dbscan, ClusterLabel, DbscanParams};
use just_exec::{encode_key, AggSpec, HashAggregator, Program, Vm};
use just_geo::{Geometry, Point};
use just_storage::{Row, RowGate, Value};
use std::collections::BinaryHeap;

/// An operator that takes its whole input a batch at a time, then emits.
pub(crate) trait Sink {
    /// Takes one batch of input rows.
    fn push(&mut self, rows: Vec<Row>) -> Result<()>;
    /// What the stored scan feeding the sink may check before refine and
    /// decode (`None`: every row counts); asked again before every pull.
    fn gate(&mut self) -> Option<&mut dyn RowGate> {
        None
    }
    /// The operator's output, once its input ran dry.
    fn finish(&mut self) -> Vec<Row>;
    /// Appends the span attributes the operator reports when it closes.
    fn report(&self, _attrs: &mut Vec<(&'static str, u64)>) {}
    /// The programs the operator compiled, each with its label: what
    /// plain `EXPLAIN` lists.
    fn programs(&self) -> Vec<(String, &Program)> {
        Vec::new()
    }
}

/// Vectorized GROUP BY: keys and aggregate arguments compile to bytecode
/// and evaluate batch-at-a-time into columns fed to the
/// [`HashAggregator`], which folds rows into fixed-size accumulators
/// immediately (O(groups) memory, no per-row key `Vec<Value>` clone).
pub(crate) struct Aggregation {
    /// `None` once finished.
    agg: Option<HashAggregator>,
    /// Each key's program, labelled `key <name>`.
    key_progs: Vec<(String, Program)>,
    /// Each aggregate's argument program (none for `count(*)`), labelled
    /// `<function> <name>`.
    arg_progs: Vec<Option<(String, Program)>>,
    vm: Vm,
    global: bool,
}

impl Aggregation {
    /// Compiles the keys and aggregate arguments over the input header.
    pub(crate) fn new(
        input: &[String],
        group_by: &[(Expr, String)],
        aggregates: &[(String, Expr, String)],
    ) -> Result<Self> {
        let mut specs = Vec::with_capacity(aggregates.len());
        let mut arg_progs = Vec::with_capacity(aggregates.len());
        for (func, arg, name) in aggregates {
            let star = matches!(arg, Expr::Star);
            // The planner only builds aggregates from the five known names,
            // so the one form without a spec is `func(*)` other than `count`.
            specs.push(
                AggSpec::resolve(func, star)
                    .ok_or_else(|| QlError::Analyze(format!("{func}(*) is not supported")))?,
            );
            arg_progs.push(if star {
                None
            } else {
                Some((format!("{func} {name}"), compile(arg, input)?))
            });
        }
        let key_progs = group_by
            .iter()
            .map(|(e, name)| Ok((format!("key {name}"), compile(e, input)?)))
            .collect::<Result<Vec<_>>>()?;
        Ok(Aggregation {
            agg: Some(HashAggregator::new(specs)),
            key_progs,
            arg_progs,
            vm: Vm::new(),
            global: group_by.is_empty(),
        })
    }
}

impl Sink for Aggregation {
    /// Folds one batch of input rows into the accumulators.
    fn push(&mut self, chunk: Vec<Row>) -> Result<()> {
        let mut eval = |(_, p): &(String, Program)| eval_column(&mut self.vm, &chunk, p);
        let keys = self.key_progs.iter().map(&mut eval);
        let keys = keys.collect::<Result<Vec<_>>>()?;
        let args = self
            .arg_progs
            .iter()
            .map(|p| p.as_ref().map(&mut eval).transpose());
        let args = args.collect::<Result<Vec<_>>>()?;
        let agg = self.agg.as_mut().expect("pushed before finish");
        agg.push(chunk.len(), &keys, &args).map_err(exec_err)
    }

    /// One output row per group (one row in all for a global aggregate).
    fn finish(&mut self) -> Vec<Row> {
        let agg = self.agg.take().expect("finished once");
        let groups = agg.finish(self.global).into_iter();
        groups
            .map(|(keys, aggs)| Row::new([keys, aggs].concat()))
            .collect()
    }

    fn programs(&self) -> Vec<(String, &Program)> {
        let args = self.arg_progs.iter().flatten();
        let progs = self.key_progs.iter().chain(args);
        progs.map(|(label, p)| (label.clone(), p)).collect()
    }
}

/// TOP-K: the k first rows of the sorted order without sorting the
/// input, via a bounded max-heap of `(normalized key bytes, sequence,
/// slot of the row in `rows`)`. Keys are normalized once, so the heap
/// compares plain byte slices — no `Value` dispatch, no coercion logic in
/// the hot comparator — and the monotone sequence number makes it
/// *stable*: a new row whose key equals the current worst compares
/// greater and is rejected, so the kept set and its order are exactly
/// the stable sort's first k. A `Sort` is TOP-K with `k = usize::MAX`,
/// a heap sort that keeps every row. Keys are evaluated for every row
/// even when k = 0 — the sort would have, and errors must not depend on
/// k.
pub(crate) struct TopK {
    keys: Vec<(KeyPlan, bool)>,
    k: usize,
    vm: Vm,
    heap: BinaryHeap<(Vec<u8>, usize, usize)>,
    rows: Vec<Row>,
    /// Rows pushed so far: the next sequence number.
    seen: usize,
    /// Rows pushed but not kept, once finished.
    pruned: u64,
    /// The stored field each key reads, when every key is a bare column
    /// a gateable scan emits: the heap then gates the scan.
    stored: Option<Vec<usize>>,
    /// Scratch for the gate's key encoding.
    enc: Vec<u8>,
}

impl TopK {
    /// Plans the keys over the input header `columns`; `stored` maps an
    /// input column to the stored field a gateable scan emits in it.
    pub(crate) fn new(
        columns: &[String],
        keys: &[(Expr, bool)],
        k: usize,
        stored: impl Fn(usize) -> Option<usize>,
    ) -> Result<Self> {
        let keys = key_plans(keys, columns)?;
        let stored = keys
            .iter()
            .map(|(plan, _)| match plan {
                KeyPlan::Col(c) => stored(*c),
                KeyPlan::Prog(_) => None,
            })
            .collect();
        Ok(TopK {
            keys,
            k,
            vm: Vm::new(),
            heap: BinaryHeap::new(),
            rows: Vec::new(),
            seen: 0,
            pruned: 0,
            stored,
            enc: Vec::new(),
        })
    }
}

impl Sink for TopK {
    fn push(&mut self, mut rows: Vec<Row>) -> Result<()> {
        let (arena, bounds) = encode_keys(&mut self.vm, &self.keys, &rows)?;
        for (r, row) in rows.iter_mut().enumerate() {
            let key = &arena[bounds[r]..bounds[r + 1]];
            let seq = self.seen;
            self.seen += 1;
            if self.heap.len() < self.k {
                self.heap.push((key.to_vec(), seq, self.rows.len()));
                self.rows.push(std::mem::take(row));
            } else if self.heap.peek().is_some_and(|(worst, ..)| key < worst) {
                let (_, _, slot) = self.heap.pop().expect("peeked");
                self.heap.push((key.to_vec(), seq, slot));
                self.rows[slot] = std::mem::take(row);
            }
        }
        Ok(())
    }

    /// Once the heap holds k rows its worst key is a threshold on the
    /// stored key fields: the scan drops every row that does not beat it
    /// before refine and decode.
    fn gate(&mut self) -> Option<&mut dyn RowGate> {
        (self.stored.is_some() && self.heap.len() == self.k).then_some(self)
    }

    fn finish(&mut self) -> Vec<Row> {
        let mut rows = std::mem::take(&mut self.rows);
        let kept: Vec<Row> = std::mem::take(&mut self.heap)
            .into_sorted_vec()
            .into_iter()
            .map(|(_, _, slot)| std::mem::take(&mut rows[slot]))
            .collect();
        self.pruned = (self.seen - kept.len()) as u64;
        exec_obs().topk_rows_pruned.add(self.pruned);
        kept
    }

    fn report(&self, attrs: &mut Vec<(&'static str, u64)>) {
        if self.k != usize::MAX {
            attrs.push(("rows_pruned", self.pruned));
        }
    }

    /// The computed keys' programs; a bare-column key reads its column
    /// without one.
    fn programs(&self) -> Vec<(String, &Program)> {
        let mut out = Vec::new();
        for (i, (plan, desc)) in self.keys.iter().enumerate() {
            if let KeyPlan::Prog(p) = plan {
                let dir = if *desc { "desc" } else { "asc" };
                out.push((format!("key {i} {dir}"), p));
            }
        }
        out
    }
}

/// The heap's current worst key, as a gate: only a key that beats it
/// strictly passes — a tie loses to the heap's older row anyway — and
/// with k = 0 nothing does. The heap changes only when a batch is pushed,
/// between pulls, so the gate always holds its current worst, and it
/// never changes the kept rows.
impl RowGate for TopK {
    fn fields(&self) -> &[usize] {
        self.stored.as_deref().unwrap_or_default()
    }

    fn pass(&mut self, row: &Row) -> bool {
        self.enc.clear();
        for (f, (_, desc)) in self.stored.iter().flatten().zip(&self.keys) {
            encode_key(&row.values[*f], *desc, &mut self.enc);
        }
        self.heap
            .peek()
            .is_some_and(|(worst, ..)| self.enc < *worst)
    }
}

/// `st_DBSCAN(geom, minPts, radius)` — the N-M operation: clusters the
/// geometry of every input row passing the fused predicate; output is
/// `(geom, cluster)` with cluster `-1` for noise. The geometry argument
/// evaluates row-at-a-time with `eval()`.
pub(crate) struct Dbscan {
    pred: Option<Program>,
    geom: Expr,
    input: Vec<String>,
    params: DbscanParams,
    vm: Vm,
    pts: Vec<Point>,
}

impl Dbscan {
    /// Checks the arity and evaluates `minPts` and `radius`; `pred` is the
    /// compiled fused filter, if any, and the caller has analyzed `args`.
    pub(crate) fn new(input: Vec<String>, pred: Option<Program>, args: &[Expr]) -> Result<Self> {
        let [geom, min_pts, radius] = args else {
            return Err(QlError::Eval(
                "st_DBSCAN(geom, minPts, radius) takes 3 arguments".into(),
            ));
        };
        let min_pts = functions::eval_const(min_pts)?
            .as_int()
            .ok_or_else(|| QlError::Eval("st_DBSCAN: minPts must be an integer".into()))?
            .max(1) as usize;
        let eps = functions::eval_const(radius)?
            .as_float()
            .ok_or_else(|| QlError::Eval("st_DBSCAN: radius must be numeric".into()))?;
        Ok(Dbscan {
            pred,
            geom: geom.clone(),
            input,
            params: DbscanParams { eps, min_pts },
            vm: Vm::new(),
            pts: Vec::new(),
        })
    }
}

impl Sink for Dbscan {
    fn push(&mut self, rows: Vec<Row>) -> Result<()> {
        for lane in select_rows(&mut self.vm, self.pred.as_slice(), &rows)? {
            match eval(&self.geom, &rows[lane as usize].values, &self.input)? {
                Value::Geom(g) => self.pts.push(g.representative_point()),
                other => {
                    return Err(QlError::Eval(format!(
                        "st_DBSCAN over non-geometry {other:?}"
                    )))
                }
            }
        }
        Ok(())
    }

    fn programs(&self) -> Vec<(String, &Program)> {
        predicate(&self.pred).collect()
    }

    fn finish(&mut self) -> Vec<Row> {
        let pts = std::mem::take(&mut self.pts);
        let labels = dbscan(&pts, &self.params);
        let cluster = |l| match l {
            ClusterLabel::Cluster(c) => c as i64,
            ClusterLabel::Noise => -1,
        };
        let rows = pts.into_iter().zip(labels).map(|(p, l)| {
            Row::new(vec![
                Value::Geom(Geometry::Point(p)),
                Value::Int(cluster(l)),
            ])
        });
        rows.collect()
    }
}

/// How a sort/TOP-K key reads its input: a bare column straight from the
/// rows (no clone, no VM), or a compiled program.
enum KeyPlan {
    Col(usize),
    Prog(Program),
}

/// Plans every key over the header `columns` before any is evaluated,
/// with its descending flag.
fn key_plans(keys: &[(Expr, bool)], columns: &[String]) -> Result<Vec<(KeyPlan, bool)>> {
    keys.iter()
        .map(|(e, asc)| {
            let plan = match e {
                Expr::Column(name) => KeyPlan::Col(resolve_column(name, columns)?),
                other => KeyPlan::Prog(compile(other, columns)?),
            };
            Ok((plan, !asc))
        })
        .collect()
}

/// Every row's normalized key — its keys' [`encode_key`] bytes,
/// concatenated, descending ones complemented — in one arena: row `r`'s
/// is `arena[bounds[r]..bounds[r + 1]]`. Byte order is
/// [`just_exec::total_compare`]'s: NULLs first, then by cross-type rank.
fn encode_keys(
    vm: &mut Vm,
    keys: &[(KeyPlan, bool)],
    rows: &[Row],
) -> Result<(Vec<u8>, Vec<usize>)> {
    // Computed keys evaluate column-at-a-time, every one before encoding.
    let mut computed = Vec::with_capacity(keys.len());
    for (plan, _) in keys {
        computed.push(match plan {
            KeyPlan::Col(_) => Vec::new(),
            KeyPlan::Prog(prog) => eval_column(vm, rows, prog)?,
        });
    }
    let (mut arena, mut bounds) = (Vec::new(), vec![0]);
    for (r, row) in rows.iter().enumerate() {
        for ((plan, desc), vals) in keys.iter().zip(&computed) {
            let v = match plan {
                KeyPlan::Col(c) => &row.values[*c],
                KeyPlan::Prog(_) => &vals[r],
            };
            encode_key(v, *desc, &mut arena);
        }
        bounds.push(arena.len());
    }
    Ok((arena, bounds))
}
