//! The operators that take their input a batch at a time instead of as
//! a dataset — `Aggregate` and `TopK`, behind one [`Sink`] trait — and
//! the key-normalized sort, whose key encoding TOP-K shares. The executor
//! feeds a sink straight from a stored scan (see `Executor::run_sink`)
//! or from an in-memory input in `BATCH`-row chunks.

use crate::ast::Expr;
use crate::compile::compile;
use crate::error::QlError;
use crate::exec::{eval_column, exec_obs};
use crate::functions::{exec_err, resolve_column};
use crate::plan::LogicalPlan;
use crate::Result;
use just_core::Dataset;
use just_exec::{encode_key, full_selection, AggSpec, HashAggregator, Program, Vm};
use just_storage::{Row, RowGate, Value};
use std::collections::BinaryHeap;

/// An operator that takes its input a batch at a time and never holds it
/// as a dataset: `Aggregate` and `TopK`. `Executor::run_sink` feeds one
/// straight from a stored scan, `Executor::execute_node` from an
/// in-memory input in `BATCH`-row chunks.
pub(crate) trait Sink {
    /// Takes one batch of input rows.
    fn push(&mut self, rows: Vec<Row>) -> Result<()>;
    /// What the stored scan feeding the sink may check before refine and
    /// decode (`None`: every row counts); asked again before every pull.
    fn gate(&mut self) -> Option<&mut dyn RowGate> {
        None
    }
    /// The operator's output.
    fn finish(self: Box<Self>) -> Dataset;
}

/// The sink running `plan` over the input header `columns`; `stored`
/// maps an input column to the stored field a gateable scan emits in it.
pub(crate) fn sink_for(
    plan: &LogicalPlan,
    columns: &[String],
    stored: impl Fn(usize) -> Option<usize>,
) -> Result<Box<dyn Sink>> {
    Ok(match plan {
        LogicalPlan::Aggregate {
            group_by,
            aggregates,
            ..
        } => Box::new(Aggregation::new(columns, group_by, aggregates)?),
        LogicalPlan::TopK { keys, k, .. } => Box::new(TopK::new(columns, keys, *k, stored)?),
        _ => unreachable!("Aggregate and TopK are the sinks"),
    })
}

/// Vectorized GROUP BY: keys and aggregate arguments compile to bytecode
/// and evaluate batch-at-a-time into columns fed to the
/// [`HashAggregator`], which folds rows into fixed-size accumulators
/// immediately (O(groups) memory, no per-row key `Vec<Value>` clone).
struct Aggregation {
    agg: HashAggregator,
    key_progs: Vec<Program>,
    arg_progs: Vec<Option<Program>>,
    vm: Vm,
    /// Output header: group keys, then aggregates.
    columns: Vec<String>,
    global: bool,
}

impl Aggregation {
    /// Compiles the keys and aggregate arguments over the input header.
    fn new(
        input: &[String],
        group_by: &[(Expr, String)],
        aggregates: &[(String, Expr, String)],
    ) -> Result<Self> {
        let mut specs = Vec::with_capacity(aggregates.len());
        let mut arg_progs: Vec<Option<Program>> = Vec::with_capacity(aggregates.len());
        for (func, arg, _) in aggregates {
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
                Some(compile(arg, input)?)
            });
        }
        let key_progs = group_by
            .iter()
            .map(|(e, _)| compile(e, input))
            .collect::<Result<Vec<Program>>>()?;
        let mut columns: Vec<String> = group_by.iter().map(|(_, n)| n.clone()).collect();
        columns.extend(aggregates.iter().map(|(_, _, n)| n.clone()));
        Ok(Aggregation {
            agg: HashAggregator::new(specs),
            key_progs,
            arg_progs,
            vm: Vm::new(),
            columns,
            global: group_by.is_empty(),
        })
    }
}

impl Sink for Aggregation {
    /// Folds one batch of input rows into the accumulators.
    fn push(&mut self, chunk: Vec<Row>) -> Result<()> {
        let sel = full_selection(chunk.len());
        let mut keys: Vec<Vec<Value>> = Vec::with_capacity(self.key_progs.len());
        for p in &self.key_progs {
            let mut col = Vec::with_capacity(chunk.len());
            self.vm.eval(p, &chunk, &sel, &mut col).map_err(exec_err)?;
            keys.push(col);
        }
        let mut args: Vec<Option<Vec<Value>>> = Vec::with_capacity(self.arg_progs.len());
        for p in &self.arg_progs {
            args.push(match p {
                Some(p) => {
                    let mut col = Vec::with_capacity(chunk.len());
                    self.vm.eval(p, &chunk, &sel, &mut col).map_err(exec_err)?;
                    Some(col)
                }
                None => None,
            });
        }
        self.agg.push(chunk.len(), &keys, &args).map_err(exec_err)
    }

    /// One output row per group (one row in all for a global aggregate).
    fn finish(self: Box<Self>) -> Dataset {
        let rows = self
            .agg
            .finish(self.global)
            .into_iter()
            .map(|(mut key_vals, agg_vals)| {
                key_vals.extend(agg_vals);
                Row::new(key_vals)
            })
            .collect();
        Dataset::new(self.columns, rows)
    }
}

/// TOP-K as a [`Sink`]: the k first rows of the sorted order without
/// sorting the input, via a bounded max-heap of `(normalized key bytes,
/// sequence, slot of the row in `rows`)`. The monotone sequence number
/// makes the heap *stable*: a new row whose key equals the current worst
/// compares greater and is rejected, so the kept set and its order are
/// exactly `sort().truncate(k)`. Keys are evaluated for every row even
/// when k = 0 — the sort they replace would have, and errors must not
/// depend on k.
struct TopK {
    keys: Vec<(KeyPlan, bool)>,
    k: usize,
    vm: Vm,
    heap: BinaryHeap<(Vec<u8>, usize, usize)>,
    rows: Vec<Row>,
    /// Rows pushed so far: the next sequence number.
    seen: usize,
    columns: Vec<String>,
    /// The stored field each key reads, when every key is a bare column
    /// a gateable scan emits: the heap then gates the scan.
    stored: Option<Vec<usize>>,
    /// Scratch for the gate's key encoding.
    enc: Vec<u8>,
}

impl TopK {
    fn new(
        columns: &[String],
        keys: &[(Expr, bool)],
        k: usize,
        stored: impl Fn(usize) -> Option<usize>,
    ) -> Result<Self> {
        exec_obs().topk_queries.inc();
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
            columns: columns.to_vec(),
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

    fn finish(self: Box<Self>) -> Dataset {
        let mut this = *self;
        let kept: Vec<Row> = std::mem::take(&mut this.heap)
            .into_sorted_vec()
            .into_iter()
            .map(|(_, _, slot)| std::mem::take(&mut this.rows[slot]))
            .collect();
        let pruned = this.seen - kept.len();
        exec_obs().topk_rows_pruned.add(pruned as u64);
        Dataset::new(this.columns, kept)
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

/// The key-normalized sort: every row's keys encode once into one byte
/// arena, then a stable indirect sort compares plain byte slices — no
/// `Value` dispatch, no coercion logic in the hot comparator.
pub(crate) fn sort(mut data: Dataset, keys: &[(Expr, bool)]) -> Result<Dataset> {
    let plans = key_plans(keys, &data.columns)?;
    let (arena, bounds) = encode_keys(&mut Vm::new(), &plans, &data.rows)?;
    let key = |r: u32| &arena[bounds[r as usize]..bounds[r as usize + 1]];
    let mut order: Vec<u32> = (0..data.rows.len() as u32).collect();
    order.sort_by(|&a, &b| key(a).cmp(key(b)));
    let mut rows_in = std::mem::take(&mut data.rows);
    data.rows = order
        .into_iter()
        .map(|r| std::mem::take(&mut rows_in[r as usize]))
        .collect();
    Ok(data)
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
    let mut arena = Vec::new();
    let mut bounds = Vec::with_capacity(rows.len() + 1);
    bounds.push(0);
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
