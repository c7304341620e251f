//! The vectorized interpreter: evaluates a [`Program`] over a batch of
//! rows, one *opcode* at a time (not one row at a time), under a stack
//! of selection vectors.
//!
//! Registers are vectors over the batch. Two forms are zero-copy — a
//! `Col` register is a view into the input rows and a `Scalar` register
//! broadcasts one constant — and every computed register holds boxed
//! [`Value`] lanes, evaluated through the [`scalar`] kernels the row
//! interpreter also uses. Ops materialize results only for rows in the
//! current selection; `MaskAnd`/`MaskOr` narrow the selection for the
//! span of a short-circuited operand, so rows the left-hand side already
//! decided are never evaluated — the vectorized equivalent of the row
//! interpreter's short-circuit rule, and the mechanism a filter chain
//! uses to evaluate later predicates only on surviving rows.

use crate::program::{Op, Program, RegId};
use crate::scalar;
use crate::ExecError;
use just_storage::{Row, Value};

/// Shared NULL for unset lanes.
const NULL: Value = Value::Null;

enum Reg {
    /// Not yet written.
    Unset,
    /// A broadcast constant.
    Scalar(Value),
    /// A zero-copy view of input column `col`.
    Col(u16),
    /// Materialized per-row values (lanes outside the selection that
    /// produced them hold NULL and are never read).
    Vals(Vec<Value>),
}

/// A reusable evaluation context. Create one per operator (or thread)
/// and feed it batches; register and selection buffers are recycled
/// across batches through free-lists, so steady-state evaluation does
/// no allocation.
pub struct Vm {
    regs: Vec<Reg>,
    sel_stack: Vec<Vec<u32>>,
    /// Retired `Vals` buffers, reused by later ops and batches.
    pool: Vec<Vec<Value>>,
    /// Retired selection vectors.
    sel_pool: Vec<Vec<u32>>,
    batch_us: just_obs::Histogram,
}

impl Default for Vm {
    fn default() -> Self {
        Self::new()
    }
}

impl Vm {
    /// Creates an evaluation context.
    pub fn new() -> Self {
        Vm {
            regs: Vec::new(),
            sel_stack: Vec::new(),
            pool: Vec::new(),
            sel_pool: Vec::new(),
            batch_us: just_obs::global().histogram("just_exec_batch_eval_us"),
        }
    }

    /// Evaluates `prog` over `rows` restricted to `base` (row indices
    /// into `rows`), appending to `out_sel` the indices — in `base`
    /// order — where the result is truthy. This is the filter form; the
    /// output is a selection vector ready to drive the next predicate.
    pub fn select(
        &mut self,
        prog: &Program,
        rows: &[Row],
        base: &[u32],
        out_sel: &mut Vec<u32>,
    ) -> Result<(), ExecError> {
        self.run(prog, rows, base)?;
        for &lane in base {
            if truthy_at(&self.regs, prog.out, rows, lane as usize) {
                out_sel.push(lane);
            }
        }
        Ok(())
    }

    /// Evaluates `prog` over `rows` restricted to `base`, appending one
    /// result value per selected row (in `base` order) to `out`.
    pub fn eval(
        &mut self,
        prog: &Program,
        rows: &[Row],
        base: &[u32],
        out: &mut Vec<Value>,
    ) -> Result<(), ExecError> {
        self.run(prog, rows, base)?;
        out.reserve(base.len());
        for &lane in base {
            out.push(reg_at(&self.regs, prog.out, rows, lane as usize).clone());
        }
        Ok(())
    }

    /// Runs the program's ops over the base selection. On return the
    /// output register holds a value for every row in `base`.
    fn run(&mut self, prog: &Program, rows: &[Row], base: &[u32]) -> Result<(), ExecError> {
        let started = std::time::Instant::now();
        while let Some(r) = self.regs.pop() {
            self.retire(r);
        }
        self.regs.resize_with(prog.num_regs as usize, || Reg::Unset);
        // Stack slot 0 is the caller's base selection; masks push above.
        while let Some(v) = self.sel_stack.pop() {
            self.sel_pool.push(v);
        }
        let mut base_sel = self.sel_pool.pop().unwrap_or_default();
        base_sel.clear();
        base_sel.extend_from_slice(base);
        self.sel_stack.push(base_sel);

        let n = rows.len();
        for op in &prog.ops {
            match op {
                Op::Const { dst, idx } => {
                    self.regs[*dst as usize] = Reg::Scalar(prog.consts[*idx as usize].clone());
                }
                Op::Col { dst, col } => {
                    self.regs[*dst as usize] = Reg::Col(*col);
                }
                Op::Arith { op, dst, a, b } => {
                    self.binary_op(*dst, n, rows, |regs, rows, lane| {
                        scalar::arith(
                            *op,
                            reg_at(regs, *a, rows, lane),
                            reg_at(regs, *b, rows, lane),
                        )
                    })?;
                }
                Op::Cmp { op, dst, a, b } => {
                    self.binary_op(*dst, n, rows, |regs, rows, lane| {
                        scalar::cmp(
                            *op,
                            reg_at(regs, *a, rows, lane),
                            reg_at(regs, *b, rows, lane),
                        )
                    })?;
                }
                Op::Within { dst, a, b } => {
                    self.binary_op(*dst, n, rows, |regs, rows, lane| {
                        scalar::within(reg_at(regs, *a, rows, lane), reg_at(regs, *b, rows, lane))
                    })?;
                }
                Op::Neg { dst, a } => {
                    self.binary_op(*dst, n, rows, |regs, rows, lane| {
                        scalar::neg(reg_at(regs, *a, rows, lane))
                    })?;
                }
                Op::Not { dst, a } => {
                    self.binary_op(*dst, n, rows, |regs, rows, lane| {
                        scalar::logical_not(reg_at(regs, *a, rows, lane))
                    })?;
                }
                Op::Between { dst, v, lo, hi } => {
                    self.binary_op(*dst, n, rows, |regs, rows, lane| {
                        scalar::between(
                            reg_at(regs, *v, rows, lane),
                            reg_at(regs, *lo, rows, lane),
                            reg_at(regs, *hi, rows, lane),
                        )
                    })?;
                }
                Op::Call { dst, func, args } => {
                    let entry = &prog.funcs[*func as usize];
                    self.binary_op(*dst, n, rows, |regs, rows, lane| {
                        let vals: Vec<Value> = args
                            .iter()
                            .map(|r| reg_at(regs, *r, rows, lane).clone())
                            .collect();
                        (entry.f)(vals)
                    })?;
                }
                Op::MaskAnd { src } | Op::MaskOr { src } => {
                    // `AND`'s right-hand side decides the truthy lanes,
                    // `OR`'s the falsy ones.
                    let keep = matches!(op, Op::MaskAnd { .. });
                    let mut narrowed = self.sel_pool.pop().unwrap_or_default();
                    narrowed.clear();
                    let cur = self.sel_stack.last().expect("selection stack");
                    narrowed.reserve(cur.len());
                    for &lane in cur {
                        if truthy_at(&self.regs, *src, rows, lane as usize) == keep {
                            narrowed.push(lane);
                        }
                    }
                    self.sel_stack.push(narrowed);
                }
                Op::MaskPop => {
                    if let Some(v) = self.sel_stack.pop() {
                        self.sel_pool.push(v);
                    }
                }
                Op::MergeAnd { dst, a, b } => {
                    self.binary_op(*dst, n, rows, |regs, rows, lane| {
                        Ok(Value::Bool(
                            truthy_at(regs, *a, rows, lane) && truthy_at(regs, *b, rows, lane),
                        ))
                    })?;
                }
                Op::MergeOr { dst, a, b } => {
                    self.binary_op(*dst, n, rows, |regs, rows, lane| {
                        Ok(Value::Bool(
                            truthy_at(regs, *a, rows, lane) || truthy_at(regs, *b, rows, lane),
                        ))
                    })?;
                }
            }
        }
        self.batch_us.record_duration(started.elapsed());
        Ok(())
    }

    /// Returns a retired register's buffer to the pool.
    fn retire(&mut self, r: Reg) {
        if let Reg::Vals(v) = r {
            self.pool.push(v);
        }
    }

    /// Writes `reg` into `dst`, recycling whatever was there.
    fn set_reg(&mut self, dst: RegId, reg: Reg) {
        let old = std::mem::replace(&mut self.regs[dst as usize], reg);
        self.retire(old);
    }

    /// Materializes `dst` by applying `f` at every currently-selected
    /// lane (lanes outside the selection stay NULL and are never read by
    /// later ops, by the masking invariant).
    fn binary_op(
        &mut self,
        dst: RegId,
        n_rows: usize,
        rows: &[Row],
        f: impl Fn(&[Reg], &[Row], usize) -> Result<Value, ExecError>,
    ) -> Result<(), ExecError> {
        let mut out = self.pool.pop().unwrap_or_default();
        out.clear();
        let sel = self.sel_stack.last().expect("selection stack");
        if sel.len() == n_rows {
            // Selection vectors are sorted and unique, so a full-length
            // one is the identity: iterate directly with no indirection
            // and no NULL pre-fill (every lane gets written).
            out.reserve(n_rows);
            for lane in 0..n_rows {
                out.push(f(&self.regs, rows, lane)?);
            }
        } else {
            out.resize(n_rows, Value::Null);
            for &lane in sel {
                out[lane as usize] = f(&self.regs, rows, lane as usize)?;
            }
        }
        self.set_reg(dst, Reg::Vals(out));
        Ok(())
    }
}

/// Reads one lane of a register as a borrowed [`Value`].
fn reg_at<'a>(regs: &'a [Reg], r: RegId, rows: &'a [Row], lane: usize) -> &'a Value {
    match &regs[r as usize] {
        Reg::Scalar(v) => v,
        Reg::Col(c) => rows[lane].values.get(*c as usize).unwrap_or(&NULL),
        Reg::Vals(v) => &v[lane],
        Reg::Unset => &NULL,
    }
}

/// One lane's SQL truthiness.
fn truthy_at(regs: &[Reg], r: RegId, rows: &[Row], lane: usize) -> bool {
    scalar::truthy(reg_at(regs, r, rows, lane))
}

/// The identity selection `0..n` (helper for callers feeding whole
/// batches).
pub fn full_selection(n: usize) -> Vec<u32> {
    (0..n as u32).collect()
}
