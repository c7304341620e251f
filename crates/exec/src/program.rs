//! The register bytecode IR and its builder.
//!
//! A [`Program`] is the compiled form of one scalar expression: a flat
//! sequence of [`Op`]s over virtual registers, a constant pool, and a
//! table of scalar-function entry points. Programs are built exactly
//! once per query (per operator) by the front end's lowering pass —
//! column names are resolved to input indices there, literals are
//! interned (deduplicated) into the constant pool. Opcodes are untyped:
//! each applies JustQL's dynamic value semantics ([`crate::scalar`]) to
//! whatever values its operands hold.
//!
//! `AND` / `OR` compile to *selection masks* rather than eager operand
//! evaluation: the right-hand side's ops run under a narrowed selection
//! containing only the rows the left-hand side did not already decide,
//! which preserves the row interpreter's short-circuit semantics (no
//! spurious errors or side effects from rows that never needed the
//! right-hand side) while staying fully vectorized.

use crate::scalar::{ArithOp, CmpOp};
use crate::ExecError;
use just_storage::Value;
use std::sync::Arc;

/// A virtual register index.
pub type RegId = u16;

/// One bytecode instruction. `dst` registers are written for every row
/// in the current selection; operand registers are only read at selected
/// rows.
#[derive(Debug, Clone)]
pub enum Op {
    /// Broadcast constant-pool entry `idx` into `dst`.
    Const {
        /// Destination register.
        dst: RegId,
        /// Constant-pool index.
        idx: u16,
    },
    /// Bind `dst` to input column `col` (zero-copy view).
    Col {
        /// Destination register.
        dst: RegId,
        /// Input column index.
        col: u16,
    },
    /// Arithmetic: `dst = a <op> b` with full coercion rules.
    Arith {
        /// Operator.
        op: ArithOp,
        /// Destination register.
        dst: RegId,
        /// Left operand register.
        a: RegId,
        /// Right operand register.
        b: RegId,
    },
    /// Comparison: `dst = Bool(a <op> b)`; NULL compares false.
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Destination register.
        dst: RegId,
        /// Left operand register.
        a: RegId,
        /// Right operand register.
        b: RegId,
    },
    /// Spatial containment: `dst = Bool(a WITHIN mbr(b))`.
    Within {
        /// Destination register.
        dst: RegId,
        /// Geometry operand register.
        a: RegId,
        /// Target geometry register.
        b: RegId,
    },
    /// Arithmetic negation.
    Neg {
        /// Destination register.
        dst: RegId,
        /// Operand register.
        a: RegId,
    },
    /// Logical NOT (NULL propagates).
    Not {
        /// Destination register.
        dst: RegId,
        /// Operand register.
        a: RegId,
    },
    /// `dst = Bool(lo <= v <= hi)`, both bounds compared eagerly.
    Between {
        /// Destination register.
        dst: RegId,
        /// Tested-value register.
        v: RegId,
        /// Lower-bound register.
        lo: RegId,
        /// Upper-bound register.
        hi: RegId,
    },
    /// Scalar function call, one invocation per selected row.
    Call {
        /// Destination register.
        dst: RegId,
        /// Function-table index.
        func: u16,
        /// Argument registers, in order.
        args: Vec<RegId>,
    },
    /// Push a narrowed selection: rows where `src` is truthy (the lanes
    /// an `AND`'s right-hand side still has to decide).
    MaskAnd {
        /// Condition register.
        src: RegId,
    },
    /// Push a narrowed selection: rows where `src` is *falsy* (the lanes
    /// an `OR`'s right-hand side still has to decide).
    MaskOr {
        /// Condition register.
        src: RegId,
    },
    /// Pop the innermost selection mask.
    MaskPop,
    /// `dst = Bool(truthy(a) && truthy(b))`; `b` is only read on rows
    /// where `a` was truthy (elsewhere its lanes were never computed).
    MergeAnd {
        /// Destination register.
        dst: RegId,
        /// Left (mask source) register.
        a: RegId,
        /// Right (masked) register.
        b: RegId,
    },
    /// `dst = Bool(truthy(a) || truthy(b))`; `b` is only read on rows
    /// where `a` was falsy.
    MergeOr {
        /// Destination register.
        dst: RegId,
        /// Left (mask source) register.
        a: RegId,
        /// Right (masked) register.
        b: RegId,
    },
}

/// A scalar function bound into a program's function table at compile
/// time (the front end supplies the actual callable — this crate has no
/// function registry of its own).
#[derive(Clone)]
pub struct FuncEntry {
    /// Lower-cased function name (for listings).
    pub name: String,
    /// The callable.
    pub f: Arc<dyn Fn(Vec<Value>) -> Result<Value, ExecError> + Send + Sync>,
}

impl std::fmt::Debug for FuncEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FuncEntry({})", self.name)
    }
}

/// A compiled expression: flat ops, constant pool, function table.
#[derive(Debug, Clone)]
pub struct Program {
    pub(crate) ops: Vec<Op>,
    pub(crate) consts: Vec<Value>,
    pub(crate) funcs: Vec<FuncEntry>,
    pub(crate) num_regs: u16,
    pub(crate) out: RegId,
    pub(crate) col_names: Vec<String>,
}

impl Program {
    /// Renders the program one line per opcode (the `EXPLAIN` listing).
    pub fn listing(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(self.ops.len() + 1);
        let col = |c: u16| -> String {
            self.col_names
                .get(c as usize)
                .map(|n| format!("${c} ({n})"))
                .unwrap_or_else(|| format!("${c}"))
        };
        for (i, op) in self.ops.iter().enumerate() {
            let line = match op {
                Op::Const { dst, idx } => {
                    format!("r{dst} = const {:?}", self.consts[*idx as usize])
                }
                Op::Col { dst, col: c } => format!("r{dst} = col {}", col(*c)),
                Op::Arith { op, dst, a, b } => {
                    format!("r{dst} = arith r{a} {} r{b}", op.symbol())
                }
                Op::Cmp { op, dst, a, b } => format!("r{dst} = cmp r{a} {} r{b}", op.symbol()),
                Op::Within { dst, a, b } => format!("r{dst} = within r{a}, r{b}"),
                Op::Neg { dst, a } => format!("r{dst} = neg r{a}"),
                Op::Not { dst, a } => format!("r{dst} = not r{a}"),
                Op::Between { dst, v, lo, hi } => {
                    format!("r{dst} = between r{v}, r{lo}, r{hi}")
                }
                Op::Call { dst, func, args } => {
                    let args: Vec<String> = args.iter().map(|r| format!("r{r}")).collect();
                    format!(
                        "r{dst} = call {}({})",
                        self.funcs[*func as usize].name,
                        args.join(", ")
                    )
                }
                Op::MaskAnd { src } => format!("mask.and r{src}"),
                Op::MaskOr { src } => format!("mask.or r{src}"),
                Op::MaskPop => "mask.pop".to_string(),
                Op::MergeAnd { dst, a, b } => format!("r{dst} = and r{a}, r{b}"),
                Op::MergeOr { dst, a, b } => format!("r{dst} = or r{a}, r{b}"),
            };
            out.push(format!("{i:02}: {line}"));
        }
        out.push(format!("ret r{}", self.out));
        out
    }
}

/// Incrementally builds a [`Program`]. The front end's lowering pass
/// drives this: every emit helper allocates a fresh destination register
/// (SSA-style) and returns it.
pub struct ProgramBuilder {
    ops: Vec<Op>,
    consts: Vec<Value>,
    /// Register each pool constant was loaded into, parallel to
    /// `consts`: a `Const` op writes a broadcast scalar independent of
    /// any selection mask, so repeated interns reuse the register.
    const_regs: Vec<RegId>,
    funcs: Vec<FuncEntry>,
    next_reg: u16,
    col_names: Vec<String>,
}

impl ProgramBuilder {
    /// Starts a program over inputs with the given column names (used
    /// for listings only; resolution happens in the front end).
    pub fn new(col_names: Vec<String>) -> Self {
        ProgramBuilder {
            ops: Vec::new(),
            consts: Vec::new(),
            const_regs: Vec::new(),
            funcs: Vec::new(),
            next_reg: 0,
            col_names,
        }
    }

    fn fresh(&mut self) -> Result<RegId, ExecError> {
        if self.next_reg == u16::MAX {
            return Err(ExecError("expression too large to compile".into()));
        }
        let r = self.next_reg;
        self.next_reg += 1;
        Ok(r)
    }

    /// Interns `v` into the constant pool (deduplicated) and emits a
    /// broadcast.
    pub fn constant(&mut self, v: Value) -> Result<RegId, ExecError> {
        if let Some(i) = self.consts.iter().position(|c| *c == v) {
            return Ok(self.const_regs[i]);
        }
        let idx = self.consts.len();
        if idx > u16::MAX as usize {
            return Err(ExecError("constant pool overflow".into()));
        }
        self.consts.push(v);
        let dst = self.fresh()?;
        self.const_regs.push(dst);
        self.ops.push(Op::Const {
            dst,
            idx: idx as u16,
        });
        Ok(dst)
    }

    /// Emits a column binding.
    pub fn col(&mut self, col: usize) -> Result<RegId, ExecError> {
        if col > u16::MAX as usize {
            return Err(ExecError("column index overflow".into()));
        }
        let dst = self.fresh()?;
        self.ops.push(Op::Col {
            dst,
            col: col as u16,
        });
        Ok(dst)
    }

    /// Emits arithmetic.
    pub fn arith(&mut self, op: ArithOp, a: RegId, b: RegId) -> Result<RegId, ExecError> {
        let dst = self.fresh()?;
        self.ops.push(Op::Arith { op, dst, a, b });
        Ok(dst)
    }

    /// Emits a comparison.
    pub fn cmp(&mut self, op: CmpOp, a: RegId, b: RegId) -> Result<RegId, ExecError> {
        let dst = self.fresh()?;
        self.ops.push(Op::Cmp { op, dst, a, b });
        Ok(dst)
    }

    /// Emits spatial containment.
    pub fn within(&mut self, a: RegId, b: RegId) -> Result<RegId, ExecError> {
        let dst = self.fresh()?;
        self.ops.push(Op::Within { dst, a, b });
        Ok(dst)
    }

    /// Emits arithmetic negation.
    pub fn neg(&mut self, a: RegId) -> Result<RegId, ExecError> {
        let dst = self.fresh()?;
        self.ops.push(Op::Neg { dst, a });
        Ok(dst)
    }

    /// Emits logical NOT.
    pub fn not(&mut self, a: RegId) -> Result<RegId, ExecError> {
        let dst = self.fresh()?;
        self.ops.push(Op::Not { dst, a });
        Ok(dst)
    }

    /// Emits an eager BETWEEN.
    pub fn between(&mut self, v: RegId, lo: RegId, hi: RegId) -> Result<RegId, ExecError> {
        let dst = self.fresh()?;
        self.ops.push(Op::Between { dst, v, lo, hi });
        Ok(dst)
    }

    /// Emits a scalar function call over already-lowered arguments.
    pub fn call(&mut self, entry: FuncEntry, args: Vec<RegId>) -> Result<RegId, ExecError> {
        if self.funcs.len() >= u16::MAX as usize {
            return Err(ExecError("function table overflow".into()));
        }
        let func = self.funcs.len() as u16;
        self.funcs.push(entry);
        let dst = self.fresh()?;
        self.ops.push(Op::Call { dst, func, args });
        Ok(dst)
    }

    /// Pushes the `AND` selection mask: until the matching
    /// [`ProgramBuilder::mask_pop`], emitted ops only run on rows where
    /// `src` is truthy.
    pub fn mask_and(&mut self, src: RegId) {
        self.ops.push(Op::MaskAnd { src });
    }

    /// Pushes the `OR` selection mask (rows where `src` is falsy).
    pub fn mask_or(&mut self, src: RegId) {
        self.ops.push(Op::MaskOr { src });
    }

    /// Pops the innermost selection mask.
    pub fn mask_pop(&mut self) {
        self.ops.push(Op::MaskPop);
    }

    /// Emits the `AND` merge over a mask source and its masked operand.
    pub fn merge_and(&mut self, a: RegId, b: RegId) -> Result<RegId, ExecError> {
        let dst = self.fresh()?;
        self.ops.push(Op::MergeAnd { dst, a, b });
        Ok(dst)
    }

    /// Emits the `OR` merge.
    pub fn merge_or(&mut self, a: RegId, b: RegId) -> Result<RegId, ExecError> {
        let dst = self.fresh()?;
        self.ops.push(Op::MergeOr { dst, a, b });
        Ok(dst)
    }

    /// Seals the program with `out` as the result register, counting one
    /// compiled program in the `just_exec_programs_compiled` metric.
    pub fn finish(self, out: RegId) -> Program {
        just_obs::global()
            .counter("just_exec_programs_compiled")
            .inc();
        Program {
            ops: self.ops,
            consts: self.consts,
            funcs: self.funcs,
            num_regs: self.next_reg,
            out,
            col_names: self.col_names,
        }
    }
}
