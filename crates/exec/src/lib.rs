//! # just-exec — compiled, vectorized expression execution for JustQL
//!
//! JustQL historically interpreted the `Expr` AST once per row:
//! every row re-resolved column names by linear search and re-walked the
//! tree. This crate is the compile-once replacement:
//!
//! 1. **Compile** (`just-ql`'s `compile` module lowers into
//!    [`program::ProgramBuilder`]): an expression becomes a flat
//!    register-based bytecode [`program::Program`] exactly once per
//!    query — columns resolved to indices against the input schema,
//!    literals interned in a constant pool, constant subtrees folded.
//! 2. **Execute** ([`vm::Vm`]): programs run over the batch-at-a-time
//!    pipeline one *opcode* at a time under selection vectors, every
//!    computed register a vector of boxed `Value` lanes — a filter
//!    produces a selection, later predicates and projections evaluate
//!    only the surviving rows, and `AND`/`OR` short-circuiting is
//!    expressed as selection masks so skipped operands are never
//!    evaluated (matching interpreted semantics, including which rows
//!    can raise errors).
//! 3. **Aggregate** ([`agg::HashAggregator`]): GROUP BY folds batches
//!    into hash-indexed per-group accumulators with no per-row key
//!    allocation.
//! 4. **Join / order** ([`join::JoinHash`], [`keys`]): equi-joins build
//!    and probe a hash table over order-preserving key encodings, and
//!    sorts / TOP-K heaps compare the same memcmp-able bytes instead of
//!    dispatching on boxed `Value`s.
//!
//! The [`scalar`] module is the single definition of JustQL's dynamic
//! value semantics (truthiness, coercion, NULL rules, error text); the
//! row interpreter in `just-ql` delegates to it, so compiled and
//! interpreted execution agree by construction.
//!
//! Observability: the `just_exec_programs_compiled` counter and the
//! `just_exec_batch_eval_us` histogram (via `just-obs`).

pub mod agg;
pub mod join;
pub mod keys;
pub mod program;
pub mod scalar;
pub mod vm;

pub use agg::{AggSpec, HashAggregator};
pub use join::{keys_hashable, JoinHash};
pub use keys::{encode_key, total_compare};
pub use program::{FuncEntry, Op, Program, ProgramBuilder, RegId};
pub use scalar::{ArithOp, CmpOp};
pub use vm::{full_selection, Vm};

/// An execution error (message-only, mapped into `just-ql`'s error type
/// at the crate boundary). Error text matches the interpreter verbatim —
/// the parity property test depends on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError(pub String);

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ExecError {}
