//! Lowering JustQL expressions into `just-exec` bytecode.
//!
//! [`compile`] turns one [`Expr`] into a flat register [`Program`]
//! exactly once per query (per operator): column names are resolved to
//! input indices here — never again per row — literals are interned into
//! the program's constant pool, and constant non-volatile subtrees are
//! folded to a single constant. Opcodes carry no types: the same program
//! runs over a stored table, a view or an intermediate dataset.
//!
//! [`compile`] is total and doubles as the executor's analyzer: every
//! expression either lowers or is rejected with a typed
//! [`QlError::Analyze`] — an unknown column or function, `*` outside
//! `count(*)`, or a plan-level construct (`IN st_KNN(...)`, an aggregate,
//! table or cluster function) in scalar position. Operators compile
//! before they read a row, so whether such an error is reported never
//! depends on the data. Runtime value errors (`1/0`, type mismatches)
//! still surface from the VM, per row.

use crate::ast::{BinOp, Expr};
use crate::functions::{self, arith_op, cmp_op, resolve_column};
use crate::plan::LogicalPlan;
use crate::QlError;
use crate::Result;
use just_core::Session;
use just_exec::{ExecError, FuncEntry, Program, ProgramBuilder, RegId};
use std::sync::Arc;

const KNN_PLACEMENT: &str = "st_KNN can only appear as the sole WHERE predicate";

/// Builder errors are size limits (registers, constants, columns,
/// functions): the expression is too large to be a program.
fn build_err(e: ExecError) -> QlError {
    QlError::Analyze(e.0)
}

struct Lowerer<'a> {
    b: ProgramBuilder,
    columns: &'a [String],
}

impl Lowerer<'_> {
    /// Lowers `e`, returning its result register.
    fn lower(&mut self, e: &Expr) -> Result<RegId> {
        // Constant non-volatile subtrees fold into the constant pool at
        // compile time. Folding that *errors* (e.g. `1/0`) lowers
        // normally so the runtime error matches the interpreter's.
        if !matches!(e, Expr::Literal(_)) && e.is_constant() && !contains_volatile(e) {
            if let Ok(v) = functions::eval_const(e) {
                return self.b.constant(v).map_err(build_err);
            }
        }
        let reg = match e {
            Expr::Literal(v) => self.b.constant(v.clone()),
            Expr::Column(name) => {
                let idx = resolve_column(name, self.columns)?;
                self.b.col(idx)
            }
            Expr::Star => return Err(QlError::Analyze("'*' outside count(*)".into())),
            Expr::InFunc { .. } => return Err(QlError::Analyze(KNN_PLACEMENT.into())),
            Expr::Unary { not, expr } => {
                let a = self.lower(expr)?;
                if *not {
                    self.b.not(a)
                } else {
                    self.b.neg(a)
                }
            }
            Expr::Binary { op, lhs, rhs } => match op {
                BinOp::And => {
                    let l = self.lower(lhs)?;
                    self.b.mask_and(l);
                    let r = self.lower(rhs)?;
                    self.b.mask_pop();
                    self.b.merge_and(l, r)
                }
                BinOp::Or => {
                    let l = self.lower(lhs)?;
                    self.b.mask_or(l);
                    let r = self.lower(rhs)?;
                    self.b.mask_pop();
                    self.b.merge_or(l, r)
                }
                BinOp::Within => {
                    let l = self.lower(lhs)?;
                    let r = self.lower(rhs)?;
                    self.b.within(l, r)
                }
                other => {
                    let l = self.lower(lhs)?;
                    let r = self.lower(rhs)?;
                    match arith_op(*other) {
                        Some(a) => self.b.arith(a, l, r),
                        None => {
                            let c = cmp_op(*other).expect("logical ops handled above");
                            self.b.cmp(c, l, r)
                        }
                    }
                }
            },
            Expr::Between { expr, lo, hi } => {
                let v = self.lower(expr)?;
                let lo = self.lower(lo)?;
                let hi = self.lower(hi)?;
                self.b.between(v, lo, hi)
            }
            Expr::Func { name, args } => {
                // Plan-level constructs have no scalar value: the planner
                // lifts them out of the positions where they are legal.
                if functions::is_aggregate(name) {
                    return Err(QlError::Analyze(format!(
                        "aggregate '{name}' is not allowed here"
                    )));
                }
                if functions::is_table_function(name) || functions::is_cluster_function(name) {
                    return Err(QlError::Analyze(format!(
                        "'{name}' can only appear as the sole projection item"
                    )));
                }
                if name == "st_knn" {
                    return Err(QlError::Analyze(KNN_PLACEMENT.into()));
                }
                if !functions::is_known_function(name) {
                    return Err(QlError::Analyze(format!("unknown function '{name}'")));
                }
                let mut regs = Vec::with_capacity(args.len());
                for a in args {
                    regs.push(self.lower(a)?);
                }
                let fname = name.clone();
                let entry = FuncEntry {
                    name: name.clone(),
                    f: Arc::new(move |vals| {
                        functions::call(&fname, vals).map_err(|e| ExecError(e.message()))
                    }),
                };
                self.b.call(entry, regs)
            }
        };
        reg.map_err(build_err)
    }
}

/// Whether any function in the expression is volatile (side-effecting,
/// like `sleep_ms`) — its subtree must never be folded at compile time.
fn contains_volatile(e: &Expr) -> bool {
    let mut volatile = false;
    e.walk(&mut |x| {
        if let Expr::Func { name, .. } = x {
            if functions::is_volatile(name) {
                volatile = true;
            }
        }
    });
    volatile
}

/// Compiles `expr` into a bytecode program against the input header
/// `columns`.
///
/// `Err` is always a [`QlError::Analyze`]: the expression is not a valid
/// scalar expression over `columns` (see the module docs).
pub(crate) fn compile(expr: &Expr, columns: &[String]) -> Result<Program> {
    let mut l = Lowerer {
        b: ProgramBuilder::new(columns.to_vec()),
        columns,
    };
    let out = l.lower(expr)?;
    Ok(l.b.finish(out))
}

/// Renders `plan` like [`LogicalPlan::render`], but each
/// expression-bearing operator is followed by the bytecode listing of
/// its compiled programs, one line per opcode — what plain `EXPLAIN`
/// shows. Expressions the compiler rejects render their analysis error
/// instead. Input headers are resolved
/// best-effort against the catalog; operators whose input columns can't
/// be determined statically (`st_KNN`, table functions) list nothing.
pub(crate) fn explain_render(plan: &LogicalPlan, session: &Session) -> String {
    let mut out = String::new();
    render_node(plan, session, &mut out, 0);
    out
}

fn render_node(plan: &LogicalPlan, session: &Session, out: &mut String, depth: usize) {
    out.push_str(&"  ".repeat(depth));
    out.push_str(&plan.label());
    out.push('\n');
    match plan {
        LogicalPlan::Scan {
            table,
            residual: Some(r),
            ..
        } => {
            // The residual runs against the full pre-projection schema,
            // exactly what the streaming scan compiles.
            if let Some(cols) = scan_input_columns(table, session) {
                push_program(out, depth, "residual", &compile(r, &cols));
            }
        }
        LogicalPlan::Filter { input, predicate } => {
            if let Some(cols) = output_columns(input, session) {
                push_program(out, depth, "predicate", &compile(predicate, &cols));
            }
        }
        LogicalPlan::FilterProject {
            input,
            predicate,
            items,
        } => {
            if let Some(cols) = output_columns(input, session) {
                push_program(out, depth, "predicate", &compile(predicate, &cols));
                push_item_programs(out, depth, items, &cols);
            }
        }
        LogicalPlan::Sort { input, keys } | LogicalPlan::TopK { input, keys, .. } => {
            if let Some(cols) = output_columns(input, session) {
                for (i, (e, asc)) in keys.iter().enumerate() {
                    let label = format!("key {i} {}", if *asc { "asc" } else { "desc" });
                    push_program(out, depth, &label, &compile(e, &cols));
                }
            }
        }
        LogicalPlan::HashJoin {
            left,
            right,
            keys,
            residual,
        } => {
            // Key programs compile against their own side's header;
            // the residual sees the combined left++right header, like
            // the executor's post-probe filter.
            let lcols = output_columns(left, session);
            let rcols = output_columns(right, session);
            for (i, (l, r)) in keys.iter().enumerate() {
                if let Some(cols) = &lcols {
                    let label = format!("key {i} left");
                    push_program(out, depth, &label, &compile(l, cols));
                }
                if let Some(cols) = &rcols {
                    let label = format!("key {i} right");
                    push_program(out, depth, &label, &compile(r, cols));
                }
            }
            if let (Some(res), Some(lc), Some(rc)) = (residual, &lcols, &rcols) {
                let mut combined = lc.clone();
                combined.extend(rc.iter().cloned());
                push_program(out, depth, "residual", &compile(res, &combined));
            }
        }
        LogicalPlan::Project { input, items } => {
            if let Some(cols) = output_columns(input, session) {
                push_item_programs(out, depth, items, &cols);
            }
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggregates,
        } => {
            if let Some(cols) = output_columns(input, session) {
                for (e, name) in group_by {
                    let label = format!("key {name}");
                    push_program(out, depth, &label, &compile(e, &cols));
                }
                for (func, e, name) in aggregates {
                    if !matches!(e, Expr::Star) {
                        let label = format!("{func} {name}");
                        push_program(out, depth, &label, &compile(e, &cols));
                    }
                }
            }
        }
        _ => {}
    }
    for child in plan.children() {
        render_node(child, session, out, depth + 1);
    }
}

/// One listing per computed projection item; a sole table / cluster
/// function item lists its argument programs instead.
fn push_item_programs(out: &mut String, depth: usize, items: &[(Expr, String)], cols: &[String]) {
    if let Some((_, args)) = crate::exec::row_function(items) {
        for (i, a) in args.iter().enumerate() {
            push_program(out, depth, &format!("arg {i}"), &compile(a, cols));
        }
        return;
    }
    for (e, name) in items {
        if !matches!(e, Expr::Star) {
            push_program(out, depth, name, &compile(e, cols));
        }
    }
}

fn push_program(out: &mut String, depth: usize, label: &str, prog: &Result<Program>) {
    let pad = "  ".repeat(depth + 1);
    match prog {
        Ok(p) => {
            out.push_str(&format!("{pad}program {label}:\n"));
            for line in p.listing() {
                out.push_str(&format!("{pad}  {line}\n"));
            }
        }
        Err(e) => out.push_str(&format!("{pad}program {label}: {e}\n")),
    }
}

/// A stored table's or view's full column list.
fn scan_input_columns(table: &str, session: &Session) -> Option<Vec<String>> {
    if let Ok(view) = session.view(table) {
        return Some(view.columns.clone());
    }
    let def = session.describe(table).ok()?;
    Some(def.schema.fields().iter().map(|f| f.name.clone()).collect())
}

/// The operator's statically-known output header (a scan's comes from
/// the executor's own [`crate::exec::scan_header`]). `None` when the
/// header is data-dependent (table functions, clustering, k-NN).
fn output_columns(plan: &LogicalPlan, session: &Session) -> Option<Vec<String>> {
    match plan {
        LogicalPlan::Scan {
            table,
            alias,
            projection,
            ..
        } => {
            let cols = scan_input_columns(table, session)?;
            Some(crate::exec::scan_header(&cols, projection, alias).1)
        }
        LogicalPlan::Values { columns, .. } => Some(columns.clone()),
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::TopK { input, .. }
        | LogicalPlan::Limit { input, .. } => output_columns(input, session),
        LogicalPlan::FilterProject { input, items, .. } => project_columns(input, items, session),
        LogicalPlan::Project { input, items } => project_columns(input, items, session),
        LogicalPlan::Aggregate {
            group_by,
            aggregates,
            ..
        } => {
            let mut cols: Vec<String> = group_by.iter().map(|(_, n)| n.clone()).collect();
            cols.extend(aggregates.iter().map(|(_, _, n)| n.clone()));
            Some(cols)
        }
        LogicalPlan::Join { left, right, .. } | LogicalPlan::HashJoin { left, right, .. } => {
            let mut cols = output_columns(left, session)?;
            cols.extend(output_columns(right, session)?);
            Some(cols)
        }
        LogicalPlan::Knn { .. } => None,
    }
}

/// Projection-list header shared by `Project` and `FilterProject`:
/// item names, with `*` expanding to the input's header. Table and
/// cluster functions produce data-dependent headers.
fn project_columns(
    input: &LogicalPlan,
    items: &[(Expr, String)],
    session: &Session,
) -> Option<Vec<String>> {
    if crate::exec::row_function(items).is_some() {
        return None;
    }
    let mut cols = Vec::new();
    for (e, name) in items {
        if matches!(e, Expr::Star) {
            cols.extend(output_columns(input, session)?);
        } else {
            cols.push(name.clone());
        }
    }
    Some(cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::Statement;
    use just_exec::{full_selection, Vm};
    use just_storage::{Row, Value};

    fn predicate_of(sql: &str) -> Expr {
        match parse(sql).unwrap() {
            Statement::Query(q) => q.where_clause.unwrap(),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn columns_resolve_and_constants_intern() {
        let e = predicate_of("SELECT a FROM t WHERE a + 1 > 1 AND b < 1");
        let cols = vec!["a".to_string(), "b".to_string()];
        let p = compile(&e, &cols).unwrap();
        // `1` appears three times in the source but is interned once; the
        // listing names resolved columns.
        let listing = p.listing().join("\n");
        assert_eq!(listing.matches("const Int(1)").count(), 1, "{listing}");
        assert!(listing.contains("$0 (a)"), "{listing}");
        assert!(listing.contains("mask.and"), "{listing}");
    }

    #[test]
    fn arithmetic_and_comparison_compile_to_the_generic_opcodes() {
        let e = predicate_of("SELECT a FROM t WHERE a + 1 > 2");
        let p = compile(&e, &["a".to_string()]).unwrap();
        let listing = p.listing().join("\n");
        assert!(listing.contains("= arith r0 + r1"), "{listing}");
        assert!(listing.contains("cmp r2 > r3"), "{listing}");
    }

    #[test]
    fn constant_subtrees_fold_at_compile_time() {
        let e = predicate_of("SELECT a FROM t WHERE a > 2 + 3 * 4");
        let p = compile(&e, &["a".to_string()]).unwrap();
        let listing = p.listing().join("\n");
        assert!(listing.contains("const Int(14)"), "{listing}");
        assert!(!listing.contains("arith"), "{listing}");
    }

    /// Folds `e` over literals and runs it compiled over a row of the
    /// same values (columns `a`, `b`): `None` is an error.
    fn folded_and_compiled(e: impl Fn(Expr, Expr) -> Expr, a: i64, b: i64) -> [Option<Value>; 2] {
        let lit = |v| Expr::Literal(Value::Int(v));
        let col = |n: &str| Expr::Column(n.to_string());
        let folded = functions::eval_const(&e(lit(a), lit(b))).ok();
        let cols = ["a".to_string(), "b".to_string()];
        let prog = compile(&e(col("a"), col("b")), &cols).unwrap();
        let rows = [Row::new(vec![Value::Int(a), Value::Int(b)])];
        let mut out = Vec::new();
        let compiled = Vm::new()
            .eval(&prog, &rows, &full_selection(1), &mut out)
            .ok()
            .and_then(|()| out.pop());
        [folded, compiled]
    }

    #[test]
    fn integer_edges_wrap_when_folded_and_compiled() {
        const MIN: i64 = i64::MIN;
        const MAX: i64 = i64::MAX;
        let ops = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Mod];
        let cases: [(i64, i64, [Option<i64>; 5]); 3] = [
            (
                MIN,
                -1,
                [Some(MAX), Some(MIN + 1), Some(MIN), Some(MIN), Some(0)],
            ),
            (MIN, 0, [Some(MIN), Some(MIN), Some(0), None, None]),
            (
                MAX,
                1,
                [Some(MIN), Some(MAX - 1), Some(MAX), Some(MAX), Some(0)],
            ),
        ];
        for (a, b, want) in cases {
            for (op, want) in ops.into_iter().zip(want) {
                let binary = |lhs, rhs| Expr::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                };
                let want = want.map(Value::Int);
                let got = folded_and_compiled(binary, a, b);
                assert_eq!(got, [want.clone(), want], "{a} {op:?} {b}");
            }
        }
        let abs = |a, _| Expr::Func {
            name: "abs".into(),
            args: vec![a],
        };
        let neg = |a, _| Expr::Unary {
            not: false,
            expr: Box::new(a),
        };
        for (a, abs_a, neg_a) in [(MIN, MIN, MIN), (MAX, MAX, -MAX)] {
            let want = |v| [Some(Value::Int(v)), Some(Value::Int(v))];
            assert_eq!(folded_and_compiled(abs, a, 0), want(abs_a), "abs({a})");
            assert_eq!(folded_and_compiled(neg, a, 0), want(neg_a), "-({a})");
        }
    }

    #[test]
    fn volatile_calls_never_fold() {
        let e = predicate_of("SELECT a FROM t WHERE sleep_ms(0) = 0");
        let p = compile(&e, &["a".to_string()]).unwrap();
        assert!(
            p.listing().join("\n").contains("call sleep_ms"),
            "{:?}",
            p.listing()
        );
    }

    #[test]
    fn misplaced_constructs_and_bad_names_are_analyze_errors() {
        for sql in [
            "SELECT a FROM t WHERE count(a) > 1",
            "SELECT a FROM t WHERE nope > 1",
            "SELECT a FROM t WHERE nofunc(a) > 1",
            "SELECT a FROM t WHERE st_trajSegmentation(a) > 1",
            "SELECT a FROM t WHERE a > 1 AND a IN st_KNN(st_makePoint(1, 2), 3)",
        ] {
            let e = predicate_of(sql);
            let err = compile(&e, &["a".to_string()]).unwrap_err();
            assert!(matches!(err, QlError::Analyze(_)), "{sql}: {err:?}");
        }
        assert!(matches!(
            compile(&Expr::Star, &["a".to_string()]),
            Err(QlError::Analyze(_))
        ));
    }
}
