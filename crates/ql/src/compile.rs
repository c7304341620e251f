//! Lowering JustQL expressions into `just-exec` bytecode — the
//! expression compiler and nothing else: the executor's stages call it
//! when they open, and plain `EXPLAIN` lists the programs those stages
//! hold.
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
use crate::QlError;
use crate::Result;
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
