//! The scalar value-semantics kernel: SQL truthiness, numeric coercion,
//! comparison and the arithmetic / comparison / spatial binary operators
//! over [`Value`].
//!
//! This is the *single* definition of JustQL's dynamic-value semantics:
//! the row-at-a-time interpreter in `just-ql` and the vectorized VM in
//! this crate both call these kernels, so compiled and interpreted
//! execution agree on every NULL rule, coercion and error message by
//! construction (the compiled-vs-interpreted parity property test in
//! `just-ql` locks this in).

use crate::ExecError;
use just_geo::Geometry;
use just_storage::Value;
use std::cmp::Ordering;

/// Arithmetic operators (`+ - * / %`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
}

/// Comparison operators (`= != < <= > >=`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=` / `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl ArithOp {
    /// The operator's SQL spelling (used in program listings).
    pub(crate) fn symbol(self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
            ArithOp::Mod => "%",
        }
    }
}

impl CmpOp {
    /// The operator's SQL spelling (used in program listings).
    pub(crate) fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    /// Whether `ord` satisfies the comparison.
    pub(crate) fn matches(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
}

/// SQL truthiness: non-zero / non-empty / true. NULL is false.
pub fn truthy(v: &Value) -> bool {
    match v {
        Value::Bool(b) => *b,
        Value::Int(i) => *i != 0,
        Value::Float(f) => *f != 0.0,
        Value::Null => false,
        Value::Str(s) => !s.is_empty(),
        _ => true,
    }
}

/// Numeric coercion: ints, floats, dates, and numeric-looking strings
/// (CSV loading, filters).
pub fn numeric(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        Value::Date(d) => Some(*d as f64),
        Value::Str(s) => s.trim().parse().ok(),
        _ => None,
    }
}

/// Total-ordering comparison with numeric coercion (predicates, ORDER BY,
/// MIN/MAX).
pub fn compare(l: &Value, r: &Value) -> Result<Ordering, ExecError> {
    match (l, r) {
        (Value::Str(a), Value::Str(b)) => Ok(a.cmp(b)),
        (Value::Bool(a), Value::Bool(b)) => Ok(a.cmp(b)),
        (Value::Null, Value::Null) => Ok(Ordering::Equal),
        (Value::Null, _) => Ok(Ordering::Less),
        (_, Value::Null) => Ok(Ordering::Greater),
        _ => {
            let (a, b) = (
                numeric(l).ok_or_else(|| ExecError(format!("cannot compare {l:?}")))?,
                numeric(r).ok_or_else(|| ExecError(format!("cannot compare {r:?}")))?,
            );
            Ok(a.partial_cmp(&b).unwrap_or(Ordering::Equal))
        }
    }
}

/// Applies an arithmetic operator. NULL propagates; integer arithmetic
/// stays integral (with wrapping overflow); everything else coerces to
/// float.
pub fn arith(op: ArithOp, l: &Value, r: &Value) -> Result<Value, ExecError> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        return arith_int(op, *a, *b);
    }
    let (a, b) = (
        numeric(l).ok_or_else(|| ExecError(format!("non-numeric {l:?}")))?,
        numeric(r).ok_or_else(|| ExecError(format!("non-numeric {r:?}")))?,
    );
    Ok(Value::Float(match op {
        ArithOp::Add => a + b,
        ArithOp::Sub => a - b,
        ArithOp::Mul => a * b,
        ArithOp::Div => a / b,
        ArithOp::Mod => a % b,
    }))
}

/// Integer arithmetic: wrapping on overflow (so `i64::MIN / -1` is
/// `i64::MIN` and `i64::MIN % -1` is 0), an error on a zero divisor.
fn arith_int(op: ArithOp, a: i64, b: i64) -> Result<Value, ExecError> {
    Ok(match op {
        ArithOp::Add => Value::Int(a.wrapping_add(b)),
        ArithOp::Sub => Value::Int(a.wrapping_sub(b)),
        ArithOp::Mul => Value::Int(a.wrapping_mul(b)),
        ArithOp::Div => {
            if b == 0 {
                return Err(ExecError("division by zero".into()));
            }
            Value::Int(a.wrapping_div(b))
        }
        ArithOp::Mod => {
            if b == 0 {
                return Err(ExecError("division by zero".into()));
            }
            Value::Int(a.wrapping_rem(b))
        }
    })
}

/// Applies a comparison operator. Any NULL operand compares false; two
/// integers compare exactly, not through their `f64` coercion (which
/// cannot tell apart integers beyond 2^53).
pub fn cmp(op: CmpOp, l: &Value, r: &Value) -> Result<Value, ExecError> {
    let ord = match (l, r) {
        _ if l.is_null() || r.is_null() => return Ok(Value::Bool(false)),
        (Value::Int(a), Value::Int(b)) => a.cmp(b),
        _ => compare(l, r)?,
    };
    Ok(Value::Bool(op.matches(ord)))
}

/// `geom WITHIN target`: containment of `l` in `r`'s bounding rectangle.
pub fn within(l: &Value, r: &Value) -> Result<Value, ExecError> {
    let (g, target) = match (l, r) {
        (Value::Geom(g), Value::Geom(t)) => (g, t),
        _ => return Err(ExecError("WITHIN needs two geometries".into())),
    };
    let rect = match target {
        Geometry::Rect(r) => *r,
        other => other.mbr(),
    };
    Ok(Value::Bool(g.within_rect(&rect)))
}

/// Arithmetic negation (`-expr`). NULL propagates.
pub fn neg(v: &Value) -> Result<Value, ExecError> {
    match v {
        Value::Int(i) => Ok(Value::Int(i.wrapping_neg())),
        Value::Float(f) => Ok(Value::Float(-f)),
        Value::Null => Ok(Value::Null),
        other => Err(ExecError(format!("cannot negate {other:?}"))),
    }
}

/// Logical `NOT`. NULL propagates (three-valued logic's unknown).
pub fn logical_not(v: &Value) -> Result<Value, ExecError> {
    match v {
        Value::Null => Ok(Value::Null),
        other => Ok(Value::Bool(!truthy(other))),
    }
}

/// `expr BETWEEN lo AND hi` — both bound comparisons are evaluated
/// eagerly, exactly like the row interpreter (so a non-comparable upper
/// bound errors even when the lower bound already failed).
pub fn between(v: &Value, lo: &Value, hi: &Value) -> Result<Value, ExecError> {
    let ge = cmp(CmpOp::Ge, v, lo)?;
    let le = cmp(CmpOp::Le, v, hi)?;
    Ok(Value::Bool(truthy(&ge) && truthy(&le)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_semantics() {
        assert_eq!(
            arith(ArithOp::Add, &Value::Null, &Value::Int(1)).unwrap(),
            Value::Null
        );
        assert_eq!(
            cmp(CmpOp::Eq, &Value::Null, &Value::Null).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(logical_not(&Value::Null).unwrap(), Value::Null);
        assert_eq!(neg(&Value::Null).unwrap(), Value::Null);
    }

    #[test]
    fn int_arith_stays_integral_and_guards_zero() {
        assert_eq!(
            arith(ArithOp::Mul, &Value::Int(52), &Value::Int(9)).unwrap(),
            Value::Int(468)
        );
        assert!(arith(ArithOp::Div, &Value::Int(1), &Value::Int(0)).is_err());
        assert_eq!(
            arith(ArithOp::Div, &Value::Float(1.0), &Value::Int(4)).unwrap(),
            Value::Float(0.25)
        );
    }

    #[test]
    fn integers_beyond_2_pow_53_compare_exactly() {
        let (a, b) = (Value::Int(1 << 53), Value::Int((1 << 53) + 1));
        assert_eq!(cmp(CmpOp::Eq, &a, &b).unwrap(), Value::Bool(false));
        assert_eq!(cmp(CmpOp::Lt, &a, &b).unwrap(), Value::Bool(true));
        assert_eq!(between(&b, &a, &a).unwrap(), Value::Bool(false));
    }

    #[test]
    fn string_numeric_coercion() {
        assert_eq!(
            cmp(CmpOp::Eq, &Value::Str("42".into()), &Value::Int(42)).unwrap(),
            Value::Bool(true)
        );
        assert!(cmp(CmpOp::Lt, &Value::Str("abc".into()), &Value::Int(1)).is_err());
    }

    #[test]
    fn between_is_eager() {
        // Upper bound is non-comparable: must error even though the lower
        // comparison already settles the answer.
        let bad = Value::Geom(Geometry::Point(just_geo::Point::new(0.0, 0.0)));
        assert!(between(&Value::Int(5), &Value::Int(9), &bad).is_err());
    }
}
