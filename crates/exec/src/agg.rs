//! The vectorized hash aggregator: a hash-keyed group index over the
//! encoded group key plus per-group accumulator slots.
//!
//! The interpreted path in `just-ql` clones a `Vec<Value>` key per input
//! row and appends every member row to its group before aggregating at
//! the end. Here the key is encoded once into a reusable scratch buffer,
//! looked up by `&[u8]` (no allocation on the hot path — the key bytes
//! are only boxed when a *new* group appears), and each aggregate folds
//! the row into a fixed-size accumulator immediately, so memory is
//! O(groups), not O(rows).
//!
//! Accumulator semantics mirror `eval_aggregate` in `just-ql` exactly:
//! `count(*)` counts members, `count(x)` counts non-NULL, `sum` stays
//! integral while every non-NULL input is `Int` (and otherwise coerces
//! via `as_float`, erroring on the first non-numeric value with the same
//! message the interpreter produces), `avg` always coerces, `min`/`max`
//! use the shared [`scalar::compare`] ordering, and empty inputs yield
//! NULL (or 0 for counts). The one documented divergence: integer `sum`
//! accumulates with wrapping arithmetic, where the interpreter's
//! `Iterator::sum` would panic on overflow in debug builds.

use crate::scalar;
use crate::ExecError;
use just_storage::Value;
use std::cmp::Ordering;
use std::collections::HashMap;

/// Which aggregate an accumulator slot computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggSpec {
    /// `count(*)`: member-row count.
    CountStar,
    /// `count(x)`: non-NULL count.
    Count,
    /// `sum(x)`.
    Sum,
    /// `avg(x)`.
    Avg,
    /// `min(x)`.
    Min,
    /// `max(x)`.
    Max,
}

impl AggSpec {
    /// Maps an aggregate function name (plus whether its argument is
    /// `*`) to a spec. Returns `None` for unknown aggregates or
    /// unsupported `func(*)` forms, which callers report as analysis
    /// errors.
    pub fn resolve(name: &str, star: bool) -> Option<AggSpec> {
        match (name, star) {
            ("count", true) => Some(AggSpec::CountStar),
            ("count", false) => Some(AggSpec::Count),
            ("sum", false) => Some(AggSpec::Sum),
            ("avg", false) => Some(AggSpec::Avg),
            ("min", false) => Some(AggSpec::Min),
            ("max", false) => Some(AggSpec::Max),
            _ => None,
        }
    }
}

enum Acc {
    Count(u64),
    Sum {
        int: i64,
        float: f64,
        all_int: bool,
        n: u64,
    },
    Avg {
        sum: f64,
        n: u64,
    },
    Best {
        best: Option<Value>,
        min: bool,
    },
}

impl Acc {
    fn new(spec: AggSpec) -> Acc {
        match spec {
            AggSpec::CountStar | AggSpec::Count => Acc::Count(0),
            AggSpec::Sum => Acc::Sum {
                int: 0,
                float: 0.0,
                all_int: true,
                n: 0,
            },
            AggSpec::Avg => Acc::Avg { sum: 0.0, n: 0 },
            AggSpec::Min => Acc::Best {
                best: None,
                min: true,
            },
            AggSpec::Max => Acc::Best {
                best: None,
                min: false,
            },
        }
    }

    fn update(&mut self, v: Option<&Value>) -> Result<(), ExecError> {
        match self {
            Acc::Count(c) => {
                // `count(*)` passes no argument; `count(x)` skips NULLs.
                if v.is_none_or(|v| !v.is_null()) {
                    *c += 1;
                }
            }
            Acc::Sum {
                int,
                float,
                all_int,
                n,
            } => {
                let v = v.expect("sum takes an argument");
                if v.is_null() {
                    return Ok(());
                }
                match v {
                    Value::Int(i) => {
                        *int = int.wrapping_add(*i);
                        *float += *i as f64;
                    }
                    other => {
                        *all_int = false;
                        *float += other
                            .as_float()
                            .ok_or_else(|| ExecError(format!("sum over {other:?}")))?;
                    }
                }
                *n += 1;
            }
            Acc::Avg { sum, n } => {
                let v = v.expect("avg takes an argument");
                if v.is_null() {
                    return Ok(());
                }
                *sum += v
                    .as_float()
                    .ok_or_else(|| ExecError(format!("avg over {v:?}")))?;
                *n += 1;
            }
            Acc::Best { best, min } => {
                let v = v.expect("min/max take an argument");
                if v.is_null() {
                    return Ok(());
                }
                let take = match best {
                    None => true,
                    Some(b) => {
                        let ord = scalar::compare(v, b)?;
                        if *min {
                            ord == Ordering::Less
                        } else {
                            ord == Ordering::Greater
                        }
                    }
                };
                if take {
                    *best = Some(v.clone());
                }
            }
        }
        Ok(())
    }

    fn finalize(self) -> Value {
        match self {
            Acc::Count(c) => Value::Int(c as i64),
            Acc::Sum {
                int,
                float,
                all_int,
                n,
            } => {
                if n == 0 {
                    Value::Null
                } else if all_int {
                    Value::Int(int)
                } else {
                    Value::Float(float)
                }
            }
            Acc::Avg { sum, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / n as f64)
                }
            }
            Acc::Best { best, .. } => best.unwrap_or(Value::Null),
        }
    }
}

struct Group {
    keys: Vec<Value>,
    accs: Vec<Acc>,
}

/// A streaming GROUP BY evaluator: feed it batches of evaluated key and
/// argument columns, then [`finish`](HashAggregator::finish) to get one
/// output row per group in first-appearance order.
pub struct HashAggregator {
    specs: Vec<AggSpec>,
    index: HashMap<Box<[u8]>, u32>,
    groups: Vec<Group>,
    scratch: Vec<u8>,
}

impl HashAggregator {
    /// Creates an aggregator computing one slot per spec.
    pub fn new(specs: Vec<AggSpec>) -> Self {
        HashAggregator {
            specs,
            index: HashMap::new(),
            groups: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Folds `n_rows` rows into the table. `keys[k][r]` is group-key
    /// column `k` at row `r`; `args[s]` is the evaluated argument column
    /// for slot `s` (`None` for `count(*)`). All supplied columns must
    /// have `n_rows` entries.
    pub fn push(
        &mut self,
        n_rows: usize,
        keys: &[Vec<Value>],
        args: &[Option<Vec<Value>>],
    ) -> Result<(), ExecError> {
        debug_assert_eq!(args.len(), self.specs.len());
        for r in 0..n_rows {
            self.scratch.clear();
            for key in keys {
                key[r].encode(&mut self.scratch);
            }
            let gid = match self.index.get(self.scratch.as_slice()) {
                Some(&gid) => gid,
                None => {
                    let gid = self.groups.len() as u32;
                    self.index.insert(self.scratch.as_slice().into(), gid);
                    self.groups.push(Group {
                        keys: keys.iter().map(|k| k[r].clone()).collect(),
                        accs: self.specs.iter().map(|&s| Acc::new(s)).collect(),
                    });
                    gid
                }
            };
            let group = &mut self.groups[gid as usize];
            for (acc, arg) in group.accs.iter_mut().zip(args) {
                acc.update(arg.as_ref().map(|col| &col[r]))?;
            }
        }
        Ok(())
    }

    /// Finalizes every accumulator, returning `(key values, aggregate
    /// values)` per group in first-appearance order. When
    /// `ensure_global_row` is set and no rows arrived, emits the single
    /// empty-input group a global aggregate (`SELECT count(*) ...` with
    /// no GROUP BY) must produce.
    pub fn finish(mut self, ensure_global_row: bool) -> Vec<(Vec<Value>, Vec<Value>)> {
        if self.groups.is_empty() && ensure_global_row {
            self.groups.push(Group {
                keys: Vec::new(),
                accs: self.specs.iter().map(|&s| Acc::new(s)).collect(),
            });
        }
        self.groups
            .into_iter()
            .map(|g| (g.keys, g.accs.into_iter().map(Acc::finalize).collect()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|&i| Value::Int(i)).collect()
    }

    #[test]
    fn groups_in_first_appearance_order() {
        let mut agg = HashAggregator::new(vec![AggSpec::CountStar, AggSpec::Sum]);
        let keys = vec![ints(&[2, 1, 2, 1, 2])];
        let vals = ints(&[10, 20, 30, 40, 50]);
        agg.push(5, &keys, &[None, Some(vals)]).unwrap();
        let out = agg.finish(false);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, vec![Value::Int(2)]);
        assert_eq!(out[0].1, vec![Value::Int(3), Value::Int(90)]);
        assert_eq!(out[1].0, vec![Value::Int(1)]);
        assert_eq!(out[1].1, vec![Value::Int(2), Value::Int(60)]);
    }

    #[test]
    fn sum_stays_integral_until_a_float_appears() {
        let mut agg = HashAggregator::new(vec![AggSpec::Sum]);
        agg.push(2, &[], &[Some(ints(&[1, 2]))]).unwrap();
        assert_eq!(agg.finish(false)[0].1, vec![Value::Int(3)]);

        let mut agg = HashAggregator::new(vec![AggSpec::Sum]);
        agg.push(2, &[], &[Some(vec![Value::Int(1), Value::Float(0.5)])])
            .unwrap();
        assert_eq!(agg.finish(false)[0].1, vec![Value::Float(1.5)]);
    }

    #[test]
    fn null_handling_and_empty_input() {
        let mut agg = HashAggregator::new(vec![
            AggSpec::Count,
            AggSpec::CountStar,
            AggSpec::Sum,
            AggSpec::Min,
        ]);
        let col = vec![Value::Null, Value::Int(7), Value::Null];
        agg.push(
            3,
            &[],
            &[Some(col.clone()), None, Some(col.clone()), Some(col)],
        )
        .unwrap();
        let out = agg.finish(false);
        assert_eq!(
            out[0].1,
            vec![Value::Int(1), Value::Int(3), Value::Int(7), Value::Int(7)]
        );

        // Zero input rows, global aggregate: one row, counts 0, sum NULL.
        let agg = HashAggregator::new(vec![AggSpec::CountStar, AggSpec::Sum]);
        let out = agg.finish(true);
        assert_eq!(out[0].1, vec![Value::Int(0), Value::Null]);
    }

    #[test]
    fn sum_type_error_matches_interpreter_text() {
        let mut agg = HashAggregator::new(vec![AggSpec::Sum]);
        let err = agg
            .push(1, &[], &[Some(vec![Value::Str("x".into())])])
            .unwrap_err();
        assert!(err.0.contains("sum over"), "{}", err.0);
    }
}
