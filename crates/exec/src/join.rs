//! Build/probe core of the vectorized hash join.
//!
//! The QL executor evaluates each side's equi-key expressions
//! column-at-a-time (compiled to bytecode when possible), then builds a
//! [`JoinHash`] over the right input: one [`keys::encode_key`] byte
//! string per row, deduplicated into buckets of row indices — the same
//! `HashMap<Box<[u8]>, u32>` + scratch-buffer shape as
//! [`HashAggregator`](crate::HashAggregator). Probing re-encodes the
//! left side's keys into the shared scratch and looks buckets up by
//! slice, so steady state allocates nothing per row. The left input
//! probes a batch at a time.
//!
//! Equality contract: for rows that pass [`keys_hashable`], encoded-byte
//! equality is exactly the truth of the interpreted `l = r` conjunct
//! (numerics compare in one coerced `f64` space, strings bytewise,
//! booleans as booleans). Rows with a NULL key never match in SQL, so
//! they are skipped at build and probe. Everything outside the contract
//! — mixed type classes in one column (string↔number coercion is not
//! transitive), geometries, NaN floats, or a class mismatch across
//! sides (interpreted compare may coerce or error) — makes
//! [`keys_hashable`] return false and the executor falls back to the
//! nested loop, preserving interpreted semantics including errors.

use crate::keys;
use just_storage::Value;
use std::collections::HashMap;

/// Hash table over encoded key bytes, mapping each distinct key to the
/// build-side row indices carrying it (in input order).
pub struct JoinHash {
    index: HashMap<Box<[u8]>, u32>,
    buckets: Vec<Vec<u32>>,
    scratch: Vec<u8>,
    rows_built: u64,
}

impl JoinHash {
    /// Builds the table from `n_rows` rows whose key columns are
    /// `key_cols` (one `Vec<Value>` of length `n_rows` per key). Rows
    /// with any NULL key are excluded — they can never join.
    pub fn build(n_rows: usize, key_cols: &[Vec<Value>]) -> JoinHash {
        let mut t = JoinHash {
            index: HashMap::new(),
            buckets: Vec::new(),
            scratch: Vec::new(),
            rows_built: 0,
        };
        'rows: for r in 0..n_rows {
            t.scratch.clear();
            for col in key_cols {
                let v = &col[r];
                if matches!(v, Value::Null) {
                    continue 'rows;
                }
                keys::encode_key(v, false, &mut t.scratch);
            }
            match t.index.get(t.scratch.as_slice()) {
                Some(&b) => t.buckets[b as usize].push(r as u32),
                None => {
                    let b = t.buckets.len() as u32;
                    t.index.insert(t.scratch.as_slice().into(), b);
                    t.buckets.push(vec![r as u32]);
                }
            }
            t.rows_built += 1;
        }
        t
    }

    /// Looks up the bucket matching probe row `r` of `key_cols`.
    /// Returns `None` for NULL keys or keys absent from the build side.
    pub fn probe(&mut self, key_cols: &[Vec<Value>], r: usize) -> Option<&[u32]> {
        self.scratch.clear();
        for col in key_cols {
            let v = &col[r];
            if matches!(v, Value::Null) {
                return None;
            }
            keys::encode_key(v, false, &mut self.scratch);
        }
        let b = *self.index.get(self.scratch.as_slice())?;
        Some(&self.buckets[b as usize])
    }

    /// Build-side rows actually inserted (non-NULL keys only).
    pub fn rows_built(&self) -> u64 {
        self.rows_built
    }
}

/// Type class of a hash-joinable key column. NULLs are transparent
/// (they never match and are skipped), so a column's class is the class
/// of its non-NULL values — `None` below means all-NULL.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum KeyClass {
    Bool,
    Num,
    Str,
}

fn class_of(col: &[Value]) -> Option<Option<KeyClass>> {
    let mut class = None;
    for v in col {
        let c = match v {
            Value::Null => continue,
            Value::Bool(_) => KeyClass::Bool,
            Value::Int(_) | Value::Date(_) => KeyClass::Num,
            Value::Float(f) if !f.is_nan() => KeyClass::Num,
            Value::Str(_) => KeyClass::Str,
            // NaN equals everything under the interpreted comparator's
            // `partial_cmp().unwrap_or(Equal)` — not hashable. Geoms and
            // GPS lists aren't comparable at all.
            _ => return None,
        };
        match class {
            None => class = Some(c),
            Some(p) if p == c => {}
            _ => return None,
        }
    }
    Some(class)
}

/// Whether encoded-byte equality reproduces the interpreted equi-key
/// semantics for these key columns (`left[i]` joins against
/// `right[i]`). False demands the nested-loop fallback: mixed classes
/// within a column, a class mismatch across sides (the interpreted
/// comparator may coerce numeric-looking strings, or error), NaN, or
/// non-scalar values.
pub fn keys_hashable(left: &[Vec<Value>], right: &[Vec<Value>]) -> bool {
    debug_assert_eq!(left.len(), right.len());
    left.iter().zip(right).all(|(l, r)| {
        match (class_of(l), class_of(r)) {
            // A side that is all-NULL in some key matches nothing; any
            // class on the other side is fine.
            (Some(a), Some(b)) => a.is_none() || b.is_none() || a == b,
            _ => false,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|&i| Value::Int(i)).collect()
    }

    #[test]
    fn build_probe_with_duplicates_and_nulls() {
        let mut build_keys = ints(&[10, 20, 10, 30]);
        build_keys.push(Value::Null); // row 4: excluded
        let table_keys = vec![build_keys];
        let mut t = JoinHash::build(5, &table_keys);
        assert_eq!(t.rows_built(), 4);

        let probe_keys = vec![vec![
            Value::Int(10),
            Value::Float(20.0), // numeric coercion: matches Int(20)
            Value::Null,
            Value::Int(99),
        ]];
        assert_eq!(t.probe(&probe_keys, 0), Some(&[0u32, 2][..]));
        assert_eq!(t.probe(&probe_keys, 1), Some(&[1u32][..]));
        assert_eq!(t.probe(&probe_keys, 2), None);
        assert_eq!(t.probe(&probe_keys, 3), None);
    }

    #[test]
    fn multi_key_rows_match_componentwise() {
        let keys_a = vec![ints(&[1, 1, 2]), ints(&[7, 8, 7])];
        let mut t = JoinHash::build(3, &keys_a);
        let probe = vec![ints(&[1, 2]), ints(&[7, 8])];
        assert_eq!(t.probe(&probe, 0), Some(&[0u32][..]));
        assert_eq!(t.probe(&probe, 1), None); // (2,8) never built
    }

    #[test]
    fn hashability_gate() {
        let num = ints(&[1, 2]);
        let num_with_null = vec![Value::Null, Value::Int(2)];
        let strs = vec![Value::Str("1".into()), Value::Str("2".into())];
        let bools = vec![Value::Bool(true), Value::Bool(false)];
        let mixed = vec![Value::Int(1), Value::Str("1".into())];
        let nan = vec![Value::Float(f64::NAN)];
        let all_null = vec![Value::Null, Value::Null];

        use std::slice::from_ref;
        assert!(keys_hashable(from_ref(&num), from_ref(&num_with_null)));
        assert!(keys_hashable(from_ref(&strs), from_ref(&strs)));
        assert!(keys_hashable(from_ref(&bools), from_ref(&bools)));
        // All-NULL side joins nothing regardless of the other class.
        assert!(keys_hashable(from_ref(&all_null), from_ref(&strs)));
        // "42" = 42 coerces under the interpreted comparator; bool vs
        // num errors; NaN ties with everything; mixed classes are
        // untransitive. All must fall back.
        assert!(!keys_hashable(from_ref(&num), from_ref(&strs)));
        assert!(!keys_hashable(from_ref(&bools), from_ref(&num)));
        assert!(!keys_hashable(from_ref(&nan), from_ref(&num)));
        assert!(!keys_hashable(from_ref(&mixed), from_ref(&num)));
    }
}
