//! In-memory relations: the engine's "Spark DataFrame".
//!
//! A [`Dataset`] is what queries return and what views cache ("one query,
//! multiple usages", Section IV-D). The SQL layer builds its relational
//! operators over this type.

use just_storage::{Row, Value};

/// A named-column, row-oriented in-memory relation.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Column names, in order.
    pub columns: Vec<String>,
    /// The rows; every row has `columns.len()` values.
    pub rows: Vec<Row>,
}

impl Dataset {
    /// Creates a dataset, debug-asserting row arity.
    pub fn new(columns: Vec<String>, rows: Vec<Row>) -> Self {
        debug_assert!(rows.iter().all(|r| r.values.len() == columns.len()));
        Dataset { columns, rows }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Column index by (case-insensitive) name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(name))
    }

    /// Pretty-prints the first `limit` rows (for examples and the REPL).
    pub fn render(&self, limit: usize) -> String {
        let mut out = String::new();
        out.push_str(&self.columns.join(" | "));
        out.push('\n');
        out.push_str(&"-".repeat(self.columns.join(" | ").len().max(8)));
        out.push('\n');
        for row in self.rows.iter().take(limit) {
            let cells: Vec<String> = row.values.iter().map(|v| v.to_string()).collect();
            out.push_str(&cells.join(" | "));
            out.push('\n');
        }
        if self.rows.len() > limit {
            out.push_str(&format!("... ({} rows total)\n", self.rows.len()));
        }
        out
    }
}

/// A row's rough in-memory footprint, which the Figure 2 data flow
/// sums to choose between returning a result directly and spilling it
/// in chunks.
pub(crate) fn row_bytes(row: &Row) -> usize {
    let mut total = 0usize;
    for v in &row.values {
        total += 16
            + match v {
                Value::Str(s) => s.len(),
                Value::Geom(g) => match g {
                    just_geo::Geometry::LineString(l) => l.points.len() * 16,
                    just_geo::Geometry::Polygon(p) => p.exterior.len() * 16,
                    _ => 32,
                },
                Value::GpsList(s) => s.len() * 24,
                _ => 8,
            };
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ds() -> Dataset {
        Dataset::new(
            vec!["fid".into(), "name".into()],
            vec![
                Row::new(vec![Value::Int(1), Value::Str("a".into())]),
                Row::new(vec![Value::Int(2), Value::Str("b".into())]),
            ],
        )
    }

    #[test]
    fn basic_accessors() {
        let d = ds();
        assert_eq!(d.len(), 2);
        assert!(!d.is_empty());
        assert_eq!(d.column_index("NAME"), Some(1));
        assert_eq!(d.column_index("missing"), None);
    }

    #[test]
    fn render_truncates() {
        let d = ds();
        let text = d.render(1);
        assert!(text.contains("fid | name"));
        assert!(text.contains("(2 rows total)"));
    }

    #[test]
    fn approx_bytes_scales_with_data() {
        let small = ds();
        let mut big_rows = Vec::new();
        for i in 0..100 {
            big_rows.push(Row::new(vec![Value::Int(i), Value::Str("x".repeat(100))]));
        }
        let big = Dataset::new(small.columns.clone(), big_rows);
        let bytes = |d: &Dataset| d.rows.iter().map(row_bytes).sum::<usize>();
        assert!(bytes(&big) > 10 * bytes(&small));
    }
}
