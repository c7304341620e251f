//! `LOAD csv:'path' TO table CONFIG {...} [FILTER '...']` — the paper's
//! manipulation operation for loading external data sources (Section
//! V-B), specialised to CSV files (the Hive/HBase sources of the paper
//! reduce to the same row-mapping machinery).

use crate::error::QlError;
use crate::functions::{eval, truthy};
use crate::json::Json;
use crate::parser::parse_expr;
use crate::Result;
use just_core::Session;
use just_storage::{FieldType, Row, Value};

/// Loads a CSV file into an existing table. The `config` maps target
/// field names to expressions over the CSV's header columns (all CSV
/// values arrive as strings; the conversion functions of the paper's
/// example — `to_int`, `long_to_date_ms`, `lng_lat_to_point`, ... — are
/// available). Unmapped fields default to the same-named CSV column with
/// automatic coercion. Returns the number of rows inserted.
pub(crate) fn load_csv(
    session: &Session,
    path: &str,
    table: &str,
    config: &Json,
    filter: Option<&str>,
) -> Result<usize> {
    let def = session.describe(table)?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| QlError::Eval(format!("cannot read '{path}': {e}")))?;
    let mut lines = text.lines();
    let header: Vec<String> = match lines.next() {
        Some(h) => split_csv(h).into_iter().map(|s| s.to_string()).collect(),
        None => return Ok(0),
    };

    // Compile the field mappings once.
    let mut mappings = Vec::with_capacity(def.schema.fields().len());
    for field in def.schema.fields() {
        let expr = match config.get(&field.name) {
            Some(text) => parse_expr(text)?,
            None => {
                if header.iter().any(|h| h.eq_ignore_ascii_case(&field.name)) {
                    crate::ast::Expr::Column(field.name.clone())
                } else {
                    return Err(QlError::Analyze(format!(
                        "no mapping or CSV column for field '{}'",
                        field.name
                    )));
                }
            }
        };
        mappings.push((field.ty, expr));
    }
    let filter_expr = filter.map(parse_expr).transpose()?;

    let mut batch = Vec::new();
    let mut inserted = 0usize;
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        let cells: Vec<Value> = split_csv(line)
            .into_iter()
            .map(|s| Value::Str(s.to_string()))
            .collect();
        if cells.len() != header.len() {
            return Err(QlError::Eval(format!(
                "CSV row has {} cells, header has {}",
                cells.len(),
                header.len()
            )));
        }
        if let Some(f) = &filter_expr {
            if !truthy(&eval(f, &cells, &header)?) {
                continue;
            }
        }
        let mut values = Vec::with_capacity(mappings.len());
        for (ty, expr) in &mappings {
            let raw = eval(expr, &cells, &header)?;
            values.push(coerce(raw, *ty)?);
        }
        batch.push(Row::new(values));
        if batch.len() >= 1000 {
            inserted += session.insert(table, &batch)?;
            batch.clear();
        }
    }
    if !batch.is_empty() {
        inserted += session.insert(table, &batch)?;
    }
    Ok(inserted)
}

/// Coerces a CSV-derived value into a field type.
fn coerce(v: Value, ty: FieldType) -> Result<Value> {
    let fail = |v: &Value| QlError::Eval(format!("cannot coerce {v:?} to {}", ty.name()));
    Ok(match (ty, v) {
        (_, Value::Null) => Value::Null,
        (FieldType::Int, Value::Int(i)) => Value::Int(i),
        (FieldType::Int, Value::Str(s)) => {
            Value::Int(s.trim().parse().map_err(|_| fail(&Value::Str(s.clone())))?)
        }
        (FieldType::Float, Value::Float(f)) => Value::Float(f),
        (FieldType::Float, Value::Int(i)) => Value::Float(i as f64),
        (FieldType::Float, Value::Str(s)) => {
            Value::Float(s.trim().parse().map_err(|_| fail(&Value::Str(s.clone())))?)
        }
        (FieldType::Date, Value::Date(d)) => Value::Date(d),
        (FieldType::Date, Value::Int(i)) => Value::Date(i),
        (FieldType::Date, Value::Str(s)) => {
            Value::Date(s.trim().parse().map_err(|_| fail(&Value::Str(s.clone())))?)
        }
        (FieldType::Bool, Value::Bool(b)) => Value::Bool(b),
        (FieldType::Bool, Value::Str(s)) => Value::Bool(s.eq_ignore_ascii_case("true")),
        (FieldType::Str, Value::Str(s)) => Value::Str(s),
        (FieldType::Str, other) => Value::Str(other.to_string()),
        (
            FieldType::Point | FieldType::LineString | FieldType::Polygon | FieldType::Geometry,
            Value::Geom(g),
        ) => Value::Geom(g),
        (
            FieldType::Point | FieldType::LineString | FieldType::Polygon | FieldType::Geometry,
            Value::Str(s),
        ) => Value::Geom(just_geo::parse_wkt(&s).map_err(|e| QlError::Eval(e.to_string()))?),
        (FieldType::StSeries, Value::GpsList(l)) => Value::GpsList(l),
        (_, other) => return Err(fail(&other)),
    })
}

/// Minimal CSV field splitting with double-quote support.
fn split_csv(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_quotes = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes && chars.peek() == Some(&'"') => {
                cur.push('"');
                chars.next();
            }
            '"' => in_quotes = !in_quotes,
            ',' if !in_quotes => out.push(std::mem::take(&mut cur)),
            other => cur.push(other),
        }
    }
    out.push(cur);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_splitting() {
        assert_eq!(split_csv("a,b,c"), vec!["a", "b", "c"]);
        assert_eq!(split_csv(r#""a,b",c"#), vec!["a,b", "c"]);
        assert_eq!(
            split_csv(r#""he said ""hi""",x"#),
            vec![r#"he said "hi""#, "x"]
        );
        assert_eq!(split_csv(""), vec![""]);
    }

    #[test]
    fn coercions() {
        assert_eq!(
            coerce(Value::Str(" 42 ".into()), FieldType::Int).unwrap(),
            Value::Int(42)
        );
        assert_eq!(
            coerce(Value::Str("1.5".into()), FieldType::Float).unwrap(),
            Value::Float(1.5)
        );
        assert_eq!(
            coerce(Value::Int(99), FieldType::Date).unwrap(),
            Value::Date(99)
        );
        assert!(coerce(Value::Str("abc".into()), FieldType::Int).is_err());
        let g = coerce(Value::Str("POINT (1 2)".into()), FieldType::Point).unwrap();
        assert!(matches!(g, Value::Geom(_)));
    }
}
