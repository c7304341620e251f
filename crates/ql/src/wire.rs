//! Wire serialization of query results.
//!
//! `just-server` speaks length-prefixed JSON frames; this module defines
//! how [`QueryResult`]s, [`Dataset`]s and cell [`Value`]s are encoded so
//! a remote client reconstructs results **byte-identical** to embedded
//! execution:
//!
//! * A result is `{"columns":[...],"kind":"data","rows":[[...],...]}` or
//!   `{"kind":"message","text":"..."}`.
//! * `NULL` → `null`, booleans → `true`/`false`.
//! * Integers → `{"i": n}`, dates → `{"d": ms}` (tags keep the SQL type
//!   distinction that bare JSON numbers would erase).
//! * Floats → `{"f": "<shortest round-trip decimal>"}` — a string, so
//!   `NaN`/`inf` (unrepresentable in JSON numbers) survive.
//! * Strings → `{"s": "..."}`.
//! * Geometries and GPS lists → `{"b": "<hex>"}` of the storage layer's
//!   binary [`Value`] encoding, which is exact by construction.
//!
//! Neither direction builds a document tree. [`write_result`] appends
//! the text to the frame buffer as it walks the rows, and
//! [`read_result`] pulls it through a [`JsonReader`] straight into
//! [`Row`]s, one `Vec<Value>` per row. The reader takes members in any
//! order and skips unknown ones; a cell with no tag or two, or a hex
//! payload that is not bare hex digits, is a `MALFORMED` error.

use crate::client::QueryResult;
use crate::error::QlError;
use crate::json::{
    hex_value, write_json_str, write_seq, JsonError, JsonReader, JsonValue, HEX, VEC_WRITE,
};
use crate::Result;
use just_core::Dataset;
use just_storage::{Row, Value};
use std::io::Write as _;

/// Appends a query result's JSON to `out`.
pub fn write_result(out: &mut Vec<u8>, r: &QueryResult) {
    match r {
        QueryResult::Data(d) => write_data(out, d),
        QueryResult::Message(m) => {
            out.extend_from_slice(br#"{"kind":"message","text":"#);
            write_json_str(out, m);
            out.push(b'}');
        }
    }
}

/// Appends the JSON of a data result holding `d` to `out`.
pub fn write_data(out: &mut Vec<u8>, d: &Dataset) {
    out.extend_from_slice(br#"{"columns":"#);
    write_seq(out, b'[', &d.columns, |out, c| write_json_str(out, c), b']');
    out.extend_from_slice(br#","kind":"data","rows":"#);
    let row = |out: &mut Vec<u8>, r: &Row| write_seq(out, b'[', &r.values, write_value, b']');
    write_seq(out, b'[', &d.rows, row, b']');
    out.push(b'}');
}

fn write_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.extend_from_slice(b"null"),
        Value::Bool(b) => out.extend_from_slice(if *b { b"true" } else { b"false" }),
        Value::Int(i) => write!(out, r#"{{"i":{i}}}"#).expect(VEC_WRITE),
        Value::Date(d) => write!(out, r#"{{"d":{d}}}"#).expect(VEC_WRITE),
        // A float's shortest decimal holds nothing JSON escapes.
        Value::Float(f) => write!(out, r#"{{"f":"{f}"}}"#).expect(VEC_WRITE),
        Value::Str(s) => {
            out.extend_from_slice(br#"{"s":"#);
            write_json_str(out, s);
            out.push(b'}');
        }
        Value::Geom(_) | Value::GpsList(_) => {
            out.extend_from_slice(br#"{"b":""#);
            // Encode in place, then spread the bytes into hex digits
            // from the back, so no scratch buffer is needed.
            let start = out.len();
            v.encode(out);
            let n = out.len() - start;
            out.resize(start + 2 * n, 0);
            for i in (0..n).rev() {
                let b = out[start + i];
                out[start + 2 * i] = HEX[usize::from(b >> 4)];
                out[start + 2 * i + 1] = HEX[usize::from(b & 15)];
            }
            out.extend_from_slice(br#""}"#);
        }
    }
}

/// Reads the result object at `r`, decoding its rows straight into
/// [`Row`]s. Every error is a `MALFORMED` [`QlError::Remote`].
pub fn read_result(r: &mut JsonReader) -> Result<QueryResult> {
    let (mut columns, mut kind, mut rows, mut text) = (None, None, None, None);
    r.object(|r, key| -> Result<()> {
        match key {
            "columns" => {
                let mut names = Vec::new();
                r.array(|r| -> Result<()> {
                    names.push(r.str()?.into_owned());
                    Ok(())
                })?;
                columns = Some(names);
            }
            "kind" => kind = Some(r.str()?),
            "rows" => rows = Some(read_rows(r, columns.as_ref().map_or(0, Vec::len))?),
            "text" => text = Some(r.str()?.into_owned()),
            _ => r.skip()?,
        }
        Ok(())
    })?;
    match kind.as_deref() {
        Some("data") => {
            let columns = columns.ok_or_else(|| bad("missing columns"))?;
            let rows = rows.ok_or_else(|| bad("missing rows"))?;
            if rows.iter().any(|row| row.values.len() != columns.len()) {
                return Err(bad("row arity mismatch"));
            }
            Ok(QueryResult::Data(Dataset::new(columns, rows)))
        }
        Some("message") => text
            .map(QueryResult::Message)
            .ok_or_else(|| bad("missing message text")),
        _ => Err(bad("missing result kind")),
    }
}

/// The rows array; `width` is the expected cells per row, a capacity
/// hint only.
fn read_rows(r: &mut JsonReader, width: usize) -> Result<Vec<Row>> {
    let mut rows = Vec::new();
    r.array(|r| -> Result<()> {
        let mut values = Vec::with_capacity(width);
        r.array(|r| -> Result<()> {
            values.push(read_value(r)?);
            Ok(())
        })?;
        rows.push(Row::new(values));
        Ok(())
    })?;
    Ok(rows)
}

/// One cell: `null`, a bool, or an object with exactly one value tag.
fn read_value(r: &mut JsonReader) -> Result<Value> {
    if r.peek() != Some(b'{') {
        return match r.value()? {
            JsonValue::Null => Ok(Value::Null),
            JsonValue::Bool(b) => Ok(Value::Bool(b)),
            other => Err(bad(&format!("unexpected value shape {other:?}"))),
        };
    }
    let mut value = None;
    r.object(|r, tag| -> Result<()> {
        let v = match tag {
            "i" => Value::Int(read_int(r)?),
            "d" => Value::Date(read_int(r)?),
            "f" => {
                let text = r.str()?;
                let f = text.parse::<f64>();
                Value::Float(f.map_err(|_| bad(&format!("bad float '{text}'")))?)
            }
            "s" => Value::Str(r.str()?.into_owned()),
            "b" => read_binary(&r.str()?)?,
            _ => return Ok(r.skip()?),
        };
        match value.replace(v) {
            Some(_) => Err(bad("more than one value tag")),
            None => Ok(()),
        }
    })?;
    value.ok_or_else(|| bad("unknown value tag"))
}

fn read_int(r: &mut JsonReader) -> Result<i64> {
    match r.value()? {
        JsonValue::Int(i) => Ok(i),
        other => Err(bad(&format!("not an int: {other:?}"))),
    }
}

fn read_binary(hex: &str) -> Result<Value> {
    let pairs = hex.as_bytes().chunks_exact(2);
    let bytes: Option<Vec<u8>> = match pairs.remainder() {
        [] => pairs.map(|p| hex_value(p).map(|v| v as u8)).collect(),
        _ => None,
    };
    let bytes = bytes.ok_or_else(|| bad("bad hex payload"))?;
    let mut pos = 0;
    let v = Value::decode(&bytes, &mut pos).ok_or_else(|| bad("bad binary value"))?;
    if pos != bytes.len() {
        return Err(bad("trailing bytes in binary value"));
    }
    Ok(v)
}

/// A document that does not lex is as malformed as one that does not
/// decode.
impl From<JsonError> for QlError {
    fn from(e: JsonError) -> QlError {
        bad(&e.to_string())
    }
}

fn bad(msg: &str) -> QlError {
    QlError::Remote {
        code: "MALFORMED".into(),
        message: format!("wire decode: {msg}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use just_compress::gps::GpsSample;
    use just_geo::{Geometry, LineString, Point};

    fn encode(r: &QueryResult) -> Vec<u8> {
        let mut out = Vec::new();
        write_result(&mut out, r);
        out
    }

    fn decode(bytes: &[u8]) -> Result<QueryResult> {
        let mut reader = JsonReader::new(bytes);
        let r = read_result(&mut reader)?;
        reader.end()?;
        Ok(r)
    }

    fn one_cell(v: Value) -> QueryResult {
        QueryResult::Data(Dataset::new(vec!["v".into()], vec![Row::new(vec![v])]))
    }

    fn roundtrip_value(v: Value) {
        let bytes = encode(&one_cell(v.clone()));
        let back = decode(&bytes).unwrap().into_dataset().unwrap();
        assert_eq!(
            back.rows[0].values[0],
            v,
            "{}",
            String::from_utf8_lossy(&bytes)
        );
    }

    #[test]
    fn every_value_variant_roundtrips_exactly() {
        roundtrip_value(Value::Null);
        roundtrip_value(Value::Bool(true));
        roundtrip_value(Value::Int(i64::MIN));
        roundtrip_value(Value::Float(std::f64::consts::PI));
        roundtrip_value(Value::Float(f64::INFINITY));
        roundtrip_value(Value::Float(f64::MIN_POSITIVE));
        roundtrip_value(Value::Str("naïve \"quotes\"\nline2".into()));
        roundtrip_value(Value::Date(1_600_000_000_000));
        roundtrip_value(Value::Geom(Geometry::Point(Point::new(116.4, 39.9))));
        roundtrip_value(Value::Geom(Geometry::LineString(LineString::new(vec![
            Point::new(0.125, -7.5),
            Point::new(1.0, 2.0),
        ]))));
    }

    #[test]
    fn nan_floats_survive_the_string_encoding() {
        let bytes = encode(&one_cell(Value::Float(f64::NAN)));
        let back = decode(&bytes).unwrap().into_dataset().unwrap();
        match &back.rows[0].values[0] {
            Value::Float(f) => assert!(f.is_nan()),
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn gps_lists_roundtrip_post_quantization() {
        // The storage codec quantizes coordinates on first encode; a value
        // that has already been through storage round-trips bit-exactly.
        let samples = vec![GpsSample {
            lng: 116.4,
            lat: 39.9,
            time_ms: 1000,
        }];
        let mut buf = Vec::new();
        Value::GpsList(samples).encode(&mut buf);
        let stored = Value::decode(&buf, &mut 0).unwrap();
        roundtrip_value(stored);
    }

    #[test]
    fn datasets_and_results_roundtrip() {
        let d = Dataset::new(
            vec!["fid".into(), "geom".into()],
            vec![
                Row::new(vec![
                    Value::Int(1),
                    Value::Geom(Geometry::Point(Point::new(1.0, 2.0))),
                ]),
                Row::new(vec![Value::Int(2), Value::Null]),
            ],
        );
        match decode(&encode(&QueryResult::Data(d.clone()))).unwrap() {
            QueryResult::Data(back) => assert_eq!(back, d),
            other => panic!("wrong kind {other:?}"),
        }

        let m = QueryResult::Message("3 rows inserted".into());
        match decode(&encode(&m)).unwrap() {
            QueryResult::Message(m) => assert_eq!(m, "3 rows inserted"),
            other => panic!("wrong kind {other:?}"),
        }
    }

    #[test]
    fn malformed_wire_data_is_rejected_not_panicked() {
        for bad in [
            "{}",
            r#"{"kind":"data"}"#,
            r#"{"kind":"data","columns":["a"],"rows":[[{"i":1},{"i":2}]]}"#,
            r#"{"kind":"data","columns":["a"],"rows":[[{"x":1}]]}"#,
            r#"{"kind":"data","columns":["a"],"rows":[[{"b":"zz"}]]}"#,
            r#"{"kind":"data","columns":["a"],"rows":[[{"f":"abc"}]]}"#,
            // `from_str_radix` would take "+0" as the byte 0, i.e. NULL.
            r#"{"kind":"data","columns":["a"],"rows":[[{"b":"+0"}]]}"#,
            r#"{"kind":"data","columns":["a"],"rows":[[{"i":1,"s":"x"}]]}"#,
        ] {
            let err = decode(bad.as_bytes()).unwrap_err();
            assert_eq!(err.code(), "MALFORMED", "{bad}");
        }
    }
}
