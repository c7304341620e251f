//! The binary row codec, with per-field compression.
//!
//! Wire format: for each field, one flag byte (`0` = raw, `1` =
//! compressed) followed by a length-prefixed payload. Compressed payloads
//! are [`just_compress::Codec`] containers wrapping the encoded value, so
//! the codec is self-describing and historical rows survive later
//! `compress=` changes.
//!
//! Because every field is length-prefixed, a reader can *skip* a field
//! for the cost of one varint — without decompressing or decoding it.
//! [`Row::decode_masked`] exploits this for projection/predicate
//! pushdown: the streaming query path first decodes only the
//! index-relevant fields, filters, and pays full decode (including GPS
//! decompression) only for surviving rows.

use crate::schema::{Field, Schema};
use crate::value::Value;
use crate::{Result, StorageError};
use just_compress::{varint, Codec};

/// One record: values aligned with a [`Schema`]'s fields.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Row {
    /// The cell values, in field order.
    pub values: Vec<Value>,
}

impl Row {
    /// Wraps values as a row.
    pub fn new(values: Vec<Value>) -> Self {
        Row { values }
    }

    /// Cell accessor.
    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.values.get(idx)
    }

    /// Serialises the row under `schema`, applying each field's codec.
    pub fn encode(&self, schema: &Schema) -> Result<Vec<u8>> {
        schema.check_row(&self.values)?;
        let mut out = Vec::with_capacity(64);
        for (field, value) in schema.fields().iter().zip(&self.values) {
            let mut payload = Vec::new();
            match (value, field.compress) {
                // Uncompressed st_series fields store raw fixed-width
                // samples — the whole point of `compress=gzip` is escaping
                // this raw cost (Fig 10b's JUSTnc line).
                (Value::GpsList(samples), Codec::None) => {
                    crate::value::encode_gps_raw(samples, &mut payload)
                }
                _ => value.encode(&mut payload),
            }
            if field.compress != Codec::None && !value.is_null() {
                let packed = field.compress.compress(&payload);
                out.push(1);
                varint::write_bytes(&mut out, &packed);
            } else {
                out.push(0);
                varint::write_bytes(&mut out, &payload);
            }
        }
        Ok(out)
    }

    /// Walks one encoded field. When `want` is false, the payload is
    /// skipped for the cost of the flag byte + length varint — no
    /// decompression, no value decode — and `Ok(None)` is returned.
    fn decode_field(
        field: &Field,
        buf: &[u8],
        pos: &mut usize,
        want: bool,
    ) -> Result<Option<Value>> {
        let flag = *buf
            .get(*pos)
            .ok_or_else(|| StorageError::Corrupt(format!("row truncated at '{}'", field.name)))?;
        *pos += 1;
        let payload = varint::read_bytes(buf, pos)
            .ok_or_else(|| StorageError::Corrupt(format!("bad payload for '{}'", field.name)))?;
        if !want {
            return Ok(None);
        }
        let decoded_storage;
        let raw: &[u8] = match flag {
            0 => payload,
            1 => {
                decoded_storage = Codec::decompress(payload)?;
                &decoded_storage
            }
            other => {
                return Err(StorageError::Corrupt(format!(
                    "unknown field flag {other} for '{}'",
                    field.name
                )))
            }
        };
        let mut vpos = 0usize;
        let value = Value::decode(raw, &mut vpos)
            .ok_or_else(|| StorageError::Corrupt(format!("bad value for '{}'", field.name)))?;
        Ok(Some(value))
    }

    /// Deserialises a row written by [`Row::encode`].
    pub fn decode(schema: &Schema, buf: &[u8]) -> Result<Row> {
        let mut pos = 0usize;
        let mut values = Vec::with_capacity(schema.len());
        for field in schema.fields() {
            let value = Self::decode_field(field, buf, &mut pos, true)?.expect("wanted");
            values.push(value);
        }
        if pos != buf.len() {
            return Err(StorageError::Corrupt("trailing bytes after row".into()));
        }
        Ok(Row { values })
    }

    /// Partially deserialises a row: fields where `mask[i]` is true are
    /// decoded, the rest are skipped (flag byte + length varint only, no
    /// decompression) and surface as [`Value::Null`]. The result keeps
    /// full schema arity, so positional access stays valid.
    ///
    /// This is the projection-pushdown primitive: a query that only needs
    /// the id and geometry of a trajectory row never pays for gunzipping
    /// its GPS list.
    pub fn decode_masked(schema: &Schema, buf: &[u8], mask: &[bool]) -> Result<Row> {
        let mut pos = 0usize;
        let mut values = Vec::with_capacity(schema.len());
        for (i, field) in schema.fields().iter().enumerate() {
            let want = mask.get(i).copied().unwrap_or(false);
            match Self::decode_field(field, buf, &mut pos, want)? {
                Some(value) => values.push(value),
                None => values.push(Value::Null),
            }
        }
        if pos != buf.len() {
            return Err(StorageError::Corrupt("trailing bytes after row".into()));
        }
        Ok(Row { values })
    }

    /// Decodes the fields where `mask[i]` is true out of `buf` into this
    /// row, overwriting those slots. The second half of a two-phase
    /// decode: after [`Row::decode_masked`] + predicate check, fill in
    /// the remaining projected fields of surviving rows only.
    pub fn fill_masked(&mut self, schema: &Schema, buf: &[u8], mask: &[bool]) -> Result<()> {
        let mut pos = 0usize;
        for (i, field) in schema.fields().iter().enumerate() {
            let want = mask.get(i).copied().unwrap_or(false);
            if let Some(value) = Self::decode_field(field, buf, &mut pos, want)? {
                if let Some(slot) = self.values.get_mut(i) {
                    *slot = value;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Field, FieldType};
    use just_compress::gps::GpsSample;
    use just_geo::{Geometry, Point};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("fid", FieldType::Int).primary(),
            Field::new("name", FieldType::Str),
            Field::new("time", FieldType::Date),
            Field::new("geom", FieldType::Point),
            Field::new("gps", FieldType::StSeries).compressed(Codec::Gzip),
        ])
        .unwrap()
    }

    fn gps_walk(n: usize) -> Vec<GpsSample> {
        (0..n)
            .map(|i| GpsSample {
                lng: 116.4 + i as f64 * 1e-5,
                lat: 39.9 + i as f64 * 5e-6,
                time_ms: 1_600_000_000_000 + i as i64 * 1000,
            })
            .collect()
    }

    fn row(n_gps: usize) -> Row {
        Row::new(vec![
            Value::Int(7),
            Value::Str("courier-7".into()),
            Value::Date(1_600_000_000_000),
            Value::Geom(Geometry::Point(Point::new(116.4, 39.9))),
            Value::GpsList(gps_walk(n_gps)),
        ])
    }

    #[test]
    fn roundtrip_with_compression() {
        let s = schema();
        let r = row(500);
        let bytes = r.encode(&s).unwrap();
        let back = Row::decode(&s, &bytes).unwrap();
        assert_eq!(back.values[0], Value::Int(7));
        assert_eq!(back.values[1].as_str(), Some("courier-7"));
        assert_eq!(back.values[4].as_gps_list().unwrap().len(), 500);
    }

    #[test]
    fn compression_shrinks_big_gps_fields() {
        let s = schema();
        let compressed = row(1000).encode(&s).unwrap();
        // Same schema minus the codec.
        let mut fields = s.fields().to_vec();
        fields[4].compress = Codec::None;
        let s_nc = Schema::new(fields).unwrap();
        let raw = row(1000).encode(&s_nc).unwrap();
        assert!(
            compressed.len() < raw.len() / 2,
            "compressed {} vs raw {}",
            compressed.len(),
            raw.len()
        );
        // And the uncompressed-schema reader still decodes the compressed
        // row (self-describing containers).
        let back = Row::decode(&s_nc, &compressed).unwrap();
        assert_eq!(back.values[4].as_gps_list().unwrap().len(), 1000);
    }

    #[test]
    fn null_fields_skip_compression() {
        let s = schema();
        let r = Row::new(vec![
            Value::Int(1),
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null,
        ]);
        let bytes = r.encode(&s).unwrap();
        let back = Row::decode(&s, &bytes).unwrap();
        assert!(back.values[4].is_null());
    }

    #[test]
    fn masked_decode_skips_unwanted_fields() {
        let s = schema();
        let bytes = row(200).encode(&s).unwrap();
        // Only fid + geom: the compressed GPS list is never touched.
        let mask = vec![true, false, false, true, false];
        let partial = Row::decode_masked(&s, &bytes, &mask).unwrap();
        assert_eq!(partial.values[0], Value::Int(7));
        assert!(partial.values[1].is_null());
        assert!(partial.values[4].is_null());
        assert!(!partial.values[3].is_null());
        // Fill the rest in a second phase and match a full decode.
        let mut filled = partial.clone();
        let rest = vec![false, true, true, false, true];
        filled.fill_masked(&s, &bytes, &rest).unwrap();
        assert_eq!(filled, Row::decode(&s, &bytes).unwrap());
        // Truncated input still errors through the skipping path.
        let mut short = bytes.clone();
        short.truncate(short.len() - 3);
        assert!(Row::decode_masked(&s, &short, &mask).is_err());
    }

    #[test]
    fn schema_mismatch_rejected_on_encode() {
        let s = schema();
        let bad = Row::new(vec![Value::Int(1)]);
        assert!(bad.encode(&s).is_err());
    }

    #[test]
    fn corrupt_bytes_rejected_on_decode() {
        let s = schema();
        let mut bytes = row(10).encode(&s).unwrap();
        bytes.truncate(bytes.len() - 3);
        assert!(Row::decode(&s, &bytes).is_err());
        let mut bytes2 = row(10).encode(&s).unwrap();
        bytes2.push(0);
        assert!(Row::decode(&s, &bytes2).is_err());
        assert!(Row::decode(&s, &[]).is_err());
    }
}
