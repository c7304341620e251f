//! The binary row codec, with per-field compression.
//!
//! The schema drives the layout, so a row stores no per-field framing.
//! Wire format: a header of one bit per field (set = NULL) plus one more
//! for each field whose type accepts two [`Value`] variants, saying which
//! one was written (set = `Int` in a `double` or `date` field, `Rect` in
//! a `polygon` field), LSB first and padded to whole bytes; then the
//! payload of every non-NULL field, in field order:
//!
//! ```text
//! type         payload
//! boolean      1 byte
//! integer      zigzag varint
//! double       8-byte LE f64 (an Int: zigzag varint)
//! date         zigzag varint
//! string       varint length, UTF-8 bytes
//! point        x, y as 8-byte LE f64
//! linestring   varint vertex count, the vertices as points
//! polygon      as linestring (a Rect: its min and max corners)
//! geometry     geometry type code, then the payload of that type
//! st_series    varint sample count, 24 bytes per sample (lng, lat, t)
//! ```
//!
//! A field with a `compress=` codec stores instead a varint length and a
//! [`just_compress::Codec`] container of its payload; an `st_series`
//! payload there is the delta-varint list of [`just_compress::gps`].
//!
//! Every payload delimits itself — a fixed width, a varint, or a length
//! or count read from its first varint — so a reader can *skip* a field,
//! even a compressed GPS list, for the cost of one varint (and a
//! `geometry` field's type code) without decoding it. [`Row::decode_masked`] exploits this for
//! projection/predicate pushdown: the streaming query path first decodes
//! only the index-relevant fields, filters, and pays full decode
//! (including GPS decompression) only for surviving rows.

use crate::schema::{Field, FieldType, Schema};
use crate::value::{
    decode_geometry_body, decode_gps_raw, encode_geometry_body, encode_gps_raw, Value,
};
use crate::{Result, StorageError};
use just_compress::{gps, varint, Codec};
use just_geo::{Geometry, GeometryType};

/// One record: values aligned with a [`Schema`]'s fields.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Row {
    /// The cell values, in field order.
    pub values: Vec<Value>,
}

/// Whether the header records which of two variants a `ty` field holds.
fn two_variants(ty: FieldType) -> bool {
    matches!(ty, FieldType::Float | FieldType::Date | FieldType::Polygon)
}

/// Header bytes of a row under `schema`.
fn header_len(schema: &Schema) -> usize {
    let bits: usize = schema
        .fields()
        .iter()
        .map(|f| 1 + usize::from(two_variants(f.ty)))
        .sum();
    bits.div_ceil(8)
}

/// Appends the bare payload of a non-NULL `value` of `field`.
fn encode_payload(field: &Field, value: &Value, out: &mut Vec<u8>) {
    match value {
        Value::Null => {}
        Value::Bool(b) => out.push(u8::from(*b)),
        Value::Int(v) | Value::Date(v) => varint::write_i64(out, *v),
        Value::Float(v) => out.extend_from_slice(&v.to_le_bytes()),
        Value::Str(s) => varint::write_bytes(out, s.as_bytes()),
        Value::Geom(g) => {
            if field.ty == FieldType::Geometry {
                out.push(g.geometry_type().code());
            }
            encode_geometry_body(g, out);
        }
        // Uncompressed st_series fields store raw fixed-width samples —
        // the whole point of `compress=gzip` is escaping this raw cost
        // (Fig 10b's JUSTnc line).
        Value::GpsList(samples) if field.compress == Codec::None => encode_gps_raw(samples, out),
        Value::GpsList(samples) => out.extend_from_slice(&gps::encode(samples)),
    }
}

/// The geometry type a spatial field's payload holds: fixed by the
/// field type and variant bit, or read from a `geometry` field's code.
fn geometry_type(ty: FieldType, alt: bool, buf: &[u8], pos: &mut usize) -> Option<GeometryType> {
    Some(match ty {
        FieldType::Point => GeometryType::Point,
        FieldType::LineString => GeometryType::LineString,
        FieldType::Polygon if alt => GeometryType::Rect,
        FieldType::Polygon => GeometryType::Polygon,
        _ => {
            let code = *buf.get(*pos)?;
            *pos += 1;
            GeometryType::from_code(code)?
        }
    })
}

/// Reads one bare payload of `field`, advancing `pos`.
fn decode_payload(field: &Field, alt: bool, buf: &[u8], pos: &mut usize) -> Option<Value> {
    Some(match field.ty {
        FieldType::Bool => {
            let b = *buf.get(*pos)?;
            *pos += 1;
            Value::Bool(b != 0)
        }
        FieldType::Int => Value::Int(varint::read_i64(buf, pos)?),
        FieldType::Float | FieldType::Date if alt => Value::Int(varint::read_i64(buf, pos)?),
        FieldType::Float => {
            let bytes: [u8; 8] = buf.get(*pos..*pos + 8)?.try_into().ok()?;
            *pos += 8;
            Value::Float(f64::from_le_bytes(bytes))
        }
        FieldType::Date => Value::Date(varint::read_i64(buf, pos)?),
        FieldType::Str => {
            Value::Str(String::from_utf8(varint::read_bytes(buf, pos)?.to_vec()).ok()?)
        }
        FieldType::StSeries if field.compress == Codec::None => {
            Value::GpsList(decode_gps_raw(buf, pos)?)
        }
        FieldType::StSeries => {
            let samples = gps::decode(buf.get(*pos..)?)?;
            *pos = buf.len();
            Value::GpsList(samples)
        }
        spatial => {
            let ty = geometry_type(spatial, alt, buf, pos)?;
            Value::Geom(decode_geometry_body(ty, buf, pos)?)
        }
    })
}

/// Steps `pos` over one payload of `field` without decoding it: past a
/// fixed width, a varint, or the length or count its first varint gives.
fn skip_payload(field: &Field, alt: bool, buf: &[u8], pos: &mut usize) -> Option<()> {
    let len = match field.ty {
        _ if field.compress != Codec::None => varint::read_u64(buf, pos)?,
        FieldType::Bool => 1,
        FieldType::Float if !alt => 8,
        FieldType::Int | FieldType::Float | FieldType::Date => {
            varint::read_u64(buf, pos).map(|_| 0)?
        }
        FieldType::Str => varint::read_u64(buf, pos)?,
        FieldType::StSeries => varint::read_u64(buf, pos)?.checked_mul(24)?,
        spatial => match geometry_type(spatial, alt, buf, pos)? {
            GeometryType::Point => 16,
            GeometryType::Rect => 32,
            _ => varint::read_u64(buf, pos)?.checked_mul(16)?,
        },
    };
    let end = pos.checked_add(usize::try_from(len).ok()?)?;
    *pos = (end <= buf.len()).then_some(end)?;
    Some(())
}

/// Reads one non-NULL field's payload, opening a `compress=` container
/// first: `Ok(None)` when it does not decode.
fn decode_field(field: &Field, alt: bool, buf: &[u8], pos: &mut usize) -> Result<Option<Value>> {
    if field.compress == Codec::None {
        return Ok(decode_payload(field, alt, buf, pos));
    }
    let Some(container) = varint::read_bytes(buf, pos) else {
        return Ok(None);
    };
    let raw = Codec::decompress(container)?;
    let mut vpos = 0;
    Ok(decode_payload(field, alt, &raw, &mut vpos).filter(|_| vpos == raw.len()))
}

impl Row {
    /// Wraps values as a row.
    pub fn new(values: Vec<Value>) -> Self {
        Row { values }
    }

    /// Cell accessor.
    pub(crate) fn get(&self, idx: usize) -> Option<&Value> {
        self.values.get(idx)
    }

    /// Serialises the row under `schema`, applying each field's codec.
    pub fn encode(&self, schema: &Schema) -> Result<Vec<u8>> {
        schema.check_row(&self.values)?;
        let mut out = vec![0; header_len(schema)];
        out.reserve(64);
        let mut bit = 0;
        for (field, value) in schema.fields().iter().zip(&self.values) {
            let alt = matches!(value, Value::Int(_) | Value::Geom(Geometry::Rect(_)));
            let bits = [Some(value.is_null()), two_variants(field.ty).then_some(alt)];
            for on in bits.into_iter().flatten() {
                out[bit / 8] |= u8::from(on) << (bit % 8);
                bit += 1;
            }
            if field.compress == Codec::None || value.is_null() {
                encode_payload(field, value, &mut out);
            } else {
                let mut payload = Vec::new();
                encode_payload(field, value, &mut payload);
                varint::write_bytes(&mut out, &field.compress.compress(&payload));
            }
        }
        Ok(out)
    }

    /// Deserialises a row written by [`Row::encode`].
    pub(crate) fn decode(schema: &Schema, buf: &[u8]) -> Result<Row> {
        let mut row = Row::new(vec![Value::Null; schema.len()]);
        row.fill(schema, buf, |_| true)?;
        Ok(row)
    }

    /// Partially deserialises a row: fields where `mask[i]` is true are
    /// decoded, the rest are skipped (no value decode, no decompression)
    /// and surface as [`Value::Null`]. The result keeps full schema arity,
    /// so positional access stays valid.
    ///
    /// This is the projection-pushdown primitive: a query that only needs
    /// the id and geometry of a trajectory row never pays for gunzipping
    /// its GPS list.
    pub(crate) fn decode_masked(schema: &Schema, buf: &[u8], mask: &[bool]) -> Result<Row> {
        let mut row = Row::new(vec![Value::Null; schema.len()]);
        row.fill_masked(schema, buf, mask)?;
        Ok(row)
    }

    /// Decodes the fields where `mask[i]` is true out of `buf` into this
    /// row, overwriting those slots. The second half of a two-phase
    /// decode: after [`Row::decode_masked`] + predicate check, fill in
    /// the remaining projected fields of surviving rows only.
    pub(crate) fn fill_masked(&mut self, schema: &Schema, buf: &[u8], mask: &[bool]) -> Result<()> {
        self.fill(schema, buf, |i| mask.get(i).copied().unwrap_or(false))
    }

    /// Walks an encoded row: the fields where `want(i)` holds are decoded
    /// into their slots, the rest skipped undecoded. Fails on a short
    /// header, a bad payload or trailing bytes.
    fn fill(&mut self, schema: &Schema, buf: &[u8], want: impl Fn(usize) -> bool) -> Result<()> {
        let header = buf
            .get(..header_len(schema))
            .ok_or_else(|| StorageError::Corrupt("row truncated in its header".into()))?;
        let (mut pos, mut bit) = (header.len(), 0);
        let mut next_bit = || {
            bit += 1;
            header[(bit - 1) / 8] >> ((bit - 1) % 8) & 1 == 1
        };
        for (i, field) in schema.fields().iter().enumerate() {
            let (null, alt) = (next_bit(), two_variants(field.ty) && next_bit());
            let read = match (null, want(i)) {
                (true, _) => Some(Value::Null),
                (false, false) => skip_payload(field, alt, buf, &mut pos).map(|()| Value::Null),
                (false, true) => decode_field(field, alt, buf, &mut pos)?,
            };
            let corrupt = || StorageError::Corrupt(format!("bad value for '{}'", field.name));
            let value = read.ok_or_else(corrupt)?;
            if let (true, Some(slot)) = (want(i), self.values.get_mut(i)) {
                *slot = value;
            }
        }
        if pos != buf.len() {
            return Err(StorageError::Corrupt("trailing bytes after row".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Field, FieldType};
    use just_compress::gps::GpsSample;
    use just_geo::{Geometry, LineString, Point, Polygon, Rect};
    use just_obs::Rng;

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
        // Each schema reads its own rows back (a field's codec is fixed
        // when its table is created).
        let back = Row::decode(&s, &compressed).unwrap();
        assert_eq!(back.values[4].as_gps_list().unwrap().len(), 1000);
        let back = Row::decode(&s_nc, &raw).unwrap();
        assert_eq!(back, row(1000));
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

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The benchmark's `orders` table.
    fn orders() -> Schema {
        Schema::new(vec![
            Field::new("fid", FieldType::Int).primary(),
            Field::new("time", FieldType::Date),
            Field::new("geom", FieldType::Point),
            Field::new("amount", FieldType::Float),
            Field::new("district", FieldType::Int),
        ])
        .unwrap()
    }

    fn order() -> Row {
        Row::new(vec![
            Value::Int(7),
            Value::Date(1_600_000_000_000),
            Value::Geom(Geometry::Point(Point::new(116.4, 39.9))),
            Value::Float(12.5),
            Value::Int(3),
        ])
    }

    /// The benchmark's `routes` table.
    fn routes() -> Schema {
        Schema::new(vec![
            Field::new("fid", FieldType::Int).primary(),
            Field::new("time", FieldType::Date),
            Field::new("geom", FieldType::LineString),
            Field::new("len", FieldType::Float),
        ])
        .unwrap()
    }

    fn route() -> Row {
        let line = [(116.4, 39.9), (116.5, 39.9), (116.5, 40.0)];
        Row::new(vec![
            Value::Int(-2),
            Value::Date(1_600_000_000_000),
            Value::Geom(Geometry::LineString(LineString::new(
                line.iter().map(|&(x, y)| Point::new(x, y)).collect(),
            ))),
            Value::Float(0.25),
        ])
    }

    /// A trajectory plugin row over `n` GPS samples.
    fn trajectory(n: usize) -> Row {
        let gps = gps_walk(n);
        Row::new(vec![
            Value::Str("lorry-1".into()),
            Value::Geom(Geometry::Rect(Rect::new(116.4, 39.9, 116.41, 39.91))),
            Value::Date(gps[0].time_ms),
            Value::Date(gps[n - 1].time_ms),
            Value::Geom(Geometry::Point(Point::new(gps[0].lng, gps[0].lat))),
            Value::Geom(Geometry::Point(Point::new(gps[n - 1].lng, gps[n - 1].lat))),
            Value::GpsList(gps),
        ])
    }

    #[test]
    fn golden_bytes_of_orders_and_routes_rows() {
        // orders: a header byte with no bit set, fid 7, the date, the
        // point's two f64s, 12.5 and district 3 — 33 bytes.
        let bytes = order().encode(&orders()).unwrap();
        let want = concat!(
            "00",
            "0e",
            "8080f4f6905d",
            "9a99999999195d40",
            "3333333333f34340",
            "0000000000002940",
            "06",
        );
        assert_eq!(hex(&bytes), want);
        assert_eq!(Row::decode(&orders(), &bytes).unwrap(), order());
        // routes: the header, fid -2, the date, a vertex count of 3, the
        // three vertices and 0.25 — 65 bytes.
        let bytes = route().encode(&routes()).unwrap();
        let want = concat!(
            "00",
            "03",
            "8080f4f6905d",
            "03",
            "9a99999999195d40",
            "3333333333f34340",
            "0000000000205d40",
            "3333333333f34340",
            "0000000000205d40",
            "0000000000004440",
            "000000000000d03f",
        );
        assert_eq!(hex(&bytes), want);
        assert_eq!(Row::decode(&routes(), &bytes).unwrap(), route());
    }

    #[test]
    fn every_variant_a_field_accepts_reads_back_as_that_variant() {
        let gps = || {
            let q = |v: f64| (v * 1e7).round() / 1e7;
            let mut samples = gps_walk(20);
            for s in &mut samples {
                (s.lng, s.lat) = (q(s.lng), q(s.lat));
            }
            Value::GpsList(samples)
        };
        let (p, q) = (Point::new(1.5, -2.5), Point::new(3.0, 4.0));
        let line = Geometry::LineString(LineString::new(vec![p, q]));
        let polygon = Geometry::Polygon(Polygon::new(vec![p, q, Point::new(0.0, 9.0)]));
        let rect = Geometry::Rect(Rect::new(0.0, 1.0, 2.0, 3.0));
        let fields = vec![
            (
                Field::new("id", FieldType::Int).primary(),
                vec![Value::Int(i64::MIN)],
            ),
            (
                Field::new("b", FieldType::Bool),
                vec![Value::Bool(true), Value::Bool(false)],
            ),
            (
                Field::new("i", FieldType::Int),
                vec![Value::Int(-1), Value::Int(i64::MAX)],
            ),
            (
                Field::new("f", FieldType::Float),
                vec![Value::Float(-0.5), Value::Int(3)],
            ),
            (
                Field::new("d", FieldType::Date),
                vec![Value::Date(-1), Value::Int(1 << 41)],
            ),
            (
                Field::new("s", FieldType::Str),
                vec![Value::Str("héllo".into()), Value::Str(String::new())],
            ),
            (
                Field::new("z", FieldType::Str).compressed(Codec::Zip),
                vec![Value::Str("x".repeat(40))],
            ),
            (
                Field::new("pt", FieldType::Point),
                vec![Value::Geom(Geometry::Point(p))],
            ),
            (
                Field::new("ls", FieldType::LineString),
                vec![Value::Geom(line.clone())],
            ),
            (
                Field::new("pg", FieldType::Polygon),
                vec![Value::Geom(polygon.clone()), Value::Geom(rect.clone())],
            ),
            (
                Field::new("g", FieldType::Geometry),
                [Geometry::Point(q), line, polygon, rect]
                    .into_iter()
                    .map(Value::Geom)
                    .collect(),
            ),
            (
                Field::new("raw", FieldType::StSeries),
                vec![gps(), Value::GpsList(vec![])],
            ),
            (
                Field::new("gz", FieldType::StSeries).compressed(Codec::Gzip),
                vec![gps()],
            ),
        ];
        let schema = Schema::new(fields.iter().map(|(f, _)| f.clone()).collect()).unwrap();
        let base: Vec<Value> = fields.iter().map(|(_, vs)| vs[0].clone()).collect();
        let mut rows = vec![Row::new(base.clone())];
        for (i, (_, variants)) in fields.iter().enumerate() {
            let nulls = (i > 0).then_some(Value::Null);
            for v in variants.iter().cloned().chain(nulls) {
                let mut values = base.clone();
                values[i] = v;
                rows.push(Row::new(values));
            }
        }
        for row in rows {
            let bytes = row.encode(&schema).unwrap();
            assert_eq!(Row::decode(&schema, &bytes).unwrap(), row);
            for i in 0..schema.len() {
                let mut mask = vec![false; schema.len()];
                mask[i] = true;
                let one = Row::decode_masked(&schema, &bytes, &mask).unwrap();
                for (j, v) in one.values.iter().enumerate() {
                    assert_eq!(v, if j == i { &row.values[i] } else { &Value::Null });
                }
            }
        }
    }

    #[test]
    fn a_masked_out_field_is_skipped_not_decoded() {
        // Break the GPS container's checksum without changing its
        // length: only a reader that decodes the field can notice.
        let s = schema();
        let mut bytes = row(200).encode(&s).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x55;
        assert!(Row::decode(&s, &bytes).is_err());
        let mask = vec![true, true, true, true, false];
        let partial = Row::decode_masked(&s, &bytes, &mask).unwrap();
        assert_eq!(&partial.values[..4], &row(200).values[..4]);
        assert!(partial.values[4].is_null());
    }

    /// One seeded corruption: a bit flip, a truncation, an inflated
    /// varint written over a position, or appended garbage.
    fn mutate(rng: &mut Rng, bytes: &mut Vec<u8>) {
        let n = bytes.len();
        match rng.gen_range(0u32..4) {
            0 => bytes[rng.gen_range(0..n)] ^= 1 << rng.gen_range(0u32..8),
            1 => bytes.truncate(rng.gen_range(0..n)),
            2 => {
                let at = rng.gen_range(0..n);
                let mut big = Vec::new();
                varint::write_u64(&mut big, rng.next_u64() >> rng.gen_range(0u32..64));
                bytes.splice(at..at + 1, big);
            }
            _ => bytes.extend((0..rng.gen_range(1usize..9)).map(|_| rng.next_u64() as u8)),
        }
    }

    #[test]
    fn seeded_mutations_of_rows_are_errors_or_rows_never_panics() {
        let mut rng = Rng::seed_from_u64(0x726f_7773);
        let goldens = [
            (orders(), order()),
            (routes(), route()),
            (Schema::trajectory(), trajectory(40)),
        ];
        let mut rejected = 0;
        for round in 0..5000 {
            let (schema, row) = &goldens[round % goldens.len()];
            let mut bytes = row.encode(schema).unwrap();
            mutate(&mut rng, &mut bytes);
            let mask: Vec<bool> = (0..schema.len()).map(|_| rng.gen_bool(0.5)).collect();
            rejected += usize::from(Row::decode(schema, &bytes).is_err());
            let _ = Row::decode_masked(schema, &bytes, &mask);
            let _ = row.clone().fill_masked(schema, &bytes, &mask);
        }
        assert!(rejected > 2500, "{rejected} of 5000 rejected");
    }

    #[test]
    fn a_late_primary_key_after_a_whole_byte_of_header() {
        let mut fields: Vec<Field> = (0..7)
            .map(|i| Field::new(format!("b{i}"), FieldType::Bool))
            .collect();
        fields.push(Field::new("id", FieldType::Int).primary());
        let s = Schema::new(fields).unwrap();
        let mut values = vec![Value::Null; 7];
        values.push(Value::Int(1));
        let r = Row::new(values);
        let bytes = r.encode(&s).unwrap();
        assert_eq!(bytes, [0x7f, 2]);
        assert_eq!(Row::decode(&s, &bytes).unwrap(), r);
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
