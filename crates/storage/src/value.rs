//! Cell values and their binary encoding.

use just_compress::gps::{self, GpsSample};
use just_compress::varint;
use just_geo::{Geometry, GeometryType, LineString, Point, Polygon, Rect};
use std::fmt;

/// One cell of a row: the dynamic value type of JUST tables.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer (covers the paper's `integer` column type).
    Int(i64),
    /// 64-bit float (`double`).
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Timestamp, milliseconds since the Unix epoch (`date`).
    Date(i64),
    /// Any geometry (`point`, `linestring`, `polygon`).
    Geom(Geometry),
    /// A GPS point list — the paper's `st_series` type, the big field
    /// that benefits from compression.
    GpsList(Vec<GpsSample>),
}

impl Value {
    /// Type tag used on the wire.
    fn tag(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Str(_) => 4,
            Value::Date(_) => 5,
            Value::Geom(_) => 6,
            Value::GpsList(_) => 7,
        }
    }

    /// Serialises the value (tag + payload) onto `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.tag());
        match self {
            Value::Null => {}
            Value::Bool(b) => out.push(u8::from(*b)),
            Value::Int(v) => varint::write_i64(out, *v),
            Value::Float(v) => out.extend_from_slice(&v.to_le_bytes()),
            Value::Str(s) => varint::write_bytes(out, s.as_bytes()),
            Value::Date(v) => varint::write_i64(out, *v),
            Value::Geom(g) => encode_geometry(g, out),
            Value::GpsList(samples) => {
                let bytes = gps::encode(samples);
                varint::write_bytes(out, &bytes);
            }
        }
    }

    /// Deserialises one value, advancing `pos`.
    pub fn decode(buf: &[u8], pos: &mut usize) -> Option<Value> {
        let tag = *buf.get(*pos)?;
        *pos += 1;
        Some(match tag {
            0 => Value::Null,
            1 => {
                let b = *buf.get(*pos)?;
                *pos += 1;
                Value::Bool(b != 0)
            }
            2 => Value::Int(varint::read_i64(buf, pos)?),
            3 => {
                let bytes: [u8; 8] = buf.get(*pos..*pos + 8)?.try_into().ok()?;
                *pos += 8;
                Value::Float(f64::from_le_bytes(bytes))
            }
            4 => {
                let bytes = varint::read_bytes(buf, pos)?;
                Value::Str(String::from_utf8(bytes.to_vec()).ok()?)
            }
            5 => Value::Date(varint::read_i64(buf, pos)?),
            6 => Value::Geom(decode_geometry(buf, pos)?),
            7 => {
                let bytes = varint::read_bytes(buf, pos)?;
                Value::GpsList(gps::decode(bytes)?)
            }
            // A raw fixed-width GPS list: tag 8, then [`encode_gps_raw`].
            8 => Value::GpsList(decode_gps_raw(buf, pos)?),
            _ => return None,
        })
    }

    /// The value as an integer, when it is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a float, coercing integers.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a timestamp (accepting raw ints as ms).
    pub fn as_date(&self) -> Option<i64> {
        match self {
            Value::Date(v) => Some(*v),
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a GPS list.
    pub fn as_gps_list(&self) -> Option<&[GpsSample]> {
        match self {
            Value::GpsList(s) => Some(s),
            _ => None,
        }
    }

    /// Whether this is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Date(v) => write!(f, "{v}"),
            Value::Geom(g) => write!(f, "{}", g.to_wkt()),
            Value::GpsList(s) => write!(f, "<gps list: {} samples>", s.len()),
        }
    }
}

fn encode_point(p: &Point, out: &mut Vec<u8>) {
    out.extend_from_slice(&p.x.to_le_bytes());
    out.extend_from_slice(&p.y.to_le_bytes());
}

fn decode_point(buf: &[u8], pos: &mut usize) -> Option<Point> {
    let x: [u8; 8] = buf.get(*pos..*pos + 8)?.try_into().ok()?;
    *pos += 8;
    let y: [u8; 8] = buf.get(*pos..*pos + 8)?.try_into().ok()?;
    *pos += 8;
    Some(Point::new(f64::from_le_bytes(x), f64::from_le_bytes(y)))
}

/// Encodes a GPS list in the raw fixed-width layout: a varint count, then
/// 24 bytes per sample (`lng`, `lat` f64, `time_ms` i64, little-endian) —
/// what the row codec writes for `st_series` fields *without* a
/// `compress=` option, so the paper's JUSTnc variant pays raw size.
pub(crate) fn encode_gps_raw(samples: &[gps::GpsSample], out: &mut Vec<u8>) {
    varint::write_u64(out, samples.len() as u64);
    for s in samples {
        out.extend_from_slice(&s.lng.to_le_bytes());
        out.extend_from_slice(&s.lat.to_le_bytes());
        out.extend_from_slice(&s.time_ms.to_le_bytes());
    }
}

/// Reads an [`encode_gps_raw`] list, advancing `pos`.
pub(crate) fn decode_gps_raw(buf: &[u8], pos: &mut usize) -> Option<Vec<GpsSample>> {
    let n = varint::read_u64(buf, pos)? as usize;
    if n > buf.len().saturating_sub(*pos) / 24 {
        return None;
    }
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let lng: [u8; 8] = buf.get(*pos..*pos + 8)?.try_into().ok()?;
        let lat: [u8; 8] = buf.get(*pos + 8..*pos + 16)?.try_into().ok()?;
        let t: [u8; 8] = buf.get(*pos + 16..*pos + 24)?.try_into().ok()?;
        *pos += 24;
        samples.push(GpsSample {
            lng: f64::from_le_bytes(lng),
            lat: f64::from_le_bytes(lat),
            time_ms: i64::from_le_bytes(t),
        });
    }
    Some(samples)
}

/// Compact WKB-like geometry encoding: type code, then coordinates.
pub(crate) fn encode_geometry(g: &Geometry, out: &mut Vec<u8>) {
    out.push(g.geometry_type().code());
    encode_geometry_body(g, out);
}

/// A geometry's coordinates alone: a point's two f64s, a vertex count
/// and the vertices of a line or polygon, a rectangle's two corners.
pub(crate) fn encode_geometry_body(g: &Geometry, out: &mut Vec<u8>) {
    match g {
        Geometry::Point(p) => encode_point(p, out),
        Geometry::LineString(LineString { points })
        | Geometry::Polygon(Polygon { exterior: points }) => {
            varint::write_u64(out, points.len() as u64);
            for p in points {
                encode_point(p, out);
            }
        }
        Geometry::Rect(r) => {
            encode_point(&Point::new(r.min_x, r.min_y), out);
            encode_point(&Point::new(r.max_x, r.max_y), out);
        }
    }
}

pub(crate) fn decode_geometry(buf: &[u8], pos: &mut usize) -> Option<Geometry> {
    let code = *buf.get(*pos)?;
    *pos += 1;
    decode_geometry_body(GeometryType::from_code(code)?, buf, pos)
}

/// Reads the [`encode_geometry_body`] of a `ty` geometry, advancing `pos`.
/// A vertex count is checked against the bytes left before anything is
/// reserved for it.
pub(crate) fn decode_geometry_body(
    ty: GeometryType,
    buf: &[u8],
    pos: &mut usize,
) -> Option<Geometry> {
    let mut vertices = || {
        let n = varint::read_u64(buf, pos)? as usize;
        if n > buf.len().saturating_sub(*pos) / 16 {
            return None;
        }
        (0..n)
            .map(|_| decode_point(buf, pos))
            .collect::<Option<Vec<_>>>()
    };
    Some(match ty {
        GeometryType::Point => Geometry::Point(decode_point(buf, pos)?),
        GeometryType::LineString => Geometry::LineString(LineString::new(vertices()?)),
        GeometryType::Polygon => Geometry::Polygon(Polygon::new(vertices()?)),
        GeometryType::Rect => {
            let a = decode_point(buf, pos)?;
            let b = decode_point(buf, pos)?;
            Geometry::Rect(Rect::new(a.x, a.y, b.x, b.y))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Value) {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        let mut pos = 0;
        let back = Value::decode(&buf, &mut pos).unwrap();
        assert_eq!(&back, v);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn scalar_roundtrips() {
        roundtrip(&Value::Null);
        roundtrip(&Value::Bool(true));
        roundtrip(&Value::Bool(false));
        roundtrip(&Value::Int(-42));
        roundtrip(&Value::Int(i64::MAX));
        roundtrip(&Value::Float(std::f64::consts::PI));
        roundtrip(&Value::Float(f64::NEG_INFINITY));
        roundtrip(&Value::Str("héllo wörld".to_string()));
        roundtrip(&Value::Str(String::new()));
        roundtrip(&Value::Date(1_600_000_000_000));
    }

    #[test]
    fn geometry_roundtrips() {
        roundtrip(&Value::Geom(Geometry::Point(Point::new(116.4, 39.9))));
        roundtrip(&Value::Geom(Geometry::LineString(LineString::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 1.0),
        ]))));
        roundtrip(&Value::Geom(Geometry::Polygon(Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.0),
        ]))));
        roundtrip(&Value::Geom(Geometry::Rect(Rect::new(0.0, 0.0, 2.0, 2.0))));
    }

    #[test]
    fn gps_list_roundtrip_quantizes() {
        let samples = vec![
            GpsSample {
                lng: 116.4000001,
                lat: 39.9,
                time_ms: 1000,
            },
            GpsSample {
                lng: 116.4000002,
                lat: 39.9000001,
                time_ms: 2000,
            },
        ];
        let mut buf = Vec::new();
        Value::GpsList(samples.clone()).encode(&mut buf);
        let mut pos = 0;
        match Value::decode(&buf, &mut pos).unwrap() {
            Value::GpsList(back) => {
                assert_eq!(back.len(), 2);
                assert!((back[0].lng - samples[0].lng).abs() < 1e-7);
                assert_eq!(back[1].time_ms, 2000);
            }
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn accessors_and_coercions() {
        assert_eq!(Value::Int(5).as_float(), Some(5.0));
        assert_eq!(Value::Int(5).as_date(), Some(5));
        assert_eq!(Value::Float(1.5).as_int(), None);
        assert_eq!(Value::Str("x".into()).as_str(), Some("x"));
        assert!(Value::Null.is_null());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(Value::decode(&[99], &mut 0), None);
        assert_eq!(Value::decode(&[], &mut 0), None);
        // Truncated float.
        assert_eq!(Value::decode(&[3, 1, 2], &mut 0), None);
        // Invalid UTF-8 string.
        let mut buf = vec![4];
        varint::write_bytes(&mut buf, &[0xff, 0xfe]);
        assert_eq!(Value::decode(&buf, &mut 0), None);
        // Vertex counts above the bytes left, at 16 a vertex, are refused
        // before anything is reserved for them.
        for ty in [GeometryType::LineString, GeometryType::Polygon] {
            let mut buf = vec![6, ty.code(), 2];
            buf.extend_from_slice(&[0; 31]);
            assert_eq!(Value::decode(&buf, &mut 0), None, "{ty:?}");
            buf.push(0);
            assert!(Value::decode(&buf, &mut 0).is_some(), "{ty:?}");
        }
    }
}
