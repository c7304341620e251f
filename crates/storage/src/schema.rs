//! Table schemas: field names, types, primary keys, per-field compression.

use crate::value::Value;
use just_compress::Codec;
use just_geo::GeometryType;

/// Column types of JUST tables, mirroring the `CREATE TABLE` type names of
/// the paper's JustQL example (`integer`, `string`, `date`, `point`,
/// `st_series`, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldType {
    /// Boolean.
    Bool,
    /// 64-bit integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 string.
    Str,
    /// Timestamp (ms since epoch).
    Date,
    /// A point geometry.
    Point,
    /// A polyline geometry.
    LineString,
    /// A polygon geometry.
    Polygon,
    /// Any geometry.
    Geometry,
    /// A timestamped GPS point list (the paper's `st_series`).
    StSeries,
}

impl FieldType {
    /// Parses the JustQL type names.
    pub fn parse(name: &str) -> Option<Self> {
        Some(match name.to_ascii_lowercase().as_str() {
            "bool" | "boolean" => FieldType::Bool,
            "int" | "integer" | "long" | "bigint" => FieldType::Int,
            "float" | "double" | "real" => FieldType::Float,
            "string" | "varchar" | "text" => FieldType::Str,
            "date" | "timestamp" | "datetime" => FieldType::Date,
            "point" => FieldType::Point,
            "linestring" => FieldType::LineString,
            "polygon" => FieldType::Polygon,
            "geometry" => FieldType::Geometry,
            "st_series" => FieldType::StSeries,
            _ => return None,
        })
    }

    /// Whether this is a geometry-bearing type.
    pub(crate) fn is_spatial(self) -> bool {
        matches!(
            self,
            FieldType::Point
                | FieldType::LineString
                | FieldType::Polygon
                | FieldType::Geometry
                | FieldType::StSeries
        )
    }

    /// Whether `v` inhabits this type (NULL inhabits all).
    pub(crate) fn accepts(self, v: &Value) -> bool {
        match (self, v) {
            (_, Value::Null) => true,
            (FieldType::Bool, Value::Bool(_)) => true,
            (FieldType::Int, Value::Int(_)) => true,
            (FieldType::Float, Value::Float(_) | Value::Int(_)) => true,
            (FieldType::Str, Value::Str(_)) => true,
            (FieldType::Date, Value::Date(_) | Value::Int(_)) => true,
            (FieldType::Point, Value::Geom(g)) => g.geometry_type() == GeometryType::Point,
            (FieldType::LineString, Value::Geom(g)) => {
                g.geometry_type() == GeometryType::LineString
            }
            (FieldType::Polygon, Value::Geom(g)) => matches!(
                g.geometry_type(),
                GeometryType::Polygon | GeometryType::Rect
            ),
            (FieldType::Geometry, Value::Geom(_)) => true,
            (FieldType::StSeries, Value::GpsList(_)) => true,
            _ => false,
        }
    }

    /// The JustQL name of the type.
    pub fn name(self) -> &'static str {
        match self {
            FieldType::Bool => "boolean",
            FieldType::Int => "integer",
            FieldType::Float => "double",
            FieldType::Str => "string",
            FieldType::Date => "date",
            FieldType::Point => "point",
            FieldType::LineString => "linestring",
            FieldType::Polygon => "polygon",
            FieldType::Geometry => "geometry",
            FieldType::StSeries => "st_series",
        }
    }
}

/// One column definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// Column name.
    pub name: String,
    /// Column type.
    pub ty: FieldType,
    /// Whether this column is (part of) the primary key / record id.
    pub primary_key: bool,
    /// Per-field compression, the paper's `compress=gzip|zip` option.
    pub compress: Codec,
    /// Spatial reference id (informational; 4326 everywhere).
    pub srid: u32,
}

impl Field {
    /// A plain field.
    pub fn new(name: impl Into<String>, ty: FieldType) -> Self {
        Field {
            name: name.into(),
            ty,
            primary_key: false,
            compress: Codec::None,
            srid: 4326,
        }
    }

    /// Marks the field as primary key.
    pub fn primary(mut self) -> Self {
        self.primary_key = true;
        self
    }

    /// Sets the compression codec.
    pub fn compressed(mut self, codec: Codec) -> Self {
        self.compress = codec;
        self
    }
}

/// An ordered list of fields plus the designated roles the indexes need.
#[derive(Debug, Clone, PartialEq)]
pub struct Schema {
    fields: Vec<Field>,
    fid: usize,
    geom: Option<usize>,
    time: Option<usize>,
    time_end: Option<usize>,
}

impl Schema {
    /// Builds a schema, auto-detecting roles: the first `primary key`
    /// field is the record id (defaults to field 0), the first spatial
    /// field is the geometry, and the first/second `date` fields are the
    /// start/end times.
    pub fn new(fields: Vec<Field>) -> crate::Result<Self> {
        if fields.is_empty() {
            return Err(crate::StorageError::SchemaMismatch(
                "schema needs at least one field".into(),
            ));
        }
        let mut names = std::collections::HashSet::new();
        for f in &fields {
            if !names.insert(f.name.clone()) {
                return Err(crate::StorageError::SchemaMismatch(format!(
                    "duplicate field name '{}'",
                    f.name
                )));
            }
        }
        let fid = fields.iter().position(|f| f.primary_key).unwrap_or(0);
        let geom = fields.iter().position(|f| f.ty.is_spatial());
        let mut dates = fields
            .iter()
            .enumerate()
            .filter(|(_, f)| f.ty == FieldType::Date)
            .map(|(i, _)| i);
        let time = dates.next();
        let time_end = dates.next();
        Ok(Schema {
            fields,
            fid,
            geom,
            time,
            time_end,
        })
    }

    /// The fields in order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the schema has no columns (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Index of the record-id field.
    pub(crate) fn fid_index(&self) -> usize {
        self.fid
    }

    /// Index of the geometry field, if any.
    pub fn geom_index(&self) -> Option<usize> {
        self.geom
    }

    /// Index of the (start) time field, if any.
    pub fn time_index(&self) -> Option<usize> {
        self.time
    }

    /// Index of the end-time field, if any (plugin tables with explicit
    /// `time_start`/`time_end` columns, like trajectory).
    pub(crate) fn time_end_index(&self) -> Option<usize> {
        self.time_end
    }

    /// Finds a field index by name (case-insensitive, like SQL).
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields
            .iter()
            .position(|f| f.name.eq_ignore_ascii_case(name))
    }

    /// Validates a row against the schema.
    pub(crate) fn check_row(&self, values: &[Value]) -> crate::Result<()> {
        if values.len() != self.fields.len() {
            return Err(crate::StorageError::SchemaMismatch(format!(
                "row has {} values, schema has {} fields",
                values.len(),
                self.fields.len()
            )));
        }
        for (f, v) in self.fields.iter().zip(values) {
            if !f.ty.accepts(v) {
                return Err(crate::StorageError::SchemaMismatch(format!(
                    "value {v:?} does not fit field '{}' of type {}",
                    f.name,
                    f.ty.name()
                )));
            }
            if f.primary_key && v.is_null() {
                return Err(crate::StorageError::SchemaMismatch(format!(
                    "primary key field '{}' is NULL",
                    f.name
                )));
            }
        }
        Ok(())
    }

    /// The predefined **trajectory plugin table** schema of Figure 6:
    /// MBR, start/end points, start/end times and the compressed GPS list.
    pub fn trajectory() -> Schema {
        Schema::new(vec![
            Field::new("oid", FieldType::Str).primary(),
            Field::new("mbr", FieldType::Polygon),
            Field::new("time_start", FieldType::Date),
            Field::new("time_end", FieldType::Date),
            Field::new("point_start", FieldType::Point),
            Field::new("point_end", FieldType::Point),
            Field::new("gps_list", FieldType::StSeries).compressed(Codec::Gzip),
        ])
        .expect("trajectory schema is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_parsing() {
        assert_eq!(FieldType::parse("Integer"), Some(FieldType::Int));
        assert_eq!(FieldType::parse("ST_SERIES"), Some(FieldType::StSeries));
        assert_eq!(FieldType::parse("blob"), None);
    }

    #[test]
    fn role_detection() {
        let s = Schema::new(vec![
            Field::new("fid", FieldType::Int).primary(),
            Field::new("name", FieldType::Str),
            Field::new("time", FieldType::Date),
            Field::new("geom", FieldType::Point),
        ])
        .unwrap();
        assert_eq!(s.fid_index(), 0);
        assert_eq!(s.time_index(), Some(2));
        assert_eq!(s.geom_index(), Some(3));
        assert_eq!(s.time_end_index(), None);
        assert_eq!(s.index_of("GEOM"), Some(3));
        assert_eq!(s.index_of("missing"), None);
    }

    #[test]
    fn trajectory_plugin_schema() {
        let s = Schema::trajectory();
        assert_eq!(s.fid_index(), 0);
        assert_eq!(s.geom_index(), Some(1), "MBR is the indexed geometry");
        assert_eq!(s.time_index(), Some(2));
        assert_eq!(s.time_end_index(), Some(3));
        let gps = &s.fields()[s.index_of("gps_list").unwrap()];
        assert_eq!(gps.compress, Codec::Gzip);
    }

    #[test]
    fn row_validation() {
        let s = Schema::new(vec![
            Field::new("fid", FieldType::Int).primary(),
            Field::new("geom", FieldType::Point),
        ])
        .unwrap();
        let p = Value::Geom(just_geo::Geometry::Point(just_geo::Point::new(1.0, 2.0)));
        assert!(s.check_row(&[Value::Int(1), p.clone()]).is_ok());
        // Wrong arity.
        assert!(s.check_row(&[Value::Int(1)]).is_err());
        // Wrong type.
        assert!(s.check_row(&[Value::Str("x".into()), p.clone()]).is_err());
        // NULL primary key.
        assert!(s.check_row(&[Value::Null, p]).is_err());
        // NULL is fine elsewhere.
        assert!(s.check_row(&[Value::Int(1), Value::Null]).is_ok());
    }

    #[test]
    fn duplicate_names_rejected() {
        assert!(Schema::new(vec![
            Field::new("a", FieldType::Int),
            Field::new("a", FieldType::Str),
        ])
        .is_err());
        assert!(Schema::new(vec![]).is_err());
    }

    #[test]
    fn float_accepts_int_coercion() {
        assert!(FieldType::Float.accepts(&Value::Int(3)));
        assert!(FieldType::Date.accepts(&Value::Int(1_000)));
        assert!(!FieldType::Int.accepts(&Value::Float(3.0)));
    }
}
