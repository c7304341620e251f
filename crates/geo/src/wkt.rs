//! Well-Known Text parsing.
//!
//! Supports the geometry types JUST stores: `POINT`, `LINESTRING`,
//! `POLYGON` (exterior ring only), plus the non-standard `RECT` shorthand
//! used in test fixtures. Parsing is tolerant of extra whitespace and
//! case-insensitive keywords, mirroring what `CREATE TABLE ... geom point`
//! columns accept from CSV loads.

use crate::{Geometry, LineString, Point, Polygon};
use std::fmt;

/// Error raised by [`parse_wkt`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WktError {
    msg: String,
    /// Byte offset in the input where the problem was detected.
    pub offset: usize,
}

impl fmt::Display for WktError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WKT parse error at byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for WktError {}

struct Cursor<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Self {
        Cursor { src, pos: 0 }
    }

    fn err(&self, msg: impl Into<String>) -> WktError {
        WktError {
            msg: msg.into(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while self.src[self.pos..].starts_with(|c: char| c.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn keyword(&mut self) -> String {
        self.skip_ws();
        let start = self.pos;
        while self.src[self.pos..].starts_with(|c: char| c.is_ascii_alphabetic()) {
            self.pos += 1;
        }
        self.src[start..self.pos].to_ascii_uppercase()
    }

    fn expect(&mut self, ch: char) -> Result<(), WktError> {
        self.skip_ws();
        if self.src[self.pos..].starts_with(ch) {
            self.pos += ch.len_utf8();
            Ok(())
        } else {
            Err(self.err(format!("expected '{ch}'")))
        }
    }

    fn peek(&mut self) -> Option<char> {
        self.skip_ws();
        self.src[self.pos..].chars().next()
    }

    fn number(&mut self) -> Result<f64, WktError> {
        self.skip_ws();
        let start = self.pos;
        let bytes = self.src.as_bytes();
        if self.pos < bytes.len() && (bytes[self.pos] == b'-' || bytes[self.pos] == b'+') {
            self.pos += 1;
        }
        while self.pos < bytes.len()
            && (bytes[self.pos].is_ascii_digit()
                || bytes[self.pos] == b'.'
                || bytes[self.pos] == b'e'
                || bytes[self.pos] == b'E'
                || (self.pos > start
                    && (bytes[self.pos] == b'-' || bytes[self.pos] == b'+')
                    && (bytes[self.pos - 1] == b'e' || bytes[self.pos - 1] == b'E')))
        {
            self.pos += 1;
        }
        self.src[start..self.pos]
            .parse::<f64>()
            .map_err(|_| self.err("expected a number"))
    }

    fn coordinate(&mut self) -> Result<Point, WktError> {
        let x = self.number()?;
        let y = self.number()?;
        Ok(Point::new(x, y))
    }

    /// `( p, p, p ... )`
    fn coordinate_list(&mut self) -> Result<Vec<Point>, WktError> {
        self.expect('(')?;
        let mut pts = vec![self.coordinate()?];
        while self.peek() == Some(',') {
            self.expect(',')?;
            pts.push(self.coordinate()?);
        }
        self.expect(')')?;
        Ok(pts)
    }
}

/// Parses a WKT string into a [`Geometry`].
///
/// ```
/// use just_geo::{parse_wkt, Geometry};
/// let g = parse_wkt("POINT (116.4 39.9)").unwrap();
/// assert!(matches!(g, Geometry::Point(p) if p.x == 116.4));
/// ```
pub fn parse_wkt(input: &str) -> Result<Geometry, WktError> {
    let mut c = Cursor::new(input);
    let kw = c.keyword();
    let geom = match kw.as_str() {
        "POINT" => {
            c.expect('(')?;
            let p = c.coordinate()?;
            c.expect(')')?;
            Geometry::Point(p)
        }
        "LINESTRING" => {
            let pts = c.coordinate_list()?;
            if pts.len() < 2 {
                return Err(c.err("LINESTRING needs at least 2 points"));
            }
            Geometry::LineString(LineString::new(pts))
        }
        "POLYGON" => {
            c.expect('(')?;
            let ring = c.coordinate_list()?;
            // Additional interior rings are parsed but rejected: JUST's
            // polygon model is a single exterior ring.
            if c.peek() == Some(',') {
                return Err(c.err("polygons with holes are not supported"));
            }
            c.expect(')')?;
            let poly = Polygon::new(ring);
            if poly.len() < 3 {
                return Err(c.err("POLYGON ring needs at least 3 distinct points"));
            }
            Geometry::Polygon(poly)
        }
        "RECT" => {
            c.expect('(')?;
            let a = c.coordinate()?;
            c.expect(',')?;
            let b = c.coordinate()?;
            c.expect(')')?;
            Geometry::Rect(crate::Rect::new(a.x, a.y, b.x, b.y))
        }
        other => {
            return Err(c.err(if other.is_empty() {
                "empty input".to_string()
            } else {
                format!("unknown geometry type '{other}'")
            }))
        }
    };
    c.skip_ws();
    if c.pos != input.len() {
        return Err(c.err("trailing characters after geometry"));
    }
    Ok(geom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rect;

    #[test]
    fn parse_point() {
        let g = parse_wkt("  point ( -73.97   40.78 ) ").unwrap();
        assert_eq!(g, Geometry::Point(Point::new(-73.97, 40.78)));
    }

    #[test]
    fn parse_linestring() {
        let g = parse_wkt("LINESTRING (0 0, 1 1, 2 0)").unwrap();
        match g {
            Geometry::LineString(l) => assert_eq!(l.points.len(), 3),
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn parse_polygon_closed_ring() {
        let g = parse_wkt("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))").unwrap();
        match g {
            Geometry::Polygon(p) => {
                assert_eq!(p.len(), 4);
                assert_eq!(p.mbr(), Rect::new(0.0, 0.0, 4.0, 4.0));
            }
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn parse_rect_shorthand() {
        let g = parse_wkt("RECT (0 0, 2 3)").unwrap();
        assert_eq!(g, Geometry::Rect(Rect::new(0.0, 0.0, 2.0, 3.0)));
    }

    #[test]
    fn scientific_notation() {
        let g = parse_wkt("POINT (1.5e2 -2.5E-1)").unwrap();
        assert_eq!(g, Geometry::Point(Point::new(150.0, -0.25)));
    }

    #[test]
    fn errors_carry_offsets() {
        assert!(parse_wkt("").is_err());
        assert!(parse_wkt("CIRCLE (0 0, 5)").is_err());
        assert!(parse_wkt("POINT (1)").is_err());
        assert!(parse_wkt("POINT (1 2) garbage").is_err());
        assert!(parse_wkt("LINESTRING (1 2)").is_err());
        assert!(parse_wkt("POLYGON ((0 0, 1 1), (2 2, 3 3))").is_err());
    }

    #[test]
    fn wkt_roundtrip() {
        for s in [
            "POINT (116.4 39.9)",
            "LINESTRING (0 0, 1 1, 2 0)",
            "POLYGON ((0 0, 4 0, 4 4, 0 0))",
        ] {
            let g = parse_wkt(s).unwrap();
            let rendered = g.to_wkt();
            assert_eq!(parse_wkt(&rendered).unwrap(), g);
        }
    }
}
