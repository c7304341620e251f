//! JSON support for the SQL layer and the wire protocol.
//!
//! Three pieces live here:
//!
//! * [`Json`] — the tiny flat subset used by `USERDATA { ... }` and
//!   `CONFIG { ... }` hints: string-keyed objects with string/number
//!   values (exactly what the paper's examples use), parsed from the SQL
//!   token stream.
//! * [`JsonReader`] — the one JSON lexer: a pull reader over a
//!   document's bytes. Strings without escapes come back borrowed from
//!   the document, and every value it reads or skips counts its nesting
//!   against `MAX_DEPTH`. [`crate::wire`] decodes query results with it
//!   straight into rows, and `just-server` reads response envelopes.
//! * [`JsonValue`] — a full JSON document model (null/bool/int/float/
//!   string/array/object), parsed by [`JsonReader`] and rendered with
//!   [`write_json_str`], the string escaper the wire writer shares.
//!   Wire requests are `JsonValue` documents; results never become one.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::io::Write as _;

/// A parsed hint object.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Json {
    /// Key-value pairs (values kept as strings; callers parse further).
    pub entries: BTreeMap<String, String>,
}

impl Json {
    /// Empty object.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Fetches a value.
    pub(crate) fn get(&self, key: &str) -> Option<&str> {
        self.entries.get(key).map(|s| s.as_str())
    }

    /// Inserts a pair (for tests/builders).
    pub(crate) fn set(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.entries.insert(key.into(), value.into());
    }
}

/// A full JSON value: the document model of the wire protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fraction or exponent, kept exact as `i64`.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object (sorted keys, so rendering is deterministic).
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// An empty object.
    pub fn object() -> JsonValue {
        JsonValue::Object(BTreeMap::new())
    }

    /// Builder-style insert; panics if `self` is not an object.
    pub fn with(mut self, key: &str, value: JsonValue) -> JsonValue {
        match &mut self {
            JsonValue::Object(map) => {
                map.insert(key.to_string(), value);
            }
            other => panic!("with() on non-object {other:?}"),
        }
        self
    }

    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            JsonValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Parses one JSON document (rejecting trailing garbage).
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut reader = JsonReader::new(text.as_bytes());
        let value = reader.value()?;
        reader.end()?;
        Ok(value)
    }

    /// Renders as compact JSON. Non-finite floats render as `null` (JSON
    /// has no NaN/Infinity); the wire protocol avoids this by encoding
    /// SQL floats as tagged strings (see [`crate::wire`]).
    pub fn render(&self) -> String {
        let mut out = Vec::new();
        self.write(&mut out);
        String::from_utf8(out).expect("the writer emits UTF-8")
    }

    fn write(&self, out: &mut Vec<u8>) {
        match self {
            JsonValue::Null => out.extend_from_slice(b"null"),
            JsonValue::Bool(b) => out.extend_from_slice(if *b { b"true" } else { b"false" }),
            JsonValue::Int(i) => write!(out, "{i}").expect(VEC_WRITE),
            JsonValue::Float(f) if f.is_finite() => {
                let start = out.len();
                write!(out, "{f}").expect(VEC_WRITE);
                // Keep the float/int distinction through a round-trip.
                if !out[start..].iter().any(|b| matches!(b, b'.' | b'e' | b'E')) {
                    out.extend_from_slice(b".0");
                }
            }
            JsonValue::Float(_) => out.extend_from_slice(b"null"),
            JsonValue::Str(s) => write_json_str(out, s),
            JsonValue::Array(items) => write_seq(out, b'[', items, |out, v| v.write(out), b']'),
            JsonValue::Object(map) => {
                let member = |out: &mut Vec<u8>, (k, v): (&String, &JsonValue)| {
                    write_json_str(out, k);
                    out.push(b':');
                    v.write(out);
                };
                write_seq(out, b'{', map, member, b'}');
            }
        }
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// A JSON parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl JsonError {
    fn at(offset: usize, message: impl Into<String>) -> JsonError {
        JsonError {
            offset,
            message: message.into(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Why `write!` into a `Vec<u8>` is expected to succeed.
pub(crate) const VEC_WRITE: &str = "writing to a Vec cannot fail";

/// Lower-case hex digits, by value.
pub(crate) const HEX: &[u8; 16] = b"0123456789abcdef";

/// Appends `s` as a JSON string literal: `"`, `\` and control
/// characters escaped (`\n`, `\r`, `\t` by name, the rest as `\u00xx`),
/// everything else copied as it is.
pub fn write_json_str(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    let bytes = s.as_bytes();
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.extend_from_slice(&bytes[run..i]);
        run = i + 1;
        match b {
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            b'"' | b'\\' => out.extend_from_slice(&[b'\\', b]),
            _ => {
                let hex = |nibble: u8| HEX[usize::from(nibble)];
                out.extend_from_slice(&[b'\\', b'u', b'0', b'0', hex(b >> 4), hex(b & 15)]);
            }
        }
    }
    out.extend_from_slice(&bytes[run..]);
    out.push(b'"');
}

/// Appends `items` between `open` and `close`, comma-separated.
pub(crate) fn write_seq<T>(
    out: &mut Vec<u8>,
    open: u8,
    items: impl IntoIterator<Item = T>,
    mut item: impl FnMut(&mut Vec<u8>, T),
    close: u8,
) {
    out.push(open);
    for (i, it) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        item(out, it);
    }
    out.push(close);
}

/// The value of a run of hex digits; unlike `from_str_radix`, no sign.
pub(crate) fn hex_value(digits: &[u8]) -> Option<u32> {
    digits
        .iter()
        .try_fold(0, |acc, &d| Some(acc << 4 | (d as char).to_digit(16)?))
}

/// Nesting cap for the recursive-descent parser. The wire protocol
/// parses frames from unauthenticated peers, so recursion depth must be
/// bounded: without this, a payload of millions of `[`s overflows the
/// thread stack (process abort) instead of returning an error.
const MAX_DEPTH: usize = 128;

/// A pull reader over the bytes of one JSON document. Strings without
/// escapes come back borrowed from the document, and every value read
/// or skipped counts its nesting against `MAX_DEPTH`.
pub struct JsonReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers open at `pos`.
    depth: usize,
}

impl<'a> JsonReader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        JsonReader {
            bytes,
            pos: 0,
            depth: 0,
        }
    }

    /// Reads a document that is one object: `member` gets each key with
    /// the reader at that member's value, which it must consume.
    /// Trailing characters are an error.
    pub fn read_object<E: From<JsonError>>(
        bytes: &'a [u8],
        member: impl FnMut(&mut Self, &str) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut reader = JsonReader::new(bytes);
        reader.object(member)?;
        Ok(reader.end()?)
    }

    /// Reads the next value as a document tree.
    pub fn value(&mut self) -> Result<JsonValue, JsonError> {
        self.check_depth()?;
        Ok(match self.peek() {
            Some(b'{') => {
                let mut map = BTreeMap::new();
                self.object(|r, key| -> Result<(), JsonError> {
                    map.insert(key.to_string(), r.value()?);
                    Ok(())
                })?;
                JsonValue::Object(map)
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|r| -> Result<(), JsonError> {
                    items.push(r.value()?);
                    Ok(())
                })?;
                JsonValue::Array(items)
            }
            Some(b'"') => JsonValue::Str(self.str()?.into_owned()),
            _ => self.scalar()?,
        })
    }

    /// Consumes the next value without building it.
    pub(crate) fn skip(&mut self) -> Result<(), JsonError> {
        self.check_depth()?;
        match self.peek() {
            Some(b'{') => self.object(|r, _| r.skip()),
            Some(b'[') => self.array(Self::skip),
            Some(b'"') => self.str().map(drop),
            _ => self.scalar().map(drop),
        }
    }

    /// Walks an object: `member` gets each key with the reader at its
    /// value.
    pub(crate) fn object<E: From<JsonError>>(
        &mut self,
        mut member: impl FnMut(&mut Self, &str) -> Result<(), E>,
    ) -> Result<(), E> {
        self.seq(b'{', b'}', |r| {
            let key = r.str()?;
            r.expect(b':')?;
            member(r, &key)
        })
    }

    /// Walks an array: `item` gets the reader at each element.
    pub(crate) fn array<E: From<JsonError>>(
        &mut self,
        item: impl FnMut(&mut Self) -> Result<(), E>,
    ) -> Result<(), E> {
        self.seq(b'[', b']', item)
    }

    fn seq<E: From<JsonError>>(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), E>,
    ) -> Result<(), E> {
        self.expect(open)?;
        self.depth += 1;
        if !self.eat(close) {
            loop {
                item(self)?;
                if self.eat(close) {
                    break;
                }
                if !self.eat(b',') {
                    let msg = format!("expected ',' or '{}'", close as char);
                    return Err(self.error(msg).into());
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// A string, borrowed from the document when it holds no escape.
    pub(crate) fn str(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let bytes = self.bytes;
        let start = self.pos;
        // `out` holds the text decoded so far once an escape is met;
        // `run` is where the unescaped stretch after it begins.
        let (mut out, mut run) = (Vec::new(), start);
        loop {
            let stop = bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\');
            let Some(n) = stop else {
                return Err(JsonError::at(bytes.len(), "unterminated string"));
            };
            self.pos += n + 1;
            if bytes[self.pos - 1] == b'"' {
                break;
            }
            out.extend_from_slice(&bytes[run..self.pos - 1]);
            self.escape(&mut out)?;
            run = self.pos;
        }
        let tail = &bytes[run..self.pos - 1];
        let text = if run == start {
            std::str::from_utf8(tail).map(Cow::Borrowed).ok()
        } else {
            out.extend_from_slice(tail);
            String::from_utf8(out).map(Cow::Owned).ok()
        };
        text.ok_or_else(|| self.error("invalid UTF-8"))
    }

    /// Decodes the escape after a backslash onto `out`.
    fn escape(&mut self, out: &mut Vec<u8>) -> Result<(), JsonError> {
        let Some(&esc) = self.bytes.get(self.pos) else {
            return Err(self.error("unterminated escape"));
        };
        self.pos += 1;
        let byte = match esc {
            b'"' | b'\\' | b'/' => esc,
            b'n' => b'\n',
            b'r' => b'\r',
            b't' => b'\t',
            b'b' => 0x08,
            b'f' => 0x0c,
            b'u' => {
                let c = self.unicode_escape()?;
                out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                return Ok(());
            }
            other => return Err(self.error(format!("bad escape '\\{}'", other as char))),
        };
        out.push(byte);
        Ok(())
    }

    /// The character of a `\uXXXX` escape; a high surrogate takes the
    /// low-surrogate escape that must follow it.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let first = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&first) {
            if !self.bytes[self.pos..].starts_with(b"\\u") {
                return Err(self.error("lone high surrogate"));
            }
            self.pos += 2;
            let second = self.hex4()?;
            if !(0xDC00..0xE000).contains(&second) {
                return Err(self.error("invalid low surrogate"));
            }
            0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
        } else {
            first
        };
        char::from_u32(code).ok_or_else(|| self.error("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self.bytes.get(self.pos..self.pos + 4).and_then(hex_value);
        let v = digits.ok_or_else(|| self.error("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    /// `null`, `true`, `false` or a number.
    fn scalar(&mut self) -> Result<JsonValue, JsonError> {
        let (word, value) = match self.peek() {
            None => return Err(self.error("unexpected end of input")),
            Some(b'n') => ("null", JsonValue::Null),
            Some(b't') => ("true", JsonValue::Bool(true)),
            Some(b'f') => ("false", JsonValue::Bool(false)),
            Some(_) => return self.number(),
        };
        if !self.bytes[self.pos..].starts_with(word.as_bytes()) {
            return Err(self.error(format!("expected '{word}'")));
        }
        self.pos += word.len();
        Ok(value)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => is_float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or_default();
        if text.is_empty() || text == "-" {
            return Err(JsonError::at(start, "expected a value"));
        }
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(JsonValue::Int(i));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|_| JsonError::at(start, format!("bad number '{text}'")))
    }

    fn check_depth(&self) -> Result<(), JsonError> {
        if self.depth > MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    /// The next byte past whitespace, not consumed.
    pub(crate) fn peek(&mut self) -> Option<u8> {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.eat(byte) {
            return Ok(());
        }
        Err(self.error(format!("expected '{}'", byte as char)))
    }

    /// Checks that only whitespace is left.
    pub(crate) fn end(&mut self) -> Result<(), JsonError> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.error("trailing characters")),
        }
    }

    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError::at(self.pos, message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_access() {
        let mut j = Json::new();
        j.set("geomesa.indices.enabled", "z3");
        assert_eq!(j.get("geomesa.indices.enabled"), Some("z3"));
        assert_eq!(j.get("missing"), None);
    }

    fn roundtrip(text: &str) -> JsonValue {
        let v = JsonValue::parse(text).unwrap();
        let rendered = v.render();
        assert_eq!(JsonValue::parse(&rendered).unwrap(), v, "{text}");
        v
    }

    #[test]
    fn scalars_roundtrip() {
        assert_eq!(roundtrip("null"), JsonValue::Null);
        assert_eq!(roundtrip("true"), JsonValue::Bool(true));
        assert_eq!(roundtrip("-42"), JsonValue::Int(-42));
        assert_eq!(roundtrip("9223372036854775807"), JsonValue::Int(i64::MAX));
        assert_eq!(roundtrip("1.5"), JsonValue::Float(1.5));
        assert_eq!(roundtrip("1e3"), JsonValue::Float(1000.0));
        assert_eq!(roundtrip("\"héllo\\n\\\"w\\\"\""), {
            JsonValue::Str("héllo\n\"w\"".into())
        });
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(
            JsonValue::parse("\"\\u00e9\\ud83d\\ude00\"").unwrap(),
            JsonValue::Str("é😀".into())
        );
        assert!(JsonValue::parse("\"\\ud83d\"").is_err());
    }

    #[test]
    fn nested_structures_roundtrip() {
        let v = roundtrip(r#"{"a":[1,2.5,"x",null,true],"b":{"c":[]}}"#);
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 5);
        assert_eq!(
            v.get("b").unwrap().get("c"),
            Some(&JsonValue::Array(vec![]))
        );
    }

    #[test]
    fn floats_keep_their_type_through_roundtrip() {
        let v = JsonValue::Float(3.0);
        assert_eq!(v.render(), "3.0");
        assert_eq!(JsonValue::parse("3.0").unwrap(), JsonValue::Float(3.0));
        assert_eq!(JsonValue::parse("3").unwrap(), JsonValue::Int(3));
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "", "{", "[1,", "{\"a\"}", "{\"a\":}", "tru", "1.2.3", "\"abc", "[1] x", "nan", "-",
            "{1:2}",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn deep_nesting_is_rejected_not_a_stack_overflow() {
        // Just under the cap parses fine.
        let ok = format!("{}0{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(JsonValue::parse(&ok).is_ok());
        // A hostile million-bracket payload must return an error, not
        // blow the stack.
        for open in ["[", "{\"k\":"] {
            let hostile = open.repeat(1_000_000);
            let err = JsonValue::parse(&hostile).unwrap_err();
            assert!(err.message.contains("nesting"), "{}", err.message);
        }
    }

    #[test]
    fn builder_and_accessors() {
        let v = JsonValue::object()
            .with("op", JsonValue::Str("execute".into()))
            .with("n", JsonValue::Int(3));
        assert_eq!(v.get("op").unwrap().as_str(), Some("execute"));
        assert_eq!(v.get("n").unwrap().as_int(), Some(3));
        assert_eq!(v.get("missing"), None);
    }
}
