//! The request/response vocabulary of the wire protocol.
//!
//! Every frame payload is one JSON object. Requests carry an `"op"`
//! discriminator; responses carry `"ok"`. The first request on a
//! connection must be `hello`, which binds the connection to a named
//! user session (the paper's multi-tenant namespace isolation — Section
//! VII-A); read-only operational commands (`ping`, `health`, `metrics`)
//! are allowed without one. `shutdown` is too on an open server, but
//! once a user allowlist is configured it requires an authenticated
//! session — an unauthenticated remote stop is a safety hole the moment
//! the server binds a non-loopback address.
//!
//! ```text
//! -> {"op":"hello","user":"alice"}
//! <- {"ok":true,"text":"hello alice"}
//! -> {"op":"execute","sql":"SELECT ..."}
//! <- {"ok":true,"result":{"kind":"data","columns":[...],"rows":[...]}}
//! -> {"op":"execute","sql":"SELEKT"}
//! <- {"ok":false,"code":"PARSE","message":"parse error: ..."}
//! ```
//!
//! Requests travel as [`JsonValue`] documents. Responses never become
//! one: [`Response::to_bytes`] writes the frame payload straight from the
//! rows (keys in sorted order, the order a document tree renders), and
//! [`Response::from_bytes`] reads it back into rows with a
//! [`JsonReader`].

use just_core::Dataset;
use just_ql::{wire, write_json_str, JsonReader, JsonValue, QlError, QueryResult};
use std::io::Write as _;

/// Server-layer error codes (SQL-layer codes come from
/// [`QlError::code`]).
pub mod codes {
    /// Admission control shed this connection; retry later.
    pub const BUSY: &str = "BUSY";
    /// Missing/failed `hello`, or a user not on the allowlist.
    pub const AUTH: &str = "AUTH";
    /// Unparseable frame payload or unknown request shape.
    pub const MALFORMED: &str = "MALFORMED";
    /// Frame exceeded the size cap.
    pub const TOO_LARGE: &str = "TOO_LARGE";
    /// Transport failure talking to a remote server.
    pub const IO: &str = "IO";
}

/// One client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Binds the connection to a user session. Must come first.
    Hello {
        /// Session user name (the namespace).
        user: String,
    },
    /// Parse/optimize/execute one statement.
    Execute {
        /// The JustQL statement.
        sql: String,
    },
    /// Execute a SELECT and return rows plus the per-operator trace.
    ExplainAnalyze {
        /// The JustQL query.
        sql: String,
    },
    /// Prometheus-style text exposition of the `just-obs` registry.
    Metrics,
    /// Liveness/readiness check.
    Health,
    /// Round-trip no-op.
    Ping,
    /// Ask the server to drain and stop.
    Shutdown,
}

impl Request {
    /// The op name and the one string member the request carries.
    fn parts(&self) -> (&'static str, Option<(&'static str, &str)>) {
        match self {
            Request::Hello { user } => ("hello", Some(("user", user))),
            Request::Execute { sql } => ("execute", Some(("sql", sql))),
            Request::ExplainAnalyze { sql } => ("explain_analyze", Some(("sql", sql))),
            Request::Metrics => ("metrics", None),
            Request::Health => ("health", None),
            Request::Ping => ("ping", None),
            Request::Shutdown => ("shutdown", None),
        }
    }

    /// Encodes as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        let (op, member) = self.parts();
        let j = JsonValue::object().with("op", JsonValue::Str(op.into()));
        match member {
            Some((key, value)) => j.with(key, JsonValue::Str(value.into())),
            None => j,
        }
    }

    /// Decodes a request, reporting *what* is malformed.
    pub fn from_json(j: &JsonValue) -> Result<Request, String> {
        let op = j
            .get("op")
            .and_then(|o| o.as_str())
            .ok_or_else(|| "missing 'op'".to_string())?;
        let str_field = |name: &str| -> Result<String, String> {
            j.get(name)
                .and_then(|f| f.as_str())
                .map(|s| s.to_string())
                .ok_or_else(|| format!("'{op}' needs a string '{name}'"))
        };
        match op {
            "hello" => Ok(Request::Hello {
                user: str_field("user")?,
            }),
            "execute" => Ok(Request::Execute {
                sql: str_field("sql")?,
            }),
            "explain_analyze" => Ok(Request::ExplainAnalyze {
                sql: str_field("sql")?,
            }),
            "metrics" => Ok(Request::Metrics),
            "health" => Ok(Request::Health),
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op '{other}'")),
        }
    }
}

/// Appends the frame payload of request `op` with its one string
/// `member`: the bytes `Request::to_json().render()` gives, built
/// without either.
pub(crate) fn write_request(out: &mut Vec<u8>, op: &str, member: Option<(&str, &str)>) {
    out.extend_from_slice(br#"{"op":"#);
    write_json_str(out, op);
    if let Some((key, value)) = member {
        out.push(b',');
        write_json_str(out, key);
        out.push(b':');
        write_json_str(out, value);
    }
    out.push(b'}');
}

/// One server response.
#[derive(Debug)]
pub enum Response {
    /// A query result (rows or a status message).
    Result(QueryResult),
    /// An `EXPLAIN ANALYZE` result: rows plus the rendered trace tree.
    Traced {
        /// The query's rows.
        data: Dataset,
        /// `Trace::render()` output.
        trace: String,
    },
    /// Plain text (metrics exposition, health, pong).
    Text(String),
    /// A typed error.
    Error {
        /// Structured code (`codes::*` or [`QlError::code`]).
        code: String,
        /// Human-readable message.
        message: String,
        /// Server-assigned request id, when the error came from an
        /// identified request — the correlation handle back into
        /// `SHOW QUERIES` / `SHOW EVENTS` and the server's slow-query
        /// log.
        request_id: Option<u64>,
    },
}

impl Response {
    /// A typed error from a code and message.
    pub fn error(code: &str, message: impl Into<String>) -> Response {
        Response::Error {
            code: code.to_string(),
            message: message.into(),
            request_id: None,
        }
    }

    /// A typed error from a SQL-layer failure. The *inner* message goes
    /// on the wire (the code already carries the category), so the
    /// client's reconstructed [`QlError`] displays identically to the
    /// server-side original instead of double-prefixing.
    pub fn from_ql_error(e: &QlError) -> Response {
        Response::Error {
            code: e.code().to_string(),
            message: e.message(),
            request_id: None,
        }
    }

    /// Stamps an error response with the server's request id (no-op for
    /// success shapes), so clients can quote the id when reporting a
    /// failure and operators can find it in the event log.
    pub fn tag_request(self, id: u64) -> Response {
        match self {
            Response::Error {
                code,
                message,
                request_id: _,
            } => Response::Error {
                code,
                message,
                request_id: Some(id),
            },
            other => other,
        }
    }

    /// Renders to frame-payload bytes: [`Response::write_to`] a new
    /// buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_to(&mut out);
        out
    }

    /// Appends the frame payload to `out`, writing a result straight
    /// from its rows. Keys come in sorted order, as a document tree
    /// renders them.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        match self {
            Response::Result(r) => {
                out.extend_from_slice(br#"{"ok":true,"result":"#);
                wire::write_result(out, r);
            }
            Response::Traced { data, trace } => {
                out.extend_from_slice(br#"{"ok":true,"result":"#);
                wire::write_data(out, data);
                out.extend_from_slice(br#","trace":"#);
                write_json_str(out, trace);
            }
            Response::Text(t) => {
                out.extend_from_slice(br#"{"ok":true,"text":"#);
                write_json_str(out, t);
            }
            Response::Error {
                code,
                message,
                request_id,
            } => {
                out.extend_from_slice(br#"{"code":"#);
                write_json_str(out, code);
                out.extend_from_slice(br#","message":"#);
                write_json_str(out, message);
                out.extend_from_slice(br#","ok":false"#);
                if let Some(id) = request_id {
                    write!(out, r#","request_id":{}"#, *id as i64)
                        .expect("writing to a Vec cannot fail");
                }
            }
        }
        out.push(b'}');
    }

    /// Decodes frame-payload bytes, reading a result straight into rows.
    /// Members may come in any order and unknown ones are skipped; every
    /// failure is a `MALFORMED` error.
    pub fn from_bytes(bytes: &[u8]) -> Result<Response, QlError> {
        let (mut ok, mut result, mut trace, mut text) = (None, None, None, None);
        let (mut code, mut message, mut request_id) = (None, None, None);
        JsonReader::read_object(bytes, |r, key| -> Result<(), QlError> {
            if key == "result" {
                result = Some(wire::read_result(r)?);
                return Ok(());
            }
            // A scalar member of another type is as good as absent.
            match (key, r.value()?) {
                ("ok", JsonValue::Bool(b)) => ok = Some(b),
                ("trace", JsonValue::Str(s)) => trace = Some(s),
                ("text", JsonValue::Str(s)) => text = Some(s),
                ("code", JsonValue::Str(s)) => code = Some(s),
                ("message", JsonValue::Str(s)) => message = Some(s),
                ("request_id", JsonValue::Int(i)) => request_id = Some(i as u64),
                _ => {}
            }
            Ok(())
        })?;
        let malformed = |why: &str| QlError::from_wire(codes::MALFORMED, why);
        match (ok, result, trace, text) {
            (Some(true), Some(result), Some(trace), _) => match result {
                QueryResult::Data(data) => Ok(Response::Traced { data, trace }),
                QueryResult::Message(_) => Err(malformed("traced response without rows")),
            },
            (Some(true), Some(result), None, _) => Ok(Response::Result(result)),
            (Some(true), None, _, Some(text)) => Ok(Response::Text(text)),
            (Some(true), None, _, None) => Err(malformed("ok response without result or text")),
            (Some(false), ..) => Ok(Response::Error {
                code: code.unwrap_or_else(|| codes::MALFORMED.to_string()),
                message: message.unwrap_or_default(),
                request_id,
            }),
            (None, ..) => Err(malformed("missing 'ok'")),
        }
    }

    /// Decodes a response document: [`Response::from_bytes`] of its
    /// rendering.
    pub fn from_json(j: &JsonValue) -> Result<Response, QlError> {
        Response::from_bytes(j.render().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use just_storage::{Row, Value};

    #[test]
    fn requests_roundtrip() {
        let cases = [
            Request::Hello {
                user: "alice".into(),
            },
            Request::Execute {
                sql: "SELECT 1".into(),
            },
            Request::ExplainAnalyze {
                sql: "SELECT fid FROM t".into(),
            },
            Request::Metrics,
            Request::Health,
            Request::Ping,
            Request::Shutdown,
        ];
        for req in cases {
            let rendered = req.to_json().render();
            let j = JsonValue::parse(&rendered).unwrap();
            assert_eq!(Request::from_json(&j).unwrap(), req);
            let (op, member) = req.parts();
            let mut written = Vec::new();
            write_request(&mut written, op, member);
            assert_eq!(written, rendered.as_bytes());
        }
        let mut written = Vec::new();
        let sql = "SELECT 'a\"b\\c\n'";
        write_request(&mut written, "execute", Some(("sql", sql)));
        let tree = Request::Execute { sql: sql.into() }.to_json().render();
        assert_eq!(written, tree.as_bytes());
    }

    #[test]
    fn malformed_requests_name_the_problem() {
        let no_op = JsonValue::parse("{}").unwrap();
        assert!(Request::from_json(&no_op).unwrap_err().contains("op"));
        let bad_op = JsonValue::parse(r#"{"op":"fly"}"#).unwrap();
        assert!(Request::from_json(&bad_op).unwrap_err().contains("fly"));
        let no_sql = JsonValue::parse(r#"{"op":"execute"}"#).unwrap();
        assert!(Request::from_json(&no_sql).unwrap_err().contains("sql"));
    }

    #[test]
    fn responses_roundtrip() {
        let data = Dataset::new(vec!["n".into()], vec![Row::new(vec![Value::Int(7)])]);
        let r = Response::Result(QueryResult::Data(data.clone()));
        let j = JsonValue::parse(std::str::from_utf8(&r.to_bytes()).unwrap()).unwrap();
        match Response::from_json(&j).unwrap() {
            Response::Result(QueryResult::Data(d)) => assert_eq!(d, data),
            other => panic!("wrong shape {other:?}"),
        }

        let r = Response::Traced {
            data: data.clone(),
            trace: "query 1ms\n  scan 1ms".into(),
        };
        match Response::from_bytes(&r.to_bytes()).unwrap() {
            Response::Traced { data: d, trace } => {
                assert_eq!(d, data);
                assert!(trace.contains("scan"));
            }
            other => panic!("wrong shape {other:?}"),
        }

        let r = Response::error(codes::BUSY, "at capacity (64 sessions)");
        match Response::from_bytes(&r.to_bytes()).unwrap() {
            Response::Error {
                code,
                message,
                request_id,
            } => {
                assert_eq!(code, "BUSY");
                assert!(message.contains("capacity"));
                assert_eq!(request_id, None);
            }
            other => panic!("wrong shape {other:?}"),
        }
    }

    #[test]
    fn error_request_ids_ride_the_wire() {
        let r = Response::from_ql_error(&QlError::Parse("oops".into())).tag_request(42);
        match Response::from_bytes(&r.to_bytes()).unwrap() {
            Response::Error {
                code, request_id, ..
            } => {
                assert_eq!(code, "PARSE");
                assert_eq!(request_id, Some(42));
            }
            other => panic!("wrong shape {other:?}"),
        }
        // tag_request is a no-op on success shapes.
        match Response::Text("pong".into()).tag_request(7) {
            Response::Text(t) => assert_eq!(t, "pong"),
            other => panic!("wrong shape {other:?}"),
        }
    }

    #[test]
    fn error_frames_carry_the_structured_code() {
        let r = Response::from_ql_error(&QlError::Parse("unexpected token".into()));
        let j = JsonValue::parse(std::str::from_utf8(&r.to_bytes()).unwrap()).unwrap();
        assert_eq!(j.get("code").unwrap().as_str(), Some("PARSE"));
        assert!(j
            .get("message")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("unexpected token"));
    }
}
