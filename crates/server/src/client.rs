//! [`RemoteClient`]: the embedded [`just_ql::Client`] API over a socket.
//!
//! `execute` and `explain_analyze` mirror the embedded client's
//! signatures, so switching an application between in-process and
//! served execution is a constructor swap (see `examples/server.rs` at
//! the workspace root). Transport failures surface as
//! [`QlError::Remote`] with code `IO`; server-side failures keep their
//! structured code ([`QlError::code`] round-trips the wire).

use crate::frame::{read_frame_into, shrink_kept, write_frame, FrameError};
use crate::protocol::{codes, write_request, Response};
use just_core::Dataset;
use just_ql::{QlError, QueryResult};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Frames the client will accept from the server (metrics expositions
/// and large result sets are bigger than typical requests).
const CLIENT_MAX_FRAME: usize = 64 * 1024 * 1024;

/// A connection to a `justd` server, authenticated as one user. It
/// encodes requests and reads responses in one buffer it keeps across
/// calls.
pub struct RemoteClient {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl RemoteClient {
    /// Connects and authenticates as `user` (the session namespace).
    pub fn connect(addr: impl ToSocketAddrs, user: &str) -> just_ql::Result<Self> {
        let stream = TcpStream::connect(addr).map_err(io_err)?;
        stream.set_nodelay(true).ok();
        let mut client = RemoteClient {
            stream,
            buf: Vec::new(),
        };
        match client.call("hello", Some(("user", user)))? {
            Response::Text(_) => Ok(client),
            other => Err(unexpected(other)),
        }
    }

    /// Sets the socket's read timeout: a response read that waits
    /// longer fails with an `IO` error (default: wait indefinitely).
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> just_ql::Result<()> {
        self.stream.set_read_timeout(timeout).map_err(io_err)
    }

    /// Parses, optimizes and executes one statement on the server —
    /// the remote mirror of [`just_ql::Client::execute`].
    pub fn execute(&mut self, sql: &str) -> just_ql::Result<QueryResult> {
        match self.call("execute", Some(("sql", sql)))? {
            Response::Result(r) => Ok(r),
            other => Err(unexpected(other)),
        }
    }

    /// Executes a SELECT and returns rows plus the rendered
    /// per-operator trace — the remote mirror of
    /// [`just_ql::Client::explain_analyze`] (the trace arrives
    /// pre-rendered; span arenas do not cross the wire).
    pub fn explain_analyze(&mut self, sql: &str) -> just_ql::Result<(Dataset, String)> {
        match self.call("explain_analyze", Some(("sql", sql)))? {
            Response::Traced { data, trace } => Ok((data, trace)),
            other => Err(unexpected(other)),
        }
    }

    /// The server's Prometheus-style metrics exposition.
    pub fn metrics_text(&mut self) -> just_ql::Result<String> {
        self.expect_text("metrics")
    }

    /// Health check: `"ok"` serving, `"draining"` during shutdown.
    pub fn health(&mut self) -> just_ql::Result<String> {
        self.expect_text("health")
    }

    /// Round-trip no-op.
    pub fn ping(&mut self) -> just_ql::Result<String> {
        self.expect_text("ping")
    }

    /// Asks the server to drain and stop; returns its acknowledgement.
    pub fn shutdown_server(&mut self) -> just_ql::Result<String> {
        self.expect_text("shutdown")
    }

    fn expect_text(&mut self, op: &str) -> just_ql::Result<String> {
        match self.call(op, None)? {
            Response::Text(t) => Ok(t),
            other => Err(unexpected(other)),
        }
    }

    /// One exchange of request `op`, with its one string `member`.
    /// Server-side errors become typed [`QlError`]s via
    /// [`QlError::from_wire`].
    fn call(&mut self, op: &str, member: Option<(&str, &str)>) -> just_ql::Result<Response> {
        self.buf.clear();
        write_request(&mut self.buf, op, member);
        let response = write_frame(&mut self.stream, &self.buf)
            .map_err(io_err)
            .and_then(|()| {
                let (stream, buf) = (&mut self.stream, &mut self.buf);
                read_frame_into(stream, buf, CLIENT_MAX_FRAME).map_err(frame_err)
            })
            .and_then(|()| Response::from_bytes(&self.buf));
        shrink_kept(&mut self.buf);
        match response? {
            Response::Error {
                code,
                message,
                request_id,
            } => {
                // Quote the server's request id so a failure report can
                // be found again in `SHOW EVENTS` / the server log.
                let message = match request_id {
                    Some(id) => format!("{message} (request id {id})"),
                    None => message,
                };
                Err(QlError::from_wire(&code, message))
            }
            ok => Ok(ok),
        }
    }
}

fn io_err(e: std::io::Error) -> QlError {
    QlError::from_wire(codes::IO, e.to_string())
}

fn frame_err(e: FrameError) -> QlError {
    match e {
        FrameError::TooLarge { len, max } => QlError::from_wire(
            codes::TOO_LARGE,
            format!("response frame of {len} bytes exceeds cap of {max}"),
        ),
        other => QlError::from_wire(codes::IO, other.to_string()),
    }
}

fn unexpected(r: Response) -> QlError {
    QlError::from_wire(codes::MALFORMED, format!("unexpected response {r:?}"))
}
