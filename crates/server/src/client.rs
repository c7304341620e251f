//! [`RemoteClient`]: the embedded [`just_ql::Client`] API over a socket.
//!
//! `execute` and `explain_analyze` mirror the embedded client's
//! signatures, so switching an application between in-process and
//! served execution is a constructor swap (see `examples/server.rs` at
//! the workspace root). Transport failures surface as
//! [`QlError::Remote`] with code `IO`; server-side failures keep their
//! structured code ([`QlError::code`] round-trips the wire).

use crate::frame::{read_frame, write_frame, FrameError};
use crate::protocol::{codes, Request, Response};
use just_core::Dataset;
use just_ql::{QlError, QueryResult};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Frames the client will accept from the server (metrics expositions
/// and large result sets are bigger than typical requests).
const CLIENT_MAX_FRAME: usize = 64 * 1024 * 1024;

/// A connection to a `justd` server, authenticated as one user.
pub struct RemoteClient {
    stream: TcpStream,
}

impl RemoteClient {
    /// Connects and authenticates as `user` (the session namespace).
    pub fn connect(addr: impl ToSocketAddrs, user: &str) -> just_ql::Result<Self> {
        let stream = TcpStream::connect(addr).map_err(io_err)?;
        stream.set_nodelay(true).ok();
        let mut client = RemoteClient { stream };
        match client.call(&Request::Hello {
            user: user.to_string(),
        })? {
            Response::Text(_) => Ok(client),
            other => Err(unexpected(other)),
        }
    }

    /// Sets a receive deadline for each response (default: wait
    /// indefinitely).
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> just_ql::Result<()> {
        self.stream.set_read_timeout(timeout).map_err(io_err)
    }

    /// Parses, optimizes and executes one statement on the server —
    /// the remote mirror of [`just_ql::Client::execute`].
    pub fn execute(&mut self, sql: &str) -> just_ql::Result<QueryResult> {
        match self.call(&Request::Execute {
            sql: sql.to_string(),
        })? {
            Response::Result(r) => Ok(r),
            other => Err(unexpected(other)),
        }
    }

    /// Executes a SELECT and returns rows plus the rendered
    /// per-operator trace — the remote mirror of
    /// [`just_ql::Client::explain_analyze`] (the trace arrives
    /// pre-rendered; span arenas do not cross the wire).
    pub fn explain_analyze(&mut self, sql: &str) -> just_ql::Result<(Dataset, String)> {
        match self.call(&Request::ExplainAnalyze {
            sql: sql.to_string(),
        })? {
            Response::Traced { data, trace } => Ok((data, trace)),
            other => Err(unexpected(other)),
        }
    }

    /// The server's Prometheus-style metrics exposition.
    pub fn metrics_text(&mut self) -> just_ql::Result<String> {
        self.expect_text(&Request::Metrics)
    }

    /// Health check: `"ok"` serving, `"draining"` during shutdown.
    pub fn health(&mut self) -> just_ql::Result<String> {
        self.expect_text(&Request::Health)
    }

    /// Round-trip no-op.
    pub fn ping(&mut self) -> just_ql::Result<String> {
        self.expect_text(&Request::Ping)
    }

    /// Asks the server to drain and stop; returns its acknowledgement.
    pub fn shutdown_server(&mut self) -> just_ql::Result<String> {
        self.expect_text(&Request::Shutdown)
    }

    fn expect_text(&mut self, req: &Request) -> just_ql::Result<String> {
        match self.call(req)? {
            Response::Text(t) => Ok(t),
            other => Err(unexpected(other)),
        }
    }

    /// One request/response exchange. Server-side errors become typed
    /// [`QlError`]s via [`QlError::from_wire`].
    fn call(&mut self, req: &Request) -> just_ql::Result<Response> {
        write_frame(&mut self.stream, req.to_json().render().as_bytes()).map_err(io_err)?;
        let payload =
            read_frame(&mut self.stream, CLIENT_MAX_FRAME, &mut || true).map_err(frame_err)?;
        match Response::from_bytes(&payload)? {
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
