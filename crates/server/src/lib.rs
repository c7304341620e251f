//! `just-server` — the network serving layer for JUST (Section VII of
//! the paper: the service layer that fronts the shared engine for many
//! concurrent clients).
//!
//! The embedded stack (`just-core` + `just-ql`) runs in one process.
//! This crate puts a socket in front of it:
//!
//! * [`frame`] — length-prefixed framing (`u32` big-endian length +
//!   UTF-8 JSON payload), with the size cap enforced from the header
//!   before any allocation.
//! * [`protocol`] — the request/response vocabulary (`hello`,
//!   `execute`, `explain_analyze`, `metrics`, `health`, `ping`,
//!   `shutdown`) and the server-layer error codes (`BUSY`, `AUTH`,
//!   `MALFORMED`, `TOO_LARGE`, `IO`).
//! * [`server`] — the listener: one thread per admitted connection,
//!   an admission gate that *sheds* load above `max_sessions` with a
//!   typed `BUSY` response (never an unbounded queue), per-connection
//!   user sessions multiplexed onto one shared [`just_core::Engine`],
//!   and coordinated graceful shutdown that drains in-flight requests.
//! * [`client`] — [`RemoteClient`], mirroring the embedded
//!   [`just_ql::Client`] API over the wire; results round-trip
//!   byte-identically (see `just_ql::wire`) and errors keep their
//!   structured codes.
//!
//! Two binaries ship with the crate: `justd` (the daemon) and
//! `just-cli` (a one-shot command-line client). The README "Serving"
//! section documents both.
//!
//! Server activity is observable through the global `just-obs`
//! registry: `just_server_connections_accepted`/`_closed`,
//! `just_server_rejected_busy`, `just_server_requests`,
//! `just_server_request_errors`, and the
//! `just_server_request_latency_us` histogram — all served back over
//! the wire by the `metrics` command.

#![deny(missing_docs)]

pub mod client;
pub mod frame;
pub mod protocol;
pub mod server;

pub use client::RemoteClient;
pub use protocol::{Request, Response};
pub use server::{Server, ServerConfig, ServerHandle};
