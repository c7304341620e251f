//! `justd` — the JUST serving daemon.
//!
//! ```text
//! justd --data DIR [--addr HOST:PORT] [--max-sessions N]
//!       [--users a,b,c] [--port-file PATH]
//!       [--wal-sync off|batched|per-write]
//!       [--slow-query-ms N] [--region-split-bytes N]
//! ```
//!
//! Opens (or creates) the engine at `--data`, binds the listener
//! (`--addr` defaults to `127.0.0.1:0`, an ephemeral port), prints
//! `justd listening on ADDR`, and serves until a client sends the
//! `shutdown` command, then drains and exits 0. `--port-file` writes
//! the bound port (just the number) to a file, which is how scripts
//! coordinate with an ephemeral port (see `ci.sh`).
//!
//! Durability: the write-ahead log is on by default with the `batched`
//! sync policy (acknowledged writes survive `kill -9`; a bounded window
//! can be lost to power failure). `--wal-sync per-write` fsyncs (group
//! commit) before acknowledging; `--wal-sync off` disables logging
//! entirely (fastest, volatile).
//!
//! Ingest concurrency: each region has one memtable in front of one
//! group-committed WAL, so concurrent writers share an fsync.
//!
//! Region lifecycle: the maintenance scheduler auto-splits any region
//! whose footprint crosses `--region-split-bytes` (default 256 MiB;
//! 0 disables auto-splitting — manual `SPLIT REGION` still works).

use just_core::{Engine, EngineConfig};
use just_kvstore::SyncPolicy;
use just_server::{Server, ServerConfig};
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut data: Option<String> = None;
    let mut cfg = ServerConfig::default();
    let mut engine_cfg = EngineConfig::default();
    let mut port_file: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        let flag = args[i].clone();
        if flag == "--help" || flag == "-h" {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        i += 1;
        let Some(value) = args.get(i).cloned() else {
            eprintln!("justd: {flag} needs a value\n{USAGE}");
            return ExitCode::from(2);
        };
        match flag.as_str() {
            "--data" => data = Some(value),
            "--addr" => cfg.addr = value,
            "--max-sessions" => match value.parse() {
                Ok(n) => cfg.max_sessions = n,
                Err(_) => {
                    eprintln!("justd: bad --max-sessions '{value}'\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--users" => cfg.users = Some(value.split(',').map(|s| s.trim().to_string()).collect()),
            "--port-file" => port_file = Some(value),
            "--wal-sync" => match SyncPolicy::parse(&value) {
                Some(p) => engine_cfg.store.wal_sync = p,
                None => {
                    eprintln!("justd: bad --wal-sync '{value}' (off|batched|per-write)\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            // Auto-split threshold in bytes; 0 disables auto-splits.
            "--region-split-bytes" => match value.parse::<usize>() {
                Ok(n) => engine_cfg.store.maintenance.split_bytes = n,
                Err(_) => {
                    eprintln!("justd: bad --region-split-bytes '{value}'\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            // Slow-query threshold in milliseconds; 0 disables the log.
            "--slow-query-ms" => match value.parse() {
                Ok(ms) => engine_cfg.slow_query_ms = ms,
                Err(_) => {
                    eprintln!("justd: bad --slow-query-ms '{value}'\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("justd: unknown flag '{other}'\n{USAGE}");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }
    let Some(data) = data else {
        eprintln!("justd: --data DIR is required\n{USAGE}");
        return ExitCode::from(2);
    };

    let engine = match Engine::open(std::path::Path::new(&data), engine_cfg) {
        Ok(e) => Arc::new(e),
        Err(e) => {
            eprintln!("justd: cannot open engine at '{data}': {e}");
            return ExitCode::FAILURE;
        }
    };
    let handle = match Server::start(engine, cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("justd: cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = handle.local_addr();
    if let Some(path) = port_file {
        if let Err(e) = std::fs::write(&path, format!("{}\n", addr.port())) {
            eprintln!("justd: cannot write port file '{path}': {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("justd listening on {addr}");
    handle.wait();
    println!("justd: drained, bye");
    ExitCode::SUCCESS
}

const USAGE: &str = "usage: justd --data DIR [--addr HOST:PORT] [--max-sessions N] \
[--users a,b,c] [--port-file PATH] [--wal-sync off|batched|per-write] \
[--slow-query-ms N] [--region-split-bytes N]";
