//! End-to-end serving tests: many concurrent clients against one
//! server, admission-control shedding, graceful drain, and hostile
//! frames — the acceptance bar for the serving layer.

use just_core::{Dataset, Engine, EngineConfig, SessionManager};
use just_ql::{Client, JsonValue, QueryResult};
use just_server::{RemoteClient, Server, ServerConfig};
use just_storage::Value;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn fresh(name: &str) -> (Arc<Engine>, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "just-server-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let engine = Arc::new(Engine::open(&dir, EngineConfig::default()).unwrap());
    (engine, dir)
}

/// Seeds a shared table in user `u`'s namespace through the embedded
/// stack, so remote sessions for the same user see it.
fn seed(engine: &Arc<Engine>, user: &str) {
    let sessions = SessionManager::new(engine.clone());
    let mut c = Client::new(sessions.session(user));
    c.execute("CREATE TABLE pts (fid integer:primary key, time date, geom point)")
        .unwrap();
    for fid in 0..200i64 {
        let lng = 116.0 + (fid % 20) as f64 * 0.01;
        let lat = 39.5 + (fid / 20) as f64 * 0.01;
        let t = fid * 60_000;
        c.execute(&format!(
            "INSERT INTO pts VALUES ({fid}, {t}, 'POINT({lng} {lat})')"
        ))
        .unwrap();
    }
}

const RANGE_SQL: &str = "SELECT fid FROM pts WHERE geom WITHIN \
     st_makeMBR(116.0, 39.5, 116.1, 39.55) ORDER BY fid";

fn embedded_result(engine: &Arc<Engine>, user: &str, sql: &str) -> Dataset {
    let sessions = SessionManager::new(engine.clone());
    let mut c = Client::new(sessions.session(user));
    c.execute(sql).unwrap().into_dataset().unwrap()
}

// ---------------------------------------------------------------- raw frames

fn send_raw(stream: &mut TcpStream, payload: &[u8]) {
    stream
        .write_all(&(payload.len() as u32).to_be_bytes())
        .unwrap();
    stream.write_all(payload).unwrap();
}

fn recv_raw(stream: &mut TcpStream) -> Option<Vec<u8>> {
    let mut header = [0u8; 4];
    if stream.read_exact(&mut header).is_err() {
        return None;
    }
    let mut payload = vec![0u8; u32::from_be_bytes(header) as usize];
    stream.read_exact(&mut payload).ok()?;
    Some(payload)
}

fn recv_json(stream: &mut TcpStream) -> Option<JsonValue> {
    let payload = recv_raw(stream)?;
    Some(JsonValue::parse(std::str::from_utf8(&payload).unwrap()).unwrap())
}

// -------------------------------------------------------------------- tests

#[test]
fn eight_concurrent_clients_match_embedded_execution() {
    let (engine, dir) = fresh("conc");
    seed(&engine, "it");
    let expected = embedded_result(&engine, "it", RANGE_SQL);
    assert!(!expected.rows.is_empty(), "seed should hit the window");

    let handle = Server::start(engine.clone(), ServerConfig::default()).unwrap();
    let addr = handle.local_addr();

    let threads: Vec<_> = (0..8)
        .map(|t| {
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut c = RemoteClient::connect(addr, "it").unwrap();
                for round in 0..5 {
                    // Shared-table read: identical to embedded, every time.
                    let got = c.execute(RANGE_SQL).unwrap().into_dataset().unwrap();
                    assert_eq!(got, expected, "thread {t} round {round} diverged");
                    // Private-table write/read, exercising DDL+DML under
                    // concurrency (one namespace per connection user, one
                    // private table per thread).
                    if round == 0 {
                        c.execute(&format!(
                            "CREATE TABLE own_{t} (fid integer:primary key, geom point)"
                        ))
                        .unwrap();
                    }
                    c.execute(&format!(
                        "INSERT INTO own_{t} VALUES ({round}, 'POINT(1.0 2.0)')"
                    ))
                    .unwrap();
                }
                let mine = c
                    .execute(&format!("SELECT fid FROM own_{t} ORDER BY fid"))
                    .unwrap()
                    .into_dataset()
                    .unwrap();
                assert_eq!(mine.len(), 5);
                // The traced path works remotely too, and the trace is the
                // rendered span tree.
                let (data, trace) = c.explain_analyze(RANGE_SQL).unwrap();
                assert_eq!(data, expected);
                assert!(trace.contains("execute"), "trace missing spans: {trace}");
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    handle.join();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn connections_above_cap_are_shed_with_busy() {
    let (engine, dir) = fresh("busy");
    seed(&engine, "it");
    let cfg = ServerConfig {
        max_sessions: 2,
        ..ServerConfig::default()
    };
    let handle = Server::start(engine, cfg).unwrap();
    let addr = handle.local_addr();

    let _a = RemoteClient::connect(addr, "it").unwrap();
    let b = RemoteClient::connect(addr, "it").unwrap();
    // Third connection: typed BUSY, not a hang or a silent close.
    match RemoteClient::connect(addr, "it") {
        Err(e) => {
            assert_eq!(e.code(), "BUSY", "wanted BUSY, got {e}");
            assert!(e.to_string().contains("capacity"), "{e}");
        }
        Ok(_) => panic!("third connection should have been shed"),
    }
    assert_eq!(handle.active_connections(), 2);

    // Dropping a client frees its slot; a retry is then admitted.
    drop(b);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match RemoteClient::connect(addr, "it") {
            Ok(mut c) => {
                assert_eq!(c.ping().unwrap(), "pong");
                break;
            }
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("slot never freed: {e}"),
        }
    }
    handle.join();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn graceful_shutdown_answers_every_in_flight_request() {
    let (engine, dir) = fresh("drain");
    seed(&engine, "it");
    let cfg = ServerConfig {
        drain_grace: Duration::from_millis(500),
        ..ServerConfig::default()
    };
    let handle = Server::start(engine.clone(), cfg).unwrap();
    let addr = handle.local_addr();
    let expected = embedded_result(&engine, "it", RANGE_SQL);

    let n = 8;
    // Everyone (n clients + the shutdown trigger) leaves the barrier at
    // once: the queries race the shutdown, and every one of them must
    // still be answered — that is the drain guarantee.
    let barrier = Arc::new(Barrier::new(n + 1));
    let threads: Vec<_> = (0..n)
        .map(|_| {
            let barrier = barrier.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut c = RemoteClient::connect(addr, "it").unwrap();
                assert_eq!(c.ping().unwrap(), "pong");
                barrier.wait();
                let got = c.execute(RANGE_SQL).unwrap().into_dataset().unwrap();
                assert_eq!(got, expected);
            })
        })
        .collect();
    barrier.wait();
    handle.shutdown();
    for t in threads {
        t.join().unwrap(); // panics here = a lost response
    }
    handle.join();

    // After the drain, the server is gone: new connections fail outright.
    assert!(TcpStream::connect(addr).is_err() || RemoteClient::connect(addr, "it").is_err());
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn a_chatty_client_cannot_stall_the_drain() {
    let (engine, dir) = fresh("chatty");
    let cfg = ServerConfig {
        drain_grace: Duration::from_millis(200),
        ..ServerConfig::default()
    };
    let handle = Server::start(engine, cfg).unwrap();
    let addr = handle.local_addr();

    // A client that keeps requests coming faster than drain_grace. If
    // the drain window were measured per-read instead of from the
    // shutdown instant, this client would reset it forever and join()
    // below would never return.
    let spammer = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).unwrap();
        let payload: &[u8] = br#"{"op":"ping"}"#;
        loop {
            if s.write_all(&(payload.len() as u32).to_be_bytes()).is_err() {
                break;
            }
            if s.write_all(payload).is_err() {
                break;
            }
            if recv_raw(&mut s).is_none() {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    });
    // Let the spammer get going, then drain.
    std::thread::sleep(Duration::from_millis(100));
    let start = Instant::now();
    handle.join();
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "drain stalled behind a chatty client"
    );
    spammer.join().unwrap();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn idle_connections_are_closed_at_the_drain_deadline() {
    let (engine, dir) = fresh("idle-drain");
    let grace = Duration::from_millis(300);
    let cfg = ServerConfig {
        drain_grace: grace,
        ..ServerConfig::default()
    };
    let handle = Server::start(engine, cfg).unwrap();
    let addr = handle.local_addr();
    // Two connections block in `read` waiting for a request that never
    // comes; a third sends one inside the grace window.
    let mut idle: Vec<RemoteClient> = (0..2)
        .map(|_| RemoteClient::connect(addr, "it").unwrap())
        .collect();
    let mut late = RemoteClient::connect(addr, "it").unwrap();
    let start = Instant::now();
    handle.shutdown();
    std::thread::sleep(grace / 3);
    assert_eq!(late.ping().unwrap(), "pong", "a request inside the grace");
    handle.join();
    let took = start.elapsed();
    assert!(
        took < grace + Duration::from_secs(1),
        "join took {took:?} with idle connections"
    );
    assert!(took >= grace, "idle connections closed before the deadline");
    for c in &mut idle {
        assert!(c.ping().is_err(), "an idle connection outlived the drain");
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn a_connection_busy_when_the_drain_began_keeps_its_grace() {
    let (engine, dir) = fresh("busy-drain");
    seed(&engine, "it");
    let cfg = ServerConfig {
        drain_grace: Duration::from_secs(2),
        ..ServerConfig::default()
    };
    let handle = Server::start(engine.clone(), cfg).unwrap();
    let mut busy = RemoteClient::connect(handle.local_addr(), "it").unwrap();
    let scan = std::thread::spawn(move || {
        // 200 rows at 1 ms each: the answer goes out well after the
        // shutdown below.
        let rows = busy
            .execute("SELECT fid FROM pts WHERE sleep_ms(1) >= 0")
            .map(|r| r.dataset().unwrap().rows.len());
        (busy, rows)
    });
    // The engine lists the query once the server has read its request.
    while engine.queries().list().is_empty() {
        std::thread::sleep(Duration::from_millis(1));
    }
    handle.shutdown();
    let (mut busy, rows) = scan.join().unwrap();
    assert_eq!(rows.unwrap(), 200);
    // The request was read before the drain began, so the connection
    // is idle inside the grace and takes one more request, its last.
    assert_eq!(busy.ping().unwrap(), "pong", "a request inside the grace");
    handle.join();
    assert!(busy.ping().is_err(), "the connection outlived the drain");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn a_request_written_before_shutdown_is_answered() {
    // No grace at all: the drain shuts every read side down at once,
    // and a request already on the wire must still be read and
    // answered.
    let (engine, dir) = fresh("written");
    let cfg = ServerConfig {
        drain_grace: Duration::ZERO,
        ..ServerConfig::default()
    };
    let handle = Server::start(engine, cfg).unwrap();
    let mut s = TcpStream::connect(handle.local_addr()).unwrap();
    send_raw(&mut s, br#"{"op":"hello","user":"it"}"#);
    assert!(recv_raw(&mut s).is_some());
    // The worker is back in `read`.
    std::thread::sleep(Duration::from_millis(100));
    // One write, so the whole frame is on the wire: Nagle would hold a
    // second segment back until the header's ACK.
    let ping = br#"{"op":"ping"}"#;
    s.write_all(&[&(ping.len() as u32).to_be_bytes()[..], ping].concat())
        .unwrap();
    handle.shutdown();
    let pong = recv_json(&mut s).expect("the written request was dropped");
    assert_eq!(pong.get("text").and_then(|v| v.as_str()), Some("pong"));
    // That was the connection's last answer.
    assert!(recv_raw(&mut s).is_none());
    handle.join();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn integer_overflow_answers_rows_and_frees_the_slot() {
    let (engine, dir) = fresh("overflow");
    let handle = Server::start(engine, ServerConfig::default()).unwrap();
    let addr = handle.local_addr();
    let mut live = RemoteClient::connect(addr, "it").unwrap();
    live.execute("CREATE TABLE t (fid integer:primary key, v integer)")
        .unwrap();
    live.execute("INSERT INTO t VALUES (1, -9223372036854775807)")
        .unwrap();

    // `v - 1` is i64::MIN, so both statements divide it by -1: the
    // quotient wraps to i64::MIN and the remainder is 0.
    for (sql, q) in [
        ("SELECT fid, (v - 1) / -1 AS q FROM t", i64::MIN),
        ("SELECT fid, (v - 1) % -1 AS q FROM t", 0),
    ] {
        let mut c = RemoteClient::connect(addr, "it").unwrap();
        let got = c.execute(sql).unwrap().into_dataset().unwrap();
        assert_eq!(got.rows.len(), 1, "{sql}");
        assert_eq!(got.rows[0].values[1], Value::Int(q), "{sql}");
    }

    // Both statement connections are gone: the admission count falls
    // back to the one live client.
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.active_connections() != 1 {
        assert!(
            Instant::now() < deadline,
            "admission count stuck at {}",
            handle.active_connections()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(live.health().unwrap(), "ok");
    handle.join();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn malformed_frames_answer_typed_errors_without_crashing() {
    let (engine, dir) = fresh("malformed");
    let handle = Server::start(engine, ServerConfig::default()).unwrap();
    let mut s = TcpStream::connect(handle.local_addr()).unwrap();

    // Not JSON at all: typed MALFORMED, connection survives.
    send_raw(&mut s, b"this is not json");
    let r = recv_json(&mut s).unwrap();
    assert_eq!(r.get("ok").and_then(|v| v.as_bool()), Some(false));
    assert_eq!(r.get("code").and_then(|v| v.as_str()), Some("MALFORMED"));

    // Not UTF-8: same.
    send_raw(&mut s, &[0xff, 0xfe, 0x00, 0x80]);
    let r = recv_json(&mut s).unwrap();
    assert_eq!(r.get("code").and_then(|v| v.as_str()), Some("MALFORMED"));

    // Valid JSON, unknown op: same, and the message names the op.
    send_raw(&mut s, br#"{"op":"levitate"}"#);
    let r = recv_json(&mut s).unwrap();
    assert_eq!(r.get("code").and_then(|v| v.as_str()), Some("MALFORMED"));
    assert!(r
        .get("message")
        .and_then(|v| v.as_str())
        .unwrap()
        .contains("levitate"));

    // The connection still works after all that abuse.
    send_raw(&mut s, br#"{"op":"ping"}"#);
    let r = recv_json(&mut s).unwrap();
    assert_eq!(r.get("text").and_then(|v| v.as_str()), Some("pong"));
    handle.join();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn oversized_frame_is_rejected_from_the_header_then_closed() {
    let (engine, dir) = fresh("oversize");
    let handle = Server::start(engine, ServerConfig::default()).unwrap();
    let mut s = TcpStream::connect(handle.local_addr()).unwrap();

    // Announce a 1 GiB frame and send nothing: the server must answer
    // TOO_LARGE from the header alone (no gigabyte buffer, no hang).
    s.write_all(&(1u32 << 30).to_be_bytes()).unwrap();
    let r = recv_json(&mut s).unwrap();
    assert_eq!(r.get("ok").and_then(|v| v.as_bool()), Some(false));
    assert_eq!(r.get("code").and_then(|v| v.as_str()), Some("TOO_LARGE"));
    // The stream cannot be resynchronized, so the server closes it.
    assert!(recv_raw(&mut s).is_none());
    handle.join();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn queries_before_hello_and_unknown_users_get_auth_errors() {
    let (engine, dir) = fresh("auth");
    seed(&engine, "alice");
    let cfg = ServerConfig {
        users: Some(vec!["alice".to_string()]),
        ..ServerConfig::default()
    };
    let handle = Server::start(engine, cfg).unwrap();
    let addr = handle.local_addr();

    // Execute without hello: AUTH, and the connection survives to try
    // again properly.
    let mut s = TcpStream::connect(addr).unwrap();
    send_raw(&mut s, br#"{"op":"execute","sql":"SELECT fid FROM pts"}"#);
    let r = recv_json(&mut s).unwrap();
    assert_eq!(r.get("code").and_then(|v| v.as_str()), Some("AUTH"));
    // Read-only operational commands are fine without a session, though.
    send_raw(&mut s, br#"{"op":"health"}"#);
    let r = recv_json(&mut s).unwrap();
    assert_eq!(r.get("text").and_then(|v| v.as_str()), Some("ok"));
    // But with an allowlist configured, shutdown is not: a rogue peer
    // that can reach the socket must not be able to stop the daemon.
    send_raw(&mut s, br#"{"op":"shutdown"}"#);
    let r = recv_json(&mut s).unwrap();
    assert_eq!(r.get("code").and_then(|v| v.as_str()), Some("AUTH"));
    assert!(!handle.is_shutting_down(), "rogue shutdown went through");
    drop(s);

    // A user off the allowlist is refused at hello.
    match RemoteClient::connect(addr, "mallory") {
        Err(e) => assert_eq!(e.code(), "AUTH", "wanted AUTH, got {e}"),
        Ok(_) => panic!("mallory should not get a session"),
    }
    // The allowlisted user works.
    let mut c = RemoteClient::connect(addr, "alice").unwrap();
    assert_eq!(
        c.execute("SELECT count(*) FROM pts")
            .unwrap()
            .dataset()
            .map(|d| d.len()),
        Some(1)
    );
    handle.join();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn server_metrics_are_served_and_live_in_the_obs_registry() {
    let (engine, dir) = fresh("metrics");
    seed(&engine, "it");
    let handle = Server::start(engine, ServerConfig::default()).unwrap();
    let mut c = RemoteClient::connect(handle.local_addr(), "it").unwrap();
    match c.execute(RANGE_SQL).unwrap() {
        QueryResult::Data(d) => assert!(!d.rows.is_empty()),
        other => panic!("wanted rows, got {other:?}"),
    }

    // Over the wire: the exposition includes the server's own counters.
    let text = c.metrics_text().unwrap();
    for name in [
        "just_server_connections_accepted",
        "just_server_requests",
        "just_server_request_latency_us",
    ] {
        assert!(text.contains(name), "exposition missing {name}:\n{text}");
    }
    // And in-process: the same registry the rest of the stack records to.
    assert!(just_obs::global().counter("just_server_requests").get() >= 2);
    handle.join();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn show_queries_and_kill_work_over_the_wire() {
    let (engine, dir) = fresh("obs-wire");
    seed(&engine, "ops");
    // Bulk up the table past one scan batch so the kill lands at a
    // batch boundary while the volatile predicate sleeps.
    {
        let sessions = SessionManager::new(engine.clone());
        let mut c = Client::new(sessions.session("ops"));
        let mut values = Vec::new();
        for fid in 200..1500i64 {
            values.push(format!("({fid}, {}, 'POINT(116.0 39.5)')", fid * 60_000));
        }
        c.execute(&format!("INSERT INTO pts VALUES {}", values.join(", ")))
            .unwrap();
    }
    let handle = Server::start(engine, ServerConfig::default()).unwrap();
    let addr = handle.local_addr();

    // A runaway scan on one connection...
    let scanner = std::thread::spawn(move || {
        let mut c = RemoteClient::connect(addr, "ops").unwrap();
        c.set_timeout(Some(Duration::from_secs(30))).unwrap();
        c.execute("SELECT fid FROM pts WHERE sleep_ms(2) >= 0")
    });

    // ...shows up in SHOW QUERIES on another, with live IO stats.
    let mut ops = RemoteClient::connect(addr, "ops").unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut id = None;
    while Instant::now() < deadline {
        let q = ops.execute("SHOW QUERIES").unwrap();
        let q = q.dataset().unwrap().clone();
        if let Some(row) = q.rows.first() {
            assert!(
                row.values[8].as_str().unwrap().contains("sleep_ms"),
                "normalized SQL must be visible"
            );
            // A wire-executed query carries its server request id.
            assert!(matches!(row.values[2], just_storage::Value::Int(r) if r > 0));
            id = row.values[0].as_int();
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let id = id.expect("scan never appeared in SHOW QUERIES over the wire");

    // KILL QUERY over the wire actually stops it, with a typed error.
    ops.execute(&format!("KILL QUERY {id}")).unwrap();
    let err = scanner.join().unwrap().expect_err("scan must die");
    assert_eq!(err.code(), "CANCELLED");

    // SHOW REGIONS works remotely and stays namespaced: `pts`'s regions,
    // keyed by table and region alone.
    let r = ops.execute("SHOW REGIONS").unwrap();
    let r = r.dataset().unwrap();
    assert_eq!(r.columns[..2], ["table", "region"]);
    assert!(!r.rows.is_empty());
    assert!(r
        .rows
        .iter()
        .all(|row| row.values[0].as_str() == Some("pts")));

    handle.join();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn error_frames_quote_the_request_id() {
    let (engine, dir) = fresh("req-id");
    let handle = Server::start(engine, ServerConfig::default()).unwrap();
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    send_raw(&mut stream, br#"{"op":"hello","user":"ops"}"#);
    recv_json(&mut stream).unwrap();
    send_raw(&mut stream, br#"{"op":"execute","sql":"SELEKT nope"}"#);
    let err = recv_json(&mut stream).unwrap();
    assert_eq!(err.get("ok").and_then(|o| o.as_bool()), Some(false));
    assert_eq!(
        err.get("code").and_then(|c| c.as_str()),
        Some("PARSE"),
        "{err:?}"
    );
    let rid = err
        .get("request_id")
        .and_then(|r| r.as_int())
        .expect("error frame must carry the request id");
    assert!(rid > 0);

    // The failure is recorded in the event log under that id, readable
    // via SHOW EVENTS on the same connection.
    send_raw(
        &mut stream,
        br#"{"op":"execute","sql":"SHOW EVENTS LIMIT 20"}"#,
    );
    let events = recv_json(&mut stream).unwrap();
    let rendered = events.render();
    assert!(
        rendered.contains("server.request_error")
            && rendered.contains(&format!("request_id={rid}")),
        "event log must record the failed request: {rendered}"
    );
    handle.join();
    std::fs::remove_dir_all(dir).ok();
}
