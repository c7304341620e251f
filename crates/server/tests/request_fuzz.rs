//! Seeded mutations of golden request frames — bit flips, truncation,
//! spliced lengths, deep nesting and invalid UTF-8 — sent to a live
//! server. Every frame the server can read gets a typed response (an
//! error frame or a success), never a panic; after each connection the
//! next one still answers `ping`; and the largest block allocated while a
//! connection is served stays bounded by the bytes it sent. Counted with
//! a counting global allocator, so this binary holds one `#[test]`.

use just_core::{Engine, EngineConfig, SessionManager};
use just_obs::Rng;
use just_ql::Client;
use just_server::{Response, Server, ServerConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;

/// The largest block asked for (by `alloc` or `realloc`) since the last
/// reset.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter only observes the calls.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Relaxed);
        // SAFETY: the caller's obligations for `alloc` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`; the caller's
        // obligations for `realloc` are `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const SQL: &str = "SELECT fid FROM pts WHERE geom WITHIN st_makeMBR(116.0, 39.5, 116.1, 39.55)";

/// The golden request payloads.
fn golden() -> Vec<String> {
    vec![
        r#"{"op":"hello","user":"fuzz"}"#.to_string(),
        format!(r#"{{"op":"execute","sql":"{SQL}"}}"#),
        format!(r#"{{"op":"explain_analyze","sql":"{SQL}"}}"#),
        r#"{"op":"metrics"}"#.to_string(),
        r#"{"op":"health"}"#.to_string(),
        r#"{"op":"ping"}"#.to_string(),
    ]
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_be_bytes().to_vec();
    out.extend_from_slice(payload);
    out
}

/// One seeded mutation of a golden payload, framed: the bytes to send.
fn mutate(rng: &mut Rng, payload: &[u8]) -> Vec<u8> {
    let mut body = payload.to_vec();
    match rng.gen_range(0u8..5) {
        // Bit flips.
        0 => {
            for _ in 0..rng.gen_range(1usize..5) {
                let at = rng.gen_range(0..body.len());
                body[at] ^= 1 << rng.gen_range(0u32..8);
            }
            frame(&body)
        }
        // Truncation: of the payload (framed as what is left), or of the
        // frame itself, so the frame never completes.
        1 => {
            body.truncate(rng.gen_range(0..body.len()));
            match rng.gen_bool(0.5) {
                true => frame(&body),
                false => {
                    let mut whole = frame(payload);
                    whole.truncate(rng.gen_range(0..whole.len()));
                    whole
                }
            }
        }
        // A spliced length: shorter than the payload (the rest reads as
        // the next frame), longer (never completes), or huge.
        2 => {
            let len = match rng.gen_range(0u8..4) {
                0 => rng.gen_range(0..body.len() as u32),
                1 => body.len() as u32 + rng.gen_range(1u32..4096),
                2 => rng.gen_range(1u32 << 20..64 << 20),
                _ => u32::MAX,
            };
            let mut out = len.to_be_bytes().to_vec();
            out.extend_from_slice(&body);
            out
        }
        // Deep nesting, around the request or in place of its member.
        3 => {
            let depth = rng.gen_range(100usize..5000);
            let nested = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
            let text = match rng.gen_bool(0.5) {
                true => nested,
                false => format!(r#"{{"op":"execute","sql":{nested}}}"#),
            };
            frame(text.as_bytes())
        }
        // Invalid UTF-8: a lone continuation byte, an overlong lead or a
        // byte that never occurs in UTF-8.
        _ => {
            let at = rng.gen_range(0..body.len() + 1);
            let bad: &[u8] = [&[0x80][..], &[0xc0, 0xaf], &[0xff]][rng.gen_range(0usize..3)];
            body.splice(at..at, bad.iter().copied());
            frame(&body)
        }
    }
}

/// Sends `bytes` on a fresh connection, closes the write half and reads
/// every response frame until the server closes. Each must decode.
fn exchange(addr: SocketAddr, bytes: &[u8]) -> Vec<Response> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // The server may answer and close before it has read everything.
    let _ = stream.write_all(bytes);
    let _ = stream.shutdown(Shutdown::Write);
    let mut wire = Vec::new();
    let read = stream.read_to_end(&mut wire);
    assert!(read.is_ok(), "{read:?}: a response was lost");
    let mut responses = Vec::new();
    let mut rest = &wire[..];
    while rest.len() >= 4 {
        let len = u32::from_be_bytes(rest[..4].try_into().unwrap()) as usize;
        assert!(rest.len() >= 4 + len, "a torn response frame");
        let response = Response::from_bytes(&rest[4..4 + len])
            .unwrap_or_else(|e| panic!("an untyped response: {e}"));
        responses.push(response);
        rest = &rest[4 + len..];
    }
    assert!(rest.is_empty(), "trailing bytes after the last response");
    responses
}

fn pong(addr: SocketAddr) -> bool {
    let ping = frame(br#"{"op":"ping"}"#);
    matches!(&exchange(addr, &ping)[..], [Response::Text(t)] if t == "pong")
}

#[test]
fn mutated_request_frames_get_typed_answers_and_bounded_allocations() {
    let dir = std::env::temp_dir().join(format!("just-server-request-fuzz-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let engine = Arc::new(Engine::open(&dir, EngineConfig::default()).unwrap());
    let mut seed = Client::new(SessionManager::new(engine.clone()).session("fuzz"));
    seed.execute("CREATE TABLE pts (fid integer:primary key, time date, geom point)")
        .unwrap();
    let rows: Vec<String> = (0..200)
        .map(|fid| {
            let (lng, lat) = (
                116.0 + (fid % 20) as f64 * 0.01,
                39.5 + (fid / 20) as f64 * 0.01,
            );
            format!("({fid}, {}, st_makePoint({lng}, {lat}))", fid * 60_000)
        })
        .collect();
    seed.execute(&format!("INSERT INTO pts VALUES {}", rows.join(", ")))
        .unwrap();
    let server = Server::start(engine, ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let hello = frame(golden()[0].as_bytes());

    // Each golden frame, after a golden hello: one success per frame. One
    // refused frame first, so first-use setup (the event log an error
    // frame lands in) is not charged to a mutation.
    exchange(addr, &[hello.clone(), frame(b"\xff")].concat());
    let mut largest_golden = 0;
    for payload in golden() {
        let bytes = [hello.clone(), frame(payload.as_bytes())].concat();
        LARGEST.store(0, Relaxed);
        let responses = exchange(addr, &bytes);
        largest_golden = largest_golden.max(LARGEST.load(Relaxed));
        assert_eq!(responses.len(), 2, "{payload}");
        assert!(
            responses
                .iter()
                .all(|r| !matches!(r, Response::Error { .. })),
            "{payload}"
        );
    }
    println!("golden frames: largest block {largest_golden} bytes");

    let mut rng = Rng::seed_from_u64(0x7265_7175);
    let (mut errors, mut unanswered, mut worst) = (0, 0, (0usize, 0usize));
    for i in 0..600 {
        let payloads = golden();
        let payload = &payloads[i % payloads.len()];
        let mutated = mutate(&mut rng, payload.as_bytes());
        let bytes = [hello.clone(), mutated].concat();
        LARGEST.store(0, Relaxed);
        let responses = exchange(addr, &bytes);
        let largest = LARGEST.load(Relaxed);
        // The hello is always answered; the mutated frame is, unless it
        // never completed.
        assert!(
            !responses.is_empty(),
            "frame {i}: the golden hello went unanswered"
        );
        errors += responses
            .iter()
            .filter(|r| matches!(r, Response::Error { .. }))
            .count();
        unanswered += usize::from(responses.len() == 1);
        if largest > worst.0 {
            worst = (largest, bytes.len());
        }
        // A frame read grows its buffer in steps of at most 64 KiB.
        assert!(
            largest <= largest_golden + (64 << 10) + 8 * bytes.len(),
            "frame {i} of {} bytes: a block of {largest} bytes",
            bytes.len()
        );
        assert!(pong(addr), "frame {i}: the next connection got no pong");
    }
    println!(
        "600 mutated frames: {errors} error frames, {unanswered} unanswered, \
         largest block {} bytes for {} sent",
        worst.0, worst.1
    );
    assert!(errors > 300, "only {errors} mutations were refused");
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
