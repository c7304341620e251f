//! Frame buffers under a counting global allocator (one `#[test]`: a
//! second test thread would allocate into the same counters):
//!
//! * a frame read grows with the bytes that arrive, so a peer that
//!   announces 32 MiB and sends 10 bytes costs kilobytes, and a kept
//!   buffer that a large frame grew is given back;
//! * each end of a connection keeps its frame buffers, so a second
//!   identical 10 000-row SELECT allocates no frame buffer on the server
//!   or in the client.

use just_core::{Engine, EngineConfig};
use just_server::frame::{read_frame, read_frame_into, shrink_kept, write_frame};
use just_server::{RemoteClient, Server, ServerConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Blocks of at least [`BIG`] bytes asked for, by `alloc` or `realloc`.
static BIG_BLOCKS: AtomicUsize = AtomicUsize::new(0);
static BIG: AtomicUsize = AtomicUsize::new(usize::MAX);

struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
    if bytes >= BIG.load(Relaxed) {
        BIG_BLOCKS.fetch_add(1, Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters only observe the calls.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's obligations for `alloc` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Relaxed);
        grew(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; the caller's
        // obligations for `realloc` are `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f`; returns its output and how far the live heap rose above
/// its start.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    let out = f();
    (out, PEAK.load(Relaxed) - live)
}

fn frame_reads_grow_with_the_bytes_that_arrive() {
    // 32 MiB announced, 10 bytes sent, then the peer goes away.
    let mut wire = (32u32 << 20).to_be_bytes().to_vec();
    wire.extend_from_slice(b"0123456789");
    let (read, peak) = peak_of(|| read_frame(&mut wire.as_slice(), 64 << 20, &mut || true));
    assert!(read.is_err(), "a truncated frame is an error");
    println!("32 MiB announced, 10 bytes sent: peak +{peak}");
    assert!(peak <= 64 << 10, "a 10-byte frame body took {peak} bytes");

    // A 2 MiB frame grows a kept buffer past what it keeps; after it the
    // buffer goes back to at most 1 MiB, and a small frame then reads
    // into what is kept.
    let mut wire = Vec::new();
    write_frame(&mut wire, &vec![7; 2 << 20]).unwrap();
    write_frame(&mut wire, b"small").unwrap();
    let (mut r, mut buf) = (wire.as_slice(), Vec::new());
    read_frame_into(&mut r, &mut buf, 64 << 20).unwrap();
    assert_eq!(buf.len(), 2 << 20);
    shrink_kept(&mut buf);
    assert!(buf.capacity() <= 1 << 20, "kept {} bytes", buf.capacity());
    let (read, peak) = peak_of(|| read_frame_into(&mut r, &mut buf, 64 << 20));
    read.unwrap();
    assert_eq!((&buf[..], peak), (&b"small"[..], 0));
}

const ROWS: usize = 10_000;
const NAME_BYTES: usize = 80;

fn a_repeated_select_reuses_both_ends_frame_buffers() {
    let dir = std::env::temp_dir().join(format!("just-server-frame-alloc-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let engine = Arc::new(Engine::open(&dir, EngineConfig::default()).unwrap());
    let server = Server::start(engine, ServerConfig::default()).unwrap();
    let mut client = RemoteClient::connect(server.local_addr(), "frames").unwrap();
    client
        .execute("CREATE TABLE names (fid integer:primary key, name string)")
        .unwrap();
    for first in (0..ROWS).step_by(1000) {
        let rows: Vec<String> = (first..first + 1000)
            .map(|fid| format!("({fid}, '{}')", "n".repeat(NAME_BYTES)))
            .collect();
        let sql = format!("INSERT INTO names VALUES {}", rows.join(", "));
        client.execute(&sql).unwrap();
    }
    let select = "SELECT name FROM names";
    let rows_of = |client: &mut RemoteClient| {
        let data = client.execute(select).unwrap().into_dataset().unwrap();
        data.rows.len()
    };
    assert_eq!(rows_of(&mut client), ROWS);
    // The response frame is ~850 KiB; every other block a SELECT of
    // 10 000 rows asks for (a row vector: 24 bytes a row, doubled) is
    // under half of it. A frame buffer is at least half of it.
    let frame = ROWS * (NAME_BYTES + 5);
    BIG.store(frame / 2, Relaxed);
    let before = BIG_BLOCKS.load(Relaxed);
    assert_eq!(rows_of(&mut client), ROWS);
    let big = BIG_BLOCKS.load(Relaxed) - before;
    BIG.store(usize::MAX, Relaxed);
    println!(
        "second {ROWS}-row SELECT: {big} blocks of at least {} bytes",
        frame / 2
    );
    assert_eq!(
        big, 0,
        "the second SELECT allocated {big} frame-sized blocks"
    );
    drop(client);
    server.join();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn frame_buffers_follow_the_bytes_and_are_kept_per_connection() {
    frame_reads_grow_with_the_bytes_that_arrive();
    a_repeated_select_reuses_both_ends_frame_buffers();
}
