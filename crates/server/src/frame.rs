//! Length-prefixed framing.
//!
//! ```text
//! frame := len(u32, big-endian) payload(len bytes of UTF-8 JSON)
//! ```
//!
//! The length prefix is read before any payload allocation, so an
//! oversized frame is rejected by *looking at four bytes* — the server
//! never buffers unbounded input. Below the cap the payload buffer grows
//! with the bytes that arrive, not with the length announced, so a peer
//! that announces 32 MiB and sends 10 bytes costs at most 64 KiB. Each end of a
//! connection reads and encodes into buffers it keeps across frames
//! ([`read_frame_into`]) and gives back any that a frame grew past
//! 1 MiB ([`shrink_kept`]). A read blocks until bytes arrive; the
//! socket's read timeout is the idle timeout. A timeout on a frame
//! boundary ends the read cleanly ([`FrameError::IdleTimeout`]), and one
//! mid-frame is an error, because bytes were lost.

use std::io::{ErrorKind, Read, Write};

/// Framing failures.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying socket error (including mid-frame EOF).
    Io(std::io::Error),
    /// The peer announced a frame larger than the configured cap.
    TooLarge {
        /// Announced payload length.
        len: usize,
        /// Configured maximum.
        max: usize,
    },
    /// Clean close: EOF on a frame boundary.
    Closed,
    /// The read timed out idle on a frame boundary.
    IdleTimeout,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame io: {e}"),
            FrameError::TooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds cap of {max}")
            }
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::IdleTimeout => write!(f, "idle timeout"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one frame (length prefix + payload) and flushes.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Most bytes a kept frame buffer holds between frames.
const KEEP_BYTES: usize = 1 << 20;

/// The first step a payload buffer grows by.
const READ_STEP: usize = 64 << 10;

/// Reads one frame, enforcing the size cap *before* allocating: the
/// shorthand for [`read_frame_into`] a new buffer. `_keep_waiting` is
/// unused — a read timeout ends the frame as in [`read_frame_into`] — and
/// stays only so existing callers compile.
pub fn read_frame(
    r: &mut impl Read,
    max: usize,
    _keep_waiting: &mut dyn FnMut() -> bool,
) -> Result<Vec<u8>, FrameError> {
    let mut payload = Vec::new();
    read_frame_into(r, &mut payload, max)?;
    Ok(payload)
}

/// Reads one frame's payload into `payload`, replacing what it held.
/// The buffer grows with the bytes that arrive, never past the announced
/// length: a peer that announces a large frame and sends little costs at
/// most 64 KiB.
///
/// A read timeout (the socket's) or EOF on a frame boundary yields the
/// clean [`FrameError::IdleTimeout`] / [`FrameError::Closed`]; mid-frame
/// either is an [`FrameError::Io`] error, because bytes were lost.
pub fn read_frame_into(
    r: &mut impl Read,
    payload: &mut Vec<u8>,
    max: usize,
) -> Result<(), FrameError> {
    payload.clear();
    let mut header = [0u8; 4];
    fill_header(r, &mut header)?;
    let len = u32::from_be_bytes(header) as usize;
    if len > max {
        return Err(FrameError::TooLarge { len, max });
    }
    let mut got = 0;
    while got < len {
        if got == payload.len() {
            // Room for what is still due: the kept capacity first, then
            // steps that double what has arrived (at least 64 KiB), never
            // past the frame. Only new room is zeroed.
            let room = match payload.capacity() {
                kept if kept > got => kept,
                _ => got + got.max(READ_STEP),
            };
            let end = room.min(len);
            payload.reserve_exact(end - got);
            payload.resize(end, 0);
        }
        match r.read(&mut payload[got..]) {
            Ok(0) => return Err(FrameError::Io(ErrorKind::UnexpectedEof.into())),
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

/// Gives back a kept buffer after a frame of more than 1 MiB, so a
/// connection does not pin its largest frame for its whole life. Judged
/// by the frame it holds, not its capacity: a buffer that doubled its way
/// to a frame of at most 1 MiB is kept, or each such frame would grow it
/// again.
pub fn shrink_kept(buf: &mut Vec<u8>) {
    if buf.len() > KEEP_BYTES {
        buf.clear();
        buf.shrink_to(KEEP_BYTES);
    }
}

/// Reads a frame header; a clean close or idle timeout is one before its
/// first byte.
fn fill_header(r: &mut impl Read, buf: &mut [u8]) -> Result<(), FrameError> {
    let mut pos = 0usize;
    while pos < buf.len() {
        match r.read(&mut buf[pos..]) {
            Ok(0) => {
                return Err(if pos == 0 {
                    FrameError::Closed
                } else {
                    FrameError::Io(ErrorKind::UnexpectedEof.into())
                });
            }
            Ok(n) => pos += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e)
                if pos == 0 && matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
            {
                return Err(FrameError::IdleTimeout)
            }
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn always() -> impl FnMut() -> bool {
        || true
    }

    #[test]
    fn roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"op\":\"ping\"}").unwrap();
        let mut r = Cursor::new(buf);
        let got = read_frame(&mut r, 1024, &mut always()).unwrap();
        assert_eq!(got, b"{\"op\":\"ping\"}");
    }

    #[test]
    fn empty_payload_is_legal() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"").unwrap();
        let got = read_frame(&mut Cursor::new(buf), 16, &mut always()).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn oversized_frame_rejected_before_allocation() {
        // Header says 1 GiB; the payload never follows. The cap must trip
        // on the header alone.
        let buf = (1u32 << 30).to_be_bytes().to_vec();
        match read_frame(&mut Cursor::new(buf), 1024, &mut always()) {
            Err(FrameError::TooLarge { len, max }) => {
                assert_eq!(len, 1 << 30);
                assert_eq!(max, 1024);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn eof_on_boundary_is_clean_close() {
        match read_frame(&mut Cursor::new(Vec::new()), 16, &mut always()) {
            Err(FrameError::Closed) => {}
            other => panic!("expected Closed, got {other:?}"),
        }
    }

    /// Replays a socket: each step is one read's bytes, or `None` for a
    /// read that times out; then EOF.
    struct Script(std::collections::VecDeque<Option<&'static [u8]>>);

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.0.pop_front() {
                None => Ok(0),
                Some(None) => Err(ErrorKind::TimedOut.into()),
                Some(Some(bytes)) => {
                    buf[..bytes.len()].copy_from_slice(bytes);
                    Ok(bytes.len())
                }
            }
        }
    }

    #[test]
    fn a_timeout_is_idle_on_a_boundary_and_an_error_mid_frame() {
        let read = |steps: &[Option<&'static [u8]>]| {
            let mut r = Script(steps.iter().copied().collect());
            read_frame_into(&mut r, &mut Vec::new(), 16)
        };
        assert!(matches!(read(&[None]), Err(FrameError::IdleTimeout)));
        let half_header = read(&[Some(&[0, 0]), None]);
        assert!(matches!(half_header, Err(FrameError::Io(e)) if e.kind() == ErrorKind::TimedOut));
        let half_payload = read(&[Some(&[0, 0, 0, 4]), Some(b"ab"), None]);
        assert!(matches!(half_payload, Err(FrameError::Io(e)) if e.kind() == ErrorKind::TimedOut));
    }

    #[test]
    fn eof_mid_frame_is_an_error() {
        // Announce 10 bytes, deliver 3.
        let mut buf = 10u32.to_be_bytes().to_vec();
        buf.extend_from_slice(b"abc");
        match read_frame(&mut Cursor::new(buf), 16, &mut always()) {
            Err(FrameError::Io(e)) => assert_eq!(e.kind(), ErrorKind::UnexpectedEof),
            other => panic!("expected Io, got {other:?}"),
        }
        // Truncated header is also an error, not a clean close.
        let buf = vec![0u8, 0];
        assert!(matches!(
            read_frame(&mut Cursor::new(buf), 16, &mut always()),
            Err(FrameError::Io(_))
        ));
    }
}
