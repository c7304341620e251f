//! LEB128 variable-length integers and zigzag coding.
//!
//! Varints are the workhorse of every serialised format in this repository:
//! row codecs, SSTable block layouts, compressed GPS lists and the
//! compression containers all use them.

/// Appends `value` to `out` as an LEB128 varint.
pub fn write_u64(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an LEB128 varint from `buf` starting at `*pos`, advancing `*pos`.
/// Returns `None` on truncated or overlong input.
pub fn read_u64(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return None; // overflow past 64 bits
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(value);
        }
        shift += 7;
        if shift >= 64 {
            return None;
        }
    }
}

/// Zigzag-encodes a signed integer so small magnitudes (of either sign)
/// become small unsigned values.
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends a zigzag varint.
pub fn write_i64(out: &mut Vec<u8>, value: i64) {
    write_u64(out, zigzag(value));
}

/// Reads a zigzag varint.
pub fn read_i64(buf: &[u8], pos: &mut usize) -> Option<i64> {
    read_u64(buf, pos).map(unzigzag)
}

/// Appends a length-prefixed byte slice.
pub fn write_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    write_u64(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Reads a length-prefixed byte slice.
pub fn read_bytes<'a>(buf: &'a [u8], pos: &mut usize) -> Option<&'a [u8]> {
    let len = read_u64(buf, pos)? as usize;
    let end = pos.checked_add(len)?;
    if end > buf.len() {
        return None;
    }
    let slice = &buf[*pos..end];
    *pos = end;
    Some(slice)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_roundtrip_boundaries() {
        for v in [0, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_u64(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn truncated_input_is_none() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 1_000_000);
        buf.pop();
        let mut pos = 0;
        assert_eq!(read_u64(&buf, &mut pos), None);
    }

    #[test]
    fn overlong_input_is_none() {
        let buf = [0xff; 11];
        let mut pos = 0;
        assert_eq!(read_u64(&buf, &mut pos), None);
    }

    #[test]
    fn zigzag_small_values_stay_small() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
        for v in [-1_000_000i64, -1, 0, 1, 42, i64::MIN, i64::MAX] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn bytes_roundtrip() {
        let mut buf = Vec::new();
        write_bytes(&mut buf, b"hello");
        write_bytes(&mut buf, b"");
        let mut pos = 0;
        assert_eq!(read_bytes(&buf, &mut pos), Some(&b"hello"[..]));
        assert_eq!(read_bytes(&buf, &mut pos), Some(&b""[..]));
        assert_eq!(read_bytes(&buf, &mut pos), None);
    }

    #[test]
    fn bytes_bad_length_is_none() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 100); // claims 100 bytes follow
        buf.extend_from_slice(b"short");
        let mut pos = 0;
        assert_eq!(read_bytes(&buf, &mut pos), None);
    }
}
