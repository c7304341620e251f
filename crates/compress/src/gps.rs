//! Delta + varint codec for GPS point lists.
//!
//! Trajectory `gpsList` fields hold hundreds of `(lng, lat, t)` samples at
//! ~1 Hz, where consecutive samples differ by metres and seconds. Encoding
//! coordinates as 1e-7-degree fixed point and storing zigzag-varint deltas
//! shrinks a sample from 24 raw bytes to 3–6 bytes *before* general-purpose
//! compression; the storage layer stacks the DEFLATE-like codec on top for
//! the paper's `gzip` behaviour.

use crate::varint;

/// Fixed-point scale: 1e-7 degrees ≈ 1.1 cm at the equator, below GPS noise.
const COORD_SCALE: f64 = 1e7;

/// A decoded GPS sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpsSample {
    /// Longitude in degrees.
    pub lng: f64,
    /// Latitude in degrees.
    pub lat: f64,
    /// Milliseconds since the Unix epoch.
    pub time_ms: i64,
}

fn quantize(deg: f64) -> i64 {
    (deg * COORD_SCALE).round() as i64
}

fn dequantize(q: i64) -> f64 {
    q as f64 / COORD_SCALE
}

/// Encodes samples as first-value-absolute, rest-delta zigzag varints.
pub fn encode(samples: &[GpsSample]) -> Vec<u8> {
    let mut out = Vec::with_capacity(samples.len() * 6 + 8);
    varint::write_u64(&mut out, samples.len() as u64);
    let (mut plng, mut plat, mut pt) = (0i64, 0i64, 0i64);
    for s in samples {
        let (qlng, qlat) = (quantize(s.lng), quantize(s.lat));
        varint::write_i64(&mut out, qlng - plng);
        varint::write_i64(&mut out, qlat - plat);
        varint::write_i64(&mut out, s.time_ms - pt);
        plng = qlng;
        plat = qlat;
        pt = s.time_ms;
    }
    out
}

/// Decodes an [`encode`]-produced buffer. Returns `None` on corruption.
pub fn decode(buf: &[u8]) -> Option<Vec<GpsSample>> {
    let mut pos = 0usize;
    let n = varint::read_u64(buf, &mut pos)? as usize;
    // Every sample takes at least three bytes (one per varint).
    if n > (buf.len() - pos) / 3 {
        return None; // length claims more samples than bytes could encode
    }
    let mut samples = Vec::with_capacity(n);
    let (mut plng, mut plat, mut pt) = (0i64, 0i64, 0i64);
    for _ in 0..n {
        plng = plng.checked_add(varint::read_i64(buf, &mut pos)?)?;
        plat = plat.checked_add(varint::read_i64(buf, &mut pos)?)?;
        pt = pt.checked_add(varint::read_i64(buf, &mut pos)?)?;
        samples.push(GpsSample {
            lng: dequantize(plng),
            lat: dequantize(plat),
            time_ms: pt,
        });
    }
    (pos == buf.len()).then_some(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn walk(n: usize) -> Vec<GpsSample> {
        let mut out = Vec::with_capacity(n);
        let (mut lng, mut lat, mut t) = (116.40, 39.90, 1_600_000_000_000i64);
        for i in 0..n {
            lng += 0.00002 * ((i % 7) as f64 - 3.0);
            lat += 0.000015 * ((i % 5) as f64 - 2.0);
            t += 1000 + (i as i64 % 37);
            out.push(GpsSample {
                lng,
                lat,
                time_ms: t,
            });
        }
        out
    }

    #[test]
    fn roundtrip_preserves_quantized_values() {
        let samples = walk(500);
        let buf = encode(&samples);
        let back = decode(&buf).unwrap();
        assert_eq!(back.len(), samples.len());
        for (a, b) in samples.iter().zip(&back) {
            assert!((a.lng - b.lng).abs() < 1e-7);
            assert!((a.lat - b.lat).abs() < 1e-7);
            assert_eq!(a.time_ms, b.time_ms);
        }
    }

    #[test]
    fn compresses_well() {
        let samples = walk(1000);
        let raw_size = samples.len() * 24;
        let buf = encode(&samples);
        assert!(
            buf.len() < raw_size / 3,
            "delta codec ratio too poor: {raw_size} -> {}",
            buf.len()
        );
    }

    #[test]
    fn empty_list() {
        let buf = encode(&[]);
        assert_eq!(decode(&buf), Some(vec![]));
    }

    #[test]
    fn corruption_rejected() {
        let samples = walk(10);
        let mut buf = encode(&samples);
        buf.pop();
        assert_eq!(decode(&buf), None);
        // Trailing garbage also rejected.
        let mut buf2 = encode(&samples);
        buf2.push(0);
        assert_eq!(decode(&buf2), None);
        // Absurd sample count rejected.
        assert_eq!(decode(&[0xff, 0xff, 0xff, 0x7f]), None);
        // A count above a third of the bytes left is refused before
        // anything is reserved: two samples cannot fit in five bytes.
        assert_eq!(decode(&[2, 0, 0, 0, 0, 0]), None);
        assert_eq!(decode(&[1, 2, 4, 6]).map(|s| s.len()), Some(1));
    }

    #[test]
    fn seeded_mutations_are_none_or_samples_never_panics() {
        let mut rng = just_obs::Rng::seed_from_u64(0x0067_7073);
        let mut rejected = 0;
        for round in 0..5000 {
            let mut buf = encode(&walk(1 + round % 60));
            let n = buf.len();
            match rng.gen_range(0u32..3) {
                0 => buf[rng.gen_range(0..n)] ^= 1 << rng.gen_range(0u32..8),
                1 => buf.truncate(rng.gen_range(0..n)),
                _ => {
                    // An inflated count or delta varint over one position.
                    let at = rng.gen_range(0..n);
                    let mut big = Vec::new();
                    varint::write_u64(&mut big, rng.next_u64() >> rng.gen_range(0u32..64));
                    buf.splice(at..at + 1, big);
                }
            }
            match decode(&buf) {
                Some(samples) => assert!(samples.len() <= buf.len() / 3),
                None => rejected += 1,
            }
        }
        assert!(rejected > 2500, "{rejected} of 5000 rejected");
    }

    #[test]
    fn negative_coordinates() {
        let samples = vec![
            GpsSample {
                lng: -73.97,
                lat: -40.78,
                time_ms: 0,
            },
            GpsSample {
                lng: -73.98,
                lat: -40.77,
                time_ms: 900,
            },
        ];
        let back = decode(&encode(&samples)).unwrap();
        assert!((back[0].lng + 73.97).abs() < 1e-7);
        assert!((back[1].lat + 40.77).abs() < 1e-7);
    }
}
