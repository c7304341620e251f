//! Randomized roundtrip tests: every codec is the identity after a
//! roundtrip, on arbitrary byte strings and on realistic GPS walks.
//! Deterministically seeded (the offline stand-in for proptest).

use just_compress::gps::{self, GpsSample};
use just_compress::{varint, Codec};
use just_obs::Rng;

const CASES: u64 = 48;

fn random_bytes(rng: &mut Rng, max_len: usize) -> Vec<u8> {
    let len = rng.gen_range(0usize..max_len);
    (0..len).map(|_| rng.gen_range(0u32..256) as u8).collect()
}

#[test]
fn varint_u64_roundtrip() {
    let mut rng = Rng::seed_from_u64(0xc0_de01);
    let check = |v: u64| {
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, v);
        let mut pos = 0;
        assert_eq!(varint::read_u64(&buf, &mut pos), Some(v));
        assert_eq!(pos, buf.len());
    };
    for v in [0, 1, 127, 128, u64::MAX - 1, u64::MAX, 1 << 63] {
        check(v);
    }
    for _ in 0..CASES * 8 {
        let v = rng.next_u64() >> rng.gen_range(0u32..64);
        check(v);
    }
}

#[test]
fn varint_i64_roundtrip() {
    let mut rng = Rng::seed_from_u64(0xc0_de02);
    let check = |v: i64| {
        let mut buf = Vec::new();
        varint::write_i64(&mut buf, v);
        let mut pos = 0;
        assert_eq!(varint::read_i64(&buf, &mut pos), Some(v));
    };
    for v in [0, 1, -1, i64::MIN, i64::MAX] {
        check(v);
    }
    for _ in 0..CASES * 8 {
        let v = (rng.next_u64() >> rng.gen_range(0u32..64)) as i64;
        check(if rng.gen_bool(0.5) {
            v
        } else {
            v.wrapping_neg()
        });
    }
}

#[test]
fn lzss_roundtrip() {
    let mut rng = Rng::seed_from_u64(0xc0_de03);
    for case in 0..CASES {
        let data = random_bytes(&mut rng, 4096);
        let packed = Codec::Zip.compress(&data);
        assert_eq!(Codec::decompress(&packed), Ok(data), "case {case}");
    }
}

#[test]
fn deflate_roundtrip() {
    let mut rng = Rng::seed_from_u64(0xc0_de04);
    for case in 0..CASES {
        let data = random_bytes(&mut rng, 4096);
        let packed = Codec::Gzip.compress(&data);
        assert_eq!(Codec::decompress(&packed), Ok(data), "case {case}");
    }
}

// Low-entropy inputs exercise long matches and overlapping copies.
#[test]
fn deflate_roundtrip_low_entropy() {
    let mut rng = Rng::seed_from_u64(0xc0_de05);
    for case in 0..CASES {
        let len = rng.gen_range(0usize..8192);
        let data: Vec<u8> = (0..len).map(|_| rng.gen_range(0u32..4) as u8).collect();
        let packed = Codec::Gzip.compress(&data);
        assert_eq!(Codec::decompress(&packed), Ok(data), "case {case}");
    }
}

#[test]
fn container_roundtrip_all_codecs() {
    let mut rng = Rng::seed_from_u64(0xc0_de06);
    for case in 0..CASES {
        let data = random_bytes(&mut rng, 2048);
        let codec = Codec::from_code(rng.gen_range(0u32..3) as u8).unwrap();
        let packed = codec.compress(&data);
        assert_eq!(Codec::decompress(&packed).unwrap(), data, "case {case}");
    }
}

#[test]
fn gps_roundtrip() {
    let mut rng = Rng::seed_from_u64(0xc0_de07);
    for case in 0..CASES {
        let n = rng.gen_range(0usize..300);
        let mut samples = Vec::with_capacity(n);
        let (mut lng, mut lat, mut t) = (116.0, 39.0, 1_500_000_000_000i64);
        for _ in 0..n {
            lng = (lng + rng.gen_range(-500i64..500) as f64 * 1e-6).clamp(-180.0, 180.0);
            lat = (lat + rng.gen_range(-500i64..500) as f64 * 1e-6).clamp(-90.0, 90.0);
            t += rng.gen_range(1i64..500);
            samples.push(GpsSample {
                lng,
                lat,
                time_ms: t,
            });
        }
        let back = gps::decode(&gps::encode(&samples)).unwrap();
        assert_eq!(back.len(), samples.len(), "case {case}");
        for (a, b) in samples.iter().zip(&back) {
            assert!((a.lng - b.lng).abs() < 1e-7, "case {case}");
            assert!((a.lat - b.lat).abs() < 1e-7, "case {case}");
            assert_eq!(a.time_ms, b.time_ms, "case {case}");
        }
    }
}

// Decompression never panics on arbitrary garbage: bare, and as the
// payload of a container whose declared length each decoder can reach.
#[test]
fn decompress_never_panics() {
    let mut rng = Rng::seed_from_u64(0xc0_de08);
    for _ in 0..CASES * 4 {
        let data = random_bytes(&mut rng, 512);
        let _ = Codec::decompress(&data);
        for method in [Codec::Gzip, Codec::Zip, Codec::Lz] {
            let claimed = random_bytes(&mut rng, data.len() * 4 + 1);
            let _ = Codec::decompress(&forged(method, &claimed, &data));
        }
        let _ = gps::decode(&data);
    }
}

/// Short runs of a few symbols with repeated stretches: long matches,
/// overlapping copies and saturated length nibbles.
fn run_heavy(rng: &mut Rng, max_len: usize) -> Vec<u8> {
    let len = rng.gen_range(0usize..max_len);
    let mut data = Vec::with_capacity(len);
    while data.len() < len {
        let run = rng.gen_range(1usize..600);
        if data.len() > 8 && rng.gen_bool(0.3) {
            let from = rng.gen_range(0..data.len());
            let stretch: Vec<u8> = data[from..].iter().copied().take(run).collect();
            data.extend_from_slice(&stretch);
        } else {
            let byte = rng.gen_range(0u32..4) as u8;
            data.extend(std::iter::repeat_n(byte, run));
        }
    }
    data.truncate(len);
    data
}

/// `n` rows laid out the way the storage layer writes them into an
/// SSTable block: a salted key with its time period and curve code, then
/// a value of a fid, a timestamp, a point's two coordinates and a short
/// district name.
fn row_like(rng: &mut Rng, n: usize) -> Vec<u8> {
    let mut data = Vec::new();
    let mut time = 1_500_000_000_000i64;
    for fid in 0..n as i64 {
        time += rng.gen_range(1i64..60_000);
        let (lng, lat) = (116.0 + rng.gen_f64() * 0.8, 39.6 + rng.gen_f64() * 0.6);
        data.push(rng.gen_range(0u32..4) as u8);
        data.push(0);
        data.extend_from_slice(&((time / 86_400_000) as u32).to_be_bytes());
        data.extend_from_slice(&rng.next_u64().to_be_bytes()[..5]);
        data.extend_from_slice(&fid.to_le_bytes());
        data.extend_from_slice(&time.to_le_bytes());
        data.extend_from_slice(&lng.to_le_bytes());
        data.extend_from_slice(&lat.to_le_bytes());
        let district = format!("district-{:02}", rng.gen_range(0u32..16));
        data.push(district.len() as u8);
        data.extend_from_slice(district.as_bytes());
    }
    data
}

#[test]
fn lz_roundtrip_random_run_heavy_and_row_like() {
    let mut rng = Rng::seed_from_u64(0xc0_de09);
    for case in 0..CASES {
        let rows = rng.gen_range(0usize..200);
        let inputs = [
            random_bytes(&mut rng, 4096),
            run_heavy(&mut rng, 20_000),
            row_like(&mut rng, rows),
        ];
        for (kind, data) in ["random", "run-heavy", "row-like"].iter().zip(inputs) {
            let packed = Codec::Lz.compress(&data);
            let back = Codec::decompress(&packed);
            assert_eq!(back.as_deref(), Ok(&data[..]), "case {case} {kind}");
        }
    }
    // Rows repeat their layout, so they compress past the 1/8 an SSTable
    // block needs to be kept compressed.
    let rows = row_like(&mut rng, 60);
    let packed = Codec::Lz.compress(&rows).len();
    assert!(packed * 8 < rows.len() * 7, "{packed} of {}", rows.len());
}

/// `container` with its declared length replaced by `len` (the checksum
/// left as it was).
fn with_declared_len(container: &[u8], len: u64) -> Vec<u8> {
    let mut pos = 5;
    varint::read_u64(container, &mut pos).unwrap();
    let mut out = container[..5].to_vec();
    varint::write_u64(&mut out, len);
    out.extend_from_slice(&container[pos..]);
    out
}

/// A container of `method` around a hand-built `payload` that claims to
/// decode to `data`.
fn forged(method: Codec, data: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut out = vec![method.code()];
    out.extend_from_slice(&just_compress::crc32::crc32(data).to_le_bytes());
    varint::write_u64(&mut out, data.len() as u64);
    out.extend_from_slice(payload);
    out
}

// Disk blocks and `compress=` row fields meet `Codec::decompress` with
// bytes this process did not write: every hostile container is a typed
// error, and none makes it allocate past what its payload can decode to.
#[test]
fn hostile_containers_are_typed_errors_for_every_method() {
    let mut rng = Rng::seed_from_u64(0xc0_de0a);
    let data = row_like(&mut rng, 40);
    for codec in [Codec::None, Codec::Gzip, Codec::Zip, Codec::Lz] {
        let packed = codec.compress(&data);
        assert_eq!(Codec::decompress(&packed).as_deref(), Ok(&data[..]));
        for cut in 0..packed.len() {
            assert!(
                Codec::decompress(&packed[..cut]).is_err(),
                "{codec} cut at {cut}"
            );
        }
        // A flipped offset bit can point a match at an equal stretch of
        // output: another encoding of the same bytes, which the checksum
        // rightly passes. Any other flip is an error.
        let mut same = 0;
        for _ in 0..400 {
            let mut flipped = packed.clone();
            let at = rng.gen_range(0..flipped.len());
            flipped[at] ^= 1 << rng.gen_range(0u32..8);
            match Codec::decompress(&flipped) {
                Err(_) => {}
                Ok(back) => {
                    assert_eq!(back, data, "{codec} flip at byte {at}");
                    same += 1;
                }
            }
        }
        assert!(same < 8, "{codec}: {same} of 400 flips decoded");
        let reach = packed.len() as u64 * 1100;
        for len in [data.len() as u64 + 1, reach, 1 << 40, u64::MAX] {
            assert!(
                Codec::decompress(&with_declared_len(&packed, len)).is_err(),
                "{codec} declaring {len} bytes"
            );
        }
    }
    // Zero offsets, which no encoder writes.
    let lzss_zero = [&[5u8, 0b10, b'x', 1][..], &0u16.to_le_bytes()].concat();
    let zero_offset = [
        forged(Codec::Lz, b"xxxxx", &[0x10, b'x', 0, 0, 0]),
        forged(Codec::Zip, b"xxxxx", &lzss_zero),
    ];
    for container in zero_offset {
        assert_eq!(
            Codec::decompress(&container),
            Err(just_compress::CompressError::Corrupt)
        );
    }
}
