//! From-scratch compression codecs for the JUST engine.
//!
//! The paper introduces a field-compression mechanism ("gzip or zip") for
//! big fields such as a trajectory's GPS list, reporting that it both cuts
//! storage cost and *speeds up* queries by reducing disk IOs — and that it
//! backfires for tiny fields (the Order dataset lesson in Fig. 10a). This
//! crate implements the machinery from scratch:
//!
//! * [`varint`] — LEB128 varints and zigzag coding,
//! * `bitio` — LSB-first bit-level readers/writers,
//! * [`crc32`] — IEEE CRC-32 integrity checksums,
//! * `huffman` — canonical, length-limited Huffman coding,
//! * [`lzss`] — LZ77/LZSS match finding with hash chains,
//! * [`deflate`] — the DEFLATE-like composite (LZSS + dual Huffman trees),
//! * [`gps`] — a delta+varint codec specialised for GPS point lists,
//! * [`Codec`] — the self-describing container used by the storage layer.

#![deny(missing_docs)]

mod bitio;
pub mod crc32;
pub mod deflate;
pub mod gps;
mod huffman;
pub mod lzss;
pub mod varint;

mod codec;

pub use codec::{Codec, CompressError};
