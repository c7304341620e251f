//! Space-filling-curve indexes for the JUST engine.
//!
//! GeoMesa's idea — reproduced here from scratch — is to transform
//! multi-dimensional spatio-temporal data into one-dimensional keys whose
//! lexicographic order preserves spatio-temporal locality, so that a range
//! query becomes a small set of key-range `SCAN`s over an ordered key-value
//! store. This crate implements:
//!
//! * [`Z2`] — Morton/Z-order over (lng, lat) for point data,
//! * [`Z3`] — Morton over (lng, lat, time-within-period), per time period,
//! * [`Xz2`] — XZ-ordering \[Böhm et al., SSD'99\] for extents (lines,
//!   polygons),
//! * [`Xz3`] — the octree XZ variant with a time dimension,
//! * [`Z2t`] / [`Xz2t`] — **the paper's novel strategies**: a time-period
//!   number concatenated with an *independent* Z2/XZ2 spatial code, so
//!   temporal filtering happens on the period prefix and spatial filtering
//!   stays fully effective inside each period (Section IV-B/C),
//! * [`TimePeriod`] — the disjoint time-period scheme of Equation (1),
//! * query planning: every index decomposes a query window into merged,
//!   inclusive key ranges ([`KeyRange`], [`PeriodRange`]).

#![deny(missing_docs)]

mod morton;
pub mod range;
pub mod time;
pub mod xz2;
pub mod xz3;
pub mod z2;
pub mod z3;
mod zt;

pub use range::{KeyRange, PeriodRange, RangeOptions};
pub use time::TimePeriod;
pub use xz2::Xz2;
pub use xz3::Xz3;
pub use z2::Z2;
pub use z3::Z3;
pub use zt::{Xz2t, Z2t};

/// Normalises a longitude to `[0, 1]` over the valid domain.
pub(crate) fn norm_lng(lng: f64) -> f64 {
    ((lng + 180.0) / 360.0).clamp(0.0, 1.0)
}

/// Normalises a latitude to `[0, 1]` over the valid domain.
pub(crate) fn norm_lat(lat: f64) -> f64 {
    ((lat + 90.0) / 180.0).clamp(0.0, 1.0)
}

/// Maps a normalised `[0,1]` value to a discrete cell in `[0, 2^bits)`.
pub(crate) fn discretize(norm: f64, bits: u32) -> u64 {
    let cells = 1u64 << bits;
    ((norm * cells as f64) as u64).min(cells - 1)
}
