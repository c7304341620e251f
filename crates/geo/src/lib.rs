//! Geometry model for the JUST engine.
//!
//! This crate provides the spatial primitives every other layer builds on:
//!
//! * [`Point`], [`StPoint`] — 2-D positions (longitude/latitude) and
//!   timestamped positions,
//! * [`Rect`] — axis-aligned minimum bounding rectangles (MBRs),
//! * [`LineString`], [`Polygon`], [`Geometry`] — non-point geometries,
//! * distance functions (Euclidean degrees, haversine metres,
//!   point-to-segment),
//! * WKT parsing and printing,
//! * coordinate-system transforms (WGS-84 ↔ GCJ-02 ↔ BD-09) used by the
//!   paper's 1-1 analysis operations.
//!
//! Coordinates follow the GIS convention used throughout the paper:
//! `x` is longitude in `[-180, 180]` and `y` is latitude in `[-90, 90]`.

#![deny(missing_docs)]

mod distance;
mod geometry;
mod line;
mod point;
mod polygon;
mod rect;
mod transform;
mod wkt;

pub use distance::{
    euclidean, haversine_m, point_segment_distance, point_segment_distance_m, METERS_PER_DEGREE_LAT,
};
pub use geometry::{Geometry, GeometryType};
pub use line::LineString;
pub use point::{Point, StPoint};
pub use polygon::Polygon;
pub use rect::Rect;
pub use transform::{bd09_to_gcj02, gcj02_to_bd09, gcj02_to_wgs84, wgs84_to_gcj02};
pub use wkt::{parse_wkt, WktError};

/// The whole longitude/latitude plane: the root search space of every
/// space-filling curve and of the k-NN expansion algorithm.
pub const WORLD: Rect = Rect {
    min_x: -180.0,
    min_y: -90.0,
    max_x: 180.0,
    max_y: 90.0,
};
