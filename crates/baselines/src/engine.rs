//! The common interface all baseline engines implement, plus the shared
//! record type and memory-budget machinery.

use just_geo::{Point, Rect};

/// One spatio-temporal record as the baselines see it: an id, a point (or
/// MBR for extended data), a time span and the payload weight in bytes
/// (which drives memory-budget accounting — a trajectory row weighs
/// kilobytes, an order row a few dozen bytes).
#[derive(Debug, Clone)]
pub struct StRecord {
    /// Record id (index into the caller's dataset).
    pub id: u64,
    /// Representative point (for point data and k-NN).
    pub point: Point,
    /// Bounding rectangle (equals the point for point data).
    pub mbr: Rect,
    /// Start time (ms).
    pub t_min: i64,
    /// End time (ms).
    pub t_max: i64,
    /// Payload size in bytes (for memory accounting).
    pub payload_bytes: u32,
}

impl StRecord {
    /// A point record.
    pub fn point(id: u64, p: Point, t: i64, payload_bytes: u32) -> Self {
        StRecord {
            id,
            point: p,
            mbr: p.mbr(),
            t_min: t,
            t_max: t,
            payload_bytes,
        }
    }

    /// An extent record (trajectory MBR).
    pub fn extent(id: u64, mbr: Rect, t_min: i64, t_max: i64, payload_bytes: u32) -> Self {
        StRecord {
            id,
            point: mbr.center(),
            mbr,
            t_min,
            t_max,
            payload_bytes,
        }
    }

    /// Whether the record overlaps the time window.
    pub(crate) fn overlaps_time(&self, t0: i64, t1: i64) -> bool {
        self.t_max >= t0 && self.t_min <= t1
    }
}

/// What can go wrong building or querying a baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The dataset exceeds the configured memory budget — the in-memory
    /// ("Spark-based") engines fail this way on big inputs, as the paper
    /// observed.
    OutOfMemory {
        /// Bytes the build would need.
        required: usize,
        /// Configured budget.
        budget: usize,
    },
    /// The engine does not support the operation (Table VI).
    Unsupported(&'static str),
    /// Disk failure (Hadoop-style engines).
    Io(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::OutOfMemory { required, budget } => {
                write!(f, "out of memory: need {required} bytes, budget {budget}")
            }
            EngineError::Unsupported(op) => write!(f, "unsupported operation: {op}"),
            EngineError::Io(m) => write!(f, "io: {m}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// An optional cap on in-memory footprint.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemoryBudget {
    /// Maximum bytes; `None` = unlimited.
    pub bytes: Option<usize>,
}

impl MemoryBudget {
    /// Unlimited budget.
    pub fn unlimited() -> Self {
        MemoryBudget { bytes: None }
    }

    /// Budget of `mb` mebibytes.
    #[cfg(test)]
    pub(crate) fn mib(mb: usize) -> Self {
        MemoryBudget {
            bytes: Some(mb << 20),
        }
    }

    /// Checks a build-time requirement.
    pub(crate) fn check(&self, required: usize) -> Result<(), EngineError> {
        match self.bytes {
            Some(budget) if required > budget => Err(EngineError::OutOfMemory { required, budget }),
            _ => Ok(()),
        }
    }
}

/// Architectural family, for reporting (Table I's "Category" row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// In-memory cluster-computing style (Spark-based systems).
    InMemory,
    /// Disk-based MapReduce style (Hadoop-based systems).
    DiskMapReduce,
    /// Key-value store based (JUST, MD-HBase, BBoxDB).
    NoSql,
}

/// The query surface the paper evaluates (Table VI): spatial range,
/// spatio-temporal range, and k-NN.
pub trait SpatialEngine: Send + Sync {
    /// Engine name for reports.
    fn name(&self) -> &'static str;

    /// Architectural family.
    fn family(&self) -> Family;

    /// Bulk-loads (and indexes) the dataset, replacing previous contents.
    fn build(&mut self, records: &[StRecord]) -> Result<(), EngineError>;

    /// Record ids whose geometry intersects the window.
    fn spatial_range(&self, window: &Rect) -> Result<Vec<u64>, EngineError>;

    /// Record ids intersecting the window during `[t0, t1]`; engines
    /// without temporal support return `Unsupported` (Table VI's "ST ×").
    fn st_range(&self, window: &Rect, t0: i64, t1: i64) -> Result<Vec<u64>, EngineError>;

    /// The `k` nearest records to `q` (Euclidean on representative
    /// points), nearest first.
    fn knn(&self, q: Point, k: usize) -> Result<Vec<u64>, EngineError>;

    /// Whether incremental inserts are supported (Table I "Data Update").
    fn supports_update(&self) -> bool {
        false
    }

    /// Incremental insert, where supported.
    fn insert(&mut self, _record: StRecord) -> Result<(), EngineError> {
        Err(EngineError::Unsupported("insert"))
    }

    /// Approximate resident memory in bytes.
    fn memory_bytes(&self) -> usize;
}

/// Estimated in-memory footprint of holding `records` resident (payload
/// plus per-record index overhead), shared by the in-memory engines.
pub(crate) fn resident_estimate(records: &[StRecord], overhead_per_record: usize) -> usize {
    records
        .iter()
        .map(|r| r.payload_bytes as usize + overhead_per_record)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_check() {
        let b = MemoryBudget::mib(1);
        assert!(b.check(512 << 10).is_ok());
        assert!(matches!(
            b.check(2 << 20),
            Err(EngineError::OutOfMemory { .. })
        ));
        assert!(MemoryBudget::unlimited().check(usize::MAX).is_ok());
    }

    #[test]
    fn record_time_overlap() {
        let r = StRecord::extent(1, Rect::new(0.0, 0.0, 1.0, 1.0), 100, 200, 64);
        assert!(r.overlaps_time(150, 300));
        assert!(r.overlaps_time(0, 100));
        assert!(!r.overlaps_time(201, 300));
        assert!(!r.overlaps_time(0, 99));
    }

    #[test]
    fn resident_estimate_scales_with_payload() {
        let small: Vec<StRecord> = (0..10)
            .map(|i| StRecord::point(i, Point::new(0.0, 0.0), 0, 32))
            .collect();
        let big: Vec<StRecord> = (0..10)
            .map(|i| StRecord::point(i, Point::new(0.0, 0.0), 0, 100_000))
            .collect();
        assert!(resident_estimate(&big, 64) > 100 * resident_estimate(&small, 64));
    }
}
