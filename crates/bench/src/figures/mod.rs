//! One module per table/figure of the paper's evaluation. Each `run`
//! writes a text rendition of the figure's data series to the given
//! writer.

pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig8;
pub mod ingest_concurrency;
pub mod mvcc_split;
pub mod obs_overhead;
pub mod tables;

use crate::workload::{order_rows, traj_rows, Order, TrajRecord};
use just_core::{Engine, EngineConfig};
use just_curves::TimePeriod;
use just_storage::{Field, FieldType, IndexKind, Schema};
use std::path::PathBuf;
use std::time::Duration;

/// A JUST engine in a throwaway directory; removed on drop.
pub(crate) struct TempEngine {
    /// The engine.
    pub engine: Engine,
    dir: PathBuf,
}

impl TempEngine {
    /// Opens an engine under a unique temp directory.
    pub(crate) fn new(tag: &str) -> TempEngine {
        let dir = std::env::temp_dir().join(format!(
            "just-fig-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::remove_dir_all(&dir).ok();
        let engine = Engine::open(&dir, EngineConfig::default()).expect("engine open");
        TempEngine { engine, dir }
    }
}

impl Drop for TempEngine {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// The Order table schema (with a compressible address field so the
/// paper's "compressing small fields backfires" lesson is reproducible).
pub(crate) fn order_schema(compress_fields: bool) -> Schema {
    let codec = if compress_fields {
        just_compress::Codec::Gzip
    } else {
        just_compress::Codec::None
    };
    Schema::new(vec![
        Field::new("fid", FieldType::Int).primary(),
        Field::new("time", FieldType::Date),
        Field::new("geom", FieldType::Point),
        Field::new("addr", FieldType::Str).compressed(codec),
    ])
    .expect("order schema")
}

/// Order rows including the address field.
pub(crate) fn order_rows_with_addr(orders: &[Order]) -> Vec<just_storage::Row> {
    order_rows(orders)
        .into_iter()
        .zip(orders)
        .map(|(mut row, o)| {
            row.values.push(just_storage::Value::Str(format!(
                "No.{} Jingdong Rd, Daxing District, Beijing",
                o.fid
            )));
            row
        })
        .collect()
}

/// The trajectory plugin schema, optionally without GPS-list compression
/// (the JUSTnc variant).
pub(crate) fn traj_schema(compress: bool) -> Schema {
    if compress {
        return Schema::trajectory();
    }
    let mut fields = Schema::trajectory().fields().to_vec();
    for f in &mut fields {
        f.compress = just_compress::Codec::None;
    }
    Schema::new(fields).expect("traj schema")
}

/// Builds an Order table with the given index configuration, returning
/// the engine and the insert+flush ("indexing") time.
pub(crate) fn build_order_table(
    tag: &str,
    orders: &[Order],
    index: Option<IndexKind>,
    period: TimePeriod,
    compress_fields: bool,
) -> (TempEngine, Duration) {
    let te = TempEngine::new(tag);
    te.engine
        .create_table("orders", order_schema(compress_fields), index, Some(period))
        .expect("create orders");
    let rows = order_rows_with_addr(orders);
    let (_, elapsed) = crate::harness::time_once(|| {
        te.engine.insert("orders", &rows).expect("insert orders");
        te.engine.flush_all().expect("flush");
    });
    (te, elapsed)
}

/// Builds a Traj plugin table, returning the engine and the indexing
/// time.
pub(crate) fn build_traj_table(
    tag: &str,
    trajs: &[TrajRecord],
    index: Option<IndexKind>,
    period: TimePeriod,
    compress: bool,
) -> (TempEngine, Duration) {
    let te = TempEngine::new(tag);
    te.engine
        .create_table("traj", traj_schema(compress), index, Some(period))
        .expect("create traj");
    let rows = traj_rows(trajs);
    let (_, elapsed) = crate::harness::time_once(|| {
        te.engine.insert("traj", &rows).expect("insert traj");
        te.engine.flush_all().expect("flush");
    });
    (te, elapsed)
}
