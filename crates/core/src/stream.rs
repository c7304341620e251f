//! Streaming ingestion — the paper's first future-work item ("supporting
//! more data sources, especially the streaming data sources such as
//! Kafka").
//!
//! A [`StreamIngestor`] is the consumer side of such a pipeline: records
//! arrive one at a time (from a socket, a message queue, a GPS gateway),
//! are micro-batched, and each micro-batch lands in an indexed table as
//! one [`Engine::insert`] — one write batch to the table's kv table, no
//! index rebuild, which is exactly why JUST can absorb streams.

use crate::engine::Engine;
use crate::Result;
use just_obs::sync::Mutex;
use just_storage::Row;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Micro-batching consumer writing into one table.
pub struct StreamIngestor {
    engine: Arc<Engine>,
    table: String,
    batch_size: usize,
    buffer: Mutex<Vec<Row>>,
    ingested: AtomicU64,
}

impl StreamIngestor {
    /// Creates an ingestor into `table`, flushing every `batch_size`
    /// records (Kafka-consumer-style micro-batches).
    pub fn new(engine: Arc<Engine>, table: impl Into<String>, batch_size: usize) -> Self {
        StreamIngestor {
            engine,
            table: table.into(),
            batch_size: batch_size.max(1),
            buffer: Mutex::new(Vec::new()),
            ingested: AtomicU64::new(0),
        }
    }

    /// Offers one record; triggers a batch insert when the buffer fills.
    /// Records become queryable at the latest after [`StreamIngestor::flush`].
    pub fn push(&self, row: Row) -> Result<()> {
        let full_batch = {
            let mut buf = self.buffer.lock();
            buf.push(row);
            if buf.len() >= self.batch_size {
                Some(std::mem::take(&mut *buf))
            } else {
                None
            }
        };
        if let Some(batch) = full_batch {
            self.write(batch)?;
        }
        Ok(())
    }

    /// Drains an entire source (e.g. a partition replay).
    pub fn consume(&self, rows: impl IntoIterator<Item = Row>) -> Result<()> {
        for row in rows {
            self.push(row)?;
        }
        Ok(())
    }

    /// Writes out any buffered records.
    pub fn flush(&self) -> Result<()> {
        let batch = std::mem::take(&mut *self.buffer.lock());
        if batch.is_empty() {
            return Ok(());
        }
        self.write(batch)
    }

    fn write(&self, batch: Vec<Row>) -> Result<()> {
        let n = self.engine.insert(&self.table, &batch)?;
        self.ingested.fetch_add(n as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Records durably handed to the engine so far.
    pub fn ingested(&self) -> u64 {
        self.ingested.load(Ordering::Relaxed)
    }

    /// Records waiting in the current micro-batch.
    pub fn pending(&self) -> usize {
        self.buffer.lock().len()
    }
}

impl Drop for StreamIngestor {
    fn drop(&mut self) {
        // Best-effort final flush so dropped ingestors don't lose tails.
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use just_geo::{Geometry, Point, Rect};
    use just_storage::{Field, FieldType, Schema, SpatialPredicate, Value};

    fn engine(name: &str) -> (Arc<Engine>, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "just-stream-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let e = Arc::new(Engine::open(&dir, EngineConfig::default()).unwrap());
        e.create_table(
            "pings",
            Schema::new(vec![
                Field::new("fid", FieldType::Int).primary(),
                Field::new("time", FieldType::Date),
                Field::new("geom", FieldType::Point),
            ])
            .unwrap(),
            None,
            None,
        )
        .unwrap();
        (e, dir)
    }

    fn ping(fid: i64, lng: f64, t: i64) -> Row {
        Row::new(vec![
            Value::Int(fid),
            Value::Date(t),
            Value::Geom(Geometry::Point(Point::new(lng, 39.9))),
        ])
    }

    #[test]
    fn batches_flush_automatically() {
        let (e, dir) = engine("auto");
        let ingestor = StreamIngestor::new(e.clone(), "pings", 10);
        for i in 0..25 {
            ingestor
                .push(ping(i, 116.0 + i as f64 * 0.001, i * 1000))
                .unwrap();
        }
        // Two full batches written, 5 pending.
        assert_eq!(ingestor.ingested(), 20);
        assert_eq!(ingestor.pending(), 5);
        ingestor.flush().unwrap();
        assert_eq!(ingestor.ingested(), 25);
        let hits = e
            .spatial_range(
                "pings",
                &Rect::new(115.9, 39.8, 116.1, 40.0),
                SpatialPredicate::Within,
            )
            .unwrap();
        assert_eq!(hits.len(), 25);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn consume_drains_an_iterator_and_drop_flushes() {
        let (e, dir) = engine("drain");
        {
            let ingestor = StreamIngestor::new(e.clone(), "pings", 7);
            ingestor
                .consume((0..17).map(|i| ping(i, 116.0, i * 500)))
                .unwrap();
            assert_eq!(ingestor.pending(), 3);
            // Dropped without an explicit flush: the tail still lands.
        }
        assert_eq!(e.scan_all("pings").unwrap().len(), 17);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn streamed_updates_keep_last_position() {
        let (e, dir) = engine("updates");
        let ingestor = StreamIngestor::new(e.clone(), "pings", 1);
        // The same vehicle pings from two places; the second wins.
        ingestor.push(ping(7, 116.0, 0)).unwrap();
        ingestor.push(ping(7, 117.0, 1000)).unwrap();
        let west = e
            .spatial_range(
                "pings",
                &Rect::new(115.9, 39.8, 116.1, 40.0),
                SpatialPredicate::Within,
            )
            .unwrap();
        assert!(west.is_empty());
        let east = e
            .spatial_range(
                "pings",
                &Rect::new(116.9, 39.8, 117.1, 40.0),
                SpatialPredicate::Within,
            )
            .unwrap();
        assert_eq!(east.len(), 1);
        std::fs::remove_dir_all(dir).ok();
    }
}
