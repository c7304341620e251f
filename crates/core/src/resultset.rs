//! The Figure 2 data flow: results smaller than a threshold return
//! directly; larger results are split into chunk files on disk ("HDFS")
//! and streamed to the client through a cursor, so the driver never holds
//! the whole result in memory.

use crate::dataset::Dataset;
use crate::Result;
use just_storage::{Row, Value};
use std::path::PathBuf;

/// How results are held.
enum Backing {
    /// Small result: rows in memory.
    Direct(std::vec::IntoIter<Row>),
    /// Large result: chunk files read one at a time.
    Spilled {
        chunks: Vec<PathBuf>,
        next_chunk: usize,
        current: std::vec::IntoIter<Row>,
        dir: PathBuf,
    },
}

/// A forward-only cursor over query results, mirroring the paper's
/// `ResultSet rs = client.executeQuery(sql); while (rs.hasNext()) ...`
/// SDK idiom.
pub struct ResultSet {
    total_rows: usize,
    backing: Backing,
    n_cols: usize,
}

impl ResultSet {
    /// Wraps a dataset. If its footprint exceeds `spill_threshold_bytes`,
    /// rows are written to `chunk-NNNN.bin` files under `spill_dir` in
    /// `chunk_rows`-row chunks; otherwise they are served from memory.
    pub(crate) fn new(
        data: Dataset,
        spill_dir: PathBuf,
        spill_threshold_bytes: usize,
        chunk_rows: usize,
    ) -> Result<ResultSet> {
        let total_rows = data.len();
        let n_cols = data.columns.len();
        if data.approx_bytes() <= spill_threshold_bytes {
            return Ok(ResultSet {
                total_rows,
                backing: Backing::Direct(data.rows.into_iter()),
                n_cols,
            });
        }
        std::fs::create_dir_all(&spill_dir)?;
        let mut chunks = Vec::new();
        for (i, chunk) in data.rows.chunks(chunk_rows.max(1)).enumerate() {
            let path = spill_dir.join(format!("chunk-{i:04}.bin"));
            let mut buf = Vec::new();
            buf.extend_from_slice(&(chunk.len() as u64).to_le_bytes());
            for row in chunk {
                let mut payload = Vec::new();
                for v in &row.values {
                    v.encode(&mut payload);
                }
                buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
                buf.extend_from_slice(&payload);
            }
            std::fs::write(&path, buf)?;
            chunks.push(path);
        }
        Ok(ResultSet {
            total_rows,
            backing: Backing::Spilled {
                chunks,
                next_chunk: 0,
                current: Vec::new().into_iter(),
                dir: spill_dir,
            },
            n_cols,
        })
    }

    /// Total rows in the result.
    pub fn total_rows(&self) -> usize {
        self.total_rows
    }

    /// Whether the result was spilled to disk.
    #[cfg(test)]
    pub(crate) fn is_spilled(&self) -> bool {
        matches!(self.backing, Backing::Spilled { .. })
    }

    /// Fetches the next row, loading the next chunk transparently.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Row>> {
        let n_cols = self.n_cols;
        match &mut self.backing {
            Backing::Direct(iter) => Ok(iter.next()),
            Backing::Spilled {
                chunks,
                next_chunk,
                current,
                ..
            } => loop {
                if let Some(row) = current.next() {
                    return Ok(Some(row));
                }
                if *next_chunk >= chunks.len() {
                    return Ok(None);
                }
                let bytes = std::fs::read(&chunks[*next_chunk])?;
                *next_chunk += 1;
                let mut rows = Vec::new();
                let mut pos = 0usize;
                let count = read_u64(&bytes, &mut pos)?;
                for _ in 0..count {
                    let len = read_u64(&bytes, &mut pos)? as usize;
                    let payload = bytes
                        .get(pos..pos + len)
                        .ok_or_else(|| crate::CoreError::Invalid("spill chunk truncated".into()))?;
                    pos += len;
                    let mut vpos = 0usize;
                    let mut values = Vec::with_capacity(n_cols);
                    for _ in 0..n_cols {
                        values.push(Value::decode(payload, &mut vpos).ok_or_else(|| {
                            crate::CoreError::Invalid("spill row corrupt".into())
                        })?);
                    }
                    rows.push(Row::new(values));
                }
                *current = rows.into_iter();
            },
        }
    }

    /// Drains the remaining rows.
    #[cfg(test)]
    pub(crate) fn collect_remaining(&mut self) -> Result<Vec<Row>> {
        let mut out = Vec::new();
        while let Some(row) = self.next()? {
            out.push(row);
        }
        Ok(out)
    }
}

impl Drop for ResultSet {
    fn drop(&mut self) {
        if let Backing::Spilled { dir, .. } = &self.backing {
            std::fs::remove_dir_all(dir).ok();
        }
    }
}

fn read_u64(buf: &[u8], pos: &mut usize) -> Result<u64> {
    let bytes: [u8; 8] = buf
        .get(*pos..*pos + 8)
        .ok_or_else(|| crate::CoreError::Invalid("spill chunk truncated".into()))?
        .try_into()
        .unwrap();
    *pos += 8;
    Ok(u64::from_le_bytes(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset(n: usize) -> Dataset {
        Dataset::new(
            vec!["fid".into(), "name".into()],
            (0..n)
                .map(|i| Row::new(vec![Value::Int(i as i64), Value::Str(format!("row-{i}"))]))
                .collect(),
        )
    }

    fn spill_dir(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "just-rs-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn small_results_stay_in_memory() {
        let mut rs = ResultSet::new(dataset(10), spill_dir("small"), 1 << 20, 4).unwrap();
        assert!(!rs.is_spilled());
        assert_eq!(rs.total_rows(), 10);
        let rows = rs.collect_remaining().unwrap();
        assert_eq!(rows.len(), 10);
        assert_eq!(rows[3].values[1].as_str(), Some("row-3"));
    }

    #[test]
    fn large_results_spill_and_stream_in_order() {
        let dir = spill_dir("large");
        let mut rs = ResultSet::new(dataset(1000), dir.clone(), 64, 100).unwrap();
        assert!(rs.is_spilled());
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            10,
            "10 chunks of 100 rows"
        );
        let mut count = 0i64;
        while let Some(row) = rs.next().unwrap() {
            assert_eq!(row.values[0].as_int(), Some(count));
            count += 1;
        }
        assert_eq!(count, 1000);
        drop(rs);
        assert!(!dir.exists(), "spill dir cleaned on drop");
    }

    #[test]
    fn empty_results() {
        let mut rs = ResultSet::new(
            Dataset::new(vec!["a".into()], Vec::new()),
            spill_dir("empty"),
            64,
            10,
        )
        .unwrap();
        assert_eq!(rs.next().unwrap(), None);
        assert_eq!(rs.total_rows(), 0);
    }
}
