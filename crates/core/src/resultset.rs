//! The Figure 2 data flow: results smaller than a threshold return
//! directly; larger results are split into chunk files on disk ("HDFS")
//! as they are produced and streamed to the client through a cursor, so
//! the driver never holds the whole result in memory.

use crate::dataset::row_bytes;
use crate::{CoreError, Result};
use just_storage::{Row, Value};
use std::path::{Path, PathBuf};

/// A forward-only cursor over query results, mirroring the paper's
/// `ResultSet rs = client.executeQuery(sql); while (rs.hasNext()) ...`
/// SDK idiom.
pub struct ResultSet {
    total_rows: usize,
    n_cols: usize,
    /// The rows being served: every row of a result held in memory, else
    /// the rest of the chunk file read last.
    current: std::vec::IntoIter<Row>,
    /// The chunk files not read yet.
    chunks: std::vec::IntoIter<PathBuf>,
    /// Where a spilled result's chunk files live.
    spill_dir: Option<PathBuf>,
}

impl ResultSet {
    /// Takes a result of `n_cols` columns batch by batch from `next`
    /// until it returns `None`. While the rows' footprint stays within
    /// `spill_threshold_bytes` they are held in memory; once it passes,
    /// the rows so far and every later row go to `chunk-NNNN.bin` files
    /// under `spill_dir` in `chunk_rows`-row chunks, each written as soon
    /// as it fills, so no more than a chunk and a batch are ever held.
    pub(crate) fn collect<E: From<CoreError>>(
        n_cols: usize,
        spill_dir: PathBuf,
        spill_threshold_bytes: usize,
        chunk_rows: usize,
        mut next: impl FnMut() -> std::result::Result<Option<Vec<Row>>, E>,
    ) -> std::result::Result<ResultSet, E> {
        let chunk_rows = chunk_rows.max(1);
        let mut rs = ResultSet {
            total_rows: 0,
            n_cols,
            current: Vec::new().into_iter(),
            chunks: Vec::new().into_iter(),
            spill_dir: None,
        };
        let (mut rows, mut bytes, mut chunks) = (Vec::new(), 0, Vec::new());
        loop {
            let batch = next()?;
            let done = batch.is_none();
            let batch = batch.unwrap_or_default();
            rs.total_rows += batch.len();
            bytes += batch.iter().map(row_bytes).sum::<usize>();
            rows.extend(batch);
            if bytes > spill_threshold_bytes {
                // Dropping `rs` on an error below removes the directory.
                std::fs::create_dir_all(&spill_dir).map_err(CoreError::from)?;
                rs.spill_dir = Some(spill_dir.clone());
                let full = if done {
                    rows.len()
                } else {
                    rows.len() / chunk_rows * chunk_rows
                };
                for chunk in rows[..full].chunks(chunk_rows) {
                    let path = spill_dir.join(format!("chunk-{:04}.bin", chunks.len()));
                    write_chunk(&path, chunk)?;
                    chunks.push(path);
                }
                rows.drain(..full);
            }
            if done {
                break;
            }
        }
        rs.current = rows.into_iter();
        rs.chunks = chunks.into_iter();
        Ok(rs)
    }

    /// Total rows in the result.
    pub fn total_rows(&self) -> usize {
        self.total_rows
    }

    /// Whether the result was spilled to disk.
    #[cfg(test)]
    pub(crate) fn is_spilled(&self) -> bool {
        self.spill_dir.is_some()
    }

    /// Fetches the next row, loading the next chunk transparently.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Row>> {
        loop {
            if let Some(row) = self.current.next() {
                return Ok(Some(row));
            }
            let Some(chunk) = self.chunks.next() else {
                return Ok(None);
            };
            let bytes = std::fs::read(chunk)?;
            let (mut rows, mut pos) = (Vec::new(), 0);
            let count = read_u64(&bytes, &mut pos)?;
            for _ in 0..count {
                let len = read_u64(&bytes, &mut pos)? as usize;
                let payload = bytes
                    .get(pos..pos + len)
                    .ok_or_else(|| CoreError::Invalid("spill chunk truncated".into()))?;
                pos += len;
                let mut vpos = 0;
                let corrupt = || CoreError::Invalid("spill row corrupt".into());
                let values =
                    (0..self.n_cols).map(|_| Value::decode(payload, &mut vpos).ok_or_else(corrupt));
                rows.push(Row::new(values.collect::<Result<_>>()?));
            }
            self.current = rows.into_iter();
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
        if let Some(dir) = &self.spill_dir {
            std::fs::remove_dir_all(dir).ok();
        }
    }
}

/// Writes one chunk of a spilled result to `path`.
fn write_chunk(path: &Path, rows: &[Row]) -> Result<()> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&(rows.len() as u64).to_le_bytes());
    let mut payload = Vec::new();
    for row in rows {
        payload.clear();
        for v in &row.values {
            v.encode(&mut payload);
        }
        buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        buf.extend_from_slice(&payload);
    }
    Ok(std::fs::write(path, buf)?)
}

fn read_u64(buf: &[u8], pos: &mut usize) -> Result<u64> {
    let bytes: [u8; 8] = buf
        .get(*pos..*pos + 8)
        .ok_or_else(|| CoreError::Invalid("spill chunk truncated".into()))?
        .try_into()
        .unwrap();
    *pos += 8;
    Ok(u64::from_le_bytes(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| Row::new(vec![Value::Int(i as i64), Value::Str(format!("row-{i}"))]))
            .collect()
    }

    /// The cursor over two-column `rows`, fed in batches of 7 rows.
    fn result_set(rows: Vec<Row>, dir: PathBuf, threshold: usize, chunk_rows: usize) -> ResultSet {
        let mut batches = rows.chunks(7).map(<[Row]>::to_vec).collect::<Vec<_>>();
        batches.reverse();
        let next = || Ok::<_, CoreError>(batches.pop());
        ResultSet::collect(2, dir, threshold, chunk_rows, next).unwrap()
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
        let mut rs = result_set(rows(10), spill_dir("small"), 1 << 20, 4);
        assert!(!rs.is_spilled());
        assert_eq!(rs.total_rows(), 10);
        let rows = rs.collect_remaining().unwrap();
        assert_eq!(rows.len(), 10);
        assert_eq!(rows[3].values[1].as_str(), Some("row-3"));
    }

    #[test]
    fn large_results_spill_and_stream_in_order() {
        let dir = spill_dir("large");
        let mut rs = result_set(rows(1000), dir.clone(), 64, 100);
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
        let mut rs = result_set(Vec::new(), spill_dir("empty"), 64, 10);
        assert_eq!(rs.next().unwrap(), None);
        assert_eq!(rs.total_rows(), 0);
    }
}
