//! k-NN query — Algorithm 1 of the paper, with the Lemma 1 area pruning.
//!
//! The spatial range query is the building block: the world is split into
//! progressively smaller areas kept in a priority queue ordered by
//! `d_A(q, a)` (Equation 4); areas are expanded nearest-first, small areas
//! are resolved by a range query, and expansion stops as soon as the
//! nearest unexplored area is farther than the current k-th best record.

use crate::Result;
use just_geo::{Point, Rect};
use just_storage::{Row, StTable};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

/// Minimum area side in km: areas at most this wide trigger a range
/// query instead of splitting ("g = 1km × 1km is a system parameter").
const MIN_AREA_KM: f64 = 1.0;

/// Safety cap on range queries, so absurd `k` on sparse data terminates
/// promptly.
const MAX_RANGE_QUERIES: usize = 100_000;

/// Candidate record ordered by distance (max-heap: the worst candidate on
/// top so it can be evicted).
struct Candidate {
    dist: f64,
    row: Row,
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist
    }
}
impl Eq for Candidate {}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist
            .partial_cmp(&other.dist)
            .unwrap_or(Ordering::Equal)
    }
}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Area ordered by `d_A(q, a)` (min-heap via reversal).
struct Area {
    dist: f64,
    rect: Rect,
}

impl PartialEq for Area {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist
    }
}
impl Eq for Area {}
impl Ord for Area {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
    }
}
impl PartialOrd for Area {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Runs the k-NN query of Algorithm 1 against an indexed table. Returns
/// up to `k` rows with their Euclidean distances (degrees), nearest first.
pub fn knn(table: &StTable, q: Point, k: usize) -> Result<Vec<(Row, f64)>> {
    if k == 0 {
        return Ok(Vec::new());
    }
    // cq: max-heap of the best k candidates seen (worst on top).
    let mut cq: BinaryHeap<Candidate> = BinaryHeap::with_capacity(k + 1);
    // aq: min-heap of areas by distance to q, seeded with the whole space.
    let mut aq: BinaryHeap<Area> = BinaryHeap::new();
    aq.push(Area {
        dist: 0.0,
        rect: just_geo::WORLD,
    });
    let mut d_max = f64::INFINITY; // distance of the k-th best so far
    let mut seen: HashSet<Vec<u8>> = HashSet::new();
    let mut range_queries = 0usize;

    while let Some(area) = aq.pop() {
        // Lemma 1 (area pruning): every unexplored record is at least
        // area.dist away; with k candidates at most d_max away, stop.
        if cq.len() == k && area.dist > d_max {
            break;
        }
        let side_km = approx_side_km(&area.rect);
        // Adaptive leaf size: areas far from q are scanned at coarser
        // granularity (one range query instead of hundreds), which keeps
        // sparse-data k-NN from grinding through thousands of tiny cells.
        // Pruning is unaffected — only the scan unit grows with distance.
        let dist_km = area.dist * just_geo::METERS_PER_DEGREE_LAT / 1000.0;
        let leaf_km = MIN_AREA_KM.max(dist_km);
        if side_km > leaf_km {
            for quadrant in area.rect.quadrants() {
                aq.push(Area {
                    dist: quadrant.min_distance(&q),
                    rect: quadrant,
                });
            }
            continue;
        }
        if range_queries >= MAX_RANGE_QUERIES {
            break;
        }
        range_queries += 1;
        // Stream the area's candidates batch-at-a-time: each expansion
        // ring holds at most one batch of raw entries in memory instead
        // of the whole area's hit list.
        let mut hits =
            table.query_raw_stream(Some(&area.rect), None, just_storage::ScanOptions::default());
        while let Some(batch) = hits.next_batch()? {
            for (key, value) in batch.iter() {
                // Overlapping scan ranges and quadrant boundaries surface
                // the same record repeatedly; dedupe on the storage key
                // *before* paying for row decode (which may decompress a
                // GPS list), and copy a key only the first time.
                if seen.contains(key) {
                    continue;
                }
                seen.insert(key.to_vec());
                let row = table.decode_entry(value)?;
                let meta = table.meta_of(&row)?;
                let Some(geom) = &meta.geom else { continue };
                let dist = geom.distance_to_point(&q);
                cq.push(Candidate { dist, row });
                if cq.len() > k {
                    cq.pop();
                }
                if cq.len() == k {
                    d_max = cq.peek().map(|c| c.dist).unwrap_or(f64::INFINITY);
                }
            }
        }
    }

    let mut results: Vec<(Row, f64)> = cq.into_iter().map(|c| (c.row, c.dist)).collect();
    results.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(Ordering::Equal));
    Ok(results)
}

/// The longer side of the rect in km (latitude scale; good enough for the
/// split/scan decision).
fn approx_side_km(r: &Rect) -> f64 {
    let h_km = r.height() * just_geo::METERS_PER_DEGREE_LAT / 1000.0;
    let w_km = r.width() * just_geo::METERS_PER_DEGREE_LAT / 1000.0;
    h_km.max(w_km)
}

#[cfg(test)]
mod tests {
    use super::*;
    use just_geo::Geometry;
    use just_kvstore::{Store, StoreOptions};
    use just_storage::{Field, FieldType, Schema, StorageConfig, Value};

    fn setup(points: &[(i64, f64, f64)]) -> (StTable, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "just-knn-{}-{:?}-{}",
            std::process::id(),
            std::thread::current().id(),
            points.len()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        let schema = Schema::new(vec![
            Field::new("fid", FieldType::Int).primary(),
            Field::new("geom", FieldType::Point),
        ])
        .unwrap();
        let table = StTable::create(&store, "pts", schema, StorageConfig::default()).unwrap();
        for (fid, lng, lat) in points {
            table
                .insert(&Row::new(vec![
                    Value::Int(*fid),
                    Value::Geom(Geometry::Point(Point::new(*lng, *lat))),
                ]))
                .unwrap();
        }
        (table, dir)
    }

    fn grid_points(n: usize) -> Vec<(i64, f64, f64)> {
        let mut pts = Vec::new();
        for i in 0..n {
            for j in 0..n {
                pts.push((
                    (i * n + j) as i64,
                    116.0 + i as f64 * 0.01,
                    39.0 + j as f64 * 0.01,
                ));
            }
        }
        pts
    }

    #[test]
    fn knn_matches_brute_force() {
        let pts = grid_points(12);
        let (table, dir) = setup(&pts);
        let q = Point::new(116.053, 39.047);
        for k in [1, 3, 10, 25] {
            let got = knn(&table, q, k).unwrap();
            assert_eq!(got.len(), k);
            // Brute-force reference.
            let mut brute: Vec<(i64, f64)> = pts
                .iter()
                .map(|(fid, lng, lat)| (*fid, q.distance(&Point::new(*lng, *lat))))
                .collect();
            brute.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
            let got_dists: Vec<f64> = got.iter().map(|(_, d)| *d).collect();
            let brute_dists: Vec<f64> = brute.iter().take(k).map(|(_, d)| *d).collect();
            for (g, b) in got_dists.iter().zip(&brute_dists) {
                assert!(
                    (g - b).abs() < 1e-12,
                    "k={k}: {got_dists:?} vs {brute_dists:?}"
                );
            }
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn k_larger_than_dataset_returns_everything() {
        let pts = grid_points(3);
        let (table, dir) = setup(&pts);
        let got = knn(&table, Point::new(116.0, 39.0), 100).unwrap();
        assert_eq!(got.len(), 9);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn k_zero_is_empty() {
        let (table, dir) = setup(&grid_points(2));
        assert!(knn(&table, Point::new(0.0, 0.0), 0).unwrap().is_empty());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn results_are_sorted_and_deduplicated() {
        let (table, dir) = setup(&grid_points(6));
        let got = knn(&table, Point::new(116.02, 39.02), 10).unwrap();
        let mut fids: Vec<i64> = got
            .iter()
            .map(|(r, _)| r.values[0].as_int().unwrap())
            .collect();
        let dists: Vec<f64> = got.iter().map(|(_, d)| *d).collect();
        assert!(
            dists.windows(2).all(|w| w[0] <= w[1]),
            "unsorted: {dists:?}"
        );
        fids.sort_unstable();
        fids.dedup();
        assert_eq!(fids.len(), got.len(), "duplicates in result");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn paper_figure7_example_shape() {
        // A coarse re-creation of Figure 7: points clustered so the
        // expansion must cross quadrant boundaries to find the true 3-NN.
        let pts = vec![
            (1, 116.0005, 39.0005), // p1: in the same small cell as q
            (2, 115.9995, 39.0005), // p2: adjacent cell west
            (3, 116.0005, 38.9995), // p3: adjacent cell south
            (4, 115.9990, 38.9990), // p4: diagonal cell
            (5, 116.4, 39.4),       // far away
        ];
        let (table, dir) = setup(&pts);
        let q = Point::new(116.0004, 39.0004);
        let got = knn(&table, q, 3).unwrap();
        let fids: HashSet<i64> = got
            .iter()
            .map(|(r, _)| r.values[0].as_int().unwrap())
            .collect();
        assert_eq!(fids, HashSet::from([1, 2, 3]));
        std::fs::remove_dir_all(dir).ok();
    }
}
