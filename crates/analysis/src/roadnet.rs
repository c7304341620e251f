//! A road network: the substrate `st_trajMapMatching` runs on, and the
//! output domain of the paper's Map Recovery System application.

use just_geo::{point_segment_distance_m, LineString, Point};
use std::collections::{BinaryHeap, HashMap};

/// Identifier of a road segment.
pub type SegmentId = usize;

/// One directed road segment.
#[derive(Debug, Clone)]
pub struct RoadSegment {
    /// Segment id (index into the network).
    pub id: SegmentId,
    /// Geometry, at least two points.
    pub geometry: LineString,
    /// Start node id.
    pub from: usize,
    /// End node id.
    pub to: usize,
    /// Length in metres (computed from the geometry).
    pub length_m: f64,
}

/// A directed road graph with a uniform-grid spatial index over segments.
#[derive(Debug, Default)]
pub struct RoadNetwork {
    nodes: Vec<Point>,
    segments: Vec<RoadSegment>,
    /// node -> outgoing segment ids
    adjacency: Vec<Vec<SegmentId>>,
    /// grid cell -> segment ids whose MBR touches the cell
    grid: HashMap<(i64, i64), Vec<SegmentId>>,
    cell_deg: f64,
}

impl RoadNetwork {
    /// An empty network with the given index cell size (degrees; default
    /// ~500 m).
    pub(crate) fn new() -> Self {
        RoadNetwork {
            cell_deg: 0.005,
            ..Default::default()
        }
    }

    /// Adds a node, returning its id.
    pub(crate) fn add_node(&mut self, p: Point) -> usize {
        self.nodes.push(p);
        self.adjacency.push(Vec::new());
        self.nodes.len() - 1
    }

    /// Adds a directed segment between existing nodes with intermediate
    /// shape points (may be empty). Returns the segment id.
    fn add_segment(&mut self, from: usize, to: usize, via: Vec<Point>) -> SegmentId {
        let mut pts = Vec::with_capacity(via.len() + 2);
        pts.push(self.nodes[from]);
        pts.extend(via);
        pts.push(self.nodes[to]);
        let geometry = LineString::new(pts);
        let id = self.segments.len();
        let length_m = geometry.length_m();
        let seg = RoadSegment {
            id,
            geometry,
            from,
            to,
            length_m,
        };
        // Register in the grid.
        let mbr = seg.geometry.mbr();
        let (x0, y0) = self.cell_of(&Point::new(mbr.min_x, mbr.min_y));
        let (x1, y1) = self.cell_of(&Point::new(mbr.max_x, mbr.max_y));
        for cx in x0..=x1 {
            for cy in y0..=y1 {
                self.grid.entry((cx, cy)).or_default().push(id);
            }
        }
        self.adjacency[from].push(id);
        self.segments.push(seg);
        id
    }

    /// Adds an undirected road (two directed segments).
    pub(crate) fn add_road(
        &mut self,
        a: usize,
        b: usize,
        via: Vec<Point>,
    ) -> (SegmentId, SegmentId) {
        let mut rev = via.clone();
        rev.reverse();
        (self.add_segment(a, b, via), self.add_segment(b, a, rev))
    }

    /// Segment accessor.
    pub fn segment(&self, id: SegmentId) -> &RoadSegment {
        &self.segments[id]
    }

    /// Number of segments.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    fn cell_of(&self, p: &Point) -> (i64, i64) {
        (
            (p.x / self.cell_deg).floor() as i64,
            (p.y / self.cell_deg).floor() as i64,
        )
    }

    /// Segments within `radius_m` of `p`, with their distances, nearest
    /// first — the candidate set for map matching.
    pub(crate) fn candidates(&self, p: &Point, radius_m: f64) -> Vec<(SegmentId, f64)> {
        let reach = (radius_m / just_geo::METERS_PER_DEGREE_LAT / self.cell_deg).ceil() as i64 + 1;
        let (cx, cy) = self.cell_of(p);
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for dx in -reach..=reach {
            for dy in -reach..=reach {
                if let Some(bucket) = self.grid.get(&(cx + dx, cy + dy)) {
                    for &sid in bucket {
                        if !seen.insert(sid) {
                            continue;
                        }
                        let d = self.distance_to_segment(p, sid);
                        if d <= radius_m {
                            out.push((sid, d));
                        }
                    }
                }
            }
        }
        out.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        out
    }

    /// Distance in metres from `p` to segment `sid`.
    fn distance_to_segment(&self, p: &Point, sid: SegmentId) -> f64 {
        let g = &self.segments[sid].geometry;
        g.points
            .windows(2)
            .map(|w| point_segment_distance_m(p, &w[0], &w[1]))
            .fold(f64::INFINITY, f64::min)
    }

    /// Network (Dijkstra) distance in metres from the *end* of segment
    /// `from` to the *start* of segment `to`, capped at `max_m`.
    /// `None` when unreachable within the cap.
    pub(crate) fn route_distance_m(
        &self,
        from: SegmentId,
        to: SegmentId,
        max_m: f64,
    ) -> Option<f64> {
        if from == to {
            return Some(0.0);
        }
        let start_node = self.segments[from].to;
        let goal_node = self.segments[to].from;
        if start_node == goal_node {
            return Some(0.0);
        }
        // Dijkstra over nodes.
        #[derive(PartialEq)]
        struct Item(f64, usize);
        impl Eq for Item {}
        impl Ord for Item {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                other
                    .0
                    .partial_cmp(&self.0)
                    .unwrap_or(std::cmp::Ordering::Equal)
            }
        }
        impl PartialOrd for Item {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        let mut dist: HashMap<usize, f64> = HashMap::new();
        let mut heap = BinaryHeap::new();
        dist.insert(start_node, 0.0);
        heap.push(Item(0.0, start_node));
        while let Some(Item(d, node)) = heap.pop() {
            if node == goal_node {
                return Some(d);
            }
            if d > max_m {
                return None;
            }
            if d > *dist.get(&node).unwrap_or(&f64::INFINITY) {
                continue;
            }
            for &sid in &self.adjacency[node] {
                let seg = &self.segments[sid];
                let nd = d + seg.length_m;
                if nd <= max_m && nd < *dist.get(&seg.to).unwrap_or(&f64::INFINITY) {
                    dist.insert(seg.to, nd);
                    heap.push(Item(nd, seg.to));
                }
            }
        }
        None
    }

    /// A Manhattan-style synthetic grid network: `(n+1)² `nodes spaced
    /// `spacing_deg` apart starting at `origin`, with bidirectional roads
    /// — the substitute for a real commercial map extract.
    pub fn grid_network(origin: Point, n: usize, spacing_deg: f64) -> RoadNetwork {
        let mut net = RoadNetwork::new();
        let mut ids = vec![vec![0usize; n + 1]; n + 1];
        for (i, row) in ids.iter_mut().enumerate() {
            for (j, slot) in row.iter_mut().enumerate() {
                *slot = net.add_node(Point::new(
                    origin.x + i as f64 * spacing_deg,
                    origin.y + j as f64 * spacing_deg,
                ));
            }
        }
        for i in 0..=n {
            for j in 0..=n {
                if i < n {
                    net.add_road(ids[i][j], ids[i + 1][j], vec![]);
                }
                if j < n {
                    net.add_road(ids[i][j], ids[i][j + 1], vec![]);
                }
            }
        }
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_network_shape() {
        let net = RoadNetwork::grid_network(Point::new(116.0, 39.0), 4, 0.001);
        assert_eq!(net.num_nodes(), 25);
        // 2 directions * (4*5 + 5*4) roads
        assert_eq!(net.num_segments(), 80);
    }

    #[test]
    fn candidates_find_nearby_segments() {
        let net = RoadNetwork::grid_network(Point::new(116.0, 39.0), 4, 0.001);
        // Just off the middle of a horizontal street.
        let p = Point::new(116.0015, 39.00202);
        let cands = net.candidates(&p, 50.0);
        assert!(!cands.is_empty());
        // Nearest candidate is the street at y = 39.002 (~2 m away).
        assert!(cands[0].1 < 5.0, "nearest was {} m", cands[0].1);
        // Nothing found with a tiny radius from far away.
        assert!(net.candidates(&Point::new(117.0, 40.0), 50.0).is_empty());
    }

    #[test]
    fn route_distance_follows_the_grid() {
        let net = RoadNetwork::grid_network(Point::new(116.0, 39.0), 4, 0.001);
        // Pick a segment and one two blocks away; route distance must be
        // positive and roughly a multiple of the block length (~111 m).
        let p1 = Point::new(116.0005, 39.0);
        let p2 = Point::new(116.0025, 39.0);
        let c1 = net.candidates(&p1, 30.0)[0].0;
        let c2 = net.candidates(&p2, 30.0)[0].0;
        let d = net
            .route_distance_m(c1, c2, 10_000.0)
            .or_else(|| net.route_distance_m(c2, c1, 10_000.0))
            .expect("connected grid");
        assert!(d < 1000.0, "d = {d}");
    }

    #[test]
    fn route_distance_respects_cap() {
        let net = RoadNetwork::grid_network(Point::new(116.0, 39.0), 4, 0.001);
        let a = net.candidates(&Point::new(116.0005, 39.0), 30.0)[0].0;
        let b = net.candidates(&Point::new(116.0035, 39.004), 30.0)[0].0;
        assert!(net.route_distance_m(a, b, 10.0).is_none());
    }

    #[test]
    fn same_segment_distance_zero() {
        let net = RoadNetwork::grid_network(Point::new(116.0, 39.0), 2, 0.001);
        assert_eq!(net.route_distance_m(0, 0, 100.0), Some(0.0));
    }
}
