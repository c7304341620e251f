//! Seeded dataset and statement generator.
//!
//! Everything is a pure function of `--seed`: a row is a function of
//! `(seed, table, fid)`, a client's statement sequence a function of
//! `(seed, workload, stream)`. The engine only ever sees the generated
//! SQL text.

use just_obs::rng::Rng;

/// 2019-01-01T00:00:00Z; rows span [`DAYS`] days from here.
pub const T0_MS: i64 = 1_546_300_800_000;
pub const HOUR_MS: i64 = 3_600_000;
pub const DAY_MS: i64 = 24 * HOUR_MS;
pub const DAYS: i64 = 30;

/// City extent (Beijing-sized): min_x, min_y, max_x, max_y in degrees.
pub const CITY: Rect = Rect {
    x0: 116.0,
    y0: 39.6,
    x1: 116.8,
    y1: 40.2,
};
/// Degrees per kilometre at the city's latitude.
const DEG_PER_KM_X: f64 = 1.0 / 85.39;
const DEG_PER_KM_Y: f64 = 1.0 / 111.32;

/// Share of points (and skewed query windows) drawn around the hubs.
const HUB_SHARE: f64 = 0.7;
const HUBS: usize = 8;
const HUB_SIGMA_KM: f64 = 3.0;

/// Rows loaded before the read workloads start: a quarter of the issue's
/// 200 k + 40 k (and the cold cache with it), so that three set-ups and a
/// run that gives `analytic` well over its 200 samples fit the driver's
/// time cap.
pub const PRELOAD_ORDERS: i64 = 50_000;
pub const PRELOAD_ROUTES: i64 = 10_000;
pub const DISTRICTS: i64 = 16;
pub const ROUTE_VERTICES: usize = 8;

/// Inserted rows take fids from here up, preloaded rows from 0: a result
/// row's fid says which of the two it is.
pub const INSERT_BASE: i64 = 1 << 40;
/// Fid space of one insert stream (a client, a warm-up client, the trace).
const STREAM_SPAN: i64 = 1 << 32;

pub const CREATE_TABLES: [&str; 3] = [
    "CREATE TABLE orders (fid integer:primary key, time date, geom point:srid=4326, \
     amount float, district integer)",
    "CREATE TABLE routes (fid integer:primary key, time date, geom linestring:srid=4326, \
     len float)",
    "CREATE TABLE districts (fid integer:primary key, name string)",
];

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    pub x0: f64,
    pub y0: f64,
    pub x1: f64,
    pub y1: f64,
}

impl Rect {
    pub fn contains(&self, x: f64, y: f64) -> bool {
        x >= self.x0 && x <= self.x1 && y >= self.y0 && y <= self.y1
    }

    fn sql(&self) -> String {
        format!(
            "st_makeMBR({}, {}, {}, {})",
            self.x0, self.y0, self.x1, self.y1
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table {
    Orders,
    Routes,
}

impl Table {
    pub fn name(self) -> &'static str {
        match self {
            Table::Orders => "orders",
            Table::Routes => "routes",
        }
    }

    /// Logical bytes of one row: 8 per int/date/float, 16 per vertex.
    pub fn row_user_bytes(self) -> u64 {
        match self {
            Table::Orders => 8 + 8 + 16 + 8 + 8,
            Table::Routes => 8 + 8 + 16 * ROUTE_VERTICES as u64 + 8,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Order {
    pub fid: i64,
    pub time: i64,
    pub x: f64,
    pub y: f64,
    pub amount: f64,
    pub district: i64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    pub fid: i64,
    pub time: i64,
    pub pts: [(f64, f64); ROUTE_VERTICES],
    pub len: f64,
}

/// Six decimals (~0.1 m): short SQL text that parses back to the same f64.
fn q6(v: f64) -> f64 {
    (v * 1e6).round() / 1e6
}

fn mix(seed: u64, tag: u64, n: u64) -> Rng {
    let mut r = Rng::seed_from_u64(seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let a = r.next_u64();
    Rng::seed_from_u64(a ^ n.wrapping_mul(0xd6e8_feb8_6659_fd93))
}

/// Hub centres as fractions of the city extent. Fixed, not seeded: the
/// seed draws rows and queries from one distribution, it does not move
/// the distribution, so runs on different seeds measure the same load.
const HUB_AT: [(f64, f64); HUBS] = [
    (0.50, 0.50),
    (0.30, 0.62),
    (0.68, 0.40),
    (0.42, 0.28),
    (0.60, 0.72),
    (0.22, 0.36),
    (0.78, 0.60),
    (0.36, 0.80),
];

/// Approximate standard normal (Irwin–Hall of 4, rescaled).
fn gauss(r: &mut Rng) -> f64 {
    let s: f64 = (0..4).map(|_| r.gen_f64()).sum();
    (s - 2.0) * 3f64.sqrt()
}

fn uniform_point(r: &mut Rng) -> (f64, f64) {
    (
        q6(CITY.x0 + r.gen_f64() * (CITY.x1 - CITY.x0)),
        q6(CITY.y0 + r.gen_f64() * (CITY.y1 - CITY.y0)),
    )
}

/// A point of the data distribution: 70 % around a hub, 30 % uniform.
fn skewed_point(r: &mut Rng) -> (f64, f64) {
    if r.gen_f64() >= HUB_SHARE {
        return uniform_point(r);
    }
    hub_point(r)
}

fn hub_point(r: &mut Rng) -> (f64, f64) {
    let (fx, fy) = HUB_AT[r.gen_range(0..HUBS)];
    let (hx, hy) = (
        CITY.x0 + fx * (CITY.x1 - CITY.x0),
        CITY.y0 + fy * (CITY.y1 - CITY.y0),
    );
    let x = hx + gauss(r) * HUB_SIGMA_KM * DEG_PER_KM_X;
    let y = hy + gauss(r) * HUB_SIGMA_KM * DEG_PER_KM_Y;
    (q6(x.clamp(CITY.x0, CITY.x1)), q6(y.clamp(CITY.y0, CITY.y1)))
}

fn row_time(r: &mut Rng) -> i64 {
    T0_MS + r.gen_range(0..DAYS * DAY_MS / 1000) * 1000
}

/// 4×4 grid cell of the city: the join key into `districts`.
fn district_of(x: f64, y: f64) -> i64 {
    let cx = (((x - CITY.x0) / (CITY.x1 - CITY.x0)) * 4.0).clamp(0.0, 3.0) as i64;
    let cy = (((y - CITY.y0) / (CITY.y1 - CITY.y0)) * 4.0).clamp(0.0, 3.0) as i64;
    cy * 4 + cx
}

pub fn district_name(d: i64) -> String {
    format!("district-{d:02}")
}

pub fn order(seed: u64, fid: i64) -> Order {
    let mut r = mix(seed, 2, fid as u64);
    let (x, y) = skewed_point(&mut r);
    Order {
        fid,
        time: row_time(&mut r),
        x,
        y,
        amount: (r.gen_f64() * 50_000.0).round() / 100.0,
        district: district_of(x, y),
    }
}

pub fn route(seed: u64, fid: i64) -> Route {
    let mut r = mix(seed, 3, fid as u64);
    let (mut x, mut y) = skewed_point(&mut r);
    let mut pts = [(0.0, 0.0); ROUTE_VERTICES];
    let mut len = 0.0;
    for (i, p) in pts.iter_mut().enumerate() {
        if i > 0 {
            // ~300 m steps in a random direction.
            let nx = q6((x + (r.gen_f64() - 0.5) * 0.6 * DEG_PER_KM_X).clamp(CITY.x0, CITY.x1));
            let ny = q6((y + (r.gen_f64() - 0.5) * 0.6 * DEG_PER_KM_Y).clamp(CITY.y0, CITY.y1));
            len += ((nx - x).powi(2) + (ny - y).powi(2)).sqrt();
            (x, y) = (nx, ny);
        }
        *p = (x, y);
    }
    Route {
        fid,
        time: row_time(&mut r),
        pts,
        len: q6(len),
    }
}

impl Order {
    fn sql_tuple(&self) -> String {
        format!(
            "({}, {}, st_makePoint({}, {}), {}, {})",
            self.fid, self.time, self.x, self.y, self.amount, self.district
        )
    }
}

impl Route {
    pub fn mbr(&self) -> Rect {
        let mut m = Rect {
            x0: f64::INFINITY,
            y0: f64::INFINITY,
            x1: f64::NEG_INFINITY,
            y1: f64::NEG_INFINITY,
        };
        for &(x, y) in &self.pts {
            m.x0 = m.x0.min(x);
            m.y0 = m.y0.min(y);
            m.x1 = m.x1.max(x);
            m.y1 = m.y1.max(y);
        }
        m
    }

    fn sql_tuple(&self) -> String {
        let wkt: Vec<String> = self.pts.iter().map(|(x, y)| format!("{x} {y}")).collect();
        format!(
            "({}, {}, st_geomFromText('LINESTRING({})'), {})",
            self.fid,
            self.time,
            wkt.join(", "),
            self.len
        )
    }
}

/// `INSERT` text for `rows` consecutive fids of `table` from `first_fid`.
pub fn insert_sql(seed: u64, table: Table, first_fid: i64, rows: i64) -> String {
    let tuples: Vec<String> = (first_fid..first_fid + rows)
        .map(|fid| match table {
            Table::Orders => order(seed, fid).sql_tuple(),
            Table::Routes => route(seed, fid).sql_tuple(),
        })
        .collect();
    format!("INSERT INTO {} VALUES {}", table.name(), tuples.join(", "))
}

pub fn districts_sql() -> String {
    let tuples: Vec<String> = (0..DISTRICTS)
        .map(|d| format!("({d}, '{}')", district_name(d)))
        .collect();
    format!("INSERT INTO districts VALUES {}", tuples.join(", "))
}

/// Logical bytes of the `districts` table.
pub fn districts_user_bytes() -> u64 {
    (0..DISTRICTS)
        .map(|d| 8 + district_name(d).len() as u64)
        .sum()
}

// ---------------------------------------------------------------------
// Statement classes and workloads
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    InsertBatch,
    SRange,
    StRangeZ2t,
    StRangeXz2t,
    Knn,
    JoinAgg,
    Topk,
    WideScan,
}

pub const CLASSES: [Class; 8] = [
    Class::InsertBatch,
    Class::SRange,
    Class::StRangeZ2t,
    Class::StRangeXz2t,
    Class::Knn,
    Class::JoinAgg,
    Class::Topk,
    Class::WideScan,
];

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::InsertBatch => "insert_batch",
            Class::SRange => "s_range",
            Class::StRangeZ2t => "st_range_z2t",
            Class::StRangeXz2t => "st_range_xz2t",
            Class::Knn => "knn",
            Class::JoinAgg => "join_agg",
            Class::Topk => "topk",
            Class::WideScan => "wide_scan",
        }
    }
}

pub const KNN_K: usize = 20;
pub const TOPK_K: usize = 10;

/// What the oracle needs to know to check a statement's result.
#[derive(Debug, Clone, PartialEq)]
pub enum Check {
    Insert {
        table: Table,
        first_fid: i64,
        rows: i64,
    },
    /// `SELECT fid, … FROM <table> WHERE geom WITHIN rect [AND time BETWEEN a AND b]`
    Range {
        table: Table,
        rect: Rect,
        time: Option<(i64, i64)>,
    },
    /// `SELECT fid, amount … ORDER BY amount DESC LIMIT k`
    Topk { rect: Rect },
    /// `SELECT d.name, count(*), sum(o.amount) … GROUP BY d.name`
    JoinAgg { rect: Rect },
    /// `SELECT fid, distance … st_KNN(point, k)`
    Knn { x: f64, y: f64 },
}

#[derive(Debug, Clone)]
pub struct Stmt {
    pub class: Class,
    pub sql: String,
    pub check: Check,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Class shares in percent; one class always holds ≥ 60.
    pub mix: &'static [(Class, u32)],
    pub preload: bool,
    pub block_cache_bytes: usize,
    /// Query windows follow the data's hub skew (else uniform).
    pub skewed_windows: bool,
    pub insert_rows_orders: i64,
    pub insert_rows_routes: i64,
}

/// The engine's cache gives one SSTable one of its 16 shards, so a
/// compacted table needs 16× its region size to stay resident. "Data
/// fits" therefore takes 256 MiB here, not the 32 MiB default.
const CACHE_FITS: usize = 256 << 20;
const CACHE_COLD: usize = 1 << 20;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ingest",
        why: "empty tables, 100% batched INSERT: frame decode, INSERT parse, row/key encode, \
              three WAL appends per row, group commit, flush and compaction; scans do nothing",
        mix: &[(Class::InsertBatch, 100)],
        preload: false,
        block_cache_bytes: 32 << 20,
        skewed_windows: true,
        insert_rows_orders: 200,
        insert_rows_routes: 50,
    },
    Workload {
        name: "point_hot",
        why: "small hub-skewed ranges on cached data: per-request fixed costs dominate (round \
              trip, parse/plan, Z2T/XZ2T decomposition, cached seeks); operators do little",
        mix: &[
            (Class::StRangeZ2t, 60),
            (Class::SRange, 20),
            (Class::StRangeXz2t, 20),
        ],
        preload: true,
        block_cache_bytes: CACHE_FITS,
        skewed_windows: true,
        insert_rows_orders: 0,
        insert_rows_routes: 0,
    },
    Workload {
        name: "analytic",
        why: "TOP-K, join+aggregate, wide scans, kNN on cached data: per-row costs dominate \
              (scan, refine/decode, VM lanes, hash join, TOP-K, result JSON encode and decode)",
        mix: &[
            (Class::Topk, 60),
            (Class::JoinAgg, 20),
            (Class::WideScan, 10),
            (Class::Knn, 10),
        ],
        preload: true,
        block_cache_bytes: CACHE_FITS,
        skewed_windows: true,
        insert_rows_orders: 0,
        insert_rows_routes: 0,
    },
    Workload {
        name: "mixed_cold",
        why: "uniform ranges plus 30% inserts with data >10x the 1 MiB cache: block IO, \
              evictions, memtable merge, flush/compaction stalls and MVCC under read+write",
        mix: &[
            (Class::StRangeZ2t, 60),
            (Class::InsertBatch, 30),
            (Class::SRange, 5),
            (Class::StRangeXz2t, 5),
        ],
        preload: true,
        block_cache_bytes: CACHE_COLD,
        skewed_windows: false,
        insert_rows_orders: 50,
        insert_rows_routes: 50,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Rows of `table` loaded before the workload starts.
    pub fn preloaded(&self, table: Table) -> i64 {
        match (self.preload, table) {
            (false, _) => 0,
            (true, Table::Orders) => PRELOAD_ORDERS,
            (true, Table::Routes) => PRELOAD_ROUTES,
        }
    }

    pub fn share(&self, class: Class) -> f64 {
        self.mix
            .iter()
            .find(|(c, _)| *c == class)
            .map_or(0.0, |(_, p)| f64::from(*p) / 100.0)
    }
}

/// Statements per block of the class schedule; every share is a
/// multiple of 100 / BLOCK percent.
const BLOCK: usize = 20;

/// Insert stream ids: timed clients use their index, the rest are fixed.
pub const STREAM_WARMUP: u64 = 8;
pub const STREAM_TRACE: u64 = 16;

/// One client's deterministic statement sequence.
pub struct StmtGen {
    seed: u64,
    workload: &'static Workload,
    stream: u64,
    rng: Rng,
    /// The rest of the current block of the class schedule.
    block: Vec<Class>,
    /// INSERT statements issued so far on this stream.
    inserts: u64,
    /// Rows issued so far per table (orders, routes) on this stream.
    issued: [i64; 2],
}

impl StmtGen {
    pub fn new(seed: u64, workload: &'static Workload, stream: u64) -> Self {
        StmtGen {
            seed,
            workload,
            stream,
            rng: mix(seed, 4, stream),
            block: Vec::new(),
            inserts: 0,
            issued: [0; 2],
        }
    }

    /// The next statement of the stream. Classes come in shuffled blocks
    /// of [`BLOCK`] statements that hold each class in exactly its share,
    /// so a run's class proportions do not vary with the seed the way
    /// independent draws would (a fifth more kNN moves every metric).
    pub fn next_stmt(&mut self) -> Stmt {
        if self.block.is_empty() {
            for (class, share) in self.workload.mix {
                let slots = (*share as usize * BLOCK).div_ceil(100);
                self.block.extend(std::iter::repeat_n(*class, slots));
            }
            for i in (1..self.block.len()).rev() {
                self.block.swap(i, self.rng.gen_range(0..i + 1));
            }
        }
        let class = self.block.pop().expect("block was just filled");
        self.stmt_of(class)
    }

    /// First fid this stream inserts into `table`.
    pub fn first_insert_fid(&self) -> i64 {
        INSERT_BASE + self.stream as i64 * STREAM_SPAN
    }

    /// Rows issued so far into (orders, routes).
    pub fn issued(&self) -> [i64; 2] {
        self.issued
    }

    fn window(&mut self, side_km: f64) -> Rect {
        let (cx, cy) = if self.workload.skewed_windows {
            skewed_point(&mut self.rng)
        } else {
            uniform_point(&mut self.rng)
        };
        let (hw, hh) = (side_km / 2.0 * DEG_PER_KM_X, side_km / 2.0 * DEG_PER_KM_Y);
        Rect {
            x0: q6(cx - hw),
            y0: q6(cy - hh),
            x1: q6(cx + hw),
            y1: q6(cy + hh),
        }
    }

    fn time_window(&mut self, days: i64) -> (i64, i64) {
        let start = T0_MS + self.rng.gen_range(0..(DAYS - days) * 24) * HOUR_MS;
        (start, start + days * DAY_MS)
    }

    /// The stream's next batched INSERT into `table`, on fresh fids.
    pub fn insert_stmt(&mut self, table: Table) -> Stmt {
        let (slot, rows) = match table {
            Table::Orders => (0, self.workload.insert_rows_orders),
            Table::Routes => (1, self.workload.insert_rows_routes),
        };
        let first_fid = self.first_insert_fid() + self.issued[slot];
        self.issued[slot] += rows;
        Stmt {
            class: Class::InsertBatch,
            sql: insert_sql(self.seed, table, first_fid, rows),
            check: Check::Insert {
                table,
                first_fid,
                rows,
            },
        }
    }

    pub fn stmt_of(&mut self, class: Class) -> Stmt {
        let (sql, check) = match class {
            Class::InsertBatch => {
                // Four batches of orders, then one of routes.
                let table = if self.inserts % 5 < 4 {
                    Table::Orders
                } else {
                    Table::Routes
                };
                self.inserts += 1;
                return self.insert_stmt(table);
            }
            Class::SRange => {
                let rect = self.window(1.0);
                (
                    format!("SELECT fid FROM orders WHERE geom WITHIN {}", rect.sql()),
                    Check::Range {
                        table: Table::Orders,
                        rect,
                        time: None,
                    },
                )
            }
            Class::StRangeZ2t => {
                let rect = self.window(3.0);
                let (a, b) = self.time_window(1);
                (
                    format!(
                        "SELECT fid FROM orders WHERE geom WITHIN {} AND time BETWEEN {a} AND {b}",
                        rect.sql()
                    ),
                    Check::Range {
                        table: Table::Orders,
                        rect,
                        time: Some((a, b)),
                    },
                )
            }
            Class::StRangeXz2t => {
                let rect = self.window(5.0);
                let (a, b) = self.time_window(7);
                (
                    format!(
                        "SELECT fid FROM routes WHERE geom WITHIN {} AND time BETWEEN {a} AND {b}",
                        rect.sql()
                    ),
                    Check::Range {
                        table: Table::Routes,
                        rect,
                        time: Some((a, b)),
                    },
                )
            }
            Class::Knn => {
                // Around a hub: in empty country one kNN expands for a
                // second, and a run holds too few to average that out.
                // On `routes`, the smaller table: see the README for why
                // no reply of a workload may take 200 ms.
                let (x, y) = hub_point(&mut self.rng);
                (
                    format!(
                        "SELECT fid, distance FROM routes \
                         WHERE geom IN st_KNN(st_makePoint({x}, {y}), {KNN_K})"
                    ),
                    Check::Knn { x, y },
                )
            }
            Class::JoinAgg => {
                let rect = self.window(20.0);
                (
                    format!(
                        "SELECT d.name, count(*) AS n, sum(o.amount) AS total FROM orders o \
                         JOIN districts d ON o.district = d.fid WHERE o.geom WITHIN {} \
                         GROUP BY d.name",
                        rect.sql()
                    ),
                    Check::JoinAgg { rect },
                )
            }
            Class::Topk => {
                let rect = self.window(30.0);
                (
                    format!(
                        "SELECT fid, amount FROM orders WHERE geom WITHIN {} \
                         ORDER BY amount DESC LIMIT {TOPK_K}",
                        rect.sql()
                    ),
                    Check::Topk { rect },
                )
            }
            Class::WideScan => {
                let rect = self.window(12.0);
                (
                    format!(
                        "SELECT fid, time, amount, district FROM orders WHERE geom WITHIN {}",
                        rect.sql()
                    ),
                    Check::Range {
                        table: Table::Orders,
                        rect,
                        time: None,
                    },
                )
            }
        };
        Stmt { class, sql, check }
    }
}

/// FNV-1a over the SQL of a stream's first `n` statements.
#[cfg(test)]
pub fn sequence_hash(seed: u64, workload: &'static Workload, stream: u64, n: usize) -> u64 {
    let mut g = StmtGen::new(seed, workload, stream);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..n {
        for b in g.next_stmt().sql.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_statement_sequence() {
        for w in &WORKLOADS {
            assert_eq!(sequence_hash(7, w, 0, 200), sequence_hash(7, w, 0, 200));
            assert_ne!(sequence_hash(7, w, 0, 200), sequence_hash(8, w, 0, 200));
            assert_ne!(sequence_hash(7, w, 0, 200), sequence_hash(7, w, 1, 200));
        }
    }

    #[test]
    fn rows_are_a_function_of_seed_and_fid() {
        assert_eq!(order(3, 41), order(3, 41));
        assert_ne!(order(3, 41), order(4, 41));
        assert_eq!(route(3, INSERT_BASE + 5), route(3, INSERT_BASE + 5));
        let o = order(3, 41);
        assert!(CITY.contains(o.x, o.y));
        assert!((0..DISTRICTS).contains(&o.district));
    }

    #[test]
    fn one_class_holds_the_median() {
        for w in &WORKLOADS {
            assert_eq!(w.mix.iter().map(|(_, p)| p).sum::<u32>(), 100, "{}", w.name);
            assert!(w.mix.iter().any(|(_, p)| *p >= 60), "{}", w.name);
            assert!(w
                .mix
                .iter()
                .all(|(_, p)| (*p as usize * BLOCK).is_multiple_of(100)));
            let mut g = StmtGen::new(1, w, 0);
            let mut counts = std::collections::BTreeMap::new();
            for _ in 0..3 * BLOCK {
                *counts.entry(g.next_stmt().class).or_insert(0) += 1;
            }
            for (class, share) in w.mix {
                assert_eq!(counts[class] * 100, share * 3 * BLOCK as u32, "{}", w.name);
            }
        }
    }

    #[test]
    fn insert_streams_are_disjoint() {
        let w = workload("ingest").unwrap();
        let mut a = StmtGen::new(1, w, 0);
        let mut b = StmtGen::new(1, w, 1);
        for _ in 0..50 {
            a.next_stmt();
            b.next_stmt();
        }
        let end_a = a.first_insert_fid() + a.issued().iter().max().unwrap();
        assert!(end_a < b.first_insert_fid());
    }
}
