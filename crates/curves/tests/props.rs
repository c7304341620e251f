//! Randomized tests for the space-filling-curve invariants the engine
//! relies on, for all six curves at range budgets from one to hundreds:
//!
//! * *covering* (no false negatives) — every indexed record whose
//!   geometry intersects a query window has its key in some planned range;
//! * *shape* — each period's ranges are sorted, disjoint and coalesced
//!   (no two adjacent), and no more than its share of the budget (or the
//!   curve family's per-period floor, when the share is smaller);
//! * *monotonicity* — a larger budget never covers more keys;
//! * *many periods* — a month-long window still hugs the query inside
//!   every period, wherever on the globe it lies.
//!
//! Deterministically seeded (the offline stand-in for proptest).

use just_curves::xz3::StMbr;
use just_curves::*;
use just_geo::{Point, Rect};
use just_obs::Rng;

const CASES: u64 = 96;
const DAY_MS: i64 = 86_400_000;
const BUDGETS: [usize; 4] = [1, 8, 64, 512];
/// The per-period floors of the 2-D and 3-D Z curves and of the XZ
/// curves (`range.rs`).
const Z2_FLOOR: usize = 4;
const Z3_FLOOR: usize = 8;
const XZ_FLOOR: usize = 64;

fn rand_point(rng: &mut Rng) -> Point {
    Point::new(
        rng.gen_range(-180.0f64..180.0),
        rng.gen_range(-90.0f64..90.0),
    )
}

fn rand_window(rng: &mut Rng) -> Rect {
    let c = rand_point(rng);
    let w = rng.gen_range(0.001f64..20.0);
    let h = rng.gen_range(0.001f64..20.0);
    Rect::new(c.x, c.y, (c.x + w).min(180.0), (c.y + h).min(90.0))
}

/// Points the window contains: its corners and a few inside.
fn points_in(rng: &mut Rng, w: &Rect) -> Vec<Point> {
    let mut pts = vec![
        Point::new(w.min_x, w.min_y),
        Point::new(w.max_x, w.max_y),
        Point::new(w.min_x, w.max_y),
    ];
    for _ in 0..5 {
        let (fx, fy) = (rng.gen_f64(), rng.gen_f64());
        pts.push(Point::new(
            w.min_x + fx * (w.max_x - w.min_x),
            w.min_y + fy * (w.max_y - w.min_y),
        ));
    }
    pts
}

/// MBRs intersecting the window: small ones hanging over each edge, and
/// one far larger than the window.
fn mbrs_over(rng: &mut Rng, w: &Rect) -> Vec<Rect> {
    let mut out = Vec::new();
    for _ in 0..6 {
        let (dx, dy) = (rng.gen_range(0.0f64..2.0), rng.gen_range(0.0f64..2.0));
        let x = (w.min_x - dx + rng.gen_f64() * (w.max_x - w.min_x + dx)).clamp(-180.0, 180.0);
        let y = (w.min_y - dy + rng.gen_f64() * (w.max_y - w.min_y + dy)).clamp(-90.0, 90.0);
        out.push(Rect::new(x, y, (x + dx).min(180.0), (y + dy).min(90.0)));
    }
    out.push(Rect::new(
        (w.min_x - 30.0).max(-180.0),
        (w.min_y - 30.0).max(-90.0),
        (w.max_x + 30.0).min(180.0),
        (w.max_y + 30.0).min(90.0),
    ));
    for m in &out {
        assert!(m.intersects(w), "generator: {m:?} misses {w:?}");
    }
    out
}

/// Plans the query at every budget and checks covering, shape and
/// monotonicity. `periods` is how many periods the plan scans, `floor`
/// the curve's per-period floor; `keys` are the `(period, code)` of
/// records that qualify.
fn check(
    what: &str,
    periods: usize,
    floor: usize,
    keys: &[(i32, u64)],
    plan: impl Fn(&RangeOptions) -> Vec<PeriodRange>,
) {
    let mut covered_before = u128::MAX;
    for budget in BUDGETS {
        let ranges = plan(&RangeOptions {
            target_ranges: budget,
        });
        let share = (budget / periods).max(floor.min(budget));
        let mut covered = 0u128;
        let mut in_period = 0;
        for (i, r) in ranges.iter().enumerate() {
            covered += u128::from(r.range.len());
            assert!(r.range.lo <= r.range.hi, "{what} @{budget}: inverted {r:?}");
            match i.checked_sub(1).map(|j| ranges[j]) {
                Some(prev) if prev.period == r.period => {
                    assert!(
                        prev.range.hi.checked_add(1).is_some_and(|n| n < r.range.lo),
                        "{what} @{budget}: unsorted, overlapping or adjacent: {prev:?} {r:?}"
                    );
                    in_period += 1;
                }
                Some(prev) => {
                    assert!(prev.period < r.period, "{what} @{budget}: periods unsorted");
                    in_period = 1;
                }
                None => in_period = 1,
            }
            assert!(
                in_period <= share,
                "{what} @{budget}: more than {share} ranges in period {}",
                r.period
            );
        }
        for &(period, code) in keys {
            assert!(
                ranges
                    .iter()
                    .any(|r| r.period == period && r.range.contains(code)),
                "{what} @{budget}: key ({period}, {code}) escaped"
            );
        }
        assert!(
            covered <= covered_before,
            "{what} @{budget}: covers {covered} keys, a smaller budget {covered_before}"
        );
        covered_before = covered;
    }
}

/// Spatial-only plans as a single period 0.
fn spatial(ranges: Vec<KeyRange>) -> Vec<PeriodRange> {
    ranges
        .into_iter()
        .map(|range| PeriodRange { period: 0, range })
        .collect()
}

fn rand_time_window(rng: &mut Rng) -> (i64, i64) {
    let t_min = rng.gen_range(0i64..30 * DAY_MS);
    (t_min, t_min + rng.gen_range(1i64..3 * DAY_MS))
}

fn periods_of(t_min: i64, t_max: i64) -> usize {
    TimePeriod::Day.periods_covering(t_min, t_max).count()
}

#[test]
fn z2_ranges_cover_and_keep_their_shape() {
    let mut rng = Rng::seed_from_u64(0x2d01);
    let z2 = Z2::default();
    for case in 0..CASES {
        let window = rand_window(&mut rng);
        let keys: Vec<(i32, u64)> = points_in(&mut rng, &window)
            .iter()
            .map(|p| (0, z2.index(p.x, p.y)))
            .collect();
        check(&format!("z2 case {case}"), 1, Z2_FLOOR, &keys, |opts| {
            spatial(z2.ranges(&window, opts))
        });
    }
}

#[test]
fn z2_invert_contains_point() {
    let mut rng = Rng::seed_from_u64(0x2d02);
    let z2 = Z2::default();
    for case in 0..CASES {
        let p = rand_point(&mut rng);
        let cell = z2.invert(z2.index(p.x, p.y));
        assert!(
            cell.contains_point(&p),
            "case {case}: {p:?} not in {cell:?}"
        );
    }
}

#[test]
fn z3_ranges_cover_and_keep_their_shape() {
    let mut rng = Rng::seed_from_u64(0x2d04);
    let z3 = Z3::new(16, TimePeriod::Day);
    for case in 0..CASES {
        let window = rand_window(&mut rng);
        let (t_min, t_max) = rand_time_window(&mut rng);
        let keys: Vec<(i32, u64)> = points_in(&mut rng, &window)
            .iter()
            .zip([t_min, t_max].into_iter().cycle())
            .flat_map(|(p, edge)| {
                [edge, rng.gen_range(t_min..t_max + 1)].map(|t| z3.index(p.x, p.y, t))
            })
            .collect();
        check(
            &format!("z3 case {case}"),
            periods_of(t_min, t_max),
            Z3_FLOOR,
            &keys,
            |opts| z3.ranges(&window, t_min, t_max, opts),
        );
    }
}

#[test]
fn z2t_ranges_cover_and_keep_their_shape() {
    let mut rng = Rng::seed_from_u64(0x2d05);
    let z2t = Z2t::new(TimePeriod::Day);
    for case in 0..CASES {
        let window = rand_window(&mut rng);
        let (t_min, t_max) = rand_time_window(&mut rng);
        let keys: Vec<(i32, u64)> = points_in(&mut rng, &window)
            .iter()
            .map(|p| z2t.index(p.x, p.y, rng.gen_range(t_min..t_max + 1)))
            .collect();
        check(
            &format!("z2t case {case}"),
            periods_of(t_min, t_max),
            Z2_FLOOR,
            &keys,
            |opts| z2t.ranges(&window, t_min, t_max, opts),
        );
    }
}

#[test]
fn xz2_ranges_cover_and_keep_their_shape() {
    let mut rng = Rng::seed_from_u64(0x2d06);
    let xz2 = Xz2::default();
    for case in 0..CASES {
        let window = rand_window(&mut rng);
        let keys: Vec<(i32, u64)> = mbrs_over(&mut rng, &window)
            .iter()
            .map(|m| (0, xz2.index(m)))
            .collect();
        check(&format!("xz2 case {case}"), 1, XZ_FLOOR, &keys, |opts| {
            spatial(xz2.ranges(&window, opts))
        });
    }
}

#[test]
fn xz2_code_in_space() {
    let mut rng = Rng::seed_from_u64(0x2d07);
    let xz2 = Xz2::default();
    for case in 0..CASES {
        let window = rand_window(&mut rng);
        for mbr in mbrs_over(&mut rng, &window) {
            assert!(xz2.index(&mbr) < xz2.code_space(), "case {case}");
        }
    }
}

/// Objects overlapping the time window, each shorter than one period
/// (the look-back period's guarantee).
fn st_mbrs_over(rng: &mut Rng, w: &Rect, q_min: i64, q_max: i64) -> Vec<StMbr> {
    mbrs_over(rng, w)
        .into_iter()
        .map(|m| {
            let dur = rng.gen_range(0i64..DAY_MS);
            let t0 = rng.gen_range(q_min - dur..q_max + 1);
            StMbr::new(m, t0, t0 + dur)
        })
        .collect()
}

#[test]
fn xz2t_ranges_cover_and_keep_their_shape() {
    let mut rng = Rng::seed_from_u64(0x2d08);
    let xz2t = Xz2t::new(TimePeriod::Day);
    for case in 0..CASES {
        let window = rand_window(&mut rng);
        let (q_min, q_max) = rand_time_window(&mut rng);
        let keys: Vec<(i32, u64)> = st_mbrs_over(&mut rng, &window, q_min, q_max)
            .iter()
            .map(|st| xz2t.index(st))
            .collect();
        check(
            &format!("xz2t case {case}"),
            periods_of(q_min, q_max) + 1,
            XZ_FLOOR,
            &keys,
            |opts| xz2t.ranges(&window, q_min, q_max, opts),
        );
    }
}

#[test]
fn xz3_ranges_cover_and_keep_their_shape() {
    let mut rng = Rng::seed_from_u64(0x2d09);
    let xz3 = Xz3::new(12, TimePeriod::Day);
    for case in 0..CASES {
        let window = rand_window(&mut rng);
        let (q_min, q_max) = rand_time_window(&mut rng);
        let keys: Vec<(i32, u64)> = st_mbrs_over(&mut rng, &window, q_min, q_max)
            .iter()
            .map(|st| xz3.index(st))
            .collect();
        check(
            &format!("xz3 case {case}"),
            periods_of(q_min, q_max) + 1,
            XZ_FLOOR,
            &keys,
            |opts| xz3.ranges(&window, q_min, q_max, opts),
        );
    }
}

/// Share of one period's code space that `ranges` scan in `period`.
fn covered_share(ranges: &[PeriodRange], period: i32, code_space: f64) -> f64 {
    let covered: u128 = ranges
        .iter()
        .filter(|r| r.period == period)
        .map(|r| u128::from(r.range.len()))
        .sum();
    covered as f64 / code_space
}

/// A month-long window leaves each of its 32 periods one or two ranges of
/// an equally shared budget — the window's enclosing cell, up to the whole
/// period when it straddles a corner of the tree. The per-period floors
/// keep every period at least as tight as the fixed depth-9 recursion the
/// budget replaced (cells of 4^-9 of the space: 4 of them around a corner
/// for Z2, 4 enlarged ones anywhere for XZ2).
#[test]
fn month_long_windows_hug_the_query_in_every_period() {
    let mut rng = Rng::seed_from_u64(0x2d0b);
    let depth_9 = 4.0 * 0.25f64.powi(9);
    let (t_min, t_max) = (DAY_MS / 3, 31 * DAY_MS + DAY_MS / 3);
    let opts = RangeOptions::default();
    let (z2t, xz2t) = (Z2t::new(TimePeriod::Day), Xz2t::new(TimePeriod::Day));
    let (z3, xz3) = (Z3::new(16, TimePeriod::Day), Xz3::new(12, TimePeriod::Day));
    // Cities, and the corners of the top levels of the quadtree.
    let cities = [(116.4, 39.9), (2.35, 48.85), (-74.0, 40.7)];
    let corners = [(90.0, 45.0), (-0.01, 0.01), (0.0, 0.0)];
    for (i, &(lng, lat)) in cities.iter().chain(&corners).enumerate() {
        let centre = Point::new(lng, lat);
        let what = format!("month at ({lng}, {lat})");

        let window = Rect::window_km(centre, 3.0);
        let points = points_in(&mut rng, &window);
        let keys: Vec<_> = points
            .iter()
            .map(|p| z2t.index(p.x, p.y, rng.gen_range(t_min..t_max + 1)))
            .collect();
        check(&format!("z2t {what}"), 32, Z2_FLOOR, &keys, |opts| {
            z2t.ranges(&window, t_min, t_max, opts)
        });
        let keys: Vec<_> = points
            .iter()
            .map(|p| z3.index(p.x, p.y, rng.gen_range(t_min..t_max + 1)))
            .collect();
        check(&format!("z3 {what}"), 32, Z3_FLOOR, &keys, |opts| {
            z3.ranges(&window, t_min, t_max, opts)
        });
        let code_space = 4f64.powi(z2t.z2().bits() as i32);
        let plan = z2t.ranges(&window, t_min, t_max, &opts);
        for period in [0, 15, 31] {
            let share = covered_share(&plan, period, code_space);
            assert!(share <= depth_9, "z2t {what}: {share:e} of period {period}");
        }

        let window = Rect::window_km(centre, 5.0);
        let objects = st_mbrs_over(&mut rng, &window, t_min, t_max);
        let keys: Vec<_> = objects.iter().map(|st| xz2t.index(st)).collect();
        check(&format!("xz2t {what}"), 33, XZ_FLOOR, &keys, |opts| {
            xz2t.ranges(&window, t_min, t_max, opts)
        });
        let keys: Vec<_> = objects.iter().map(|st| xz3.index(st)).collect();
        check(&format!("xz3 {what}"), 33, XZ_FLOOR, &keys, |opts| {
            xz3.ranges(&window, t_min, t_max, opts)
        });
        // Every period scans what a one-period window would...
        let plan = xz2t.ranges(&window, t_min, t_max, &opts);
        let one = xz2t.xz2().ranges(&window, &opts);
        for period in [-1, 15, 31] {
            let scanned: Vec<KeyRange> = plan
                .iter()
                .filter(|r| r.period == period)
                .map(|r| r.range)
                .collect();
            assert_eq!(scanned, one, "xz2t {what}: period {period}");
        }
        // ...which, away from the tree's top corners (where nine cells a
        // level each cost a range for their own code and 64 ranges end
        // a level or two short of depth 9), beats the old bound.
        let share = covered_share(&plan, 15, xz2t.xz2().code_space() as f64);
        let bound = if i < cities.len() {
            depth_9
        } else {
            16.0 * depth_9
        };
        assert!(share <= bound, "xz2t {what}: {share:e} of a period");
    }
}

#[test]
fn period_numbering_is_monotone() {
    let mut rng = Rng::seed_from_u64(0x2d0a);
    let p = TimePeriod::Day;
    for case in 0..CASES * 4 {
        let a = rng.next_u64() as i64;
        let b = rng.next_u64() as i64;
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        assert!(
            p.period_of(a) <= p.period_of(b),
            "case {case}: {a} -> {b} not monotone"
        );
    }
}
