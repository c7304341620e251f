//! Brute-force correctness oracle.
//!
//! The timed loop reduces each result to an [`Observed`] digest; after
//! the timed phase the oracle recomputes the expected answer from its
//! own copy of the preloaded rows and compares. Rows inserted during the
//! run carry fids from [`INSERT_BASE`] up, so a digest splits into a
//! preloaded part that must match exactly and an inserted part where
//! every row must be one some client issued and must satisfy the
//! predicate (preload answer ⊆ result ⊆ preload + issued inserts).

use crate::gen::{
    district_name, order, route, Check, Order, Rect, Route, Table, INSERT_BASE, KNN_K, TOPK_K,
};
use just_core::Dataset;
use just_ql::QueryResult;
use just_storage::Value;
use std::collections::BTreeMap;

/// What the client kept of one result.
#[derive(Debug, Clone, PartialEq)]
pub enum Observed {
    /// Range results: count and checksum of preloaded fids, plus the
    /// fids of rows inserted during the run.
    Fids {
        count: u64,
        checksum: u64,
        inserted: Vec<i64>,
    },
    /// `(fid, amount)` in result order.
    Topk(Vec<(i64, f64)>),
    /// `name → (count, sum)`.
    Groups(BTreeMap<String, (i64, f64)>),
    /// kNN distances in result order.
    Distances(Vec<f64>),
    /// The INSERT acknowledgement's row count.
    Inserted(i64),
    /// The request failed, was refused, or had an unexpected shape.
    Failed(String),
}

fn fid_hash(fid: i64) -> u64 {
    (fid as u64 ^ 0x5bd1_e995).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

fn column(d: &Dataset, name: &str) -> Result<usize, String> {
    d.column_index(name)
        .ok_or_else(|| format!("result has no column '{name}' (columns {:?})", d.columns))
}

impl Observed {
    /// Digests a response according to what the statement's check needs.
    pub fn digest(check: &Check, result: just_ql::Result<QueryResult>) -> Observed {
        let result = match result {
            Ok(r) => r,
            Err(e) => return Observed::Failed(e.to_string()),
        };
        Self::digest_ok(check, &result).unwrap_or_else(Observed::Failed)
    }

    fn digest_ok(check: &Check, result: &QueryResult) -> Result<Observed, String> {
        if let Check::Insert { .. } = check {
            let msg = result.message().ok_or("INSERT returned rows")?;
            let n = msg
                .split_whitespace()
                .next()
                .and_then(|w| w.parse().ok())
                .ok_or_else(|| format!("unexpected INSERT reply '{msg}'"))?;
            return Ok(Observed::Inserted(n));
        }
        let d = result.dataset().ok_or("SELECT returned a message")?;
        let int = |v: &Value| v.as_int().ok_or_else(|| format!("not an int: {v:?}"));
        let float = |v: &Value| v.as_float().ok_or_else(|| format!("not a float: {v:?}"));
        match check {
            Check::Insert { .. } => unreachable!("handled above"),
            Check::Range { .. } => {
                let fid_col = column(d, "fid")?;
                let (mut count, mut checksum, mut inserted) = (0u64, 0u64, Vec::new());
                for row in &d.rows {
                    let fid = int(&row.values[fid_col])?;
                    if fid >= INSERT_BASE {
                        inserted.push(fid);
                    } else {
                        count += 1;
                        checksum = checksum.wrapping_add(fid_hash(fid));
                    }
                }
                Ok(Observed::Fids {
                    count,
                    checksum,
                    inserted,
                })
            }
            Check::Topk { .. } => {
                let (f, a) = (column(d, "fid")?, column(d, "amount")?);
                d.rows
                    .iter()
                    .map(|r| Ok((int(&r.values[f])?, float(&r.values[a])?)))
                    .collect::<Result<_, String>>()
                    .map(Observed::Topk)
            }
            Check::JoinAgg { .. } => {
                if d.columns.len() != 3 {
                    return Err(format!("join result columns {:?}", d.columns));
                }
                let mut groups = BTreeMap::new();
                for r in &d.rows {
                    let name = r.values[0].as_str().ok_or("group key not a string")?;
                    groups.insert(name.to_string(), (int(&r.values[1])?, float(&r.values[2])?));
                }
                Ok(Observed::Groups(groups))
            }
            Check::Knn { .. } => {
                let c = column(d, "distance")?;
                d.rows
                    .iter()
                    .map(|r| float(&r.values[c]))
                    .collect::<Result<_, String>>()
                    .map(Observed::Distances)
            }
        }
    }
}

/// The benchmark's own copy of the preloaded rows.
pub struct Oracle {
    seed: u64,
    orders: Vec<Order>,
    routes: Vec<Route>,
}

fn in_time(t: i64, window: Option<(i64, i64)>) -> bool {
    window.is_none_or(|(a, b)| t >= a && t <= b)
}

fn route_within(r: &Route, rect: &Rect) -> bool {
    let m = r.mbr();
    rect.contains(m.x0, m.y0) && rect.contains(m.x1, m.y1)
}

/// Euclidean distance (degrees) from `p` to the segment `a`–`b`.
fn point_segment_distance(p: (f64, f64), a: (f64, f64), b: (f64, f64)) -> f64 {
    let (vx, vy) = (b.0 - a.0, b.1 - a.1);
    let len2 = vx * vx + vy * vy;
    let t = if len2 == 0.0 {
        0.0
    } else {
        (((p.0 - a.0) * vx + (p.1 - a.1) * vy) / len2).clamp(0.0, 1.0)
    };
    let (cx, cy) = (a.0 + t * vx, a.1 + t * vy);
    ((p.0 - cx).powi(2) + (p.1 - cy).powi(2)).sqrt()
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

impl Oracle {
    pub fn new(seed: u64, orders: i64, routes: i64) -> Self {
        Oracle {
            seed,
            orders: (0..orders).map(|fid| order(seed, fid)).collect(),
            routes: (0..routes).map(|fid| route(seed, fid)).collect(),
        }
    }

    /// Builds an oracle over explicit rows (unit tests).
    #[cfg(test)]
    pub fn from_rows(seed: u64, orders: Vec<Order>, routes: Vec<Route>) -> Self {
        Oracle {
            seed,
            orders,
            routes,
        }
    }

    fn orders_in<'a>(&'a self, rect: &'a Rect) -> impl Iterator<Item = &'a Order> {
        self.orders.iter().filter(|o| rect.contains(o.x, o.y))
    }

    /// Checks one digest. `issued_end[table]` lists, per insert stream,
    /// the fid range `[first, end)` that stream sent to the server.
    pub fn verify(
        &self,
        check: &Check,
        observed: &Observed,
        issued: &[[(i64, i64); 2]],
    ) -> Result<(), String> {
        if let Observed::Failed(e) = observed {
            return Err(format!("request failed: {e}"));
        }
        match (check, observed) {
            (Check::Insert { rows, .. }, Observed::Inserted(n)) => {
                if n == rows {
                    Ok(())
                } else {
                    Err(format!("INSERT of {rows} rows acknowledged {n}"))
                }
            }
            (
                Check::Range { table, rect, time },
                Observed::Fids {
                    count,
                    checksum,
                    inserted,
                },
            ) => {
                let (mut want_count, mut want_sum) = (0u64, 0u64);
                let mut hit = |fid: i64| {
                    want_count += 1;
                    want_sum = want_sum.wrapping_add(fid_hash(fid));
                };
                match table {
                    Table::Orders => self
                        .orders_in(rect)
                        .filter(|o| in_time(o.time, *time))
                        .for_each(|o| hit(o.fid)),
                    Table::Routes => self
                        .routes
                        .iter()
                        .filter(|r| route_within(r, rect) && in_time(r.time, *time))
                        .for_each(|r| hit(r.fid)),
                }
                if (*count, *checksum) != (want_count, want_sum) {
                    return Err(format!(
                        "preloaded rows: got {count} (checksum {checksum:x}), \
                         want {want_count} (checksum {want_sum:x})"
                    ));
                }
                let slot = usize::from(*table == Table::Routes);
                let mut seen = std::collections::BTreeSet::new();
                for &fid in inserted {
                    if !issued.iter().any(|s| (s[slot].0..s[slot].1).contains(&fid)) {
                        return Err(format!("fid {fid} was never inserted"));
                    }
                    if !seen.insert(fid) {
                        return Err(format!("fid {fid} returned twice"));
                    }
                    let ok = match table {
                        Table::Orders => {
                            let o = order(self.seed, fid);
                            rect.contains(o.x, o.y) && in_time(o.time, *time)
                        }
                        Table::Routes => {
                            let r = route(self.seed, fid);
                            route_within(&r, rect) && in_time(r.time, *time)
                        }
                    };
                    if !ok {
                        return Err(format!("inserted fid {fid} does not match the predicate"));
                    }
                }
                Ok(())
            }
            (Check::Topk { rect }, Observed::Topk(got)) => {
                let mut want: Vec<(i64, f64)> =
                    self.orders_in(rect).map(|o| (o.fid, o.amount)).collect();
                want.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                want.truncate(TOPK_K);
                // Ties in amount may come back in either fid order.
                let amounts = |v: &[(i64, f64)]| v.iter().map(|p| p.1).collect::<Vec<_>>();
                let mut fids_got: Vec<i64> = got.iter().map(|p| p.0).collect();
                let mut fids_want: Vec<i64> = want.iter().map(|p| p.0).collect();
                fids_got.sort_unstable();
                fids_want.sort_unstable();
                let tie_at_cut = self
                    .orders_in(rect)
                    .filter(|o| want.last().is_some_and(|l| o.amount == l.1))
                    .count()
                    > 1;
                if amounts(got) != amounts(&want) || (!tie_at_cut && fids_got != fids_want) {
                    return Err(format!("top-k: got {got:?}, want {want:?}"));
                }
                Ok(())
            }
            (Check::JoinAgg { rect }, Observed::Groups(got)) => {
                let mut want: BTreeMap<String, (i64, f64)> = BTreeMap::new();
                for o in self.orders_in(rect) {
                    let e = want.entry(district_name(o.district)).or_insert((0, 0.0));
                    e.0 += 1;
                    e.1 += o.amount;
                }
                let same = got.len() == want.len()
                    && got
                        .iter()
                        .zip(&want)
                        .all(|((gk, gv), (wk, wv))| gk == wk && gv.0 == wv.0 && close(gv.1, wv.1));
                if same {
                    Ok(())
                } else {
                    Err(format!("join+aggregate: got {got:?}, want {want:?}"))
                }
            }
            (Check::Knn { x, y }, Observed::Distances(got)) => {
                let mut want: Vec<f64> = self
                    .routes
                    .iter()
                    .map(|r| {
                        r.pts
                            .windows(2)
                            .map(|s| point_segment_distance((*x, *y), s[0], s[1]))
                            .fold(f64::INFINITY, f64::min)
                    })
                    .collect();
                want.sort_by(f64::total_cmp);
                want.truncate(KNN_K);
                let same =
                    got.len() == want.len() && got.iter().zip(&want).all(|(g, w)| close(*g, *w));
                if same {
                    Ok(())
                } else {
                    Err(format!("kNN distances: got {got:?}, want {want:?}"))
                }
            }
            (c, o) => Err(format!("digest {o:?} does not fit check {c:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::ROUTE_VERTICES;

    /// 20 orders on a diagonal, amounts descending with fid, two routes.
    fn tiny() -> Oracle {
        let orders = (0..20)
            .map(|i| Order {
                fid: i,
                time: 1000 * i,
                x: 116.0 + 0.01 * i as f64,
                y: 39.6 + 0.01 * i as f64,
                amount: 100.0 - i as f64,
                district: i % 2,
            })
            .collect();
        let line = |fid, x: f64| Route {
            fid,
            time: 5000,
            pts: std::array::from_fn::<_, ROUTE_VERTICES, _>(|i| (x + 0.001 * i as f64, 39.7)),
            len: 0.007,
        };
        Oracle::from_rows(1, orders, vec![line(0, 116.1), line(1, 116.5)])
    }

    const BOX: Rect = Rect {
        x0: 116.045,
        y0: 39.6,
        x1: 116.095,
        y1: 39.75,
    };

    fn fids(f: &[i64]) -> Observed {
        Observed::Fids {
            count: f.len() as u64,
            checksum: f.iter().fold(0, |a, &x| a.wrapping_add(fid_hash(x))),
            inserted: Vec::new(),
        }
    }

    #[test]
    fn range_counts_and_checksums() {
        let o = tiny();
        let c = Check::Range {
            table: Table::Orders,
            rect: BOX,
            time: None,
        };
        // x in [116.045, 116.095] → fids 5..=9.
        assert!(o.verify(&c, &fids(&[5, 6, 7, 8, 9]), &[]).is_ok());
        assert!(o.verify(&c, &fids(&[5, 6, 7, 8]), &[]).is_err());
        assert!(o.verify(&c, &fids(&[5, 6, 7, 8, 10]), &[]).is_err());
        let timed = Check::Range {
            table: Table::Orders,
            rect: BOX,
            time: Some((6000, 8000)),
        };
        assert!(o.verify(&timed, &fids(&[6, 7, 8]), &[]).is_ok());
        let routes = Check::Range {
            table: Table::Routes,
            rect: Rect {
                x0: 116.0,
                y0: 39.6,
                x1: 116.2,
                y1: 39.8,
            },
            time: Some((0, 9000)),
        };
        assert!(o.verify(&routes, &fids(&[0]), &[]).is_ok());
        assert!(o.verify(&routes, &fids(&[0, 1]), &[]).is_err());
    }

    #[test]
    fn inserted_rows_must_be_issued_and_match() {
        let o = tiny();
        let fid = INSERT_BASE + 3;
        let row = order(1, fid);
        let around = Rect {
            x0: row.x - 1e-4,
            y0: row.y - 1e-4,
            x1: row.x + 1e-4,
            y1: row.y + 1e-4,
        };
        let c = Check::Range {
            table: Table::Orders,
            rect: around,
            time: None,
        };
        let mut got = fids(&[]);
        if let Observed::Fids { inserted, .. } = &mut got {
            inserted.push(fid);
        }
        let issued = [[(INSERT_BASE, INSERT_BASE + 10), (INSERT_BASE, INSERT_BASE)]];
        assert!(o.verify(&c, &got, &issued).is_ok());
        assert!(o.verify(&c, &got, &[]).is_err(), "never issued");
        let elsewhere = Check::Range {
            table: Table::Orders,
            rect: BOX,
            time: None,
        };
        let mut wrong = fids(&[5, 6, 7, 8, 9]);
        if let Observed::Fids { inserted, .. } = &mut wrong {
            inserted.push(fid);
        }
        assert_eq!(
            o.verify(&elsewhere, &wrong, &issued).is_err(),
            !BOX.contains(row.x, row.y)
        );
    }

    #[test]
    fn topk_join_and_knn() {
        let o = tiny();
        let all = Rect {
            x0: 115.0,
            y0: 39.0,
            x1: 117.0,
            y1: 41.0,
        };
        let top: Vec<(i64, f64)> = (0..10).map(|i| (i, 100.0 - i as f64)).collect();
        assert!(o
            .verify(
                &Check::Topk { rect: all },
                &Observed::Topk(top.clone()),
                &[]
            )
            .is_ok());
        let mut bad = top;
        bad[9] = (10, 90.0);
        assert!(o
            .verify(&Check::Topk { rect: all }, &Observed::Topk(bad), &[])
            .is_err());

        // fids 5..=9: district 1 gets 5,7,9 (95+93+91), district 0 gets 6,8.
        let groups = BTreeMap::from([
            (district_name(0), (2, 94.0 + 92.0)),
            (district_name(1), (3, 95.0 + 93.0 + 91.0)),
        ]);
        let c = Check::JoinAgg { rect: BOX };
        assert!(o.verify(&c, &Observed::Groups(groups.clone()), &[]).is_ok());
        let mut off = groups;
        off.get_mut(&district_name(0)).unwrap().0 = 3;
        assert!(o.verify(&c, &Observed::Groups(off), &[]).is_err());

        // Two routes along y = 39.7 from x = 116.1 and x = 116.5, seven
        // segments of 0.001 each: from (116.104, 39.6) the first is 0.1
        // away (foot on a segment), from the second's start side 0.4.
        let knn = Check::Knn {
            x: 116.1045,
            y: 39.6,
        };
        let far = (0.3955f64.powi(2) + 0.01).sqrt();
        let d = vec![0.1, far];
        assert!(o.verify(&knn, &Observed::Distances(d.clone()), &[]).is_ok());
        assert!(o
            .verify(&knn, &Observed::Distances(d[1..].to_vec()), &[])
            .is_err());
        assert!(o
            .verify(&knn, &Observed::Distances(vec![0.1, far + 1e-6]), &[])
            .is_err());
        assert!(o
            .verify(&knn, &Observed::Failed("BUSY".into()), &[])
            .is_err());
    }
}
