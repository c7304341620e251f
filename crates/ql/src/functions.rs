//! Expression evaluation and the built-in function registry (the paper's
//! "plenty of out-of-the-box spatio-temporal analysis functions").
//!
//! Value semantics (truthiness, coercion, NULL rules, operator kernels)
//! live in `just_exec::scalar` — the single definition shared with the
//! compiled vectorized path — and this module delegates to them, so the
//! row interpreter here and the VM in `just-exec` cannot drift apart.

use crate::ast::{BinOp, Expr};
use crate::error::QlError;
use crate::Result;
use just_analysis::{
    noise_filter, segment, stay_points, NoiseFilterParams, SegmentParams, StayPointParams,
    Trajectory,
};
use just_exec::scalar;
use just_exec::{ArithOp, CmpOp, ExecError};
use just_geo::{parse_wkt, Geometry, Point, Rect, StPoint};
use just_storage::Value;

/// Maps a `just-exec` kernel error into the ql error type (the message
/// text is shared verbatim between the two paths).
pub(crate) fn exec_err(e: ExecError) -> QlError {
    QlError::Eval(e.0)
}

/// The arithmetic kernel op for a `BinOp`, if it is one.
pub(crate) fn arith_op(op: BinOp) -> Option<ArithOp> {
    match op {
        BinOp::Add => Some(ArithOp::Add),
        BinOp::Sub => Some(ArithOp::Sub),
        BinOp::Mul => Some(ArithOp::Mul),
        BinOp::Div => Some(ArithOp::Div),
        BinOp::Mod => Some(ArithOp::Mod),
        _ => None,
    }
}

/// The comparison kernel op for a `BinOp`, if it is one.
pub(crate) fn cmp_op(op: BinOp) -> Option<CmpOp> {
    match op {
        BinOp::Eq => Some(CmpOp::Eq),
        BinOp::Ne => Some(CmpOp::Ne),
        BinOp::Lt => Some(CmpOp::Lt),
        BinOp::Le => Some(CmpOp::Le),
        BinOp::Gt => Some(CmpOp::Gt),
        BinOp::Ge => Some(CmpOp::Ge),
        _ => None,
    }
}

/// Resolves a (possibly qualified) column name against a header.
pub(crate) fn resolve_column(name: &str, columns: &[String]) -> Result<usize> {
    // Exact (case-insensitive) match first.
    if let Some(i) = columns.iter().position(|c| c.eq_ignore_ascii_case(name)) {
        return Ok(i);
    }
    // Bare name matching a qualified column (unique suffix `.name`).
    if !name.contains('.') {
        let suffix = format!(".{}", name.to_ascii_lowercase());
        let hits: Vec<usize> = columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.to_ascii_lowercase().ends_with(&suffix))
            .map(|(i, _)| i)
            .collect();
        match hits.len() {
            1 => return Ok(hits[0]),
            n if n > 1 => return Err(QlError::Analyze(format!("ambiguous column '{name}'"))),
            _ => {}
        }
    } else {
        // Qualified name against bare header: try the bare part.
        let bare = name.rsplit('.').next().unwrap();
        if let Some(i) = columns.iter().position(|c| c.eq_ignore_ascii_case(bare)) {
            return Ok(i);
        }
    }
    Err(QlError::Analyze(format!("unknown column '{name}'")))
}

/// Evaluates an expression over one row.
pub(crate) fn eval(expr: &Expr, row: &[Value], columns: &[String]) -> Result<Value> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Column(name) => {
            let idx = resolve_column(name, columns)?;
            Ok(row[idx].clone())
        }
        Expr::Star => Err(QlError::Eval("'*' outside count(*)".into())),
        Expr::Unary { not, expr } => {
            let v = eval(expr, row, columns)?;
            if *not {
                scalar::logical_not(&v).map_err(exec_err)
            } else {
                scalar::neg(&v).map_err(exec_err)
            }
        }
        Expr::Binary { op, lhs, rhs } => {
            let l = eval(lhs, row, columns)?;
            match op {
                // Short-circuiting logic.
                BinOp::And => {
                    if !truthy(&l) {
                        return Ok(Value::Bool(false));
                    }
                    let r = eval(rhs, row, columns)?;
                    Ok(Value::Bool(truthy(&r)))
                }
                BinOp::Or => {
                    if truthy(&l) {
                        return Ok(Value::Bool(true));
                    }
                    let r = eval(rhs, row, columns)?;
                    Ok(Value::Bool(truthy(&r)))
                }
                _ => {
                    let r = eval(rhs, row, columns)?;
                    binary(*op, l, r)
                }
            }
        }
        Expr::Between { expr, lo, hi } => {
            let v = eval(expr, row, columns)?;
            let lo = eval(lo, row, columns)?;
            let hi = eval(hi, row, columns)?;
            scalar::between(&v, &lo, &hi).map_err(exec_err)
        }
        Expr::Func { name, args } => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval(a, row, columns)?);
            }
            call(name, vals)
        }
        Expr::InFunc { .. } => Err(QlError::Eval(
            "st_KNN can only appear as the sole WHERE predicate".into(),
        )),
    }
}

/// Evaluates a constant expression (no columns in scope).
pub(crate) fn eval_const(expr: &Expr) -> Result<Value> {
    eval(expr, &[], &[])
}

/// SQL truthiness: non-zero / non-empty / true. NULL is false.
pub(crate) fn truthy(v: &Value) -> bool {
    scalar::truthy(v)
}

fn numeric(v: &Value) -> Option<f64> {
    scalar::numeric(v)
}

/// Applies a non-logical binary operator.
pub(crate) fn binary(op: BinOp, l: Value, r: Value) -> Result<Value> {
    if let Some(a) = arith_op(op) {
        return scalar::arith(a, &l, &r).map_err(exec_err);
    }
    if op == BinOp::Within {
        return scalar::within(&l, &r).map_err(exec_err);
    }
    let c = cmp_op(op).expect("logical ops are handled by eval()");
    scalar::cmp(c, &l, &r).map_err(exec_err)
}

/// Total-ordering comparison with numeric coercion: the interpreted
/// `MIN`/`MAX` of `reference`.
pub(crate) fn compare(l: &Value, r: &Value) -> Result<std::cmp::Ordering> {
    scalar::compare(l, r).map_err(exec_err)
}

fn f64_arg(vals: &[Value], i: usize, name: &str) -> Result<f64> {
    vals.get(i)
        .and_then(numeric)
        .ok_or_else(|| QlError::Eval(format!("{name}: argument {i} must be numeric")))
}

fn geom_arg<'a>(vals: &'a [Value], i: usize, name: &str) -> Result<&'a Geometry> {
    match vals.get(i) {
        Some(Value::Geom(g)) => Ok(g),
        _ => Err(QlError::Eval(format!(
            "{name}: argument {i} must be a geometry"
        ))),
    }
}

fn gps_trajectory(vals: &[Value], i: usize, name: &str) -> Result<Trajectory> {
    match vals.get(i) {
        Some(Value::GpsList(samples)) => Ok(Trajectory::new(
            "q",
            samples
                .iter()
                .map(|s| StPoint::new(s.lng, s.lat, s.time_ms))
                .collect(),
        )),
        _ => Err(QlError::Eval(format!(
            "{name}: argument {i} must be an st_series"
        ))),
    }
}

fn traj_to_gps(t: &Trajectory) -> Value {
    Value::GpsList(
        t.points
            .iter()
            .map(|p| just_compress::gps::GpsSample {
                lng: p.point.x,
                lat: p.point.y,
                time_ms: p.time_ms,
            })
            .collect(),
    )
}

fn transform_point(vals: &[Value], name: &str, f: fn(Point) -> Point) -> Result<Value> {
    match vals {
        [Value::Geom(Geometry::Point(p))] => Ok(Value::Geom(Geometry::Point(f(*p)))),
        [a, b] => {
            let p = Point::new(
                numeric(a).ok_or_else(|| QlError::Eval(format!("{name}: bad lng")))?,
                numeric(b).ok_or_else(|| QlError::Eval(format!("{name}: bad lat")))?,
            );
            Ok(Value::Geom(Geometry::Point(f(p))))
        }
        _ => Err(QlError::Eval(format!(
            "{name}: expects a point or (lng, lat)"
        ))),
    }
}

/// Calls a built-in scalar function. `name` must be lower-case.
pub(crate) fn call(name: &str, vals: Vec<Value>) -> Result<Value> {
    match name {
        // --- constructors -------------------------------------------------
        "st_makepoint" | "st_point" => {
            let x = f64_arg(&vals, 0, name)?;
            let y = f64_arg(&vals, 1, name)?;
            Ok(Value::Geom(Geometry::Point(Point::new(x, y))))
        }
        "st_makembr" => {
            let a = f64_arg(&vals, 0, name)?;
            let b = f64_arg(&vals, 1, name)?;
            let c = f64_arg(&vals, 2, name)?;
            let d = f64_arg(&vals, 3, name)?;
            Ok(Value::Geom(Geometry::Rect(Rect::new(a, b, c, d))))
        }
        "st_geomfromtext" => match vals.first() {
            Some(Value::Str(s)) => Ok(Value::Geom(
                parse_wkt(s).map_err(|e| QlError::Eval(e.to_string()))?,
            )),
            _ => Err(QlError::Eval("st_geomFromText expects WKT".into())),
        },
        // --- accessors ----------------------------------------------------
        "st_astext" => Ok(Value::Str(geom_arg(&vals, 0, name)?.to_wkt())),
        "st_x" => match geom_arg(&vals, 0, name)? {
            Geometry::Point(p) => Ok(Value::Float(p.x)),
            _ => Err(QlError::Eval("st_x expects a point".into())),
        },
        "st_y" => match geom_arg(&vals, 0, name)? {
            Geometry::Point(p) => Ok(Value::Float(p.y)),
            _ => Err(QlError::Eval("st_y expects a point".into())),
        },
        // --- predicates & measures -----------------------------------------
        "st_within" => {
            let g = geom_arg(&vals, 0, name)?;
            let t = geom_arg(&vals, 1, name)?;
            let rect = match t {
                Geometry::Rect(r) => *r,
                other => other.mbr(),
            };
            Ok(Value::Bool(g.within_rect(&rect)))
        }
        "st_intersects" => {
            let g = geom_arg(&vals, 0, name)?;
            let t = geom_arg(&vals, 1, name)?;
            Ok(Value::Bool(g.intersects_rect(&t.mbr())))
        }
        "st_distance" => {
            let a = geom_arg(&vals, 0, name)?;
            let b = geom_arg(&vals, 1, name)?;
            Ok(Value::Float(a.distance_to_point(&b.representative_point())))
        }
        "st_distancesphere" | "st_distancem" => {
            let a = geom_arg(&vals, 0, name)?;
            let b = geom_arg(&vals, 1, name)?;
            Ok(Value::Float(just_geo::haversine_m(
                &a.representative_point(),
                &b.representative_point(),
            )))
        }
        // --- 1-1 analysis: coordinate transforms ---------------------------
        "st_wgs84togcj02" => transform_point(&vals, name, just_geo::wgs84_to_gcj02),
        "st_gcj02towgs84" => transform_point(&vals, name, just_geo::gcj02_to_wgs84),
        "st_gcj02tobd09" => transform_point(&vals, name, just_geo::gcj02_to_bd09),
        "st_bd09togcj02" => transform_point(&vals, name, just_geo::bd09_to_gcj02),
        // --- trajectory preprocessing over st_series -----------------------
        "st_trajnoisefilter" => {
            let t = gps_trajectory(&vals, 0, name)?;
            let max_speed = if vals.len() > 1 {
                f64_arg(&vals, 1, name)?
            } else {
                NoiseFilterParams::default().max_speed_ms
            };
            Ok(traj_to_gps(&noise_filter(
                &t,
                &NoiseFilterParams {
                    max_speed_ms: max_speed,
                },
            )))
        }
        // --- scalar utilities ----------------------------------------------
        "abs" => match vals.first() {
            Some(Value::Int(i)) => Ok(Value::Int(i.wrapping_abs())),
            Some(v) => Ok(Value::Float(
                numeric(v)
                    .ok_or_else(|| QlError::Eval("abs: non-numeric".into()))?
                    .abs(),
            )),
            None => Err(QlError::Eval("abs: missing argument".into())),
        },
        "lower" => match vals.first() {
            Some(Value::Str(s)) => Ok(Value::Str(s.to_lowercase())),
            _ => Err(QlError::Eval("lower expects a string".into())),
        },
        "upper" => match vals.first() {
            Some(Value::Str(s)) => Ok(Value::Str(s.to_uppercase())),
            _ => Err(QlError::Eval("upper expects a string".into())),
        },
        "length" => match vals.first() {
            Some(Value::Str(s)) => Ok(Value::Int(s.chars().count() as i64)),
            Some(Value::GpsList(l)) => Ok(Value::Int(l.len() as i64)),
            _ => Err(QlError::Eval("length expects a string or st_series".into())),
        },
        "coalesce" => Ok(vals
            .into_iter()
            .find(|v| !v.is_null())
            .unwrap_or(Value::Null)),
        // Deterministic slow-query generator: sleeps for the given number
        // of milliseconds (capped at 10s per call) and returns it. Marked
        // volatile so the optimizer never folds the sleep away — placing
        // it in a residual WHERE clause slows every *batch* of a scan,
        // which is how the observability tests make a query reliably
        // killable mid-stream.
        "sleep_ms" => {
            let ms = f64_arg(&vals, 0, name)?;
            if !ms.is_finite() || ms < 0.0 {
                return Err(QlError::Eval("sleep_ms: duration must be >= 0".into()));
            }
            let ms = (ms as u64).min(10_000);
            std::thread::sleep(std::time::Duration::from_millis(ms));
            Ok(Value::Int(ms as i64))
        }
        // --- CSV-loading conversions (the paper's CONFIG functions) --------
        "to_int" => match vals.first() {
            Some(Value::Int(i)) => Ok(Value::Int(*i)),
            Some(Value::Float(f)) => Ok(Value::Int(*f as i64)),
            Some(Value::Str(s)) => s
                .trim()
                .parse::<i64>()
                .map(Value::Int)
                .map_err(|_| QlError::Eval(format!("to_int: '{s}'"))),
            _ => Err(QlError::Eval("to_int: bad argument".into())),
        },
        "to_float" => match vals.first().and_then(numeric) {
            Some(f) => Ok(Value::Float(f)),
            None => Err(QlError::Eval("to_float: bad argument".into())),
        },
        "to_string" => Ok(Value::Str(
            vals.first().map(|v| v.to_string()).unwrap_or_default(),
        )),
        "long_to_date_ms" => match vals.first().and_then(numeric) {
            Some(f) => Ok(Value::Date(f as i64)),
            None => Err(QlError::Eval("long_to_date_ms: bad argument".into())),
        },
        "lng_lat_to_point" => {
            let x = f64_arg(&vals, 0, name)?;
            let y = f64_arg(&vals, 1, name)?;
            Ok(Value::Geom(Geometry::Point(Point::new(x, y))))
        }
        other => Err(QlError::Analyze(format!("unknown function '{other}'"))),
    }
}

/// The output columns of the 1-N table function `name`: fixed by the
/// name alone, so an operator's header never waits on its rows.
pub(crate) fn table_columns(name: &str) -> Vec<String> {
    match name {
        "st_trajsegmentation" => vec!["segment".into()],
        "st_trajstaypoint" => vec!["stay_point".into(), "t_arrive".into(), "t_leave".into()],
        _ => Vec::new(),
    }
}

/// 1-N table functions: the rows one input row expands to, each in
/// [`table_columns`] order.
pub(crate) fn table_function(name: &str, vals: Vec<Value>) -> Result<Vec<Vec<Value>>> {
    match name {
        "st_trajsegmentation" => {
            let t = gps_trajectory(&vals, 0, name)?;
            let segs = segment(&t, &SegmentParams::default());
            Ok(segs.iter().map(|s| vec![traj_to_gps(s)]).collect())
        }
        "st_trajstaypoint" => {
            let t = gps_trajectory(&vals, 0, name)?;
            let params = if vals.len() >= 3 {
                StayPointParams {
                    max_radius_m: f64_arg(&vals, 1, name)?,
                    min_duration_ms: f64_arg(&vals, 2, name)? as i64,
                }
            } else {
                StayPointParams::default()
            };
            let stays = stay_points(&t, &params);
            Ok(stays
                .iter()
                .map(|s| {
                    vec![
                        Value::Geom(Geometry::Point(s.centroid)),
                        Value::Date(s.t_arrive),
                        Value::Date(s.t_leave),
                    ]
                })
                .collect())
        }
        _ => Ok(Vec::new()),
    }
}

/// Whether the name is a 1-N table function.
pub(crate) fn is_table_function(name: &str) -> bool {
    matches!(name, "st_trajsegmentation" | "st_trajstaypoint")
}

/// Whether the name is the N-M clustering function.
pub(crate) fn is_cluster_function(name: &str) -> bool {
    name == "st_dbscan"
}

/// Whether the name is an aggregate.
pub(crate) fn is_aggregate(name: &str) -> bool {
    matches!(name, "count" | "sum" | "avg" | "min" | "max")
}

/// Whether the function is volatile: evaluating it has side effects (or
/// is non-deterministic), so the optimizer must not constant-fold it.
pub(crate) fn is_volatile(name: &str) -> bool {
    name == "sleep_ms"
}

/// Whether the name is any callable the executor knows (scalar, table,
/// cluster or aggregate) — used by upfront analysis so unknown functions
/// error even over empty relations.
pub(crate) fn is_known_function(name: &str) -> bool {
    is_aggregate(name)
        || is_table_function(name)
        || is_cluster_function(name)
        || name == "st_knn"
        || matches!(
            name,
            "st_makepoint"
                | "st_point"
                | "st_makembr"
                | "st_geomfromtext"
                | "st_astext"
                | "st_x"
                | "st_y"
                | "st_within"
                | "st_intersects"
                | "st_distance"
                | "st_distancesphere"
                | "st_distancem"
                | "st_wgs84togcj02"
                | "st_gcj02towgs84"
                | "st_gcj02tobd09"
                | "st_bd09togcj02"
                | "st_trajnoisefilter"
                | "abs"
                | "lower"
                | "upper"
                | "length"
                | "coalesce"
                | "sleep_ms"
                | "to_int"
                | "to_float"
                | "to_string"
                | "long_to_date_ms"
                | "lng_lat_to_point"
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(name: &str, vals: Vec<Value>) -> Value {
        call(name, vals).unwrap()
    }

    #[test]
    fn constructors_and_accessors() {
        let p = f(
            "st_makepoint",
            vec![Value::Float(116.4), Value::Float(39.9)],
        );
        assert_eq!(f("st_x", vec![p.clone()]), Value::Float(116.4));
        assert_eq!(f("st_y", vec![p.clone()]), Value::Float(39.9));
        let wkt = f("st_astext", vec![p.clone()]);
        assert_eq!(wkt.as_str(), Some("POINT (116.4 39.9)"));
        let back = f("st_geomfromtext", vec![wkt]);
        assert_eq!(back, p);
    }

    #[test]
    fn within_and_distance() {
        let p = f("st_makepoint", vec![Value::Int(1), Value::Int(1)]);
        let mbr = f(
            "st_makembr",
            vec![Value::Int(0), Value::Int(0), Value::Int(2), Value::Int(2)],
        );
        assert_eq!(
            f("st_within", vec![p.clone(), mbr.clone()]),
            Value::Bool(true)
        );
        let q = f("st_makepoint", vec![Value::Int(4), Value::Int(5)]);
        assert_eq!(f("st_within", vec![q.clone(), mbr]), Value::Bool(false));
        assert_eq!(f("st_distance", vec![p, q]), Value::Float(5.0));
    }

    #[test]
    fn arithmetic_and_comparison_semantics() {
        let e = |op, a, b| binary(op, a, b).unwrap();
        assert_eq!(e(BinOp::Add, Value::Int(2), Value::Int(3)), Value::Int(5));
        assert_eq!(
            e(BinOp::Mul, Value::Int(52), Value::Int(9)),
            Value::Int(468)
        );
        assert_eq!(
            e(BinOp::Div, Value::Float(1.0), Value::Int(4)),
            Value::Float(0.25)
        );
        assert!(binary(BinOp::Div, Value::Int(1), Value::Int(0)).is_err());
        assert_eq!(e(BinOp::Add, Value::Null, Value::Int(1)), Value::Null);
        assert_eq!(
            e(BinOp::Lt, Value::Int(1), Value::Float(1.5)),
            Value::Bool(true)
        );
        // NULL comparisons are false.
        assert_eq!(e(BinOp::Eq, Value::Null, Value::Null), Value::Bool(false));
        // String-number coercion (CSV filters).
        assert_eq!(
            e(BinOp::Eq, Value::Str("42".into()), Value::Int(42)),
            Value::Bool(true)
        );
    }

    #[test]
    fn transforms_shift_points_in_china() {
        let p = f(
            "st_wgs84togcj02",
            vec![Value::Float(116.404), Value::Float(39.915)],
        );
        match p {
            Value::Geom(Geometry::Point(p)) => {
                assert!((p.x - 116.404).abs() > 1e-4, "should be offset");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn noise_filter_function() {
        let samples = vec![
            just_compress::gps::GpsSample {
                lng: 116.0,
                lat: 39.0,
                time_ms: 0,
            },
            just_compress::gps::GpsSample {
                lng: 118.0,
                lat: 39.0,
                time_ms: 1000,
            }, // teleport
            just_compress::gps::GpsSample {
                lng: 116.0001,
                lat: 39.0,
                time_ms: 2000,
            },
        ];
        let out = f("st_trajnoisefilter", vec![Value::GpsList(samples)]);
        assert_eq!(out.as_gps_list().unwrap().len(), 2);
    }

    #[test]
    fn table_functions_expand() {
        let mut samples = Vec::new();
        for i in 0..5 {
            samples.push(just_compress::gps::GpsSample {
                lng: 116.0 + i as f64 * 1e-4,
                lat: 39.0,
                time_ms: i * 1000,
            });
        }
        // A big gap creates a second segment.
        for i in 0..5 {
            samples.push(just_compress::gps::GpsSample {
                lng: 116.01 + i as f64 * 1e-4,
                lat: 39.0,
                time_ms: 3_600_000 + i * 1000,
            });
        }
        let rows = table_function("st_trajsegmentation", vec![Value::GpsList(samples)]).unwrap();
        assert_eq!(table_columns("st_trajsegmentation"), vec!["segment"]);
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn unknown_function_is_analyze_error() {
        assert!(matches!(
            call("no_such_fn", vec![]),
            Err(QlError::Analyze(_))
        ));
    }

    #[test]
    fn column_resolution() {
        let cols = vec!["a.x".to_string(), "b.y".to_string(), "z".to_string()];
        assert_eq!(resolve_column("a.x", &cols).unwrap(), 0);
        assert_eq!(resolve_column("x", &cols).unwrap(), 0);
        assert_eq!(resolve_column("z", &cols).unwrap(), 2);
        // Qualified name resolving to bare column.
        assert_eq!(resolve_column("t.z", &cols).unwrap(), 2);
        assert!(resolve_column("w", &cols).is_err());
        let dup = vec!["a.x".to_string(), "b.x".to_string()];
        assert!(resolve_column("x", &dup).is_err(), "ambiguous");
    }
}
