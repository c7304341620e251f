//! `compare A B`: per (workload, metric) medians and quartiles of two
//! result files (one stamped result object per line, as `run.sh
//! --results` writes them) and a verdict against each metric's bound.

use crate::metrics::{Better, END_TO_END};
use crate::stats::quartiles;
use just_ql::JsonValue;
use std::collections::BTreeMap;

/// (workload, metric) → values, end-to-end runs only; plus whether every
/// run in the file was correct.
struct Runs {
    values: BTreeMap<(String, String), Vec<f64>>,
    all_correct: bool,
}

fn load(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut runs = Runs {
        values: BTreeMap::new(),
        all_correct: true,
    };
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let json = JsonValue::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let field = |k: &str| {
            json.get(k)
                .ok_or_else(|| format!("{path}:{}: no '{k}'", n + 1))
        };
        runs.all_correct &= field("correct")?.as_bool() == Some(true);
        let workload = field("workload")?.as_str().unwrap_or("?").to_string();
        let JsonValue::Object(metrics) = field("metrics")? else {
            return Err(format!("{path}:{}: 'metrics' is not an object", n + 1));
        };
        for (name, m) in metrics {
            let value = match m.get("value") {
                Some(JsonValue::Float(f)) => *f,
                Some(JsonValue::Int(i)) => *i as f64,
                _ => return Err(format!("{path}:{}: metric {name} has no value", n + 1)),
            };
            runs.values
                .entry((workload.clone(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(runs)
}

/// Prints the comparison; `Ok(false)` when any metric fails its bound.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut pass = a.all_correct && b.all_correct;
    if !pass {
        println!("FAIL a run reported failed operations or was invalid");
    }
    println!(
        "{:<11} {:<25} {:>12} {:>9} {:>12} {:>9} {:>8}  verdict",
        "workload", "metric", "A median", "A iqr%", "B median", "B iqr%", "B vs A%"
    );
    for w in crate::gen::WORKLOADS {
        for m in &END_TO_END {
            let key = (w.name.to_string(), m.name.to_string());
            let (Some(va), Some(vb)) = (a.values.get(&key), b.values.get(&key)) else {
                continue;
            };
            let (qa, qb) = (quartiles(va), quartiles(vb));
            let spread = |q: [f64; 3]| (q[2] - q[0]) / q[1];
            // Positive = B is worse.
            let worse = match m.better {
                Better::Lower => (qb[1] - qa[1]) / qa[1],
                Better::Higher => (qa[1] - qb[1]) / qa[1],
            };
            let verdict = if worse > m.bound {
                pass = false;
                "FAIL"
            } else if spread(qa) > m.bound || spread(qb) > m.bound {
                "UNRESOLVED (spread wider than bound)"
            } else {
                "PASS"
            };
            println!(
                "{:<11} {:<25} {:>12.4} {:>9.2} {:>12.4} {:>9.2} {:>+8.2}  {verdict}",
                w.name,
                m.name,
                qa[1],
                100.0 * spread(qa),
                qb[1],
                100.0 * spread(qb),
                100.0 * worse
            );
        }
    }
    Ok(pass)
}
