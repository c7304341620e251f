//! Wire-to-wire JustQL benchmark with a per-layer budget.
//!
//! `just-benchmark --workload W --seed N --seconds S --trace 0|1` starts
//! `just_server::Server` in-process on loopback, drives it through
//! `RemoteClient` from closed-loop client threads, checks every result
//! against a brute-force oracle and prints the metrics of
//! `BENCHMARK.json`; `just-benchmark compare A B` compares two result
//! files. See `README.md` beside this package.

mod compare;
mod gen;
mod metrics;
mod oracle;
mod prom;
mod report;
mod run;
mod stats;
mod sys;
mod trace;

use gen::Workload;
use std::path::PathBuf;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    results: Option<PathBuf>,
}

const USAGE: &str = "usage: just-benchmark --workload <ingest|point_hot|analytic|mixed_cold> \
     --seed <n> --seconds <n> --trace <0|1> [--results <file>]\n       \
     just-benchmark compare <A.jsonl> <B.jsonl>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut results = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: '{value}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    gen::workload(value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            "--results" => results = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    let need = |name: &str| format!("missing {name}\n{USAGE}");
    Ok(Args {
        workload: workload.ok_or_else(|| need("--workload"))?,
        seed: seed.ok_or_else(|| need("--seed"))?,
        seconds: seconds.ok_or_else(|| need("--seconds"))?,
        trace: trace.ok_or_else(|| need("--trace"))?,
        results,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") if argv.len() == 3 => compare::compare(&argv[1], &argv[2]),
        _ => parse_args(&argv).and_then(|args| report::run_and_report(&args)),
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    }
}
