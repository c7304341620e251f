//! The figure-regeneration harness: re-runs every table and figure of
//! the paper's evaluation at laptop scale.
//!
//! ```text
//! figures all                 # everything (the EXPERIMENTS.md run)
//! figures fig12 --scale 0.5   # one figure at half the default size
//! figures all --json out/     # also emit out/<figure>.json reports
//! ```

use just_bench::figures;
use just_bench::harness::Report;
use just_bench::BenchConfig;
use std::io::Write;
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Vec<String> = Vec::new();
    let mut scale = 1.0f64;
    let mut json_dir: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                scale = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--scale needs a number"));
                i += 2;
            }
            "--json" => {
                json_dir = Some(PathBuf::from(
                    args.get(i + 1)
                        .unwrap_or_else(|| usage("--json needs a directory")),
                ));
                i += 2;
            }
            other => {
                which.push(other.to_string());
                i += 1;
            }
        }
    }
    if which.is_empty() {
        usage("no figure selected");
    }
    if which.iter().any(|w| w == "all") {
        which = vec![
            "table1".into(),
            "table2".into(),
            "fig8".into(),
            "fig10".into(),
            "fig11".into(),
            "fig12".into(),
            "fig13".into(),
            "fig14".into(),
            "obs_overhead".into(),
            "ingest_concurrency".into(),
            "mvcc_split".into(),
        ];
    }
    let cfg = BenchConfig::default().scaled(scale);
    let mut failed = false;
    let out = std::io::stdout();
    let mut out = out.lock();
    writeln!(
        out,
        "JUST evaluation harness — scale {scale} ({} orders, {} trajectories x {} pts)\n",
        cfg.orders, cfg.trajectories, cfg.points_per_trajectory
    )
    .unwrap();
    for w in which {
        let t0 = std::time::Instant::now();
        let mut report = Report::new(&w);
        match w.as_str() {
            "table1" => figures::tables::table1(&mut out, &mut report),
            "table2" => figures::tables::table2(&cfg, &mut out, &mut report),
            "fig8" => figures::fig8::run(&mut out, &mut report),
            "fig10" => figures::fig10::run(&cfg, &mut out, &mut report),
            "fig11" => figures::fig11::run(&cfg, &mut out, &mut report),
            "fig12" => figures::fig12::run(&cfg, &mut out, &mut report),
            "fig13" => figures::fig13::run(&cfg, &mut out, &mut report),
            "fig14" => figures::fig14::run(&cfg, &mut out, &mut report),
            "obs_overhead" => {
                if !figures::obs_overhead::run(&cfg, &mut out, &mut report) {
                    failed = true;
                }
            }
            "ingest_concurrency" => {
                if !figures::ingest_concurrency::run(&cfg, &mut out, &mut report) {
                    failed = true;
                }
            }
            "mvcc_split" => {
                if !figures::mvcc_split::run(&cfg, &mut out, &mut report) {
                    failed = true;
                }
            }
            other => usage(&format!("unknown figure '{other}'")),
        }
        if let Some(dir) = &json_dir {
            match report.write_to(dir) {
                Ok(path) => writeln!(out, "[{w} report: {}]", path.display()).unwrap(),
                Err(e) => eprintln!("warning: could not write {w} report: {e}"),
            }
        }
        writeln!(out, "[{w} done in {:.1}s]\n", t0.elapsed().as_secs_f64()).unwrap();
    }
    if failed {
        eprintln!("error: a figure's functional guard failed");
        std::process::exit(1);
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: figures [all|table1|table2|fig8|fig10|fig11|fig12|fig13|fig14|obs_overhead|\
         ingest_concurrency|mvcc_split]... [--scale X] [--json DIR]"
    );
    std::process::exit(2);
}
