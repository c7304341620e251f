//! Process-level measurements from `/proc` and the run's provenance.

/// Linux reports process times in ticks of 1/100 s (`CLK_TCK`).
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU time of this process, all threads, in seconds.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may hold spaces; fields after the
    // closing parenthesis are fixed: utime and stime are the 12th and
    // 13th of them.
    let rest = stat.rsplit_once(')').expect("stat has a command field").1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<f64>().expect("tick count");
    (ticks(11) + ticks(12)) / TICKS_PER_SECOND
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse::<f64>().ok())
        .expect("VmHWM line");
    kib / 1024.0
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `run.sh` passes the commit and compiler in the environment (the
/// driver's checkout is not a git repository, so the commit may be
/// unknown).
pub fn stamp(var: &str) -> String {
    std::env::var(var).unwrap_or_else(|_| "unknown".to_string())
}
