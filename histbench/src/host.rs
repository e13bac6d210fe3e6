//! The host and build stamp every result carries, and process memory.

use std::fmt::Write;

/// Threads the host can run at once.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

pub fn rustc_version() -> &'static str {
    env!("HISTBENCH_RUSTC")
}

pub fn build_profile() -> &'static str {
    env!("HISTBENCH_PROFILE")
}

/// Peak resident set of this process (VmHWM), in MiB. The process holds
/// the load generator as well as the system under test.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Host-wide CPU time from `/proc/stat`, in clock ticks: `(stolen,
/// total)`. Stolen time is time the hypervisor ran something else while
/// this machine's CPUs had work, the mark of other tenants on the host.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|t| t.parse().ok()).collect();
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON array of numbers.
pub fn num_list(vs: &[f64]) -> String {
    format!("[{}]", vs.iter().map(|v| num(*v)).collect::<Vec<_>>().join(", "))
}

/// JSON number; non-finite values become `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}
