//! Command line: `histbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1> [--scale full|tiny]`.
//!
//! Prints a human summary on stderr, then two lines on stdout: the full
//! report (host stamp, settings, sample counts, oracle failures) and, last,
//! the result line `{"correct", "attempted", "failed", "metrics"}` —
//! end-to-end metrics untraced, per-layer metrics traced. Exits non-zero
//! when an oracle fails.

use histbench::report::{report_line, result_line};
use histbench::trace::Tracer;
use histbench::{workloads, Config, Scale};
use std::path::PathBuf;

fn parse_args() -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        work_dir: PathBuf::from(".histbench"),
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cfg.workload = value()?.clone(),
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !cfg.seconds.is_finite() || cfg.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--scale" => {
                cfg.scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    v => return Err(format!("--scale takes full or tiny, not {v}")),
                }
            }
            "--work-dir" => cfg.work_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cfg.workload.is_empty() {
        return Err(format!("--workload is required (one of {:?})", histbench::WORKLOADS));
    }
    Ok(cfg)
}

fn main() {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("histbench: {e}");
            std::process::exit(2);
        }
    };
    let tracer = Tracer::new(cfg.trace);
    let outcome = match workloads::run(&cfg, &tracer) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("histbench: {e}");
            std::process::exit(2);
        }
    };
    if cfg.trace {
        let path = cfg.work_dir.join(format!("trace-{}-seed{}.jsonl", cfg.workload, cfg.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => eprintln!("histbench: spans written to {}", path.display()),
            Err(e) => eprintln!("histbench: could not write spans: {e}"),
        }
    }
    for m in &outcome.e2e {
        eprintln!("  {:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for m in &outcome.layers {
        eprintln!("  {:<40} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", report_line(&cfg, &outcome));
    println!("{}", result_line(&cfg, &outcome));
    if !outcome.failures.is_empty() {
        eprintln!(
            "histbench: {} of {} operations failed",
            outcome.failures.len(),
            outcome.attempted
        );
        std::process::exit(1);
    }
}
