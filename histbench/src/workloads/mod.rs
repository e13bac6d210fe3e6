//! The three workloads, and what they share.

pub mod dashboard_live;
pub mod history_scan;
pub mod ingest_wire;

use crate::data::{Reference, LD_TAGS, TD};
use crate::report::Outcome;
use crate::trace::Tracer;
use crate::{Config, Scale};
use odh_core::Historian;
use std::time::{Duration, Instant};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Background compaction period of every table, ms. Each pass re-copies
/// every sealed batch, so on a durable historian a shorter period fills
/// the no-steal buffer pool between checkpoints (see `README.md`).
pub const COMPACT_INTERVAL_MS: u64 = 1000;

/// The WAL flush policy, stated with every result. It is the program's
/// own and the same on every run.
pub const WAL_POLICY: &str = "group commit: a stripe flushes at 64 KiB; the net committer fsyncs \
(sync_data) once per commit round and acks every frame the round covers";

/// Run the workload `cfg` names.
pub fn run(cfg: &Config, tracer: &Tracer) -> Result<Outcome, String> {
    let before = crate::host::cpu_ticks();
    let mut o = match cfg.workload.as_str() {
        "ingest_wire" => ingest_wire::run(cfg, tracer),
        "history_scan" => history_scan::run(cfg, tracer),
        "dashboard_live" => dashboard_live::run(cfg, tracer),
        other => {
            return Err(format!(
                "unknown workload '{other}' (expected one of {:?})",
                crate::WORKLOADS
            ))
        }
    };
    // Other tenants slow a run down without changing the program; the
    // share of CPU time stolen from this machine shows when they did.
    if let (Some((s0, t0)), Some((s1, t1))) = (before, crate::host::cpu_ticks()) {
        o.info_num("host_cpu_steal_frac", (s1 - s0) as f64 / (t1 - t0).max(1) as f64);
    }
    Ok(o)
}

/// Fresh scratch directory `name` under the run's work directory.
pub fn fresh_dir(cfg: &Config, name: &str) -> std::path::PathBuf {
    let dir = cfg.work_dir.join(format!("{}-{}-{name}", cfg.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Sealed batches across every table generation of every server.
pub fn live_batches(h: &Historian) -> u64 {
    h.cluster().servers().iter().flat_map(|s| s.tables()).map(|t| t.total_batches()).sum()
}

/// Hard stop for a run's measured phase, so a run's length stays bounded
/// even on a slow host.
pub fn phase_deadline(cfg: &Config) -> Instant {
    Instant::now() + Duration::from_secs_f64(cfg.seconds * 2.0 + 30.0)
}

/// Scale-dependent choice.
pub fn pick<T>(cfg: &Config, full: T, tiny: T) -> T {
    match cfg.scale {
        Scale::Full => full,
        Scale::Tiny => tiny,
    }
}

/// Add the peak-RSS and setup metrics every workload reports.
pub fn finish_common(o: &mut Outcome) {
    o.e2e("setup_s", Some(crate::stats::median(&o.setup_s)), "s");
    o.e2e("peak_rss_mb", crate::host::peak_rss_mb(), "MiB");
    o.info_str(
        "peak_rss_covers",
        "the whole benchmark process: generator, load clients and system under test",
    );
    o.info_str("wal_flush_policy", WAL_POLICY);
    o.info_num(
        "decode_cache_mib_per_table_per_server",
        odh_storage::table::DEFAULT_DECODE_CACHE_BYTES as f64 / (1 << 20) as f64,
    );
}

fn tag_names(schema: &str) -> Vec<&'static str> {
    if schema == TD {
        iotx::td::TRADE_TAGS.to_vec()
    } else {
        iotx::ld::OBSERVATION_TAGS[..LD_TAGS].to_vec()
    }
}

/// The full-range aggregate: COUNT(*) and every tag's SUM.
pub fn totals_sql(schema: &str) -> String {
    let sums: Vec<String> = tag_names(schema).iter().map(|t| format!("SUM({t})")).collect();
    format!("select COUNT(*), {} from {schema}_v", sums.join(", "))
}

/// Check a [`totals_sql`] answer against the generator's reference.
pub fn check_totals(
    o: &mut Outcome,
    what: &str,
    schema: &str,
    res: &odh_sql::QueryResult,
    want: &Reference,
) {
    let row = res.rows.first();
    let count = row.and_then(|r| r.get(0).as_i64()).unwrap_or(-1);
    o.check(count == want.rows as i64, || {
        format!("{what}: COUNT(*) on {schema} = {count}, generated {}", want.rows)
    });
    for (t, tag) in tag_names(schema).iter().enumerate() {
        let sum = row.and_then(|r| r.get(t + 1).as_f64()).unwrap_or(f64::NAN);
        o.check(want.sum_matches(t, sum), || {
            format!("{what}: SUM({tag}) = {sum}, generated {}", want.tag_sums[t])
        });
    }
}
