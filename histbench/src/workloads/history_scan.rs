//! `history_scan`: one closed-loop SQL client over a sealed archive.
//!
//! The archive is TD + LD plus their `account`, `customer` and
//! `linkedsensor` tables, flushed and compacted during set-up, and larger
//! (as the decode cache charges it) than the default decode cache. The
//! seeded WS2 mix, every template in equal shares: per-source history
//! (TQ1/LQ1), time slices (TQ2/LQ2), downsampling with unaligned buckets
//! (VQ1), a full-range aggregate (summary pushdown) and the TQ4/LQ4
//! joins. Read-only: net, WAL and the seal pipeline stay idle. After the
//! measured window the archive is checkpointed, dropped and reopened from
//! its files, as a restarted historian would.

use super::{check_totals, fresh_dir, live_batches, phase_deadline, pick, totals_sql, SETUP_REPS};
use crate::data::{self, Deck, Reference, Strata, LD, LD_TAGS, TD, TD_TAGS};
use crate::layers::{self, LayerInputs};
use crate::obs::Scrape;
use crate::report::Outcome;
use crate::stats::{median, Samples};
use crate::trace::{Recorder, Tracer};
use crate::Config;
use iotx::ld::{self, LdSpec, ObservationGen};
use iotx::td::{self, TdSpec, TradeGen};
use iotx::ws2::{instantiate, DatasetMeta, OpNames, Template};
use odh_core::Historian;
use odh_types::{Record, Result, Timestamp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

pub const WHY: &str = "decode kernels, cache eviction, summary and zone pruning, and the planner \
do the work while net, WAL and seal sit idle, so an ingest change should show no change here";

/// Length of one traced or untraced slice of a traced run.
const SLICE: Duration = Duration::from_millis(1000);

/// Times the archive is reopened after the window; `recovery_s` is the
/// median.
const REOPENS: usize = 9;

/// LQ4 box cells: 8 side strata × 2 latitude × 2 longitude halves.
const LQ4_CELLS: u32 = 32;

/// Shortest throughput window: whole mix cycles, at least this long, so
/// each window holds the mix many times over, heavy LQ4 plans included.
const WINDOW: Duration = Duration::from_secs(5);

struct Sizes {
    accounts: u64,
    td_secs: i64,
    sensors: u64,
    ld_secs: i64,
}

fn sizes(cfg: &Config) -> Sizes {
    pick(
        cfg,
        Sizes { accounts: 1000, td_secs: 40, sensors: 20_000, ld_secs: 330 },
        Sizes { accounts: 20, td_secs: 20, sensors: 200, ld_secs: 120 },
    )
}

/// One cycle of the query mix: the WS2 templates in equal shares, as the
/// paper's WS2 runs them (the same number of queries per template), each
/// on TD and on LD as WS2 pairs TQn with LQn. `AGG` is the full-range
/// aggregate the oracles check. The deck deals every entry once per cycle
/// in a seeded order.
const MIX: [(&str, u32); 10] = [
    ("TQ1", 1),
    ("LQ1", 1),
    ("TQ2", 1),
    ("LQ2", 1),
    ("VQ1", 1),
    ("VQ1_LD", 1),
    ("AGG_TD", 1),
    ("AGG_LD", 1),
    ("TQ4", 1),
    ("LQ4", 1),
];

/// Template ids as reported in `sql.<template>.p50_ms`.
fn template_id(name: &str) -> &'static str {
    match name {
        "TQ1" => "TQ1",
        "LQ1" => "LQ1",
        "TQ2" => "TQ2",
        "LQ2" => "LQ2",
        "VQ1" | "VQ1_LD" => "VQ1",
        "AGG_TD" | "AGG_LD" => "AGG",
        "TQ4" => "TQ4",
        _ => "LQ4",
    }
}

/// The set-up archive and what the oracles compare against.
struct Archive {
    h: Historian,
    td: Reference,
    ld: Reference,
    td_meta: DatasetMeta,
    ld_meta: DatasetMeta,
    /// Decoded bytes of the whole archive as the decode cache charges
    /// them (timestamps plus every tag slot).
    decoded_bytes: u64,
    points: u64,
    digest: u64,
}

/// The archive's generated TD and LD records.
pub fn inputs(cfg: &Config) -> (TdSpec, LdSpec, Vec<Record>, Vec<Record>) {
    let sz = sizes(cfg);
    let td_spec = data::td_spec(cfg.seed, sz.accounts, sz.td_secs);
    let ld_spec = data::ld_spec(cfg.seed, sz.sensors, sz.ld_secs);
    let td_recs: Vec<Record> = TradeGen::new(&td_spec).collect();
    let ld_recs: Vec<Record> = ObservationGen::new(&ld_spec).collect();
    (td_spec, ld_spec, td_recs, ld_recs)
}

fn setup(cfg: &Config, dir: &std::path::Path, rec: &mut Recorder<'_>) -> Result<Archive> {
    let sz = sizes(cfg);
    let (td_spec, ld_spec, td_recs, ld_recs) = inputs(cfg);
    let td_ref = Reference::of(&td_recs, TD_TAGS, sz.accounts);
    let ld_ref = Reference::of(&ld_recs, LD_TAGS, sz.sensors);
    let digest = data::records_digest(&td_recs) ^ data::records_digest(&ld_recs).rotate_left(1);

    let h = Historian::builder().servers(2).disk_dir(dir).durable(false).build()?;
    data::define_schema(&h, sz.accounts, sz.sensors, 0)?;
    let account = h.create_relational_table(td::account_schema());
    account.create_index("idx_ca_id", "ca_id")?;
    account.create_index("idx_ca_name", "ca_name")?;
    for row in td::accounts(&td_spec) {
        account.insert(&row)?;
    }
    let customer = h.create_relational_table(td::customer_schema());
    customer.create_index("idx_c_id", "c_id")?;
    for row in td::customers(&td_spec) {
        customer.insert(&row)?;
    }
    let sensors = h.create_relational_table(ld::linked_sensor_schema());
    sensors.create_index("idx_sensorid", "sensorid")?;
    sensors.create_index("idx_sensorname", "sensorname")?;
    for row in ld::linked_sensors(&ld_spec) {
        sensors.insert(&row)?;
    }
    for (schema, recs) in [(TD, &td_recs), (LD, &ld_recs)] {
        let w = h.writer(schema)?;
        for chunk in recs.chunks(4096) {
            w.write_batch(chunk)?;
        }
    }
    rec.call("core", "flush", 0, || h.flush())?;
    rec.call("core", "compact", 0, || h.compact())?;
    let decoded_bytes =
        td_ref.rows * (24 + 16 * TD_TAGS as u64) + ld_ref.rows * (24 + 16 * LD_TAGS as u64);
    let meta =
        |t0: i64, secs: i64, sources: u64| DatasetMeta { sources, t0, t1: t0 + secs * 1_000_000 };
    Ok(Archive {
        td_meta: meta(td::td_epoch().micros(), sz.td_secs, sz.accounts),
        ld_meta: meta(ld::ld_epoch().micros(), sz.ld_secs, sz.sensors),
        points: td_ref.points + ld_ref.points,
        td: td_ref,
        ld: ld_ref,
        decoded_bytes,
        digest,
        h,
    })
}

/// One query of the mix, with what its answer must satisfy.
enum Expect {
    /// Any successful answer.
    Ok,
    /// Exactly this many rows (per-source history).
    Rows(u64),
    /// COUNT(*) and per-tag SUMs of a whole table.
    Totals(&'static str),
}

/// The mix schedule and the stratified parameter draws of its heavy
/// templates: slice widths (TQ2/LQ2), customer decades (TQ4), bounding-box
/// sizes (LQ4) and bucket counts (VQ1). The SQL is the `iotx::ws2`
/// templates'; only the draws are stratified, so every run covers the
/// same spread of parameters instead of whichever heavy tail its seed hit.
struct Schedule {
    mix: Deck<&'static str>,
    slice: Strata,
    decade: Deck<u32>,
    lq4_box: Deck<u32>,
    buckets: Deck<u32>,
}

impl Schedule {
    fn new() -> Schedule {
        Schedule {
            mix: Deck::new(&MIX),
            slice: Strata::new(6),
            decade: Deck::new(&[(0, 1), (1, 1), (2, 1), (3, 1), (4, 1)]),
            lq4_box: Deck::new(&(0..LQ4_CELLS).map(|c| (c, 1)).collect::<Vec<_>>()),
            buckets: Deck::new(&[(0, 1), (1, 1), (2, 1), (3, 1)]),
        }
    }
}

/// A time slice of 1/3600 to 10/3600 of the span (the paper's 1–10 s of an
/// hour), placed uniformly.
fn slice(meta: &DatasetMeta, width: f64, rng: &mut StdRng) -> (Timestamp, Timestamp) {
    let span = meta.t1 - meta.t0;
    let dt = ((span as f64 * (1.0 + 9.0 * width) / 3600.0) as i64).max(1_000);
    let start = meta.t0 + (rng.gen::<u64>() % (span - dt).max(1) as u64) as i64;
    (Timestamp(start), Timestamp(start + dt))
}

fn next_query(
    rng: &mut StdRng,
    sched: &mut Schedule,
    a: &Archive,
) -> (&'static str, String, Expect) {
    let name = sched.mix.next(rng);
    let ld_names = OpNames::odh(LD);
    let td_names = OpNames::odh(TD);
    let (sql, expect) = match name {
        "TQ1" | "LQ1" => {
            let (tpl, names, meta, reference) = if name == "TQ1" {
                (Template::Tq1, &td_names, &a.td_meta, &a.td)
            } else {
                (Template::Lq1, &ld_names, &a.ld_meta, &a.ld)
            };
            let sql = instantiate(tpl, names, meta, rng);
            // The template ends with the source id it drew.
            let src: usize = sql.rsplit(' ').next().and_then(|id| id.parse().ok()).unwrap_or(0);
            let rows = reference.per_source.get(src).copied().unwrap_or(u64::MAX);
            (sql, Expect::Rows(rows))
        }
        "TQ2" => {
            let (s, e) = slice(&a.td_meta, sched.slice.next(rng), rng);
            (format!("select * from trade_v where timestamp between '{s}' and '{e}'"), Expect::Ok)
        }
        "LQ2" => {
            let (s, e) = slice(&a.ld_meta, sched.slice.next(rng), rng);
            (
                format!(
                    "select timestamp, id, airtemperature from observation_v \
                     where timestamp between '{s}' and '{e}'"
                ),
                Expect::Ok,
            )
        }
        "TQ4" => {
            let decade = 1940 + 10 * sched.decade.next(rng);
            (
                format!(
                    "select ca_name, timestamp, t_chrg from trade_v tr, account a, customer c \
                     where a.ca_id = tr.id and a.ca_c_id = c.c_id \
                     and c_dob between '{decade}-01-01 00:00:00' and '{}-12-31 23:59:59'",
                    decade + 9
                ),
                Expect::Ok,
            )
        }
        "LQ4" => {
            // Box sides log-uniform over the template's range, from one
            // station (0.01°) to continental (~30°): the spread of
            // selectivities the template uses to exercise the planner.
            // Each deck pass visits every cell of 8 side strata × 2
            // latitude halves × 2 longitude halves once, so every pass
            // holds the same share of boxes that flip the plan.
            let c = sched.lq4_box.next(rng);
            let mut cell = |k: u32, n: u32| (k as f64 + rng.gen::<f64>()) / n as f64;
            let side = 10f64.powf(cell(c % 8, 8) * 3.5 - 2.0);
            let la = 25.0 + cell(c / 8 % 2, 2) * 23.0;
            let lo = -125.0 + cell(c / 16, 2) * 58.0;
            (
                format!(
                    "select timestamp, o.id, airtemperature from observation_v o, linkedsensor l \
                     where l.sensorid = o.id and latitude < {:.4} and latitude > {la:.4} \
                     and longitude < {:.4} and longitude > {lo:.4}",
                    la + side,
                    lo + side
                ),
                Expect::Ok,
            )
        }
        "VQ1" | "VQ1_LD" => {
            let (names, meta) =
                if name == "VQ1" { (&td_names, &a.td_meta) } else { (&ld_names, &a.ld_meta) };
            // 16–128 buckets over the span, widened by an odd number of
            // microseconds so bucket edges never line up with batch or
            // second boundaries.
            let b = (meta.t1 - meta.t0) / (16i64 << sched.buckets.next(rng))
                + 1
                + 2 * (rng.gen::<i64>() % 500).abs();
            (
                format!(
                    "select time_bucket({b}, timestamp), COUNT(*), AVG({tag}) from {t} \
                     group by time_bucket({b}, timestamp)",
                    tag = names.tag,
                    t = names.table
                ),
                Expect::Ok,
            )
        }
        "AGG_TD" => (totals_sql(TD), Expect::Totals(TD)),
        _ => (totals_sql(LD), Expect::Totals(LD)),
    };
    (name, sql, expect)
}

pub fn run(cfg: &Config, tracer: &Tracer) -> Outcome {
    let mut o = Outcome { why: WHY, ..Outcome::default() };
    tracer.set_on(cfg.trace);
    let dir = fresh_dir(cfg, "archive");
    let mut archive = None;
    let mut digests = Vec::new();
    for rep in 0..SETUP_REPS {
        drop(archive.take());
        let _ = std::fs::remove_dir_all(&dir);
        let t = Instant::now();
        let mut rec = tracer.recorder();
        rec.open("bench", "setup", rep as u64);
        let built = setup(cfg, &dir, &mut rec);
        rec.close();
        o.setup_s.push(t.elapsed().as_secs_f64());
        match built {
            Ok(a) => {
                digests.push(a.digest);
                archive = Some(a);
            }
            Err(e) => {
                o.check(false, || format!("history_scan: set-up failed: {e}"));
                return o;
            }
        }
    }
    let a = archive.expect("at least one set-up");
    o.check(digests.iter().all(|d| *d == digests[0]), || {
        format!("history_scan: one seed generated different inputs: {digests:x?}")
    });

    // Measure: one closed-loop client. Traced runs alternate untraced and
    // traced slices; untraced runs stay untraced throughout.
    let mut rng = StdRng::seed_from_u64(data::sub_seed(cfg.seed, 3));
    let mut sched = Schedule::new();
    let mut lat = [Samples::default(), Samples::default()];
    let mut per_tpl = Vec::new();
    let mut busy = [0.0f64; 2];
    let mut done = [0u64; 2];
    let mut rows_returned = 0u64;
    let mut traced_delta = Scrape::default();
    let before = Scrape::take(&a.h);
    let deadline = phase_deadline(cfg);
    let start = Instant::now();
    let mut slice_start = start;
    let mut traced = false;
    tracer.set_on(false);
    let mut slice_scrape = before.clone();
    let mut rec = tracer.recorder();
    let mut q = 0u64;
    // Throughput per window of whole mix cycles (each cycle holds every
    // entry once), at least [`WINDOW`] long; the run reports the median
    // over untraced windows.
    let cycle: u64 = MIX.iter().map(|(_, w)| *w as u64).sum();
    let mut window_rates = Vec::new();
    let mut window_queries = 0u64;
    let mut window_start = Instant::now();
    let mut window_traced = false;
    let mut lq4_first_scan: Vec<(String, u64)> = Vec::new();
    // An untraced run also goes on until its p99 is supported, so a slow
    // host gets a longer window instead of a missing metric.
    let more = |lat: &Samples| {
        start.elapsed().as_secs_f64() < cfg.seconds || (!cfg.trace && !lat.supports(0.99))
    };
    while more(&lat[0]) && Instant::now() < deadline {
        if cfg.trace && slice_start.elapsed() >= SLICE {
            let now_scrape = Scrape::take(&a.h);
            if traced {
                traced_delta.accumulate(&slice_scrape.delta(&now_scrape));
            }
            slice_scrape = now_scrape;
            traced = !traced;
            tracer.set_on(traced);
            slice_start = Instant::now();
        }
        if q.is_multiple_of(cycle) && window_start.elapsed() >= WINDOW {
            if !window_traced {
                window_rates.push(window_queries as f64 / window_start.elapsed().as_secs_f64());
            }
            window_queries = 0;
            window_start = Instant::now();
            window_traced = traced;
        }
        window_traced |= traced;
        window_queries += 1;
        let (name, sql, expect) = next_query(&mut rng, &mut sched, &a);
        q += 1;
        if cfg.trace && name == "LQ4" {
            // Which table the planner scans first: the box size flips it.
            let plan = a.h.explain(&sql).unwrap_or_default();
            let first = plan.split_whitespace().nth(1).unwrap_or("?").to_string();
            match lq4_first_scan.iter_mut().find(|(b, _)| *b == first) {
                Some((_, n)) => *n += 1,
                None => lq4_first_scan.push((first, 1)),
            }
        }
        let t = Instant::now();
        let res = rec.call("core", "sql", q, || a.h.sql(&sql));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let mode = traced as usize;
        lat[mode].push(ms);
        busy[mode] += ms / 1e3;
        done[mode] += 1;
        layers::note_template(&mut per_tpl, template_id(name), traced, ms);
        match res {
            Err(e) => o.check(false, || format!("history_scan: {name} failed: {e} ({sql})")),
            Ok(res) => {
                rows_returned += res.rows.len() as u64;
                match expect {
                    Expect::Ok => o.check(true, String::new),
                    Expect::Rows(n) => o.check(res.rows.len() as u64 == n, || {
                        format!(
                            "history_scan: {name} returned {} rows, generated {n} ({sql})",
                            res.rows.len()
                        )
                    }),
                    Expect::Totals(schema) => {
                        let want = if schema == TD { &a.td } else { &a.ld };
                        check_totals(&mut o, "history_scan", schema, &res, want);
                    }
                }
            }
        }
    }
    let window = start.elapsed().as_secs_f64();
    let end_scrape = Scrape::take(&a.h);
    if traced {
        traced_delta.accumulate(&slice_scrape.delta(&end_scrape));
    }
    drop(rec);
    let bytes_per_point = a.h.storage_bytes() as f64 / a.points as f64;
    let batches = live_batches(&a.h);
    let Archive { h, td, ld, td_meta, ld_meta, decoded_bytes, .. } = a;
    tracer.set_on(cfg.trace);
    let recoveries = restart(&dir, h, [(TD, &td), (LD, &ld)], &mut o, tracer);
    tracer.set_on(false);

    // The workload's operation is a `Historian::sql` call.
    o.info_str("operation", "SQL query answered (latency: per Historian::sql call)");
    let untraced_rate =
        if window_rates.is_empty() { done[0] as f64 / busy[0] } else { median(&window_rates) };
    o.e2e("throughput_per_s", Some(untraced_rate), "1/s");
    o.e2e("latency_p50_ms", lat[0].quantile(0.5), "ms");
    o.e2e("latency_p99_ms", lat[0].supported_quantile(0.99), "ms");
    o.e2e("recovery_s", (!recoveries.is_empty()).then(|| median(&recoveries)), "s");
    o.e2e("bytes_per_point", Some(bytes_per_point), "B");
    super::finish_common(&mut o);

    o.info_num("query_clients", 1.0);
    o.info("window_queries_per_s", crate::host::num_list(&window_rates));
    o.info_num("window_s", window);
    o.info_num("query_samples", lat[0].len() as f64);
    if let Some((pct, v)) = lat[0].highest_supported() {
        o.info("query_highest_supported", format!("{{\"percentile\": {pct:.1}, \"ms\": {v}}}"));
    }
    o.info("reopen_s", crate::host::num_list(&recoveries));
    o.info_num("td_rows", td.rows as f64);
    o.info_num("ld_rows", ld.rows as f64);
    o.info_num("td_accounts", td_meta.sources as f64);
    o.info_num("ld_sensors", ld_meta.sources as f64);
    o.info_num("archive_decoded_mib", decoded_bytes as f64 / (1 << 20) as f64);
    o.info_num("decode_cache_instances", 4.0);
    o.info(
        "query_mix_per_cycle",
        format!(
            "{{{}}}",
            MIX.iter().map(|(n, w)| format!("\"{n}\": {w}")).collect::<Vec<_>>().join(", ")
        ),
    );
    o.info_num("servers", 2.0);
    o.info("templates", layers::templates_json(&per_tpl));

    if cfg.trace {
        let counts: Vec<String> =
            lq4_first_scan.iter().map(|(b, n)| format!("\"{b}\": {n}")).collect();
        o.info("lq4_first_scan", format!("{{{}}}", counts.join(", ")));
        let spans = tracer.spans();
        let inputs = LayerInputs {
            delta: before.delta(&end_scrape),
            stored: Some(end_scrape.clone()),
            traced_delta,
            spans: &spans,
            queries: done[0] + done[1],
            rows_returned,
            live_batches: Some(batches),
            trace_overhead_pct: layers::overhead_pct(&per_tpl),
            templates: per_tpl,
            ..LayerInputs::default()
        };
        layers::fill(&mut o, &inputs);
    }
    let _ = std::fs::remove_dir_all(&dir);
    o
}

/// Restart the archive: checkpoint it, drop it, then time
/// `Historian::open` on its files [`REOPENS`] times, checking after each
/// that the totals of `tables` came back. Returns the open times,
/// seconds. The dimension tables are the application's to reload, so
/// only the time series are checked.
fn restart(
    dir: &std::path::Path,
    h: Historian,
    tables: [(&str, &Reference); 2],
    o: &mut Outcome,
    tracer: &Tracer,
) -> Vec<f64> {
    let mut rec = tracer.recorder();
    if let Err(e) = rec.call("core", "checkpoint", 0, || h.checkpoint()) {
        o.check(false, || format!("history_scan: checkpoint: {e}"));
        return Vec::new();
    }
    drop(h);
    let mut times = Vec::with_capacity(REOPENS);
    for i in 0..REOPENS {
        let t = Instant::now();
        let reopened = rec.call("core", "open", i as u64, || Historian::open(dir, 8));
        let secs = t.elapsed().as_secs_f64();
        let h = match reopened {
            Ok(h) => h,
            Err(e) => {
                o.check(false, || format!("history_scan: Historian::open: {e}"));
                break;
            }
        };
        times.push(secs);
        for (schema, want) in tables {
            match h.sql(&totals_sql(schema)) {
                Ok(res) => check_totals(o, "history_scan: reopened", schema, &res, want),
                Err(e) => o.check(false, || format!("history_scan: query after open: {e}")),
            }
        }
    }
    times
}
