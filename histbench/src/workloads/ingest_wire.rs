//! `ingest_wire`: closed-loop wire ingest into a durable two-server
//! historian, then crash-style recovery.
//!
//! `nproc` load threads each hold one `NetClient` session at a time and
//! stream pre-encoded `BATCH` frames — TD (4 dense tags, 20 Hz accounts)
//! and LD (15-tag sparse rows, low-frequency stations, so Mixed
//! Grouping) — as fast as the credit window lets them. The background
//! compactor runs on a fixed interval; there are no queries. Between the
//! round's four phases, while no session streams, the main thread
//! checkpoints (see `tests/checkpoint_while_streaming.rs` for why not
//! during a phase). The run is a sequence of rounds on fresh historians
//! over the same frames; each round ends with `sync`, a final flush,
//! dropping the historian and timing `Historian::open` on the files it
//! left (checkpoint plus WAL tail).

use super::{
    check_totals, fresh_dir, live_batches, phase_deadline, pick, totals_sql, COMPACT_INTERVAL_MS,
    SETUP_REPS,
};
use crate::data::{self, Reference, Stream, LD, LD_TAGS, TD, TD_TAGS};
use crate::layers::{self, LayerInputs};
use crate::obs::Scrape;
use crate::report::Outcome;
use crate::stats::{median, Samples};
use crate::trace::{Recorder, Tracer};
use crate::Config;
use iotx::ld::ObservationGen;
use iotx::td::TradeGen;
use odh_core::Historian;
use odh_net::{NetClient, NetServer, NetServerConfig};
use odh_types::{Record, Result};
use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Ingest phases per round; a checkpoint separates consecutive phases.
const PHASES: usize = 4;

pub const WHY: &str = "every ingest layer does most of the work (decode, WAL append and fsync, \
shard put, seal and encode, compaction) while SQL does none, so a read-path change should show no change here";

struct Sizes {
    accounts: u64,
    td_secs: i64,
    sensors: u64,
    ld_secs: i64,
    td_frame_rows: usize,
    ld_frame_rows: usize,
    min_rounds: usize,
}

fn sizes(cfg: &Config) -> Sizes {
    pick(
        cfg,
        Sizes {
            accounts: 200,
            td_secs: 200,
            sensors: 10_000,
            ld_secs: 600,
            td_frame_rows: 512,
            ld_frame_rows: 256,
            min_rounds: 4,
        },
        Sizes {
            accounts: 20,
            td_secs: 20,
            sensors: 200,
            ld_secs: 120,
            td_frame_rows: 16,
            ld_frame_rows: 16,
            min_rounds: 2,
        },
    )
}

/// The pre-encoded session streams of one run, TD and LD interleaved.
pub struct Inputs {
    pub streams: Vec<Stream>,
    pub td: Reference,
    pub ld: Reference,
    pub digest: u64,
}

/// Generate and encode the run's frames. `parts` sessions per schema.
pub fn generate(seed: u64, cfg: &Config, parts: usize) -> Inputs {
    let sz = sizes(cfg);
    let td_recs: Vec<Record> =
        TradeGen::new(&data::td_spec(seed, sz.accounts, sz.td_secs)).collect();
    let ld_recs: Vec<Record> =
        ObservationGen::new(&data::ld_spec(seed, sz.sensors, sz.ld_secs)).collect();
    let td = Reference::of(&td_recs, TD_TAGS, sz.accounts);
    let ld = Reference::of(&ld_recs, LD_TAGS, sz.sensors);
    let td_parts = data::split_by_source(td_recs, parts);
    let ld_parts = data::split_by_source(ld_recs, parts);
    let mut streams = Vec::with_capacity(2 * parts);
    for (t, l) in td_parts.iter().zip(&ld_parts) {
        streams.push(data::encode_stream(TD, TD_TAGS, t, sz.td_frame_rows));
        streams.push(data::encode_stream(LD, LD_TAGS, l, sz.ld_frame_rows));
    }
    let digest = data::digest(&streams);
    Inputs { streams, td, ld, digest }
}

fn build(dir: &Path, cfg: &Config) -> Result<Arc<Historian>> {
    let sz = sizes(cfg);
    let h = Historian::builder().servers(2).disk_dir(dir).durable(true).build()?;
    data::define_schema(&h, sz.accounts, sz.sensors, COMPACT_INTERVAL_MS)?;
    Ok(Arc::new(h))
}

/// What one round measured.
#[derive(Default)]
struct Round {
    traced: bool,
    window_s: f64,
    rows: u64,
    acks: Samples,
    waits: u64,
    delta: Scrape,
    open_peak: f64,
    live_batches: u64,
    bytes_per_point: f64,
    recovery_s: f64,
}

/// Move every frame the client has seen acked from `pending` into the
/// latency samples, stamped now.
fn observe(
    client: &NetClient,
    pending: &mut VecDeque<(u64, Instant, u64)>,
    acks: &mut Samples,
    acked_rows: &AtomicU64,
) {
    let acked = client.acked_seq();
    let now = Instant::now();
    while let Some(&(seq, sent, rows)) = pending.front() {
        if seq > acked {
            break;
        }
        acks.push(now.duration_since(sent).as_secs_f64() * 1e3);
        acked_rows.fetch_add(rows, Ordering::Relaxed);
        pending.pop_front();
    }
}

/// One session: connect, stream every frame, wait for the last ack, BYE.
fn session(
    rec: &mut Recorder<'_>,
    addr: std::net::SocketAddr,
    idx: usize,
    st: &Stream,
    acks: &mut Samples,
    acked_rows: &AtomicU64,
) -> Result<u64> {
    let req = |j: usize| ((idx as u64) << 32) | j as u64;
    let mut client =
        rec.call("net", "connect", req(0), || NetClient::connect(addr, st.schema, st.ntags))?;
    let mut pending = VecDeque::with_capacity(128);
    for (j, f) in st.frames.iter().enumerate() {
        let sent = Instant::now();
        let seq =
            rec.call("net", "send_encoded", req(j + 1), || client.send_encoded(&f.bytes, f.rows))?;
        pending.push_back((seq, sent, f.rows));
        observe(&client, &mut pending, acks, acked_rows);
    }
    rec.call("net", "wait_all_acked", req(0), || client.wait_all_acked())?;
    observe(&client, &mut pending, acks, acked_rows);
    let report = rec.call("net", "finish", req(0), || client.finish())?;
    if report.acked_seq != st.frames.len() as u64 {
        return Err(odh_types::OdhError::Io(format!(
            "session {idx}: {} of {} frames acked",
            report.acked_seq,
            st.frames.len()
        )));
    }
    Ok(report.stats.backpressure_waits)
}

/// Stream `streams` (global indexes from `offset`) over `threads`
/// concurrent sessions; returns the phase's wall time and each thread's
/// acks and credit waits.
#[allow(clippy::too_many_arguments)]
fn phase(
    h: &Historian,
    addr: std::net::SocketAddr,
    streams: &[Stream],
    offset: usize,
    tracer: &Tracer,
    acked_rows: &AtomicU64,
    open_peak: &mut f64,
    traced: bool,
) -> (f64, Vec<Result<(Samples, u64)>>) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let results = std::thread::scope(|sc| {
        let handles: Vec<_> = (0..crate::host::nproc())
            .map(|_| {
                sc.spawn(|| -> Result<(Samples, u64)> {
                    let mut rec = tracer.recorder();
                    let mut acks = Samples::default();
                    let mut waits = 0;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(st) = streams.get(i) else { break };
                        waits += session(&mut rec, addr, offset + i, st, &mut acks, acked_rows)?;
                    }
                    Ok((acks, waits))
                })
            })
            .collect();
        while traced && !handles.iter().all(|hd| hd.is_finished()) {
            *open_peak = open_peak.max(h.memory_footprint().open_buffer_bytes as f64);
            std::thread::sleep(Duration::from_millis(20));
        }
        handles.into_iter().map(|hd| hd.join().expect("load thread panicked")).collect()
    });
    (start.elapsed().as_secs_f64(), results)
}

fn round(
    h: Arc<Historian>,
    dir: &Path,
    inputs: &Inputs,
    tracer: &Tracer,
    traced: bool,
    o: &mut Outcome,
) -> Option<Round> {
    let total_rows: u64 = inputs.streams.iter().map(|s| s.rows).sum();
    let total_points: u64 = inputs.streams.iter().map(|s| s.points).sum();
    tracer.set_on(traced);
    let mut rec = tracer.recorder();
    let mut r = Round { traced, ..Round::default() };
    let before = Scrape::take(&h);
    let mut server = match NetServer::serve(h.cluster().clone(), NetServerConfig::default()) {
        Ok(s) => s,
        Err(e) => {
            o.check(false, || format!("ingest_wire: serve: {e}"));
            return None;
        }
    };
    let addr = server.local_addr();
    let acked_rows = AtomicU64::new(0);
    // Phases with a checkpoint between each pair, so the no-steal buffer
    // pool is drained as a deployment's periodic checkpoint would, and
    // recovery restores a checkpoint plus a WAL tail. Checkpoints run
    // while no session is streaming and are not part of the ingest window.
    let per = inputs.streams.len().div_ceil(PHASES);
    let mut results = Vec::new();
    for (p, chunk) in inputs.streams.chunks(per).enumerate() {
        if p > 0 {
            if let Err(e) = rec.call("core", "checkpoint", p as u64, || h.checkpoint()) {
                o.check(false, || format!("ingest_wire: checkpoint: {e}"));
            }
        }
        let (w, res) =
            phase(&h, addr, chunk, p * per, tracer, &acked_rows, &mut r.open_peak, traced);
        r.window_s += w;
        results.extend(res);
    }
    for res in results {
        match res {
            Ok((mut acks, waits)) => {
                r.acks.append(&mut acks);
                r.waits += waits;
            }
            Err(e) => o.fail(format!("ingest_wire: session failed: {e}")),
        }
    }
    let frames: usize = inputs.streams.iter().map(|s| s.frames.len()).sum();
    o.attempted += frames as u64;
    r.rows = acked_rows.load(Ordering::Relaxed);
    server.shutdown();
    if let Err(e) = rec.call("core", "sync", 0, || h.sync()) {
        o.check(false, || format!("ingest_wire: sync: {e}"));
    }
    if let Err(e) = rec.call("core", "flush", 0, || h.flush()) {
        o.check(false, || format!("ingest_wire: flush: {e}"));
    }
    r.bytes_per_point = h.storage_bytes() as f64 / total_points as f64;
    r.live_batches = live_batches(&h);
    r.delta = before.delta(&Scrape::take(&h));
    drop(server);
    drop(h);

    // Recovery: reopen the files the round left and check every acked
    // row came back.
    let t = Instant::now();
    let reopened = rec.call("core", "open", 0, || Historian::open(dir, 8));
    r.recovery_s = t.elapsed().as_secs_f64();
    match reopened {
        Ok(h2) => {
            r.delta.accumulate(&Scrape::default().delta(&Scrape::take(&h2)));
            verify(&h2, TD, &inputs.td, o);
            verify(&h2, LD, &inputs.ld, o);
            o.check(r.rows == total_rows, || {
                format!("ingest_wire: {} rows acked of {total_rows} sent", r.rows)
            });
        }
        Err(e) => o.check(false, || format!("ingest_wire: Historian::open: {e}")),
    }
    let _ = std::fs::remove_dir_all(dir);
    Some(r)
}

/// Recovered rows must equal acked rows, with every tag's sum intact.
fn verify(h: &Historian, schema: &str, want: &Reference, o: &mut Outcome) {
    match h.sql(&totals_sql(schema)) {
        Ok(res) => check_totals(o, "ingest_wire: recovered", schema, &res, want),
        Err(e) => o.check(false, || format!("ingest_wire: recovery query failed: {e}")),
    }
}

pub fn run(cfg: &Config, tracer: &Tracer) -> Outcome {
    let mut o = Outcome { why: WHY, ..Outcome::default() };
    let threads = crate::host::nproc();
    let parts = 4 * threads;
    tracer.set_on(cfg.trace);

    // Set-up, repeated: generate and encode the frames, then build the
    // first round's historian. The same seed must give the same bytes.
    let mut inputs = None;
    let mut first: Option<(Arc<Historian>, std::path::PathBuf)> = None;
    let mut digests = Vec::new();
    for rep in 0..SETUP_REPS {
        // Drop the previous repetition's frames and historian first, so
        // repetitions do not stack up in memory.
        drop(inputs.take());
        drop(first.take());
        let t = Instant::now();
        let mut rec = tracer.recorder();
        rec.open("bench", "setup", rep as u64);
        let inp = rec.call("bench", "generate", rep as u64, || generate(cfg.seed, cfg, parts));
        let dir = fresh_dir(cfg, "round0");
        let built = rec.call("core", "build", rep as u64, || build(&dir, cfg));
        rec.close();
        o.setup_s.push(t.elapsed().as_secs_f64());
        digests.push(inp.digest);
        match built {
            Ok(h) => first = Some((h, dir)),
            Err(e) => {
                o.check(false, || format!("ingest_wire: build: {e}"));
                return o;
            }
        }
        inputs = Some(inp);
    }
    let inputs = inputs.expect("at least one set-up");
    o.check(digests.iter().all(|d| *d == digests[0]), || {
        format!("ingest_wire: one seed generated different frames: {digests:x?}")
    });

    let sz = sizes(cfg);
    let deadline = phase_deadline(cfg);
    let mut rounds: Vec<Round> = Vec::new();
    let measuring = Instant::now();
    loop {
        let measured = measuring.elapsed().as_secs_f64();
        let k = rounds.len();
        if (k >= sz.min_rounds && measured >= cfg.seconds) || Instant::now() > deadline {
            break;
        }
        let (h, dir) = match first.take() {
            Some(x) => x,
            None => {
                let dir = fresh_dir(cfg, &format!("round{k}"));
                match build(&dir, cfg) {
                    Ok(h) => (h, dir),
                    Err(e) => {
                        o.check(false, || format!("ingest_wire: build: {e}"));
                        break;
                    }
                }
            }
        };
        let traced = cfg.trace && k % 2 == 1;
        match round(h, &dir, &inputs, tracer, traced, &mut o) {
            Some(r) => rounds.push(r),
            None => break,
        }
    }
    tracer.set_on(false);

    let plain: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let rate =
        |rs: &[&Round]| median(&rs.iter().map(|r| r.rows as f64 / r.window_s).collect::<Vec<_>>());
    let mut acks = Samples::default();
    for r in &plain {
        acks.append(&mut r.acks.clone());
    }
    // The workload's operation is a row acked; its latency is the ack's.
    o.info_str("operation", "row acked over the wire (latency: frame sent until its ack is seen)");
    o.e2e("throughput_per_s", Some(rate(&plain)), "1/s");
    let round_p50s: Vec<f64> = plain.iter().filter_map(|r| r.acks.quantile(0.5)).collect();
    o.e2e("latency_p50_ms", Some(median(&round_p50s)), "ms");
    o.e2e("latency_p99_ms", acks.supported_quantile(0.99), "ms");
    let recoveries: Vec<f64> = plain.iter().map(|r| r.recovery_s).collect();
    o.e2e("recovery_s", Some(median(&recoveries)), "s");
    o.e2e(
        "bytes_per_point",
        Some(median(&plain.iter().map(|r| r.bytes_per_point).collect::<Vec<_>>())),
        "B",
    );
    super::finish_common(&mut o);

    o.info_num("sessions_concurrent", threads as f64);
    o.info_num("sessions_total_per_round", inputs.streams.len() as f64);
    o.info_num("rounds", rounds.len() as f64);
    o.info_num("td_rows", inputs.td.rows as f64);
    o.info_num("ld_rows", inputs.ld.rows as f64);
    o.info_num("points_per_round", (inputs.td.points + inputs.ld.points) as f64);
    o.info_num("td_accounts", sz.accounts as f64);
    o.info_num("ld_sensors", sz.sensors as f64);
    o.info_num("ack_samples", acks.len() as f64);
    o.info(
        "round_rows_per_s",
        crate::host::num_list(
            &plain.iter().map(|r| r.rows as f64 / r.window_s).collect::<Vec<_>>(),
        ),
    );
    o.info("round_ack_p50_ms", crate::host::num_list(&round_p50s));
    let round_p99s: Vec<f64> = plain.iter().filter_map(|r| r.acks.quantile(0.99)).collect();
    o.info("round_ack_p99_ms", crate::host::num_list(&round_p99s));
    o.info("round_recovery_s", crate::host::num_list(&recoveries));
    if let Some((pct, v)) = acks.highest_supported() {
        o.info("ack_highest_supported", format!("{{\"percentile\": {pct:.1}, \"ms\": {v}}}"));
    }
    o.info_num("compact_interval_ms", COMPACT_INTERVAL_MS as f64);
    o.info_num("servers", 2.0);

    if cfg.trace {
        let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
        let mut delta = Scrape::default();
        let mut traced_delta = Scrape::default();
        for r in &rounds {
            delta.accumulate(&r.delta);
            if r.traced {
                traced_delta.accumulate(&r.delta);
            }
        }
        let spans = tracer.spans();
        let untraced_rate = rate(&plain);
        let inputs = LayerInputs {
            delta,
            traced_delta,
            spans: &spans,
            backpressure_waits: Some(rounds.iter().map(|r| r.waits).sum()),
            open_buffer_peak: traced.iter().map(|r| r.open_peak).reduce(f64::max),
            live_batches: rounds.last().map(|r| r.live_batches),
            trace_overhead_pct: (!traced.is_empty())
                .then(|| (untraced_rate - rate(&traced)) / untraced_rate * 100.0),
            ..LayerInputs::default()
        };
        layers::fill(&mut o, &inputs);
    }
    o
}
