//! `dashboard_live`: an open-loop wire feed next to a closed-loop
//! dashboard reader, on one durable two-server historian.
//!
//! One generator thread sends TD frames on a fixed schedule ([`RATE`]
//! rows/s, a quarter of what `ingest_wire` sustains on a 2-core host);
//! [`LATE_SHARE`] of the rows are held back [`LATE_DELAY_ROWS`] rows, so
//! they arrive behind their source's seal watermark. After each send the
//! generator waits for the ack when the next frame is not yet due, and
//! times every ack from the frame's due time, so a stall shows as ack
//! latency rather than as a lower offered load. Next to it one query
//! thread runs the newest-window dashboard mix (VQ2 last point, VQ1
//! downsample, VQ3 gap-fill, TQ2 slice) plus a COUNT(*) visibility
//! oracle. The main thread checkpoints on a fixed period, as a durable
//! deployment must to keep its no-steal buffer pool from filling.

use super::{fresh_dir, live_batches, phase_deadline, pick, COMPACT_INTERVAL_MS, SETUP_REPS};
use crate::data::{self, Deck, TD, TD_TAGS};
use crate::layers::{self, LayerInputs};
use crate::obs::Scrape;
use crate::report::Outcome;
use crate::stats::{median, Samples};
use crate::trace::{Recorder, Tracer};
use crate::Config;
use iotx::td::{td_epoch, TradeGen};
use odh_core::Historian;
use odh_net::{frame, NetClient, NetServer, NetServerConfig};
use odh_types::{Record, Result, Timestamp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub const WHY: &str = "reads and writes share the ingest shards, SealSync retries, cache \
invalidation and the seal queue, so a gain for one side that costs the other shows here; the \
open-loop feed turns a stall into ack latency instead of a lower offered load";

/// Offered load of the feed, rows per second.
pub const RATE: f64 = 250_000.0;
/// Share of rows sent late.
pub const LATE_SHARE: f64 = 0.01;
/// How far behind its place in the stream a late row is sent, in rows
/// (10 event-seconds of the 500-account feed, beyond one sealed batch of
/// any account).
pub const LATE_DELAY_ROWS: u64 = 100_000;
/// Event-time width of the dashboard's newest window, µs.
const WINDOW_US: i64 = 10_000_000;
/// Every this many dashboard queries, one COUNT(*) visibility check.
const ORACLE_EVERY: u64 = 8;
/// Checkpoint period of the main thread.
const CHECKPOINT_EVERY: Duration = Duration::from_millis(1500);
const SLICE: Duration = Duration::from_millis(1000);

struct Sizes {
    accounts: u64,
    /// Event-seconds of history loaded before the feed starts.
    preload_secs: i64,
    frame_rows: usize,
    rate: f64,
    late_delay_rows: u64,
    /// Live-feed time per round. Each round runs on a fresh historian:
    /// the durable server's no-steal buffer pool, and the checkpoint
    /// catalog rewritten on every checkpoint, bound how much one
    /// historian can take in one run (see `README.md`).
    round: Duration,
    min_rounds: usize,
}

fn sizes(cfg: &Config) -> Sizes {
    pick(
        cfg,
        Sizes {
            accounts: 500,
            preload_secs: 30,
            frame_rows: 6250,
            rate: RATE,
            late_delay_rows: LATE_DELAY_ROWS,
            round: Duration::from_secs(3),
            min_rounds: 2,
        },
        Sizes {
            accounts: 20,
            preload_secs: 20,
            frame_rows: 20,
            rate: 20_000.0,
            late_delay_rows: 2_000,
            round: Duration::from_secs(1),
            min_rounds: 2,
        },
    )
}

/// The feed: the TD generator past the preload, with late rows held
/// back, cut into frames.
pub struct Feed {
    gen: TradeGen,
    rng: StdRng,
    held: VecDeque<(u64, Record)>,
    /// The first live record, read while cutting off the preload.
    carry: Option<Record>,
    taken: u64,
    frame_rows: usize,
    late_delay: u64,
    next_seq: u64,
    /// Rows sent late so far.
    pub late_rows: u64,
}

impl Feed {
    /// The next frame's bytes, row count and newest timestamp.
    pub fn next_frame(&mut self) -> (Vec<u8>, u64, i64) {
        let mut rows = Vec::with_capacity(self.frame_rows);
        while rows.len() < self.frame_rows {
            if self.held.front().is_some_and(|(due, _)| *due <= self.taken) {
                let (_, r) = self.held.pop_front().expect("checked non-empty");
                self.late_rows += 1;
                rows.push(r);
                continue;
            }
            let r = match self.carry.take() {
                Some(r) => r,
                None => self.gen.next().expect("the feed's generator outlasts any run"),
            };
            self.taken += 1;
            if self.rng.gen::<f64>() < LATE_SHARE {
                self.held.push_back((self.taken + self.late_delay, r));
            } else {
                rows.push(r);
            }
        }
        let mut bytes = Vec::new();
        frame::encode_batch(&mut bytes, self.next_seq, TD_TAGS, &rows)
            .expect("generated rows fit a wire frame");
        self.next_seq += 1;
        let max_ts = rows.iter().map(|r| r.ts.micros()).max().unwrap_or(0);
        (bytes, rows.len() as u64, max_ts)
    }
}

struct Setup {
    h: Historian,
    feed: Feed,
    preload_rows: u64,
    preload_points: u64,
    preload_end: i64,
    digest: u64,
}

/// The generated history loaded before the feed, the feed itself, and
/// the event time where one hands over to the other.
pub fn inputs(cfg: &Config) -> (Vec<Record>, Feed, i64) {
    let sz = sizes(cfg);
    // Long enough that the feed never runs dry: the generator is lazy.
    let spec = data::td_spec(cfg.seed, sz.accounts, 1_000_000);
    let mut gen = TradeGen::new(&spec);
    let preload_end = td_epoch().micros() + sz.preload_secs * 1_000_000;
    let mut preload = Vec::new();
    let first_live = loop {
        let r = gen.next().expect("generator outlasts the preload");
        if r.ts.micros() >= preload_end {
            break r;
        }
        preload.push(r);
    };
    let feed = Feed {
        gen,
        carry: Some(first_live),
        rng: StdRng::seed_from_u64(data::sub_seed(cfg.seed, 4)),
        held: VecDeque::new(),
        taken: 0,
        frame_rows: sz.frame_rows,
        late_delay: sz.late_delay_rows,
        next_seq: 1,
        late_rows: 0,
    };
    (preload, feed, preload_end)
}

fn setup(cfg: &Config, dir: &Path, rec: &mut Recorder<'_>) -> Result<Setup> {
    let sz = sizes(cfg);
    let (preload, feed, preload_end) = inputs(cfg);
    let h = Historian::builder().servers(2).disk_dir(dir).durable(true).build()?;
    data::define_schema(&h, sz.accounts, 0, COMPACT_INTERVAL_MS)?;
    let w = h.writer(TD)?;
    for chunk in preload.chunks(4096) {
        w.write_batch(chunk)?;
    }
    rec.call("core", "sync", 0, || h.sync())?;
    rec.call("core", "flush", 0, || h.flush())?;
    rec.call("core", "compact", 0, || h.compact())?;
    rec.call("core", "checkpoint", 0, || h.checkpoint())?;
    let digest = data::records_digest(&preload);
    Ok(Setup {
        preload_rows: preload.len() as u64,
        preload_points: preload.iter().map(|r| r.data_points() as u64).sum(),
        preload_end,
        digest,
        feed,
        h,
    })
}

/// State the generator publishes to the reader and the main thread.
struct Shared {
    /// Rows in frames handed to the client (counted before the send).
    sent_rows: AtomicU64,
    /// Rows in frames the generator has seen acked.
    acked_rows: AtomicU64,
    /// Newest event timestamp among acked frames.
    acked_ts: AtomicI64,
    stop: AtomicBool,
}

#[derive(Default)]
struct GenOut {
    acks: [Samples; 2],
    late_ms: Samples,
    frames: u64,
    waits: u64,
    failures: Vec<String>,
}

fn generator(
    client: &mut NetClient,
    feed: &mut Feed,
    rate: f64,
    end: Instant,
    shared: &Shared,
    tracer: &Tracer,
) -> GenOut {
    let mut out = GenOut::default();
    let mut rec = tracer.recorder();
    let interval = Duration::from_secs_f64(feed.frame_rows as f64 / rate);
    let start = Instant::now() + Duration::from_millis(5);
    // (seq, due, rows, newest ts, traced)
    let mut pending: VecDeque<(u64, Instant, u64, i64, bool)> = VecDeque::new();
    let mut next = feed.next_frame();
    let mut i: u32 = 0;
    loop {
        let due = start + interval * i;
        if due >= end {
            break;
        }
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        out.late_ms.push(sent.duration_since(due).as_secs_f64() * 1e3);
        let (bytes, rows, max_ts) = std::mem::take(&mut next);
        shared.sent_rows.fetch_add(rows, Ordering::SeqCst);
        let traced = tracer.is_on();
        match rec.call("net", "send_encoded", i as u64, || client.send_encoded(&bytes, rows)) {
            Ok(seq) => pending.push_back((seq, due, rows, max_ts, traced)),
            Err(e) => {
                out.failures.push(format!("dashboard_live: send failed: {e}"));
                break;
            }
        }
        out.frames += 1;
        next = feed.next_frame();
        // Wait for the ack while the next frame is not yet due; after the
        // last frame, wait for every ack.
        let last = start + interval * (i + 1) >= end;
        if last || start + interval * (i + 1) > Instant::now() {
            if let Err(e) = rec.call("net", "wait_all_acked", i as u64, || client.wait_all_acked())
            {
                out.failures.push(format!("dashboard_live: ack wait failed: {e}"));
                break;
            }
        }
        let acked = client.acked_seq();
        let now = Instant::now();
        while let Some(&(seq, due, rows, ts, traced)) = pending.front() {
            if seq > acked {
                break;
            }
            out.acks[traced as usize].push(now.duration_since(due).as_secs_f64() * 1e3);
            shared.acked_rows.fetch_add(rows, Ordering::SeqCst);
            shared.acked_ts.fetch_max(ts, Ordering::SeqCst);
            pending.pop_front();
        }
        i += 1;
    }
    out.waits = client.stats.backpressure_waits;
    out
}

#[derive(Default)]
struct ReadOut {
    lat: [Samples; 2],
    busy: [f64; 2],
    templates: Vec<(&'static str, [Samples; 2])>,
    queries: u64,
    rows_returned: u64,
    attempted: u64,
    failures: Vec<String>,
}

/// The dashboard mix: one last-point, one downsample and one gap-fill
/// panel refresh per two raw slices.
const MIX: [(&str, u32); 4] = [("VQ2", 1), ("VQ1", 1), ("VQ3", 1), ("TQ2", 2)];

fn dashboard_sql(
    rng: &mut StdRng,
    deck: &mut Deck<&'static str>,
    t: i64,
    accounts: u64,
) -> (&'static str, String) {
    let a = Timestamp(t - WINDOW_US);
    let b = Timestamp(t);
    match deck.next(rng) {
        "VQ2" => (
            "VQ2",
            format!(
                "select id, LAST(t_chrg) from trade_v where timestamp between '{a}' and '{b}' group by id"
            ),
        ),
        "VQ1" => {
            let bucket = WINDOW_US / 20;
            (
                "VQ1",
                format!(
                    "select time_bucket({bucket}, timestamp), COUNT(*), AVG(t_chrg) from trade_v \
                     where timestamp between '{a}' and '{b}' group by time_bucket({bucket}, timestamp)"
                ),
            )
        }
        "VQ3" => {
            let bucket = WINDOW_US / 32;
            let src = rng.gen::<u64>() % accounts;
            (
                "VQ3",
                format!(
                    "select time_bucket_gapfill({bucket}, timestamp), interpolate(AVG(t_chrg)) from trade_v \
                     where id = {src} and timestamp between '{a}' and '{b}' \
                     group by time_bucket_gapfill({bucket}, timestamp)"
                ),
            )
        }
        _ => {
            let s = Timestamp(t - (rng.gen::<u64>() % (WINDOW_US as u64 / 2)) as i64 - 1_000_000);
            let e = Timestamp(s.micros() + 1_000_000);
            ("TQ2", format!("select * from trade_v where timestamp between '{s}' and '{e}'"))
        }
    }
}

fn reader(
    h: &Historian,
    seed: u64,
    accounts: u64,
    preload_rows: u64,
    end: Instant,
    shared: &Shared,
    tracer: &Tracer,
) -> ReadOut {
    let mut out = ReadOut::default();
    let mut rec = tracer.recorder();
    let mut rng = StdRng::seed_from_u64(data::sub_seed(seed, 5));
    let mut deck = Deck::new(&MIX);
    let mut q = 0u64;
    while Instant::now() < end && !shared.stop.load(Ordering::Relaxed) {
        q += 1;
        if q.is_multiple_of(ORACLE_EVERY) {
            // Every row acked before the query starts must be visible; no
            // row not yet handed to the client may be.
            let lo = preload_rows + shared.acked_rows.load(Ordering::SeqCst);
            let res = rec.call("core", "sql", q, || h.sql("select COUNT(*) from trade_v"));
            let hi = preload_rows + shared.sent_rows.load(Ordering::SeqCst);
            out.attempted += 1;
            match res {
                Ok(r) => {
                    let n = r.rows.first().and_then(|r| r.get(0).as_i64()).unwrap_or(-1);
                    if n < lo as i64 || n > hi as i64 {
                        out.failures.push(format!(
                            "dashboard_live: COUNT(*) = {n}, expected between {lo} (acked) and {hi} (sent)"
                        ));
                    }
                }
                Err(e) => {
                    out.failures.push(format!("dashboard_live: visibility query failed: {e}"))
                }
            }
            continue;
        }
        let t = shared.acked_ts.load(Ordering::SeqCst);
        let (name, sql) = dashboard_sql(&mut rng, &mut deck, t, accounts);
        let traced = tracer.is_on();
        let start = Instant::now();
        let res = rec.call("core", "sql", q, || h.sql(&sql));
        let ms = start.elapsed().as_secs_f64() * 1e3;
        out.lat[traced as usize].push(ms);
        out.busy[traced as usize] += ms / 1e3;
        layers::note_template(&mut out.templates, name, traced, ms);
        out.queries += 1;
        out.attempted += 1;
        match res {
            Ok(r) => out.rows_returned += r.rows.len() as u64,
            Err(e) => out.failures.push(format!("dashboard_live: {name} failed: {e} ({sql})")),
        }
    }
    out
}

/// What one round measured.
#[derive(Default)]
struct Round {
    gen: GenOut,
    read: ReadOut,
    window_s: f64,
    acked_rows: u64,
    sent_rows: u64,
    late_rows: u64,
    bytes_per_point: f64,
    live_batches: u64,
    delta: Scrape,
    traced_delta: Scrape,
    open_peak: f64,
}

fn round(cfg: &Config, s: Setup, tracer: &Tracer, o: &mut Outcome) -> Option<Round> {
    let sz = sizes(cfg);
    let Setup { h, mut feed, preload_rows, preload_points, preload_end, .. } = s;
    let mut server = match NetServer::serve(h.cluster().clone(), NetServerConfig::default()) {
        Ok(s) => s,
        Err(e) => {
            o.check(false, || format!("dashboard_live: serve: {e}"));
            return None;
        }
    };
    let mut client = match NetClient::connect(server.local_addr(), TD, TD_TAGS) {
        Ok(c) => c,
        Err(e) => {
            o.check(false, || format!("dashboard_live: connect: {e}"));
            return None;
        }
    };
    let shared = Shared {
        sent_rows: AtomicU64::new(0),
        acked_rows: AtomicU64::new(0),
        acked_ts: AtomicI64::new(preload_end),
        stop: AtomicBool::new(false),
    };
    let mut r = Round::default();
    let before = Scrape::take(&h);
    let start = Instant::now();
    let end = start + sz.round;
    let checkpoint_err = Mutex::new(None);
    let (g, rd) = std::thread::scope(|sc| {
        let gen = sc.spawn(|| generator(&mut client, &mut feed, sz.rate, end, &shared, tracer));
        let read =
            sc.spawn(|| reader(&h, cfg.seed, sz.accounts, preload_rows, end, &shared, tracer));
        let mut rec = tracer.recorder();
        let mut last_ckpt = Instant::now();
        let mut slice_start = Instant::now();
        let mut slice_scrape = before.clone();
        while !(gen.is_finished() && read.is_finished()) {
            if cfg.trace && slice_start.elapsed() >= SLICE {
                let now_scrape = Scrape::take(&h);
                if tracer.is_on() {
                    r.traced_delta.accumulate(&slice_scrape.delta(&now_scrape));
                }
                slice_scrape = now_scrape;
                tracer.set_on(!tracer.is_on());
                slice_start = Instant::now();
            }
            if last_ckpt.elapsed() >= CHECKPOINT_EVERY && Instant::now() < end {
                if let Err(e) = rec.call("core", "checkpoint", 0, || h.checkpoint()) {
                    *checkpoint_err.lock().expect("error slot") = Some(e.to_string());
                    shared.stop.store(true, Ordering::Relaxed);
                }
                last_ckpt = Instant::now();
            }
            if cfg.trace {
                r.open_peak = r.open_peak.max(h.memory_footprint().open_buffer_bytes as f64);
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        if tracer.is_on() {
            r.traced_delta.accumulate(&slice_scrape.delta(&Scrape::take(&h)));
        }
        (gen.join().expect("generator panicked"), read.join().expect("reader panicked"))
    });
    r.window_s = start.elapsed().as_secs_f64();
    if let Some(e) = checkpoint_err.into_inner().expect("error slot") {
        o.check(false, || format!("dashboard_live: checkpoint: {e}"));
    }

    // Drain: every frame sent must be acked, and then visible.
    let mut rec = tracer.recorder();
    let finished = rec.call("net", "finish", 0, || client.finish());
    r.sent_rows = shared.sent_rows.load(Ordering::SeqCst);
    r.acked_rows = shared.acked_rows.load(Ordering::SeqCst);
    o.check(finished.as_ref().is_ok_and(|f| f.acked_seq == g.frames), || match &finished {
        Ok(f) => format!("dashboard_live: {} of {} frames acked at BYE", f.acked_seq, g.frames),
        Err(e) => format!("dashboard_live: BYE failed: {e}"),
    });
    server.shutdown();
    r.delta = before.delta(&Scrape::take(&h));
    if let Err(e) = rec.call("core", "flush", 0, || h.flush()) {
        o.check(false, || format!("dashboard_live: final flush: {e}"));
    }
    let want = preload_rows + r.sent_rows;
    match h.sql("select COUNT(*) from trade_v") {
        Ok(res) => {
            let n = res.rows.first().and_then(|r| r.get(0).as_i64()).unwrap_or(-1);
            o.check(n == want as i64, || {
                format!("dashboard_live: final COUNT(*) = {n}, sent {want}")
            });
        }
        Err(e) => o.check(false, || format!("dashboard_live: final count failed: {e}")),
    }
    r.bytes_per_point =
        h.storage_bytes() as f64 / (preload_points + r.sent_rows * TD_TAGS as u64) as f64;
    r.live_batches = live_batches(&h);
    r.late_rows = feed.late_rows;
    o.attempted += g.frames + rd.attempted;
    for f in g.failures.iter().chain(&rd.failures) {
        o.fail(f.clone());
    }
    r.gen = g;
    r.read = rd;
    Some(r)
}

pub fn run(cfg: &Config, tracer: &Tracer) -> Outcome {
    let mut o = Outcome { why: WHY, ..Outcome::default() };
    let sz = sizes(cfg);
    tracer.set_on(cfg.trace);
    let dir = fresh_dir(cfg, "live");
    let mut built = None;
    let mut digests = Vec::new();
    for rep in 0..SETUP_REPS {
        drop(built.take());
        let _ = std::fs::remove_dir_all(&dir);
        let t = Instant::now();
        let mut rec = tracer.recorder();
        rec.open("bench", "setup", rep as u64);
        let res = setup(cfg, &dir, &mut rec);
        rec.close();
        o.setup_s.push(t.elapsed().as_secs_f64());
        match res {
            Ok(s) => {
                digests.push(s.digest);
                built = Some(s);
            }
            Err(e) => {
                o.check(false, || format!("dashboard_live: set-up failed: {e}"));
                return o;
            }
        }
    }
    o.check(digests.iter().all(|d| *d == digests[0]), || {
        format!("dashboard_live: one seed generated different inputs: {digests:x?}")
    });

    // Rounds of live feed on fresh historians until the measured time is
    // used up (see `Sizes::round`).
    tracer.set_on(false);
    let deadline = phase_deadline(cfg);
    let measuring = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.len() < sz.min_rounds
        || (measuring.elapsed().as_secs_f64() < cfg.seconds && Instant::now() < deadline)
    {
        let s = match built.take() {
            Some(s) => s,
            None => {
                let _ = std::fs::remove_dir_all(&dir);
                let mut rec = tracer.recorder();
                rec.open("bench", "setup", rounds.len() as u64);
                let res = setup(cfg, &dir, &mut rec);
                rec.close();
                match res {
                    Ok(s) => s,
                    Err(e) => {
                        o.check(false, || format!("dashboard_live: set-up failed: {e}"));
                        break;
                    }
                }
            }
        };
        match round(cfg, s, tracer, &mut o) {
            Some(r) => rounds.push(r),
            None => break,
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    tracer.set_on(false);

    let mut acks = Samples::default();
    let mut lat = Samples::default();
    let mut late = Samples::default();
    let mut templates = Vec::new();
    let (mut window, mut acked, mut queries, mut rows_returned, mut waits) =
        (0.0, 0u64, 0u64, 0u64, 0u64);
    let mut delta = Scrape::default();
    let mut traced_delta = Scrape::default();
    // Reader throughput and the medians per round; the run reports their
    // medians, and p99s over the pooled samples.
    let ack_p50s: Vec<f64> = rounds.iter().filter_map(|r| r.gen.acks[0].quantile(0.5)).collect();
    let query_p50s: Vec<f64> = rounds.iter().filter_map(|r| r.read.lat[0].quantile(0.5)).collect();
    let query_rates: Vec<f64> = rounds
        .iter()
        .map(|r| r.read.lat[0].len() as f64 / if cfg.trace { r.read.busy[0] } else { r.window_s })
        .collect();
    for r in &mut rounds {
        acks.append(&mut r.gen.acks[0]);
        lat.append(&mut r.read.lat[0]);
        late.append(&mut r.gen.late_ms);
        window += r.window_s;
        acked += r.acked_rows;
        queries += r.read.queries;
        rows_returned += r.read.rows_returned;
        waits += r.gen.waits;
        delta.accumulate(&r.delta);
        traced_delta.accumulate(&r.traced_delta);
        for (id, mut pair) in std::mem::take(&mut r.read.templates) {
            layers::merge_template(&mut templates, id, &mut pair);
        }
    }
    o.e2e("ingest_rows_per_s", Some(acked as f64 / window), "rows/s");
    o.e2e("ack_p50_ms", Some(median(&ack_p50s)), "ms");
    o.e2e("ack_p99_ms", acks.supported_quantile(0.99), "ms");
    o.e2e("query_per_s", Some(median(&query_rates)), "queries/s");
    o.e2e("query_p50_ms", Some(median(&query_p50s)), "ms");
    o.e2e("query_p99_ms", lat.supported_quantile(0.99), "ms");
    o.e2e(
        "bytes_per_point",
        Some(median(&rounds.iter().map(|r| r.bytes_per_point).collect::<Vec<_>>())),
        "B",
    );
    super::finish_common(&mut o);

    o.info_num("offered_rows_per_s", sz.rate);
    o.info_num("frame_rows", sz.frame_rows as f64);
    o.info_num("round_s", sz.round.as_secs_f64());
    o.info_num("rounds", rounds.len() as f64);
    o.info("round_queries_per_s", crate::host::num_list(&query_rates));
    o.info("round_query_p50_ms", crate::host::num_list(&query_p50s));
    o.info("round_ack_p50_ms", crate::host::num_list(&ack_p50s));
    o.info_num("late_share", LATE_SHARE);
    o.info_num("late_rows_sent", rounds.iter().map(|r| r.late_rows).sum::<u64>() as f64);
    o.info_num("late_delay_rows", sz.late_delay_rows as f64);
    o.info_num("generator_threads", 1.0);
    o.info_num("query_clients", 1.0);
    o.info_num("accounts", sz.accounts as f64);
    o.info_num("preload_event_s", sz.preload_secs as f64);
    o.info_num("live_rows_sent", rounds.iter().map(|r| r.sent_rows).sum::<u64>() as f64);
    o.info_num("ack_samples", acks.len() as f64);
    o.info_num("query_samples", lat.len() as f64);
    o.info_num("gen_late_p50_ms", late.quantile(0.5).unwrap_or(f64::NAN));
    o.info_num("checkpoint_every_s", CHECKPOINT_EVERY.as_secs_f64());
    o.info_num("dashboard_window_event_s", WINDOW_US as f64 / 1e6);
    for (key, s) in [("ack_highest_supported", &acks), ("query_highest_supported", &lat)] {
        if let Some((pct, v)) = s.highest_supported() {
            o.info(key, format!("{{\"percentile\": {pct:.1}, \"ms\": {v}}}"));
        }
    }
    o.info_num("servers", 2.0);
    o.info("templates", layers::templates_json(&templates));

    if cfg.trace {
        let spans = tracer.spans();
        let inputs = LayerInputs {
            delta,
            traced_delta,
            stored: None,
            spans: &spans,
            queries,
            rows_returned,
            backpressure_waits: Some(waits),
            open_buffer_peak: rounds.iter().map(|r| r.open_peak).reduce(f64::max),
            live_batches: rounds.last().map(|r| r.live_batches),
            gen_late_p99_ms: late.supported_quantile(0.99),
            trace_overhead_pct: layers::overhead_pct(&templates),
            templates,
        };
        layers::fill(&mut o, &inputs);
    }
    let _ = std::fs::remove_dir_all(&dir);
    o
}
