//! Per-layer metrics: the change in the program's own `odh_*` counters
//! and histograms over the measured window, plus the benchmark's spans
//! around its public calls. Names follow `README.md`. Every metric
//! `BENCHMARK.json` declares is printed on every workload: one whose base
//! is zero there (a ratio over no operations, a template or layer the
//! workload never calls) reads 0.

use crate::obs::Scrape;
use crate::report::Outcome;
use crate::stats::Samples;
use crate::trace::{self, Span};

/// Codec labels of `odh_seal_codec_columns_total`.
pub const CODECS: [&str; 4] = ["raw", "linear", "quantize", "xor"];

/// Spans of the calls that carry the workload's operations (as opposed
/// to administrative calls such as flush or checkpoint).
pub const OP_CALLS: [&str; 5] = ["connect", "send_encoded", "wait_all_acked", "finish", "sql"];

/// Façade calls reported as `core.<call>_s`.
pub const CORE_CALLS: [&str; 5] = ["flush", "compact", "checkpoint", "sync", "open"];

/// Template ids reported as `sql.<template>.p50_ms` on every workload;
/// `dashboard_live` adds its own (VQ2, VQ3).
pub const TEMPLATES: [&str; 8] = ["TQ1", "LQ1", "TQ2", "LQ2", "VQ1", "AGG", "TQ4", "LQ4"];

/// Span layers reported as `self_s.<layer>` on every workload.
pub const SPAN_LAYERS: [&str; 3] = ["bench", "core", "net"];

/// What a workload hands over for its per-layer metrics.
#[derive(Default)]
pub struct LayerInputs<'a> {
    /// Counter/histogram change over the whole measured window.
    pub delta: Scrape,
    /// The same, over the traced part of the window only.
    pub traced_delta: Scrape,
    /// Counters describing the stored data, for the compression figures,
    /// when it was sealed before the window (the read-only archive);
    /// `delta` otherwise.
    pub stored: Option<Scrape>,
    pub spans: &'a [Span],
    /// `Historian::sql` calls in the window.
    pub queries: u64,
    /// Rows those calls returned.
    pub rows_returned: u64,
    /// Client-side sends that blocked on zero credit.
    pub backpressure_waits: Option<u64>,
    /// Highest open (unsealed) buffer footprint seen, bytes.
    pub open_buffer_peak: Option<f64>,
    /// Sealed batches across every table generation at the end.
    pub live_batches: Option<u64>,
    pub gen_late_p99_ms: Option<f64>,
    pub trace_overhead_pct: Option<f64>,
    /// Latency samples per query template, keyed by template id:
    /// `[untraced, traced]`.
    pub templates: Vec<(&'static str, [Samples; 2])>,
}

fn template_group<'g>(
    groups: &'g mut Vec<(&'static str, [Samples; 2])>,
    id: &'static str,
) -> &'g mut [Samples; 2] {
    let i = match groups.iter().position(|(n, _)| *n == id) {
        Some(i) => i,
        None => {
            groups.push((id, Default::default()));
            groups.len() - 1
        }
    };
    &mut groups[i].1
}

/// Record one latency of template `id`, split by whether tracing was on.
pub fn note_template(
    groups: &mut Vec<(&'static str, [Samples; 2])>,
    id: &'static str,
    traced: bool,
    ms: f64,
) {
    template_group(groups, id)[traced as usize].push(ms);
}

/// Move another run part's samples of template `id` into `groups`.
pub fn merge_template(
    groups: &mut Vec<(&'static str, [Samples; 2])>,
    id: &'static str,
    pair: &mut [Samples; 2],
) {
    let g = template_group(groups, id);
    g[0].append(&mut pair[0]);
    g[1].append(&mut pair[1]);
}

/// Per-template untraced sample count, median and mean, as a JSON object
/// for the report.
pub fn templates_json(groups: &[(&'static str, [Samples; 2])]) -> String {
    let body: Vec<String> = groups
        .iter()
        .map(|(id, [plain, _])| {
            format!(
                "\"{id}\": {{\"n\": {}, \"p50_ms\": {}, \"mean_ms\": {}}}",
                plain.len(),
                crate::host::num(plain.quantile(0.5).unwrap_or(f64::NAN)),
                crate::host::num(plain.mean().unwrap_or(f64::NAN))
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Tracing overhead in percent: per template, the traced median latency
/// over the untraced one, minus one, weighted by the template's traced
/// operation count. Comparing like with like keeps a heavy-tailed mix
/// from swamping the difference.
pub fn overhead_pct(groups: &[(&'static str, [Samples; 2])]) -> Option<f64> {
    let (mut acc, mut weight) = (0.0, 0.0);
    for (_, [plain, traced]) in groups {
        if let (Some(a), Some(b)) = (plain.quantile(0.5), traced.quantile(0.5)) {
            if a > 0.0 {
                let w = traced.len() as f64;
                acc += (b / a - 1.0) * w;
                weight += w;
            }
        }
    }
    ratio(acc * 100.0, weight)
}

fn ratio(a: f64, b: f64) -> Option<f64> {
    (b > 0.0).then(|| a / b)
}

pub fn fill(o: &mut Outcome, x: &LayerInputs<'_>) {
    let d = &x.delta;
    let s = |name: &str| d.sum(name);

    // odh-net
    o.layer("net.decode_busy_s", Some(s("odh_net_frame_decode_us_sum") / 1e6), "s");
    o.layer(
        "net.bytes_per_row",
        ratio(s("odh_net_bytes_read_total"), s("odh_net_rows_total")),
        "B",
    );
    o.layer(
        "net.acks_per_commit",
        ratio(s("odh_net_acks_total"), s("odh_net_commits_total")),
        "ratio",
    );
    o.layer("net.backpressure_waits", x.backpressure_waits.map(|v| v as f64), "count");

    // WAL. Appends are timed 1 in 64; scale the sampled time by the
    // appends it stands for.
    let appends = s("odh_wal_appends_total");
    let append_samples = s("odh_wal_append_seconds_count");
    o.layer(
        "wal.append_busy_s",
        ratio(appends, append_samples).map(|k| k * s("odh_wal_append_seconds_sum")),
        "s",
    );
    o.layer("wal.append_samples", Some(append_samples), "count");
    o.layer("wal.fsyncs", Some(s("odh_wal_fsync_seconds_count")), "count");
    o.layer("wal.fsync_busy_s", Some(s("odh_wal_fsync_seconds_sum")), "s");
    o.layer(
        "wal.appends_per_group_commit",
        ratio(appends, s("odh_wal_group_commits_total")),
        "ratio",
    );
    let points = s("odh_table_points_ingested_total");
    o.layer("wal.bytes_per_point", ratio(s("odh_wal_bytes_total"), points), "B");

    // Ingest shards.
    o.layer(
        "ingest.shard_contended_ratio",
        ratio(s("odh_concurrency_shard_contended_total"), s("odh_concurrency_shard_locks_total")),
        "ratio",
    );
    o.layer("ingest.shard_wait_s", Some(s("odh_ingest_shard_acquire_seconds_sum")), "s");
    o.layer("ingest.late_rows", Some(s("odh_ooo_side_rows_total")), "count");
    o.layer("ingest.open_buffer_bytes_peak", x.open_buffer_peak, "B");

    // Seal pipeline.
    let enq = s("odh_seal_queue_enqueued_total");
    let fallback = s("odh_seal_queue_fallback_total");
    o.layer("seal.busy_s", Some(s("odh_seal_seconds_sum")), "s");
    o.layer("seal.batches_written", Some(s("odh_table_batches_written_total")), "count");
    o.layer("seal.fallback_ratio", ratio(fallback, enq + fallback), "ratio");
    o.layer("seal.queue_wait_s", Some(s("odh_seal_queue_wait_seconds_sum")), "s");

    // odh-compress, seen through the storage counters.
    let stored = x.stored.as_ref().unwrap_or(d);
    o.layer(
        "compress.ratio",
        ratio(stored.sum("odh_table_raw_bytes_total"), stored.sum("odh_table_blob_bytes_total")),
        "ratio",
    );
    let codecs = stored.by_label("odh_seal_codec_columns_total", "codec");
    for c in CODECS {
        o.layer(
            &format!("compress.codec_columns.{c}"),
            Some(codecs.get(c).copied().unwrap_or(0.0)),
            "count",
        );
    }
    let q = x.queries as f64;
    o.layer(
        "compress.blob_decodes_per_query",
        ratio(s("odh_table_blob_decodes_total"), q),
        "count",
    );

    // Compactor.
    o.layer("compact.runs", Some(s("odh_compact_runs_total")), "count");
    o.layer("compact.busy_s", Some(s("odh_compact_seconds_sum")), "s");
    o.layer("compact.merged_batches", Some(s("odh_compact_merged_batches_total")), "count");
    o.layer("compact.batches_live", x.live_batches.map(|v| v as f64), "count");

    // Decode cache.
    let hits = s("odh_table_cache_hits_total");
    let misses = s("odh_table_cache_misses_total");
    o.layer("cache.hit_ratio", ratio(hits, hits + misses), "ratio");
    o.layer("cache.misses_per_query", ratio(misses, q), "count");

    // Read paths.
    let summary = s("odh_table_summary_answered_batches_total");
    let cold = s("odh_table_cold_batches_scanned_total");
    o.layer("read.summary_answered_ratio", ratio(summary, summary + hits + misses + cold), "ratio");
    o.layer("read.zone_pruned_batches", Some(s("odh_table_batches_zone_pruned_total")), "count");
    o.layer(
        "read.points_scanned_per_row_returned",
        ratio(s("odh_table_points_scanned_total"), x.rows_returned as f64),
        "ratio",
    );
    o.layer("read.cold_batches_scanned", Some(cold), "count");

    // odh-sql.
    o.layer("sql.plan_busy_s", Some(s("odh_sql_plan_seconds_sum")), "s");
    o.layer("sql.exec_busy_s", Some(s("odh_sql_exec_seconds_sum")), "s");
    o.layer(
        "sql.vectorized_share",
        ratio(s("odh_sql_vectorized_queries_total"), s("odh_sql_exec_seconds_count")),
        "ratio",
    );
    for tpl in TEMPLATES.into_iter().filter(|t| !x.templates.iter().any(|(id, _)| id == t)) {
        o.layer(&format!("sql.{}.p50_ms", tpl.to_ascii_lowercase()), None, "ms");
    }
    for (tpl, [plain, traced]) in &x.templates {
        let mut all = plain.clone();
        all.append(&mut traced.clone());
        o.layer(&format!("sql.{}.p50_ms", tpl.to_ascii_lowercase()), all.quantile(0.5), "ms");
    }

    // odh-core façade calls, from the benchmark's spans.
    for call in CORE_CALLS {
        let (secs, n) = trace::total(x.spans, call);
        o.layer(&format!("core.{call}_s"), (n > 0).then_some(secs), "s");
    }

    // odh-pager buffer pool.
    o.layer(
        "pager.hit_ratio",
        ratio(s("odh_pool_hits_total"), s("odh_pool_logical_reads_total")),
        "ratio",
    );
    o.layer("pager.physical_reads", Some(s("odh_pool_physical_reads_total")), "count");
    o.layer("pager.physical_writes", Some(s("odh_pool_physical_writes_total")), "count");
    o.layer(
        "pager.evict_fail",
        Some(
            s("odh_pool_evict_fail_all_pinned_total")
                + s("odh_pool_evict_fail_hot_total")
                + s("odh_pool_evict_fail_no_clean_total"),
        ),
        "count",
    );

    // The benchmark itself.
    if let Some(late) = x.gen_late_p99_ms {
        o.layer("bench.gen_late_p99_ms", Some(late), "ms");
    }
    o.layer("bench.trace_overhead_pct", x.trace_overhead_pct, "%");
    o.layer("bench.unexplained_frac", unexplained_frac(x), "ratio");
    let self_s = trace::self_time_by_layer(x.spans);
    for layer in SPAN_LAYERS.into_iter().filter(|l| !self_s.contains_key(l)) {
        o.layer(&format!("self_s.{layer}"), None, "s");
    }
    for (layer, secs) in self_s {
        o.layer(&format!("self_s.{layer}"), Some(secs), "s");
    }
}

/// Share of the time the workload's clients spent inside the system's
/// public calls (traced spans of [`OP_CALLS`]) that the layers' own busy
/// time does not account for. The layer time is frame decode + ingest,
/// WAL fsync, SQL planning and SQL execution over the same traced part of
/// the window. Negative when layers worked in parallel with the callers
/// for longer than the callers waited.
fn unexplained_frac(x: &LayerInputs<'_>) -> Option<f64> {
    let wall: f64 = x.spans.iter().filter(|s| OP_CALLS.contains(&s.name)).map(Span::secs).sum();
    let t = &x.traced_delta;
    let layers = t.sum("odh_net_frame_decode_us_sum") / 1e6
        + t.sum("odh_wal_fsync_seconds_sum")
        + t.sum("odh_sql_plan_seconds_sum")
        + t.sum("odh_sql_exec_seconds_sum");
    ratio(wall - layers, wall)
}
