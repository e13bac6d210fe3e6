//! A workload's result and its two printed forms: the full report line
//! (host stamp, settings, sample counts, oracle failures) and the final
//! result line.

use crate::host::{num, quote};
use crate::Config;

/// One named metric value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Why the workload exists (printed with every result).
    pub why: &'static str,
    /// Set-up time of each repetition, seconds.
    pub setup_s: Vec<f64>,
    /// End-to-end metrics that apply to this workload.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Settings and sample counts, as `(key, JSON value)`.
    pub info: Vec<(String, String)>,
    /// Operations attempted (frames, queries, oracle checks).
    pub attempted: u64,
    /// Operations that failed or returned a wrong answer, with reasons.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn e2e(&mut self, name: &str, value: Option<f64>, unit: &'static str) {
        if let Some(value) = value.filter(|v| v.is_finite()) {
            self.e2e.push(Metric { name: name.into(), value, unit });
        }
    }

    /// A per-layer metric. One the workload gives no base (`None`) reads
    /// 0, so a traced run prints every metric `BENCHMARK.json` declares.
    pub fn layer(&mut self, name: &str, value: Option<f64>, unit: &'static str) {
        let value = value.filter(|v| v.is_finite()).unwrap_or(0.0);
        self.layers.push(Metric { name: name.into(), value, unit });
    }

    pub fn info(&mut self, key: &str, json: String) {
        self.info.push((key.into(), json));
    }

    pub fn info_num(&mut self, key: &str, v: f64) {
        self.info(key, num(v));
    }

    pub fn info_str(&mut self, key: &str, v: &str) {
        self.info(key, quote(v));
    }

    /// Record one checked operation; a failure message marks it wrong.
    pub fn check(&mut self, ok: bool, failure: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(failure());
        }
    }

    /// Mark an operation already counted in `attempted` as failed.
    pub fn fail(&mut self, msg: String) {
        eprintln!("histbench: ORACLE FAILURE: {msg}");
        self.failures.push(msg);
    }

    pub fn failed_frac(&self) -> f64 {
        self.failures.len() as f64 / self.attempted.max(1) as f64
    }

    /// The metrics the result line carries for this run.
    pub fn reported(&self, cfg: &Config) -> &[Metric] {
        if cfg.trace {
            &self.layers
        } else {
            &self.e2e
        }
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                num(m.value),
                quote(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The full report: host stamp, settings, every metric and the failures.
pub fn report_line(cfg: &Config, o: &Outcome) -> String {
    let mut fields = vec![
        ("workload".to_string(), quote(&cfg.workload)),
        ("why".to_string(), quote(o.why)),
        ("seed".to_string(), cfg.seed.to_string()),
        ("seconds".to_string(), num(cfg.seconds)),
        ("trace".to_string(), cfg.trace.to_string()),
        ("scale".to_string(), quote(&format!("{:?}", cfg.scale).to_lowercase())),
        ("nproc".to_string(), crate::host::nproc().to_string()),
        ("cpu_model".to_string(), quote(&crate::host::cpu_model())),
        ("rustc".to_string(), quote(crate::host::rustc_version())),
        ("build_profile".to_string(), quote(crate::host::build_profile())),
        ("setup_s_each".to_string(), crate::host::num_list(&o.setup_s)),
    ];
    fields.extend(o.info.iter().cloned());
    fields.push(("end_to_end".into(), metrics_json(&o.e2e)));
    if cfg.trace {
        fields.push(("per_layer".into(), metrics_json(&o.layers)));
    }
    fields.push(("attempted".into(), o.attempted.to_string()));
    fields.push(("failed".into(), o.failures.len().to_string()));
    fields.push(("failed_frac".into(), num(o.failed_frac())));
    fields.push((
        "failures".into(),
        format!(
            "[{}]",
            o.failures.iter().take(20).map(|f| quote(f)).collect::<Vec<_>>().join(", ")
        ),
    ));
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("{}: {v}", quote(k))).collect();
    format!("{{\"report\": {{{}}}}}", body.join(", "))
}

/// The final line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(cfg: &Config, o: &Outcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.failures.is_empty(),
        o.attempted.max(1),
        o.failures.len(),
        metrics_json(o.reported(cfg))
    )
}
