//! A tiny-scale run of each workload, through the binary: the last line
//! of a workload `BENCHMARK.json` lists must carry exactly the end-to-end
//! metrics it declares (untraced) or exactly its per-layer metrics
//! (traced), each with the declared unit, and no operation may fail.

use serde::{DeError, Deserialize, Value};
use std::process::Command;

struct Json(Value);

impl Deserialize for Json {
    fn from_value(v: &Value) -> Result<Json, DeError> {
        Ok(Json(v.clone()))
    }
}

fn parse(line: &str) -> Value {
    serde_json::from_str::<Json>(line).unwrap_or_else(|e| panic!("not JSON ({e}): {line}")).0
}

fn entries(v: &Value) -> &[(String, Value)] {
    match v {
        Value::Object(pairs) => pairs,
        other => panic!("expected an object, got {}", other.kind()),
    }
}

fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected a string, got {}", other.kind()),
    }
}

fn number(v: &Value) -> f64 {
    match v {
        Value::I64(n) => *n as f64,
        Value::U64(n) => *n as f64,
        Value::F64(n) => *n,
        other => panic!("expected a number, got {}", other.kind()),
    }
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark"))
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    match benchmark_json().field(list) {
        Value::Array(items) => items
            .iter()
            .map(|m| (text(m.field("name")).to_string(), text(m.field("unit")).to_string()))
            .collect(),
        other => panic!("{list} is not a list: {}", other.kind()),
    }
}

/// Run the binary; returns the parsed result line.
fn run(workload: &str, trace: bool) -> Value {
    let work =
        std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("tiny-{workload}-{trace}"));
    let out = Command::new(env!("CARGO_BIN_EXE_histbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "3", "--scale", "tiny"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--work-dir")
        .arg(&work)
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    parse(stdout.lines().last().expect("a result line"))
}

/// Per-layer metrics only `dashboard_live` produces. It is not among the
/// workloads `BENCHMARK.json` lists, so they are not declared there.
const DASHBOARD_ONLY: [(&str, &str); 3] =
    [("sql.vq2.p50_ms", "ms"), ("sql.vq3.p50_ms", "ms"), ("bench.gen_late_p99_ms", "ms")];

/// `dashboard_live`'s end-to-end metrics. Not being listed in
/// `BENCHMARK.json`, it reports its ingest and query sides apart, under
/// names of its own, next to the declared ones it shares.
const DASHBOARD_E2E: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("ingest_rows_per_s", "rows/s"),
    ("ack_p50_ms", "ms"),
    ("ack_p99_ms", "ms"),
    ("query_per_s", "queries/s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("bytes_per_point", "B"),
    ("peak_rss_mb", "MiB"),
];

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
}

/// `(name, unit)` of every metric on the result line, sorted.
fn metrics_of(result: &Value) -> Vec<(String, String)> {
    let mut got: Vec<(String, String)> = entries(result.field("metrics"))
        .iter()
        .map(|(name, m)| (name.clone(), text(m.field("unit")).to_string()))
        .collect();
    got.sort();
    got
}

/// Run `workload` untraced and traced at tiny scale: both must be correct
/// and carry exactly the metrics named, with their units; end-to-end
/// values must be positive.
fn check(workload: &str, mut e2e: Vec<(String, String)>, mut per_layer: Vec<(String, String)>) {
    let result = run(workload, false);
    assert!(matches!(result.field("correct"), Value::Bool(true)), "{workload}: not correct");
    assert_eq!(number(result.field("failed")), 0.0, "{workload}: failed operations");
    assert!(number(result.field("attempted")) >= 1.0);
    e2e.sort();
    assert_eq!(metrics_of(&result), e2e, "{workload}: end-to-end metrics");
    for (name, m) in entries(result.field("metrics")) {
        let v = number(m.field("value"));
        assert!(v.is_finite() && v > 0.0, "{workload}: {name} = {v}");
    }

    let traced = run(workload, true);
    assert!(
        matches!(traced.field("correct"), Value::Bool(true)),
        "{workload}: traced run not correct"
    );
    per_layer.sort();
    assert_eq!(metrics_of(&traced), per_layer, "{workload}: per-layer metrics");
}

#[test]
fn ingest_wire_tiny() {
    check("ingest_wire", declared("end_to_end"), declared("per_layer"));
}

#[test]
fn history_scan_tiny() {
    check("history_scan", declared("end_to_end"), declared("per_layer"));
}

#[test]
fn dashboard_live_tiny() {
    let mut per_layer = declared("per_layer");
    per_layer.extend(owned(&DASHBOARD_ONLY));
    check("dashboard_live", owned(&DASHBOARD_E2E), per_layer);
}
