//! Metric rows, the result line the driver reads, and its parser (the
//! whole-benchmark modes read the result lines of their child runs).

use std::fmt::Write as _;

use crate::stream::Outcome;

/// One named number with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str) -> Metric {
        Metric { name: name.into(), value, unit: unit.into() }
    }
}

/// The end-to-end metrics with their units, in result-line order.
/// `BENCHMARK.json` repeats this table and adds which direction is better.
pub const END_TO_END: [(&str, &str); 4] =
    [("final_p50_us", "us"), ("throughput_ev_s", "1/s"), ("peak_rss_mb", "MB"), ("setup_s", "s")];

/// The share of the median by which each metric ([`END_TO_END`] order) may
/// differ between the two sets of `--selfcheck` before it fails. Tighter
/// than `BENCHMARK.json`'s bounds, which have to hold on a host that
/// steals CPU for minutes at a time: `--selfcheck` repeats the runs that
/// met such a stretch.
pub const SELFCHECK_BOUNDS: [f64; 4] = [0.05, 0.05, 0.10, 0.10];

/// The end-to-end metrics of one run, in [`END_TO_END`] order.
pub fn end_to_end(o: &Outcome) -> Vec<Metric> {
    let values = [o.final_p50_us, o.throughput_ev_s, o.peak_rss_mb, o.setup_s];
    END_TO_END.iter().zip(values).map(|((name, unit), v)| Metric::new(name, v, unit)).collect()
}

/// The tail latency and the CPU cost of one run: measured like the
/// end-to-end metrics and printed with them, but rows of the per-layer
/// table (and of the traced run's result line), because on a shared host
/// they describe the host as much as the program — see `README.md`.
pub fn host_bound(o: &Outcome) -> Vec<Metric> {
    vec![
        Metric::new("final_p95_us", o.final_p95_us, "us"),
        Metric::new("cpu_us_per_event", o.cpu_us_per_event, "us"),
    ]
}

/// A number as JSON: all its digits, and `null` for a value that was
/// never measured (no operation completed).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The one-line JSON object that ends a run's standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// A parsed result line.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

fn after<'a>(s: &'a str, key: &str) -> Option<&'a str> {
    s.find(key).map(|i| &s[i + key.len()..])
}

fn leading_token(s: &str) -> &str {
    let s = s.trim_start();
    let end = s.find([',', '}', ' ']).unwrap_or(s.len());
    &s[..end]
}

/// Parses a line written by [`result_line`] (not general JSON).
pub fn parse_result_line(line: &str) -> Option<RunResult> {
    let correct = leading_token(after(line, "\"correct\":")?) == "true";
    let attempted = leading_token(after(line, "\"attempted\":")?).parse().ok()?;
    let failed = leading_token(after(line, "\"failed\":")?).parse().ok()?;
    let mut rest = after(line, "\"metrics\": {")?;
    let mut metrics = Vec::new();
    while let Some(open) = rest.find('"') {
        let tail = &rest[open + 1..];
        let name = &tail[..tail.find('"')?];
        let value_at = after(tail, "\"value\":")?;
        let value = leading_token(value_at).parse().unwrap_or(f64::NAN);
        let unit_at = after(value_at, "\"unit\": \"")?;
        let unit = &unit_at[..unit_at.find('"')?];
        metrics.push(Metric::new(name, value, unit));
        rest = &unit_at[unit_at.find('}')? + 1..];
    }
    Some(RunResult { correct, attempted, failed, metrics })
}
