//! Snapshot exporters: Prometheus text format and JSON.
//!
//! Internal metric names are dotted (`recovery.restarts`); the Prometheus
//! exporter sanitizes them to the `[a-zA-Z_:][a-zA-Z0-9_:]*` charset the
//! format requires. [`validate_prometheus`] is the matching linter — the
//! observability tests run it over a live graph's exposition, so a
//! malformed one fails the build instead of a scrape.

use std::fmt::Write as _;

use crate::registry::{bucket_bound, Labels, RegistrySnapshot, Sample, SampleValue};

/// Rewrites a dotted metric name into the Prometheus-legal charset.
pub fn sanitize_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == ':' { c } else { '_' })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

fn prom_labels(labels: Labels, extra: Option<(&str, String)>) -> String {
    let mut pairs: Vec<String> = Vec::new();
    if let Some(op) = labels.op {
        pairs.push(format!("op=\"{op}\""));
    }
    if let Some(port) = labels.port {
        pairs.push(format!("port=\"{port}\""));
    }
    if let Some(worker) = labels.worker {
        pairs.push(format!("worker=\"{worker}\""));
    }
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{v}\""));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

/// Renders a snapshot in the Prometheus text exposition format.
///
/// Histograms emit cumulative `_bucket` series up to the highest non-empty
/// bucket plus `+Inf`, and the usual `_sum`/`_count` pair.
pub fn prometheus_text(snap: &RegistrySnapshot) -> String {
    let mut out = String::new();
    let mut last_name: Option<&str> = None;
    for sample in &snap.samples {
        let name = sanitize_name(&sample.name);
        if last_name != Some(sample.name.as_str()) {
            let kind = match sample.value {
                SampleValue::Counter(_) => "counter",
                SampleValue::Gauge(_) => "gauge",
                SampleValue::Histogram(_) => "histogram",
            };
            let _ = writeln!(out, "# TYPE {name} {kind}");
            last_name = Some(sample.name.as_str());
        }
        match &sample.value {
            SampleValue::Counter(v) => {
                let _ = writeln!(out, "{name}{} {v}", prom_labels(sample.labels, None));
            }
            SampleValue::Gauge(v) => {
                let _ = writeln!(out, "{name}{} {v}", prom_labels(sample.labels, None));
            }
            SampleValue::Histogram(h) => {
                let top = h.buckets.iter().rposition(|&c| c > 0);
                let mut cumulative = 0u64;
                if let Some(top) = top {
                    for (i, &c) in h.buckets.iter().enumerate().take(top + 1) {
                        cumulative += c;
                        let le = bucket_bound(i).to_string();
                        let labels = prom_labels(sample.labels, Some(("le", le)));
                        let _ = writeln!(out, "{name}_bucket{labels} {cumulative}");
                    }
                }
                let inf = prom_labels(sample.labels, Some(("le", "+Inf".to_string())));
                let _ = writeln!(out, "{name}_bucket{inf} {cumulative}");
                let plain = prom_labels(sample.labels, None);
                let _ = writeln!(out, "{name}_sum{plain} {}", h.sum);
                let _ = writeln!(out, "{name}_count{plain} {cumulative}");
            }
        }
    }
    out
}

fn json_sample(out: &mut String, sample: &Sample) {
    let _ = write!(out, "{{\"name\":\"{}\"", sample.name);
    if let Some(op) = sample.labels.op {
        let _ = write!(out, ",\"op\":{op}");
    }
    if let Some(port) = sample.labels.port {
        let _ = write!(out, ",\"port\":{port}");
    }
    if let Some(worker) = sample.labels.worker {
        let _ = write!(out, ",\"worker\":{worker}");
    }
    match &sample.value {
        SampleValue::Counter(v) => {
            let _ = write!(out, ",\"type\":\"counter\",\"value\":{v}");
        }
        SampleValue::Gauge(v) => {
            let _ = write!(out, ",\"type\":\"gauge\",\"value\":{v}");
        }
        SampleValue::Histogram(h) => {
            let _ = write!(
                out,
                ",\"type\":\"histogram\",\"count\":{},\"sum\":{},\"mean\":{:.3},\
                 \"p50\":{},\"p95\":{},\"p99\":{},\"buckets\":[",
                h.count(),
                h.sum,
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.95),
                h.quantile(0.99),
            );
            let mut first = true;
            for (i, &c) in h.buckets.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "[{},{}]", bucket_bound(i), c);
            }
            out.push(']');
        }
    }
    out.push('}');
}

/// Renders a snapshot as a JSON document:
/// `{"metrics":[{"name":...,"op":...,"type":...,...}, ...]}`.
///
/// Histograms carry exact `count`/`sum`/`mean` plus log₂-resolution
/// `p50`/`p95`/`p99` and the non-empty `[bound, count]` bucket pairs.
pub fn json(snap: &RegistrySnapshot) -> String {
    let mut out = String::from("{\"metrics\":[");
    for (i, sample) in snap.samples.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_sample(&mut out, sample);
    }
    out.push_str("]}");
    out
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn lint_labels(body: &str, line_no: usize) -> Result<(), String> {
    if body.is_empty() {
        return Ok(());
    }
    for pair in body.split(',') {
        let Some((key, value)) = pair.split_once('=') else {
            return Err(format!("line {line_no}: label pair `{pair}` missing `=`"));
        };
        if !valid_metric_name(key) {
            return Err(format!("line {line_no}: bad label name `{key}`"));
        }
        if value.len() < 2 || !value.starts_with('"') || !value.ends_with('"') {
            return Err(format!("line {line_no}: label value `{value}` not quoted"));
        }
    }
    Ok(())
}

/// A minimal Prometheus text-format linter.
///
/// Checks every line is a well-formed comment (`# TYPE`/`# HELP` with a
/// legal name and known type) or a sample (`name[{labels}] value`) whose
/// name passes the charset rule, whose labels are `key="value"` pairs, and
/// whose value parses as a float. Returns the number of sample lines.
pub fn validate_prometheus(text: &str) -> Result<usize, String> {
    let mut samples = 0usize;
    for (idx, line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut parts = comment.split_whitespace();
            match parts.next() {
                Some("TYPE") => {
                    let name = parts
                        .next()
                        .ok_or_else(|| format!("line {line_no}: TYPE missing metric name"))?;
                    if !valid_metric_name(name) {
                        return Err(format!("line {line_no}: bad metric name `{name}`"));
                    }
                    match parts.next() {
                        Some("counter" | "gauge" | "histogram" | "summary" | "untyped") => {}
                        other => {
                            return Err(format!("line {line_no}: bad TYPE kind {other:?}"));
                        }
                    }
                }
                Some("HELP") => {}
                _ => return Err(format!("line {line_no}: unknown comment `{line}`")),
            }
            continue;
        }
        let (series, value) =
            line.rsplit_once(' ').ok_or_else(|| format!("line {line_no}: sample missing value"))?;
        value
            .parse::<f64>()
            .map_err(|_| format!("line {line_no}: value `{value}` is not a number"))?;
        let name = match series.split_once('{') {
            Some((name, rest)) => {
                let body = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {line_no}: unbalanced label braces"))?;
                lint_labels(body, line_no)?;
                name
            }
            None => series,
        };
        if !valid_metric_name(name) {
            return Err(format!("line {line_no}: bad metric name `{name}`"));
        }
        samples += 1;
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn populated() -> Registry {
        let reg = Registry::new();
        reg.counter("recovery.restarts", Labels::op(1)).add(3);
        reg.gauge("stm.live", Labels::NONE).set(-4);
        let h = reg.histogram("stage.log_wait_us", Labels::op_port(0, 1));
        for v in [0u64, 3, 900, 2100, 2100] {
            h.record(v);
        }
        reg
    }

    #[test]
    fn sanitize_rewrites_illegal_chars() {
        assert_eq!(sanitize_name("recovery.restarts"), "recovery_restarts");
        assert_eq!(sanitize_name("a-b.c"), "a_b_c");
        assert_eq!(sanitize_name("9lives"), "_9lives");
        assert_eq!(sanitize_name("ok_name:x"), "ok_name:x");
    }

    #[test]
    fn prometheus_output_passes_own_linter() {
        let text = prometheus_text(&populated().snapshot());
        let samples = validate_prometheus(&text).unwrap();
        assert!(samples >= 3, "expected counter+gauge+histogram samples:\n{text}");
        assert!(text.contains("# TYPE recovery_restarts counter"), "{text}");
        assert!(text.contains("recovery_restarts{op=\"1\"} 3"), "{text}");
        assert!(text.contains("stm_live -4"), "{text}");
        assert!(text.contains("stage_log_wait_us_count{op=\"0\",port=\"1\"} 5"), "{text}");
        assert!(text.contains("le=\"+Inf\"} 5"), "{text}");
    }

    #[test]
    fn prometheus_histogram_buckets_are_cumulative() {
        let reg = Registry::new();
        let h = reg.histogram("lat", Labels::NONE);
        h.record(1); // bucket 1, bound 1
        h.record(2); // bucket 2, bound 3
        h.record(3); // bucket 2, bound 3
        let text = prometheus_text(&reg.snapshot());
        assert!(text.contains("lat_bucket{le=\"1\"} 1"), "{text}");
        assert!(text.contains("lat_bucket{le=\"3\"} 3"), "{text}");
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 3"), "{text}");
        assert!(text.contains("lat_sum 6"), "{text}");
    }

    #[test]
    fn linter_rejects_malformed_lines() {
        assert!(validate_prometheus("ok 1\n").is_ok());
        assert!(validate_prometheus("bad.name 1\n").is_err());
        assert!(validate_prometheus("x{op=\"1\" 2\n").is_err(), "unbalanced braces");
        assert!(validate_prometheus("x{op=1} 2\n").is_err(), "unquoted label value");
        assert!(validate_prometheus("x nope\n").is_err(), "non-numeric value");
        assert!(validate_prometheus("# TYPE x rocket\n").is_err(), "unknown type");
        assert!(validate_prometheus("# YO x\n").is_err(), "unknown comment");
    }

    #[test]
    fn json_contains_decomposition_fields() {
        let doc = json(&populated().snapshot());
        assert!(doc.starts_with("{\"metrics\":["), "{doc}");
        assert!(doc.contains("\"name\":\"recovery.restarts\",\"op\":1"), "{doc}");
        assert!(doc.contains("\"type\":\"histogram\",\"count\":5"), "{doc}");
        assert!(doc.contains("\"p50\""), "{doc}");
        assert!(doc.contains("\"buckets\":[[0,1]"), "{doc}");
    }
}
