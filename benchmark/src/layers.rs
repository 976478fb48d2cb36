//! Per-layer numbers read from the engine's own public counters
//! (`Running::metrics()`, `Cluster::cluster_snapshot()`) at the end of a
//! traced run. Histograms are read through their exact `sum` and count,
//! never through the log₂ bucket quantiles.

use streammine::obs::{RegistrySnapshot, SampleValue};

/// Sum of a counter, or of a gauge used as a counter (the STM's
/// `stm.*`), over every operator and worker.
fn total(snap: &RegistrySnapshot, name: &str) -> f64 {
    snap.samples
        .iter()
        .filter(|s| s.name == name)
        .map(|s| match &s.value {
            SampleValue::Counter(v) => *v as f64,
            SampleValue::Gauge(v) => *v as f64,
            SampleValue::Histogram(_) => 0.0,
        })
        .sum::<f64>()
        + 0.0 // an empty sum is -0.0
}

/// Largest value of a gauge over every label set.
pub fn gauge_max(snap: &RegistrySnapshot, name: &str) -> i64 {
    snap.samples
        .iter()
        .filter(|s| s.name == name)
        .filter_map(|s| match &s.value {
            SampleValue::Gauge(v) => Some(*v),
            _ => None,
        })
        .max()
        .unwrap_or(0)
}

/// `(sum, count)` of a histogram pooled over every label set.
fn pooled(snap: &RegistrySnapshot, name: &str) -> (f64, f64) {
    snap.samples
        .iter()
        .filter(|s| s.name == name)
        .filter_map(|s| match &s.value {
            SampleValue::Histogram(h) => Some((h.sum as f64, h.count() as f64)),
            _ => None,
        })
        .fold((0.0, 0.0), |(s, c), (hs, hc)| (s + hs, c + hc))
}

fn pooled_mean(snap: &RegistrySnapshot, name: &str) -> f64 {
    let (sum, count) = pooled(snap, name);
    if count > 0.0 {
        sum / count
    } else {
        0.0
    }
}

/// The registry rows of the per-layer table: `(metric, value)`. A layer
/// the workload does not use reports a true zero (no frames over TCP in
/// process, no STM across processes).
pub fn registry_rows(snap: &RegistrySnapshot, retained_max: i64) -> Vec<(&'static str, f64)> {
    let hits = total(snap, "stm.fastpath.hits");
    let fast_reads = hits + total(snap, "stm.fastpath.fallbacks");
    vec![
        ("stage.queue_wait_us_mean", pooled_mean(snap, "stage.queue_wait_us")),
        ("stage.process_us_mean", pooled_mean(snap, "stage.process_us")),
        ("stage.log_wait_us_mean", pooled_mean(snap, "stage.log_wait_us")),
        ("stage.commit_gate_us_mean", pooled_mean(snap, "stage.commit_gate_us")),
        ("log.write_us_mean", pooled_mean(snap, "log.write_us")),
        ("log.group_size_mean", pooled_mean(snap, "log.batch_groups")),
        ("batch.events_mean", pooled_mean(snap, "batch.events")),
        ("spec.rollbacks", total(snap, "spec.rollbacks")),
        ("spec.cap_hits", total(snap, "spec.cap_hits")),
        ("backpressure.stalls", total(snap, "backpressure.stalls")),
        ("backpressure.stall_us_sum", pooled(snap, "backpressure.stall_us").0),
        ("stm.started", total(snap, "stm.started")),
        ("stm.committed", total(snap, "stm.committed")),
        ("stm.aborts_conflict", total(snap, "stm.aborts_conflict")),
        ("stm.retries", total(snap, "stm.retries")),
        ("stm.fastpath.hit_share", if fast_reads > 0.0 { hits / fast_reads } else { 0.0 }),
        ("edge.retained_max", retained_max as f64),
        ("edge.retransmits", total(snap, "edge.retransmits")),
        ("transport.frames_out", total(snap, "transport.frames_out")),
        ("transport.bytes_out", total(snap, "transport.bytes_out")),
        ("transport.reconnects", total(snap, "transport.reconnects")),
        ("replay.requests", total(snap, "replay.requests")),
        ("replay.served", total(snap, "replay.served")),
        ("resend.suppressed", total(snap, "resend.suppressed")),
    ]
}
