//! Unified observability for StreamMine.
//!
//! Three pieces, designed so the paper's latency claims are *measurable
//! from inside the engine* instead of only from benchmark harnesses:
//!
//! * [`Registry`] — a lock-free metrics registry of named counters,
//!   gauges, and fixed-bucket log₂ histograms keyed by `(op, port/edge)`
//!   [`Labels`]. Every node, edge transport, log writer, and the
//!   supervisor registers here; the hot path is a relaxed atomic add.
//! * [`Journal`] — a ring-buffered structured event journal recording the
//!   speculation lifecycle (ingest → speculative publish → log stable →
//!   commit/rollback with cascade depth, replay and resend decisions).
//!   It replaces ad-hoc `eprintln!`s, is silent by default, and its
//!   [`Journal::render`] dump is the flight recorder for failed tests and
//!   diverged chaos runs.
//! * [`export`] — Prometheus text-format and JSON snapshot exporters plus
//!   a linter ([`export::validate_prometheus`]) used by CI.
//! * [`Tracer`] — sampling-based per-event causal tracing: speculation
//!   lineage, rollback blast-radius attribution, critical-path analysis,
//!   exported as Chrome trace-event JSON for Perfetto.
//! * [`http`] — a minimal blocking scrape endpoint serving all of the
//!   above live (`/metrics`, `/metrics.json`, `/journal`, `/traces`).
//! * [`cluster`] — the multi-process telemetry plane: the
//!   [`TelemetryReport`] wire codec workers push up the control lane and
//!   the [`ClusterObs`] aggregator that merges reports — idempotently
//!   across duplicates, reorders, and incarnations — into worker-labeled
//!   cluster metrics, stitched cross-process Chrome traces, and the typed
//!   [`RecoveryTimeline`] fault phase breakdown.
//!
//! [`Obs`] bundles one registry + one journal + one tracer; a graph
//! creates one bundle and threads it everywhere.

#![warn(missing_docs)]

pub mod cluster;
pub mod export;
pub mod http;
pub mod journal;
pub mod registry;
pub mod trace;
pub mod transport;

pub use cluster::{
    timelines_json, ClusterJournalEvent, ClusterObs, FaultKind, RecoveryModeTag, RecoveryTimeline,
    TelemetryReport,
};
pub use export::{json, prometheus_text, sanitize_name, validate_prometheus};
pub use http::{serve, serve_with, HttpServer, Routes};
pub use journal::{
    Journal, JournalEvent, JournalKind, Verbosity, DEFAULT_JOURNAL_CAPACITY,
    PINNED_JOURNAL_CAPACITY, REDERIVATION_BROKEN,
};
pub use registry::{
    bucket_bound, bucket_index, Counter, Gauge, Histogram, HistogramSnapshot, Labels, Registry,
    RegistrySnapshot, Sample, SampleValue, HISTOGRAM_BUCKETS,
};
pub use trace::{
    span_key, trace_key, validate_chrome_trace, BackpressureRecord, CriticalPath, RollbackRecord,
    Span, TraceSummary, Tracer, DEFAULT_SAMPLE_ONE_IN,
};
pub use transport::TransportMetrics;

use std::sync::Arc;

/// One observability bundle: the metrics registry, journal, and causal
/// tracer shared by every component of a running graph. Cloning shares
/// all three.
#[derive(Clone, Debug, Default)]
pub struct Obs {
    /// The metrics registry.
    pub registry: Arc<Registry>,
    /// The structured event journal.
    pub journal: Arc<Journal>,
    /// The causal event tracer (disabled unless built via [`Obs::traced`]
    /// or explicitly enabled).
    pub tracer: Arc<Tracer>,
}

impl Obs {
    /// A fresh bundle (journal level from `STREAMMINE_OBS`, default warn;
    /// tracer disabled).
    pub fn new() -> Obs {
        Obs {
            registry: Arc::new(Registry::new()),
            journal: Arc::new(Journal::new()),
            tracer: Arc::new(Tracer::new()),
        }
    }

    /// A bundle whose journal records the full speculation lifecycle.
    pub fn tracing() -> Obs {
        Obs {
            registry: Arc::new(Registry::new()),
            journal: Arc::new(Journal::with_level(DEFAULT_JOURNAL_CAPACITY, Verbosity::Trace)),
            tracer: Arc::new(Tracer::new()),
        }
    }

    /// A bundle with the causal tracer enabled, sampling one source event
    /// in `sample_one_in` (rounded up to a power of two; `1` = trace
    /// every event), and the journal at full lifecycle verbosity so trace
    /// ids appear in `journal_dump` lines.
    pub fn traced(sample_one_in: u64) -> Obs {
        Obs {
            registry: Arc::new(Registry::new()),
            journal: Arc::new(Journal::with_level(DEFAULT_JOURNAL_CAPACITY, Verbosity::Trace)),
            tracer: Arc::new(Tracer::sampling(sample_one_in)),
        }
    }

    /// A bundle with the causal tracer enabled but the journal at its
    /// default (silent) verbosity — the production tracing configuration,
    /// whose hot-path cost is one relaxed atomic check per source event
    /// plus per-*sampled*-event span bookkeeping. [`Obs::traced`] adds the
    /// full lifecycle journal on top, which meters every event.
    pub fn sampled(sample_one_in: u64) -> Obs {
        Obs {
            registry: Arc::new(Registry::new()),
            journal: Arc::new(Journal::new()),
            tracer: Arc::new(Tracer::sampling(sample_one_in)),
        }
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> RegistrySnapshot {
        self.registry.snapshot()
    }

    /// The metrics in Prometheus text exposition format.
    pub fn prometheus(&self) -> String {
        prometheus_text(&self.snapshot())
    }

    /// The metrics as a JSON document.
    pub fn json(&self) -> String {
        json(&self.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_exports_both_formats() {
        let obs = Obs::new();
        obs.registry.counter("events.in", Labels::op(0)).add(7);
        let text = obs.prometheus();
        assert!(validate_prometheus(&text).unwrap() >= 1, "{text}");
        assert!(obs.json().contains("\"value\":7"));
    }

    #[test]
    fn tracing_bundle_keeps_lifecycle_records() {
        let obs = Obs::tracing();
        obs.journal.record(Some(0), JournalKind::Ingest { serial: 1, port: 0 });
        assert_eq!(obs.journal.len(), 1);
    }
}
