//! Cluster-level telemetry: report codec, idempotent aggregation, trace
//! stitching, and the structured recovery timeline.
//!
//! A multi-process cluster traps every worker's metrics registry, journal,
//! and trace spans inside that worker's address space. This module is the
//! other half of the telemetry plane: workers periodically serialize a
//! [`TelemetryReport`] — a full metrics snapshot for the current
//! incarnation, the journal records since the last report (including the
//! pinned region), and every completed trace span — and push it up the
//! control lane. The launcher feeds the reports into a [`ClusterObs`],
//! which merges them into one cluster-wide view keyed by
//! `worker=<node>` [`Labels`]:
//!
//! * **Metrics** — each report carries the *cumulative* snapshot of its
//!   incarnation (a delta at incarnation granularity: a restart resets the
//!   process registry, so per-incarnation snapshots never double-count).
//!   Counters and histogram buckets sum across incarnations; gauges take
//!   the newest incarnation's value. Reports are versioned by a per-
//!   incarnation sequence number, so duplicate or reordered delivery on an
//!   at-least-once control lane is idempotent.
//! * **Journal** — events append past a per-incarnation watermark on the
//!   worker journal's own monotone `seq`, so a re-delivered report adds
//!   nothing.
//! * **Traces** — spans are stored under `(worker, incarnation, span id)`
//!   and stitched into a single Chrome trace whose `pid` encodes the
//!   worker *and* incarnation, so one sampled event's path across
//!   processes (and across a kill/replay) is one Perfetto timeline.
//!
//! [`RecoveryTimeline`] is the typed per-fault phase breakdown of one
//! restart, in either runtime. A cluster's launcher assembles it from its
//! own monitor (detect → fence → respawn) and the replacement worker's
//! signals (handshake, first replayed output, sink drain); the in-process
//! supervisor stamps the first three. This module only defines the type
//! and its JSON form, so harnesses and benches share one schema.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Mutex as StdMutex, OnceLock};

use parking_lot::Mutex;
use streammine_common::codec::{Decode, DecodeError, Decoder, Encode, Encoder};

use crate::journal::{JournalEvent, JournalKind};
use crate::registry::{
    HistogramSnapshot, Labels, RegistrySnapshot, Sample, SampleValue, HISTOGRAM_BUCKETS,
};
use crate::trace::Span;
use crate::Obs;

// ---------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------

impl Encode for Labels {
    fn encode(&self, enc: &mut Encoder) {
        self.op.encode(enc);
        self.port.encode(enc);
        self.worker.encode(enc);
    }
}

impl Decode for Labels {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Labels {
            op: Option::<u32>::decode(dec)?,
            port: Option::<u32>::decode(dec)?,
            worker: Option::<u32>::decode(dec)?,
        })
    }
}

impl Encode for SampleValue {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            SampleValue::Counter(v) => {
                enc.put_u8(0);
                enc.put_u64(*v);
            }
            SampleValue::Gauge(v) => {
                enc.put_u8(1);
                enc.put_i64(*v);
            }
            SampleValue::Histogram(h) => {
                enc.put_u8(2);
                enc.put_u64(h.sum);
                // Sparse encoding: only the non-empty buckets travel.
                let pairs: Vec<(u32, u64)> = h
                    .buckets
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c > 0)
                    .map(|(i, &c)| (i as u32, c))
                    .collect();
                pairs.encode(enc);
            }
        }
    }
}

impl Decode for SampleValue {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.get_u8()? {
            0 => Ok(SampleValue::Counter(dec.get_u64()?)),
            1 => Ok(SampleValue::Gauge(dec.get_i64()?)),
            2 => {
                let sum = dec.get_u64()?;
                let pairs = Vec::<(u32, u64)>::decode(dec)?;
                let mut buckets = vec![0u64; HISTOGRAM_BUCKETS];
                for (i, c) in pairs {
                    let i = i as usize;
                    if i >= HISTOGRAM_BUCKETS {
                        return Err(DecodeError::LengthOverflow(i as u64));
                    }
                    buckets[i] = c;
                }
                Ok(SampleValue::Histogram(HistogramSnapshot { sum, buckets }))
            }
            tag => Err(DecodeError::InvalidTag { type_name: "SampleValue", tag }),
        }
    }
}

impl Encode for Sample {
    fn encode(&self, enc: &mut Encoder) {
        self.name.encode(enc);
        self.labels.encode(enc);
        self.value.encode(enc);
    }
}

impl Decode for Sample {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Sample {
            name: String::decode(dec)?,
            labels: Labels::decode(dec)?,
            value: SampleValue::decode(dec)?,
        })
    }
}

/// Interns a decoded warn code: [`JournalKind::Warn`] carries a
/// `&'static str` so the recording hot path never allocates, but a code
/// arriving off the wire is owned. The set of distinct codes is tiny and
/// stable, so leaking one allocation per distinct code is the cheapest
/// sound way back to `'static`.
fn intern_code(code: &str) -> &'static str {
    static CODES: OnceLock<StdMutex<Vec<&'static str>>> = OnceLock::new();
    let codes = CODES.get_or_init(|| StdMutex::new(Vec::new()));
    let mut codes = codes.lock().expect("intern table poisoned");
    if let Some(known) = codes.iter().find(|k| **k == code) {
        return known;
    }
    let leaked: &'static str = Box::leak(code.to_string().into_boxed_str());
    codes.push(leaked);
    leaked
}

impl Encode for JournalKind {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            JournalKind::Ingest { serial, port } => {
                enc.put_u8(0);
                enc.put_u64(*serial);
                enc.put_u32(*port);
            }
            JournalKind::SpecPublish { serial, outputs } => {
                enc.put_u8(1);
                enc.put_u64(*serial);
                enc.put_u32(*outputs);
            }
            JournalKind::LogStable { serial } => {
                enc.put_u8(2);
                enc.put_u64(*serial);
            }
            JournalKind::Commit { serial } => {
                enc.put_u8(3);
                enc.put_u64(*serial);
            }
            JournalKind::Rollback { serial, cascade_depth } => {
                enc.put_u8(4);
                enc.put_u64(*serial);
                enc.put_u32(*cascade_depth);
            }
            JournalKind::Rewind { port, from } => {
                enc.put_u8(5);
                enc.put_u32(*port);
                enc.put_u64(*from);
            }
            // Tag 6 was the served replay request; it stays retired.
            JournalKind::ResendSuppressed { edge, count } => {
                enc.put_u8(7);
                enc.put_u32(*edge);
                enc.put_u64(*count);
            }
            JournalKind::CheckpointSaved { id, covers_log } => {
                enc.put_u8(8);
                enc.put_u64(*id);
                enc.put_u64(*covers_log);
            }
            JournalKind::Restart { attempt, backoff_us } => {
                enc.put_u8(9);
                enc.put_u32(*attempt);
                enc.put_u64(*backoff_us);
            }
            JournalKind::BackpressureStall { edge } => {
                enc.put_u8(10);
                enc.put_u32(*edge);
            }
            JournalKind::BackpressureResume { stall_us } => {
                enc.put_u8(11);
                enc.put_u64(*stall_us);
            }
            JournalKind::SpecCapHit { open, retained } => {
                enc.put_u8(12);
                enc.put_u32(*open);
                enc.put_u64(*retained);
            }
            JournalKind::Warn { code, detail } => {
                enc.put_u8(13);
                code.encode(enc);
                detail.encode(enc);
            }
            JournalKind::ApproxResume { skipped, lost, remaining } => {
                enc.put_u8(14);
                enc.put_u64(*skipped);
                enc.put_u64(*lost);
                enc.put_u64(*remaining);
            }
            JournalKind::ApproxEscalate { lost, allowed } => {
                enc.put_u8(15);
                enc.put_u64(*lost);
                enc.put_u64(*allowed);
            }
        }
    }
}

impl Decode for JournalKind {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(match dec.get_u8()? {
            0 => JournalKind::Ingest { serial: dec.get_u64()?, port: dec.get_u32()? },
            1 => JournalKind::SpecPublish { serial: dec.get_u64()?, outputs: dec.get_u32()? },
            2 => JournalKind::LogStable { serial: dec.get_u64()? },
            3 => JournalKind::Commit { serial: dec.get_u64()? },
            4 => JournalKind::Rollback { serial: dec.get_u64()?, cascade_depth: dec.get_u32()? },
            5 => JournalKind::Rewind { port: dec.get_u32()?, from: dec.get_u64()? },
            7 => JournalKind::ResendSuppressed { edge: dec.get_u32()?, count: dec.get_u64()? },
            8 => JournalKind::CheckpointSaved { id: dec.get_u64()?, covers_log: dec.get_u64()? },
            9 => JournalKind::Restart { attempt: dec.get_u32()?, backoff_us: dec.get_u64()? },
            10 => JournalKind::BackpressureStall { edge: dec.get_u32()? },
            11 => JournalKind::BackpressureResume { stall_us: dec.get_u64()? },
            12 => JournalKind::SpecCapHit { open: dec.get_u32()?, retained: dec.get_u64()? },
            13 => {
                let code = String::decode(dec)?;
                let detail = String::decode(dec)?;
                JournalKind::Warn { code: intern_code(&code), detail }
            }
            14 => JournalKind::ApproxResume {
                skipped: dec.get_u64()?,
                lost: dec.get_u64()?,
                remaining: dec.get_u64()?,
            },
            15 => JournalKind::ApproxEscalate { lost: dec.get_u64()?, allowed: dec.get_u64()? },
            tag => return Err(DecodeError::InvalidTag { type_name: "JournalKind", tag }),
        })
    }
}

impl Encode for JournalEvent {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.seq);
        enc.put_u64(self.at_us);
        self.op.encode(enc);
        self.trace.encode(enc);
        self.kind.encode(enc);
    }
}

impl Decode for JournalEvent {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(JournalEvent {
            seq: dec.get_u64()?,
            at_us: dec.get_u64()?,
            op: Option::<u32>::decode(dec)?,
            trace: Option::<u64>::decode(dec)?,
            kind: JournalKind::decode(dec)?,
        })
    }
}

impl Encode for Span {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.trace_id);
        enc.put_u64(self.span_id);
        enc.put_u64(self.parent);
        enc.put_u32(self.op);
        enc.put_u64(self.serial);
        enc.put_u64(self.start_us);
        enc.put_u64(self.queue_wait_us);
        enc.put_u64(self.process_us);
        self.log_wait_us.encode(enc);
        self.commit_gate_us.encode(enc);
        enc.put_u32(self.rollbacks);
        self.committed.encode(enc);
        self.deps.encode(enc);
    }
}

impl Decode for Span {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Span {
            trace_id: dec.get_u64()?,
            span_id: dec.get_u64()?,
            parent: dec.get_u64()?,
            op: dec.get_u32()?,
            serial: dec.get_u64()?,
            start_us: dec.get_u64()?,
            queue_wait_us: dec.get_u64()?,
            process_us: dec.get_u64()?,
            log_wait_us: Option::<u64>::decode(dec)?,
            commit_gate_us: Option::<u64>::decode(dec)?,
            rollbacks: dec.get_u32()?,
            committed: bool::decode(dec)?,
            deps: Vec::<u64>::decode(dec)?,
        })
    }
}

/// One worker's telemetry push: everything the launcher needs to fold this
/// process into the cluster view.
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetryReport {
    /// Worker index the report describes.
    pub worker: u32,
    /// Incarnation (restart count) of the reporting process.
    pub incarnation: u64,
    /// Per-incarnation report sequence number, starting at 1. The
    /// aggregator drops reports at or below the newest sequence it has
    /// merged for this `(worker, incarnation)`, which makes duplicate and
    /// reordered delivery idempotent.
    pub seq: u64,
    /// Set on the final flush of a clean shutdown.
    pub fin: bool,
    /// The *cumulative* metrics snapshot of this incarnation (a process
    /// restart resets the registry, so per-incarnation snapshots compose
    /// across incarnations without double counting).
    pub metrics: Vec<Sample>,
    /// Journal records with `seq` greater than the previous report's
    /// watermark, pinned region included.
    pub journal: Vec<JournalEvent>,
    /// Every trace span retained by the worker (span ids are
    /// deterministic, so re-sends overwrite idempotently).
    pub spans: Vec<Span>,
}

impl Encode for TelemetryReport {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(self.worker);
        enc.put_u64(self.incarnation);
        enc.put_u64(self.seq);
        self.fin.encode(enc);
        self.metrics.encode(enc);
        self.journal.encode(enc);
        self.spans.encode(enc);
    }
}

impl Decode for TelemetryReport {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(TelemetryReport {
            worker: dec.get_u32()?,
            incarnation: dec.get_u64()?,
            seq: dec.get_u64()?,
            fin: bool::decode(dec)?,
            metrics: Vec::<Sample>::decode(dec)?,
            journal: Vec::<JournalEvent>::decode(dec)?,
            spans: Vec::<Span>::decode(dec)?,
        })
    }
}

impl TelemetryReport {
    /// Builds a report from a live bundle: the full metrics snapshot, the
    /// journal records past `journal_after` (the previous report's
    /// watermark — pass 0 for everything retained), and every span.
    /// Returns the report and the new journal watermark to carry into the
    /// next gather.
    pub fn gather(
        worker: u32,
        incarnation: u64,
        seq: u64,
        fin: bool,
        obs: &Obs,
        journal_after: u64,
    ) -> (TelemetryReport, u64) {
        let journal: Vec<JournalEvent> =
            obs.journal.events().into_iter().filter(|e| e.seq >= journal_after).collect();
        let watermark = journal.iter().map(|e| e.seq + 1).max().unwrap_or(journal_after);
        let report = TelemetryReport {
            worker,
            incarnation,
            seq,
            fin,
            metrics: obs.snapshot().samples,
            journal,
            spans: obs.tracer.spans(),
        };
        (report, watermark)
    }
}

// ---------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------

/// A journal event annotated with the worker and incarnation it came from.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterJournalEvent {
    /// Originating worker.
    pub worker: u32,
    /// Originating incarnation.
    pub incarnation: u64,
    /// The record itself (`at_us` is relative to that process's start).
    pub event: JournalEvent,
}

#[derive(Default)]
struct IncarnationState {
    /// Newest report sequence merged.
    report_seq: u64,
    /// Latest cumulative snapshot of this incarnation.
    metrics: Vec<Sample>,
    /// Journal watermark: events below this seq are already merged.
    journal_seq: u64,
    /// Whether the final (clean-shutdown) flush arrived.
    fin: bool,
}

#[derive(Default)]
struct ClusterState {
    /// Per (worker, incarnation) merge state.
    incarnations: HashMap<(u32, u64), IncarnationState>,
    /// Merged journal, in arrival order.
    journal: Vec<ClusterJournalEvent>,
    /// Stitched spans keyed by (worker, incarnation, span id).
    spans: HashMap<(u32, u64, u64), Span>,
    /// First-seen order of span keys, for stable export.
    span_order: Vec<(u32, u64, u64)>,
    /// Reports accepted / dropped as duplicates.
    merged: u64,
    duplicates: u64,
}

/// The launcher-side aggregator: merges [`TelemetryReport`]s from every
/// worker into one cluster-wide view with `worker=<node>` labels.
///
/// Merging is idempotent along all three axes the control lane can
/// distort: duplicate reports (at-least-once delivery), reordered reports
/// (per-incarnation sequence numbers), and restarts (per-incarnation
/// state that composes instead of overwriting).
#[derive(Default)]
pub struct ClusterObs {
    state: Mutex<ClusterState>,
}

impl std::fmt::Debug for ClusterObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.state.lock();
        f.debug_struct("ClusterObs")
            .field("incarnations", &s.incarnations.len())
            .field("merged", &s.merged)
            .field("duplicates", &s.duplicates)
            .finish()
    }
}

impl ClusterObs {
    /// An empty aggregator.
    pub fn new() -> ClusterObs {
        ClusterObs::default()
    }

    /// Merges one report. Returns `false` (and changes nothing) when the
    /// report's sequence is not newer than what this `(worker,
    /// incarnation)` already contributed — the duplicate/reorder guard.
    pub fn merge(&self, report: &TelemetryReport) -> bool {
        let mut s = self.state.lock();
        let key = (report.worker, report.incarnation);
        let prior_journal_seq = s.incarnations.get(&key).map(|i| i.journal_seq).unwrap_or(0);
        let inc = s.incarnations.entry(key).or_default();
        if report.seq <= inc.report_seq {
            s.duplicates += 1;
            return false;
        }
        inc.report_seq = report.seq;
        inc.metrics = report.metrics.clone();
        inc.fin |= report.fin;
        let mut journal_seq = prior_journal_seq;
        let mut fresh = Vec::new();
        for ev in &report.journal {
            if ev.seq >= journal_seq {
                journal_seq = ev.seq + 1;
                fresh.push(ClusterJournalEvent {
                    worker: report.worker,
                    incarnation: report.incarnation,
                    event: ev.clone(),
                });
            }
        }
        if let Some(inc) = s.incarnations.get_mut(&key) {
            inc.journal_seq = journal_seq;
        }
        s.journal.extend(fresh);
        for span in &report.spans {
            let key = (report.worker, report.incarnation, span.span_id);
            if s.spans.insert(key, span.clone()).is_none() {
                s.span_order.push(key);
            }
        }
        s.merged += 1;
        true
    }

    /// Reports accepted so far.
    pub fn merged(&self) -> u64 {
        self.state.lock().merged
    }

    /// Reports dropped by the duplicate/reorder guard.
    pub fn duplicates(&self) -> u64 {
        self.state.lock().duplicates
    }

    /// Highest incarnation that has reported for `worker`, if any. Equals
    /// the worker's restart count as observed through telemetry — it never
    /// undercounts, because a replacement incarnation's very first report
    /// (which carries its `restart` journal record) establishes it.
    pub fn incarnation(&self, worker: u32) -> Option<u64> {
        self.state
            .lock()
            .incarnations
            .keys()
            .filter(|(w, _)| *w == worker)
            .map(|(_, inc)| *inc)
            .max()
    }

    /// Whether `worker`'s incarnation `inc` sent its final flush.
    pub fn finished(&self, worker: u32, inc: u64) -> bool {
        self.state.lock().incarnations.get(&(worker, inc)).map(|i| i.fin).unwrap_or(false)
    }

    /// The cluster-wide metrics snapshot: every worker sample re-keyed
    /// with its `worker` label, composed across incarnations — counters
    /// and histogram buckets sum, gauges take the newest incarnation's
    /// value — plus a synthesized `recovery.restarts{worker=w}` counter
    /// equal to the highest incarnation seen (restart count via
    /// telemetry, robust to lost intermediate reports).
    pub fn snapshot(&self) -> RegistrySnapshot {
        let s = self.state.lock();
        // (name, labels) -> (newest incarnation contributing, value).
        let mut merged: HashMap<(String, Labels), (u64, SampleValue)> = HashMap::new();
        let mut workers: HashMap<u32, u64> = HashMap::new();
        for ((worker, inc), state) in &s.incarnations {
            let top = workers.entry(*worker).or_insert(*inc);
            *top = (*top).max(*inc);
            for sample in &state.metrics {
                let labels = sample.labels.with_worker(*worker);
                let key = (sample.name.clone(), labels);
                match merged.get_mut(&key) {
                    None => {
                        merged.insert(key, (*inc, sample.value.clone()));
                    }
                    Some((newest, value)) => {
                        match (value, &sample.value) {
                            (SampleValue::Counter(total), SampleValue::Counter(v)) => {
                                *total += v;
                            }
                            (SampleValue::Histogram(total), SampleValue::Histogram(h)) => {
                                total.sum += h.sum;
                                for (t, c) in total.buckets.iter_mut().zip(&h.buckets) {
                                    *t += c;
                                }
                            }
                            (value, _) => {
                                // Gauges (and any kind clash) resolve to
                                // the newest incarnation's sample.
                                if *inc >= *newest {
                                    *value = sample.value.clone();
                                }
                            }
                        }
                        *newest = (*newest).max(*inc);
                    }
                }
            }
        }
        let mut samples: Vec<Sample> = merged
            .into_iter()
            .map(|((name, labels), (_, value))| Sample { name, labels, value })
            .collect();
        for (worker, top_inc) in workers {
            samples.push(Sample {
                name: "recovery.restarts".into(),
                labels: Labels::NONE.with_worker(worker),
                value: SampleValue::Counter(top_inc),
            });
        }
        samples.sort_by(|a, b| (&a.name, a.labels).cmp(&(&b.name, b.labels)));
        RegistrySnapshot { samples }
    }

    /// The cluster snapshot concatenated with the launcher process's own
    /// samples (unlabeled: the parent never restarts), re-sorted so the
    /// Prometheus exporter's per-name `# TYPE` grouping holds.
    pub fn merged_snapshot(&self, parent: &RegistrySnapshot) -> RegistrySnapshot {
        let mut samples = self.snapshot().samples;
        samples.extend(parent.samples.iter().cloned());
        samples.sort_by(|a, b| (&a.name, a.labels).cmp(&(&b.name, b.labels)));
        RegistrySnapshot { samples }
    }

    /// The merged journal, in arrival order.
    pub fn journal(&self) -> Vec<ClusterJournalEvent> {
        self.state.lock().journal.clone()
    }

    /// Renders the merged journal as a flight-recorder dump, each line
    /// prefixed with its originating `worker#incarnation`.
    pub fn journal_render(&self) -> String {
        let s = self.state.lock();
        let mut out = String::new();
        let _ = writeln!(out, "=== cluster journal ({} records) ===", s.journal.len());
        for ev in &s.journal {
            let _ = writeln!(out, "w{}#{} {}", ev.worker, ev.incarnation, ev.event);
        }
        out
    }

    /// All stitched spans with their origin, in first-seen order.
    pub fn spans(&self) -> Vec<(u32, u64, Span)> {
        let s = self.state.lock();
        s.span_order
            .iter()
            .filter_map(|k| s.spans.get(k).map(|sp| (k.0, k.1, sp.clone())))
            .collect()
    }

    /// The stitched cluster Chrome trace: every worker's spans in one
    /// document, with `pid` encoding the worker and incarnation
    /// (`worker * 1000 + incarnation`) so a kill/replay shows up as the
    /// same worker moving to a new process row, and a cross-process trace
    /// id reads as one timeline spanning several pids.
    pub fn chrome_trace(&self) -> String {
        let s = self.state.lock();
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
        };
        let mut pids_seen: Vec<u64> = Vec::new();
        for key @ (worker, inc, _) in &s.span_order {
            let Some(sp) = s.spans.get(key) else { continue };
            let pid = u64::from(*worker) * 1000 + inc;
            if !pids_seen.contains(&pid) {
                pids_seen.push(pid);
                sep(&mut out);
                let _ = write!(
                    out,
                    "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\"tid\":0,\
                     \"args\":{{\"name\":\"w{worker}#inc{inc}\"}}}}"
                );
            }
            let dur = sp.queue_wait_us
                + sp.process_us
                + sp.log_wait_us.unwrap_or(0).max(sp.commit_gate_us.unwrap_or(0));
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"X\",\"name\":\"op{}#{}\",\"cat\":\"span\",\"pid\":{},\"tid\":{},\
                 \"ts\":{},\"dur\":{},\"args\":{{\"trace\":{},\"span\":{},\"parent\":{},\
                 \"worker\":{},\"incarnation\":{},\"queue_wait_us\":{},\"process_us\":{},\
                 \"log_wait_us\":{},\"commit_gate_us\":{},\"rollbacks\":{},\"state\":\"{}\"}}}}",
                sp.op,
                sp.serial,
                pid,
                sp.serial,
                sp.start_us.saturating_sub(sp.queue_wait_us),
                dur.max(1),
                sp.trace_id,
                sp.span_id,
                sp.parent,
                worker,
                inc,
                sp.queue_wait_us,
                sp.process_us,
                sp.log_wait_us.map_or("null".into(), |v| v.to_string()),
                sp.commit_gate_us.map_or("null".into(), |v| v.to_string()),
                sp.rollbacks,
                if sp.committed { "committed" } else { "open" },
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }

    /// Distinct pids a trace id's stitched spans cover — `>= 2` proves the
    /// trace crossed a process boundary.
    pub fn trace_pid_count(&self, trace_id: u64) -> usize {
        let s = self.state.lock();
        let mut pids: Vec<u64> = Vec::new();
        for ((worker, inc, _), sp) in &s.spans {
            if sp.trace_id == trace_id {
                let pid = u64::from(*worker) * 1000 + inc;
                if !pids.contains(&pid) {
                    pids.push(pid);
                }
            }
        }
        pids.len()
    }

    /// Trace ids seen on two or more distinct workers, i.e. events whose
    /// stitched path crosses at least one process boundary.
    pub fn cross_process_traces(&self) -> Vec<u64> {
        let s = self.state.lock();
        let mut by_trace: HashMap<u64, Vec<u32>> = HashMap::new();
        for ((worker, _, _), sp) in &s.spans {
            let workers = by_trace.entry(sp.trace_id).or_default();
            if !workers.contains(worker) {
                workers.push(*worker);
            }
        }
        let mut out: Vec<u64> =
            by_trace.into_iter().filter(|(_, w)| w.len() >= 2).map(|(t, _)| t).collect();
        out.sort_unstable();
        out
    }
}

// ---------------------------------------------------------------------
// Recovery timeline
// ---------------------------------------------------------------------

/// What kind of fault a [`RecoveryTimeline`] describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The slot ended: its process exited (e.g. a SIGKILL), or its
    /// coordinator thread crashed.
    Crash,
    /// The lease expired without an exit: a partition or a wedged process.
    LeaseExpiry,
}

impl FaultKind {
    /// Stable lower-case name, used in the JSON export.
    pub fn as_str(&self) -> &'static str {
        match self {
            FaultKind::Crash => "crash",
            FaultKind::LeaseExpiry => "lease_expiry",
        }
    }
}

/// Which recovery protocol the failed slot runs, stamped from its
/// configured recovery mode so trajectory data can distinguish
/// approximate from precise recoveries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RecoveryModeTag {
    /// Byte-identical checkpoint+replay recovery.
    #[default]
    Precise,
    /// Bounded-error stale-snapshot recovery.
    Approximate,
}

impl RecoveryModeTag {
    /// Stable lower-case name, used in the JSON export.
    pub fn as_str(&self) -> &'static str {
        match self {
            RecoveryModeTag::Precise => "precise",
            RecoveryModeTag::Approximate => "approximate",
        }
    }
}

/// One fault's recovery, decomposed into the phases the paper's
/// kill-to-first-output latency is made of. All stamps are microseconds
/// on the supervising clock — since a cluster's launch, or since an
/// in-process supervisor started — so phases are directly comparable
/// across faults and slots. An in-process restart has no process to
/// hand-shake, so its last three phases are `None`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryTimeline {
    /// The slot that failed: a cluster's worker, or an in-process
    /// operator's index.
    pub worker: u32,
    /// The incarnation that replaced it: the slot's restart count.
    pub incarnation: u64,
    /// How the fault was detected.
    pub kind: FaultKind,
    /// Recovery protocol of the failed slot (precise or approximate).
    pub mode: RecoveryModeTag,
    /// The supervisor noticed the fault (exit received or lease declared
    /// dead).
    pub detect_us: u64,
    /// Zombies of the old incarnation are fenced from here on: a
    /// cluster's expected epoch was raised. A thread that exited is fenced
    /// by its exit, so in process this equals `detect_us`.
    pub fence_us: u64,
    /// The replacement was started: a process spawned, or a coordinator
    /// thread restarted after its backoff.
    pub respawn_us: u64,
    /// The replacement's `Hello` claimed the lease (data address known,
    /// re-wiring pushed).
    pub handshake_us: Option<u64>,
    /// First sink-cursor advance after the fault: replayed data made it
    /// through the chain end to end.
    pub first_output_us: Option<u64>,
    /// The sink stopped advancing behind the fault's backlog (stamped at
    /// the last cursor advance when the run drains).
    pub drain_us: Option<u64>,
}

impl RecoveryTimeline {
    /// Whether the phase stamps are monotone in causal order:
    /// detect ≤ fence ≤ respawn ≤ handshake ≤ first_output ≤ drain
    /// (optional phases are checked only when present).
    pub fn monotonic(&self) -> bool {
        let mut prev = self.detect_us;
        for stamp in [Some(self.fence_us), Some(self.respawn_us)]
            .into_iter()
            .chain([self.handshake_us, self.first_output_us, self.drain_us])
            .flatten()
        {
            if stamp < prev {
                return false;
            }
            prev = stamp;
        }
        true
    }

    /// Renders the timeline as one JSON object.
    pub fn to_json(&self) -> String {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        format!(
            "{{\"worker\":{},\"incarnation\":{},\"kind\":\"{}\",\"mode\":\"{}\",\"detect_us\":{},\
             \"fence_us\":{},\"respawn_us\":{},\"handshake_us\":{},\"first_output_us\":{},\
             \"drain_us\":{}}}",
            self.worker,
            self.incarnation,
            self.kind.as_str(),
            self.mode.as_str(),
            self.detect_us,
            self.fence_us,
            self.respawn_us,
            opt(self.handshake_us),
            opt(self.first_output_us),
            opt(self.drain_us),
        )
    }
}

/// Renders a set of timelines as `{"recoveries":[...]}`.
pub fn timelines_json(timelines: &[RecoveryTimeline]) -> String {
    let mut out = String::from("{\"recoveries\":[");
    for (i, t) in timelines.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&t.to_json());
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::{prometheus_text, validate_prometheus};
    use crate::trace::validate_chrome_trace;
    use streammine_common::codec::roundtrip;

    fn sample_report(worker: u32, incarnation: u64, seq: u64) -> TelemetryReport {
        let obs = Obs::traced(1);
        obs.registry.counter("events.in", Labels::op_port(worker, 0)).add(10 * (seq + 1));
        obs.registry.gauge("node.intake_depth", Labels::op(worker)).set(3 + seq as i64);
        obs.registry.histogram("stage.process_us", Labels::op(worker)).record(700);
        obs.journal.warn(Some(worker), "test-code", format!("w{worker} r{seq}"));
        obs.journal.record(
            Some(worker),
            JournalKind::Restart { attempt: incarnation as u32, backoff_us: 0 },
        );
        let trace = obs.tracer.sample(9, 0).unwrap();
        obs.tracer.begin_span(trace, 0, worker, seq, 5);
        let (report, _) = TelemetryReport::gather(worker, incarnation, seq, false, &obs, 0);
        report
    }

    #[test]
    fn report_roundtrips_through_codec() {
        let mut report = sample_report(1, 2, 3);
        report.fin = true;
        report.journal.push(JournalEvent {
            seq: 99,
            at_us: 1234,
            op: None,
            trace: Some(77),
            kind: JournalKind::SpecCapHit { open: 4, retained: 9 },
        });
        let back = roundtrip(&report).expect("telemetry report must roundtrip");
        assert_eq!(back, report);
    }

    #[test]
    fn every_journal_kind_roundtrips() {
        let kinds = vec![
            JournalKind::Ingest { serial: 1, port: 2 },
            JournalKind::SpecPublish { serial: 3, outputs: 4 },
            JournalKind::LogStable { serial: 5 },
            JournalKind::Commit { serial: 6 },
            JournalKind::Rollback { serial: 7, cascade_depth: 8 },
            JournalKind::Rewind { port: 9, from: 10 },
            JournalKind::ResendSuppressed { edge: 13, count: 14 },
            JournalKind::CheckpointSaved { id: 15, covers_log: 16 },
            JournalKind::Restart { attempt: 17, backoff_us: 18 },
            JournalKind::BackpressureStall { edge: 19 },
            JournalKind::BackpressureResume { stall_us: 20 },
            JournalKind::SpecCapHit { open: 21, retained: 22 },
            JournalKind::Warn { code: "some-code", detail: "detail".into() },
        ];
        for kind in kinds {
            let back = roundtrip(&kind).expect("kind must roundtrip");
            assert_eq!(back, kind);
        }
    }

    #[test]
    fn duplicate_delivery_is_idempotent() {
        let cluster = ClusterObs::new();
        let report = sample_report(0, 0, 1);
        assert!(cluster.merge(&report));
        let once = cluster.snapshot();
        let once_journal = cluster.journal().len();
        // The at-least-once control lane re-delivers the same report.
        assert!(!cluster.merge(&report));
        assert_eq!(cluster.snapshot(), once, "duplicate delivery must not change counters");
        assert_eq!(cluster.journal().len(), once_journal);
        assert_eq!(cluster.duplicates(), 1);
    }

    #[test]
    fn out_of_order_reports_within_an_incarnation_are_dropped() {
        let cluster = ClusterObs::new();
        let newer = sample_report(0, 0, 5);
        let older = sample_report(0, 0, 2);
        assert!(cluster.merge(&newer));
        let snap = cluster.snapshot();
        assert!(!cluster.merge(&older), "an older report must not regress the snapshot");
        assert_eq!(cluster.snapshot(), snap);
    }

    #[test]
    fn incarnations_compose_counters_and_resolve_gauges_to_newest() {
        let cluster = ClusterObs::new();
        // Reports can arrive out of order across incarnations too: the
        // replacement's first report may beat the pre-kill report of the
        // old incarnation through the lane.
        assert!(cluster.merge(&sample_report(0, 1, 1)));
        assert!(cluster.merge(&sample_report(0, 0, 1)));
        let snap = cluster.snapshot();
        // events.in: 20 from each incarnation's snapshot (seq 1 → add 20).
        let labels = Labels::op_port(0, 0).with_worker(0);
        assert_eq!(snap.counter("events.in", labels), Some(40));
        // Gauge resolves to incarnation 1's value regardless of arrival order.
        assert_eq!(
            snap.get("node.intake_depth", Labels::op(0).with_worker(0)),
            Some(&SampleValue::Gauge(4))
        );
        // Histograms sum bucket-wise.
        let h = snap.histogram("stage.process_us", Labels::op(0).with_worker(0)).unwrap();
        assert_eq!(h.count(), 2);
        // Restart count = max incarnation, even though no intermediate
        // report listed it.
        assert_eq!(snap.counter("recovery.restarts", Labels::NONE.with_worker(0)), Some(1));
        assert_eq!(cluster.incarnation(0), Some(1));
    }

    #[test]
    fn concurrent_merges_of_the_same_series_are_idempotent() {
        use std::sync::Arc;
        let cluster = Arc::new(ClusterObs::new());
        let mut handles = Vec::new();
        // Many threads race the same (name, op, port, worker) series with
        // the same report plus distinct higher-seq reports.
        for t in 0..8u64 {
            let cluster = cluster.clone();
            handles.push(std::thread::spawn(move || {
                let dup = sample_report(3, 0, 1);
                for _ in 0..50 {
                    cluster.merge(&dup);
                }
                cluster.merge(&sample_report(3, 0, 2 + t));
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = cluster.snapshot();
        // Whatever interleaving won, the series exists exactly once and
        // holds one report's value (every seq writes the same full
        // snapshot shape; seq s carries 10*(s+1)).
        let labels = Labels::op_port(3, 0).with_worker(3);
        let value = snap.counter("events.in", labels).expect("series registered once");
        assert!((20..=100).contains(&value), "one incarnation's snapshot, not a sum: {value}");
        let n = snap.samples.iter().filter(|s| s.name == "events.in").count();
        assert_eq!(n, 1, "concurrent registration must collapse to one series");
    }

    #[test]
    fn cluster_prometheus_passes_linter_with_worker_labels() {
        let cluster = ClusterObs::new();
        cluster.merge(&sample_report(0, 0, 1));
        cluster.merge(&sample_report(1, 0, 1));
        let text = prometheus_text(&cluster.snapshot());
        assert!(validate_prometheus(&text).unwrap() >= 4, "{text}");
        assert!(text.contains("worker=\"0\""), "{text}");
        assert!(text.contains("worker=\"1\""), "{text}");
        // Merged with a parent snapshot the exposition still lints (TYPE
        // grouping survives the re-sort).
        let parent = Obs::new();
        parent.registry.counter("recovery.restarts", Labels::NONE).add(2);
        let merged = cluster.merged_snapshot(&parent.snapshot());
        let text = prometheus_text(&merged);
        assert!(validate_prometheus(&text).unwrap() >= 5, "{text}");
        let type_lines = text.lines().filter(|l| l.contains("# TYPE recovery_restarts")).count();
        assert_eq!(type_lines, 1, "one TYPE header per name:\n{text}");
    }

    #[test]
    fn stitched_trace_spans_multiple_worker_pids_and_validates() {
        let cluster = ClusterObs::new();
        // One trace id, spans contributed by two workers (and a restarted
        // incarnation of the first).
        let trace_id = 42u64;
        let span = |op: u32, serial: u64, parent: u64| Span {
            trace_id,
            span_id: crate::trace::span_key(op, serial),
            parent,
            op,
            serial,
            start_us: 100 * serial,
            queue_wait_us: 3,
            process_us: 50,
            log_wait_us: Some(200),
            commit_gate_us: None,
            rollbacks: 0,
            committed: true,
            deps: vec![],
        };
        let s0 = span(0, 1, 0);
        let s1 = span(1, 1, s0.span_id);
        let r0 = TelemetryReport {
            worker: 0,
            incarnation: 0,
            seq: 1,
            fin: false,
            metrics: vec![],
            journal: vec![],
            spans: vec![s0.clone()],
        };
        let r1 = TelemetryReport { worker: 1, spans: vec![s1], ..r0.clone() };
        let r0b = TelemetryReport { incarnation: 1, spans: vec![s0], ..r0.clone() };
        cluster.merge(&r0);
        cluster.merge(&r1);
        cluster.merge(&r0b);
        let doc = cluster.chrome_trace();
        assert!(validate_chrome_trace(&doc).unwrap() >= 6, "{doc}");
        assert!(doc.contains("\"name\":\"w0#inc0\""), "{doc}");
        assert!(doc.contains("\"name\":\"w0#inc1\""), "{doc}");
        assert!(doc.contains("\"name\":\"w1#inc0\""), "{doc}");
        assert!(cluster.trace_pid_count(trace_id) >= 3);
        assert_eq!(cluster.cross_process_traces(), vec![trace_id]);
    }

    #[test]
    fn timeline_monotonicity_and_json() {
        let t = RecoveryTimeline {
            worker: 1,
            incarnation: 1,
            kind: FaultKind::Crash,
            mode: RecoveryModeTag::Precise,
            detect_us: 100,
            fence_us: 110,
            respawn_us: 150,
            handshake_us: Some(9_000),
            first_output_us: Some(74_000),
            drain_us: Some(105_000),
        };
        assert!(t.monotonic());
        let json = t.to_json();
        assert!(json.contains("\"kind\":\"crash\""), "{json}");
        assert!(json.contains("\"mode\":\"precise\""), "{json}");
        let approx = RecoveryTimeline { mode: RecoveryModeTag::Approximate, ..t.clone() };
        assert!(approx.to_json().contains("\"mode\":\"approximate\""));
        assert!(json.contains("\"first_output_us\":74000"), "{json}");
        let doc = timelines_json(&[t.clone(), t.clone()]);
        assert!(doc.starts_with("{\"recoveries\":["), "{doc}");
        assert_eq!(doc.matches("\"worker\":1").count(), 2);

        let broken = RecoveryTimeline { fence_us: 90, ..t.clone() };
        assert!(!broken.monotonic(), "fence before detect must fail");
        let sparse = RecoveryTimeline {
            handshake_us: None,
            first_output_us: None,
            drain_us: None,
            kind: FaultKind::LeaseExpiry,
            ..t
        };
        assert!(sparse.monotonic(), "missing optional phases are fine");
        assert!(sparse.to_json().contains("\"handshake_us\":null"));
        assert!(sparse.to_json().contains("\"lease_expiry\""));
    }

    #[test]
    fn journal_merge_uses_watermarks_across_reports() {
        let cluster = ClusterObs::new();
        let obs = Obs::tracing();
        obs.journal.record(Some(0), JournalKind::Commit { serial: 1 });
        let (r1, mark) = TelemetryReport::gather(0, 0, 1, false, &obs, 0);
        assert!(cluster.merge(&r1));
        obs.journal.record(Some(0), JournalKind::Commit { serial: 2 });
        let (r2, _) = TelemetryReport::gather(0, 0, 2, false, &obs, mark);
        assert_eq!(r2.journal.len(), 1, "second gather carries only fresh records");
        assert!(cluster.merge(&r2));
        assert_eq!(cluster.journal().len(), 2);
        // A full re-send (as after a reconnect, watermark reset) adds
        // nothing the cluster already holds.
        let (r3, _) = TelemetryReport::gather(0, 0, 3, false, &obs, 0);
        assert!(cluster.merge(&r3));
        assert_eq!(cluster.journal().len(), 2, "watermark dedups re-sent journal records");
        let dump = cluster.journal_render();
        assert!(dump.contains("w0#0"), "{dump}");
    }
}
