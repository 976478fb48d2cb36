//! Per-event causal tracing: speculation lineage, rollback blast-radius
//! attribution, and Chrome trace-event export.
//!
//! The paper's latency claim is causal — an output's final latency is
//! bounded by the *slowest* decision-log write it transitively depends on,
//! and a rollback's cost is the set of transactions that actually consumed
//! the revised data. Aggregate histograms cannot answer "which speculative
//! decision did *this* late or rolled-back output depend on?"; the
//! [`Tracer`] can. Sources stamp a sampled event with a
//! `TraceCtx { id, parent }` (defined in `streammine-common`, carried on
//! the event across every edge); each hop opens a [`Span`] keyed by
//! `(operator, serial)` recording the stage decomposition — queue-wait,
//! process, log-wait, commit-gate — plus the set of upstream spans (i.e.
//! speculative decision-log entries) the event transitively depends on.
//!
//! Everything is deterministic: trace ids are a hash of `(source op, seq)`
//! and span ids a hash of `(op, serial)`, both of which precise recovery
//! reproduces exactly, so a traced chaos run emits byte-identical events
//! to its failure-free reference.
//!
//! Sampling is decided once, at the source, by a mask check on the event
//! sequence (default 1-in-64). A disabled tracer costs a single relaxed
//! atomic load at the source; events without a context skip the tracer
//! entirely at every downstream hop.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::Mutex;

/// Default sampling rate: one traced event per 64 source pushes.
pub const DEFAULT_SAMPLE_ONE_IN: u64 = 64;

/// Spans retained before new ones are dropped (counted, never silently).
pub const MAX_SPANS: usize = 65_536;

/// Rollback and sink records retained.
const MAX_RECORDS: usize = 16_384;

/// Longest ancestor chain walked when computing dependencies (cycles are
/// impossible in an acyclic graph, but a bound keeps a corrupt parent
/// pointer from hanging the tracer).
const MAX_DEPTH: usize = 64;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic trace id for the event at `(source op, seq)`. Nonzero.
pub fn trace_key(op: u32, seq: u64) -> u64 {
    splitmix64(((op as u64) << 40) ^ seq ^ 0x7472_6163_6531_6431).max(1)
}

/// Deterministic span id for the hop `(op, serial)` — the same key that
/// names the operator's decision-log entry for that serial. Nonzero (`0`
/// is the "no parent" sentinel in `TraceCtx`).
pub fn span_key(op: u32, serial: u64) -> u64 {
    splitmix64(((op as u64) << 40) ^ serial ^ 0x7370_616E_6B65_7931).max(1)
}

/// One hop of a traced event through an operator.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// This span's id: [`span_key`]`(op, serial)`.
    pub span_id: u64,
    /// Causal parent span (`0` = the event came straight from a source).
    pub parent: u64,
    /// Operator index.
    pub op: u32,
    /// Transaction serial at that operator.
    pub serial: u64,
    /// Tracer-clock µs at which the event entered processing.
    pub start_us: u64,
    /// Port-queue wait before processing, µs.
    pub queue_wait_us: u64,
    /// Operator `process` duration (latest attempt), µs.
    pub process_us: u64,
    /// Decision-log append → stable, µs, of the record that turned stable
    /// last (`None`: nothing logged yet, or a deterministic hop that never
    /// logs). The append happens when the decision is taken, so this
    /// interval runs beside `process_us`, not after it.
    pub log_wait_us: Option<u64>,
    /// Admission → ordered final commit, µs: contains `process_us` and the
    /// log wait, which overlap (`None` until the commit gate opened; stays
    /// `None` on non-speculative hops).
    pub commit_gate_us: Option<u64>,
    /// Rollback + re-execution rounds this span absorbed.
    pub rollbacks: u32,
    /// Whether the hop committed (outputs final downstream).
    pub committed: bool,
    /// Span ids of every upstream hop — i.e. every speculative
    /// decision-log entry — this event transitively depends on, nearest
    /// ancestor first.
    pub deps: Vec<u64>,
}

/// One rollback, attributed to its originating determinant: the deepest
/// still-uncommitted ancestor span whose speculative decision the rolled-
/// back transaction consumed.
#[derive(Debug, Clone, PartialEq)]
pub struct RollbackRecord {
    /// Tracer-clock µs of the rollback.
    pub at_us: u64,
    /// Trace in which the rollback happened.
    pub trace_id: u64,
    /// The span that rolled back.
    pub span_id: u64,
    /// Operator that rolled back.
    pub op: u32,
    /// Serial that rolled back.
    pub serial: u64,
    /// Span id of the originating determinant (== `span_id` when the
    /// rollback originated locally, e.g. a revised source input).
    pub determinant: u64,
    /// Operator owning the originating determinant.
    pub determinant_op: u32,
    /// Serial owning the originating determinant.
    pub determinant_serial: u64,
    /// Every span invalidated by this determinant's revision, from the
    /// determinant's immediate consumer down to the rolled-back span.
    pub invalidated: Vec<u64>,
}

/// Which upstream decision-log write bounded a sink's final latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CriticalPath {
    /// Span id of the critical hop.
    pub span_id: u64,
    /// Operator whose log write was the critical path.
    pub op: u32,
    /// Serial of the critical hop.
    pub serial: u64,
    /// Its log-wait, µs — the paper's "slowest upstream log write" bound.
    pub log_wait_us: u64,
}

/// Sink-side completion record for one traced output event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Trace identity.
    pub trace_id: u64,
    /// Span that emitted the event the sink consumed.
    pub emitting_span: u64,
    /// Source-push → first (possibly speculative) arrival, µs. First
    /// arrivals carry *no* log-wait stage by construction: the speculative
    /// output overtook every pending log write on its path.
    pub first_arrival_us: Option<u64>,
    /// Source-push → final, µs.
    pub final_us: u64,
    /// The upstream log write that was the critical path for `final_us`
    /// (`None` when no hop on the path logged anything).
    pub critical: Option<CriticalPath>,
}

/// One backpressure stall episode at an operator: the coordinator stopped
/// pulling data (saturated downstream edge or speculation admission cap)
/// for `stall_us`. Latency added by overload is attributable to these
/// windows rather than to processing or log waits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackpressureRecord {
    /// Tracer-clock µs at which the stall *ended*.
    pub at_us: u64,
    /// Operator that stalled.
    pub op: u32,
    /// Stall duration, µs.
    pub stall_us: u64,
}

#[derive(Default)]
struct TraceState {
    spans: HashMap<u64, Span>,
    /// Insertion order, for stable export.
    order: Vec<u64>,
    rollbacks: Vec<RollbackRecord>,
    summaries: Vec<TraceSummary>,
    backpressure: Vec<BackpressureRecord>,
    /// First-arrival latency per `(trace, emitting span)`, consumed by the
    /// matching final record.
    first_arrivals: HashMap<(u64, u64), u64>,
}

/// The causal tracer. One per [`crate::Obs`] bundle; cloning the bundle
/// shares it. Disabled by default — [`Tracer::enable`] turns sampling on.
pub struct Tracer {
    on: AtomicBool,
    /// Sample when `seq & mask == 0`; `sample-one-in` rounded up to a
    /// power of two.
    mask: AtomicU64,
    dropped_spans: AtomicU64,
    state: Mutex<TraceState>,
    start: Instant,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .field("spans", &self.state.lock().spans.len())
            .finish()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A disabled tracer (the default): sources pay one relaxed atomic
    /// load per push, nothing else.
    pub fn new() -> Tracer {
        Tracer {
            on: AtomicBool::new(false),
            mask: AtomicU64::new(DEFAULT_SAMPLE_ONE_IN - 1),
            dropped_spans: AtomicU64::new(0),
            state: Mutex::new(TraceState::default()),
            start: Instant::now(),
        }
    }

    /// An enabled tracer sampling one event in `one_in` (rounded up to a
    /// power of two; `1` traces every event).
    pub fn sampling(one_in: u64) -> Tracer {
        let t = Tracer::new();
        t.set_sample_one_in(one_in);
        t.enable(true);
        t
    }

    /// Turns sampling on or off.
    pub fn enable(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Whether the tracer is recording.
    pub fn enabled(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Sets the sampling rate to one event in `one_in` source pushes
    /// (rounded up to the next power of two so the decision is one mask
    /// check on the sequence number; deterministic across recovery).
    pub fn set_sample_one_in(&self, one_in: u64) {
        self.mask.store(one_in.max(1).next_power_of_two() - 1, Ordering::Relaxed);
    }

    /// The effective sampling rate (power of two).
    pub fn sample_one_in(&self) -> u64 {
        self.mask.load(Ordering::Relaxed) + 1
    }

    fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// The source-side sampling decision for the event at
    /// `(source op, seq)`: `Some(trace id)` if the event is traced. The
    /// fast path — tracer disabled, or the sequence missing the sampling
    /// mask — is one relaxed atomic load (plus one more for the mask).
    pub fn sample(&self, op: u32, seq: u64) -> Option<u64> {
        if !self.on.load(Ordering::Relaxed) {
            return None;
        }
        if seq & self.mask.load(Ordering::Relaxed) != 0 {
            return None;
        }
        Some(trace_key(op, seq))
    }

    /// Opens the span for `(op, serial)` in trace `trace_id`, with causal
    /// parent `parent` (a span id, `0` for source-fed events) and the
    /// measured port-queue wait. Returns the new span's id for stamping
    /// onto child contexts. Idempotent per `(op, serial)`.
    pub fn begin_span(
        &self,
        trace_id: u64,
        parent: u64,
        op: u32,
        serial: u64,
        queue_wait_us: u64,
    ) -> u64 {
        let span_id = span_key(op, serial);
        if !self.enabled() {
            return span_id;
        }
        let start_us = self.now_us();
        let mut s = self.state.lock();
        if s.spans.contains_key(&span_id) {
            return span_id;
        }
        if s.spans.len() >= MAX_SPANS {
            self.dropped_spans.fetch_add(1, Ordering::Relaxed);
            return span_id;
        }
        // deps = the ancestor chain: every upstream hop (== decision-log
        // entry) this event transitively depends on.
        let mut deps = Vec::new();
        let mut cursor = parent;
        while cursor != 0 && deps.len() < MAX_DEPTH {
            deps.push(cursor);
            cursor = s.spans.get(&cursor).map(|sp| sp.parent).unwrap_or(0);
        }
        s.spans.insert(
            span_id,
            Span {
                trace_id,
                span_id,
                parent,
                op,
                serial,
                start_us,
                queue_wait_us,
                process_us: 0,
                log_wait_us: None,
                commit_gate_us: None,
                rollbacks: 0,
                committed: false,
                deps,
            },
        );
        s.order.push(span_id);
        span_id
    }

    fn with_span(&self, op: u32, serial: u64, f: impl FnOnce(&mut Span)) {
        if !self.enabled() {
            return;
        }
        let mut s = self.state.lock();
        if let Some(span) = s.spans.get_mut(&span_key(op, serial)) {
            f(span);
        }
    }

    /// Records the operator `process` duration for the hop.
    pub fn record_process(&self, op: u32, serial: u64, us: u64) {
        self.with_span(op, serial, |sp| sp.process_us = us);
    }

    /// Records the decision-log append → stable wait for the hop.
    pub fn record_log_wait(&self, op: u32, serial: u64, us: u64) {
        self.with_span(op, serial, |sp| sp.log_wait_us = Some(us));
    }

    /// Marks the hop committed, with its commit-gate time (0 for
    /// non-speculative hops, which never publish before stability).
    pub fn record_commit(&self, op: u32, serial: u64, gate_us: u64) {
        self.with_span(op, serial, |sp| {
            sp.committed = true;
            if gate_us > 0 {
                sp.commit_gate_us = Some(gate_us);
            }
        });
    }

    /// Records a rollback of `(op, serial)` and attributes it to its
    /// originating determinant: the *deepest* still-uncommitted ancestor —
    /// the speculative decision whose revision started the cascade. The
    /// blast radius (`invalidated`) is the chain of spans between the
    /// determinant and the rolled-back span, inclusive of the latter.
    pub fn record_rollback(&self, op: u32, serial: u64) {
        if !self.enabled() {
            return;
        }
        let at_us = self.now_us();
        let span_id = span_key(op, serial);
        let mut s = self.state.lock();
        let Some(span) = s.spans.get_mut(&span_id) else { return };
        span.rollbacks += 1;
        let trace_id = span.trace_id;
        let deps = span.deps.clone();
        // Walk rootward; remember the farthest uncommitted ancestor.
        let mut determinant = span_id;
        let mut invalidated = vec![span_id];
        let mut chain = Vec::new();
        for &anc in &deps {
            chain.push(anc);
            if s.spans.get(&anc).is_some_and(|a| !a.committed) {
                determinant = anc;
                invalidated = vec![span_id];
                invalidated.extend(chain.iter().copied().filter(|&c| c != anc));
            }
        }
        let (d_op, d_serial) =
            s.spans.get(&determinant).map(|d| (d.op, d.serial)).unwrap_or((op, serial));
        if s.rollbacks.len() < MAX_RECORDS {
            s.rollbacks.push(RollbackRecord {
                at_us,
                trace_id,
                span_id,
                op,
                serial,
                determinant,
                determinant_op: d_op,
                determinant_serial: d_serial,
                invalidated,
            });
        }
    }

    /// Records a traced event's first (possibly speculative) arrival at a
    /// sink. First arrivals record *no* log-wait stage: the event beat
    /// every pending log write on its path.
    pub fn sink_first_arrival(&self, trace_id: u64, emitting_span: u64, latency_us: u64) {
        if !self.enabled() {
            return;
        }
        let mut s = self.state.lock();
        if s.first_arrivals.len() < MAX_RECORDS {
            s.first_arrivals.entry((trace_id, emitting_span)).or_insert(latency_us);
        }
    }

    /// Records a traced event turning final at a sink and computes the
    /// critical path: the ancestor span with the largest log-wait — the
    /// upstream log write that bounded this final latency.
    pub fn sink_final(&self, trace_id: u64, emitting_span: u64, latency_us: u64) {
        if !self.enabled() {
            return;
        }
        let mut s = self.state.lock();
        let mut critical: Option<CriticalPath> = None;
        let mut cursor = emitting_span;
        let mut depth = 0;
        while cursor != 0 && depth < MAX_DEPTH {
            let Some(span) = s.spans.get(&cursor) else { break };
            if let Some(lw) = span.log_wait_us {
                if critical.map(|c| lw > c.log_wait_us).unwrap_or(true) {
                    critical = Some(CriticalPath {
                        span_id: span.span_id,
                        op: span.op,
                        serial: span.serial,
                        log_wait_us: lw,
                    });
                }
            }
            cursor = span.parent;
            depth += 1;
        }
        let first_arrival_us = s.first_arrivals.get(&(trace_id, emitting_span)).copied();
        if s.summaries.len() < MAX_RECORDS {
            s.summaries.push(TraceSummary {
                trace_id,
                emitting_span,
                first_arrival_us,
                final_us: latency_us,
                critical,
            });
        }
    }

    /// Copies out every retained span, in creation order.
    pub fn spans(&self) -> Vec<Span> {
        let s = self.state.lock();
        s.order.iter().filter_map(|id| s.spans.get(id)).cloned().collect()
    }

    /// Copies out every rollback record.
    pub fn rollbacks(&self) -> Vec<RollbackRecord> {
        self.state.lock().rollbacks.clone()
    }

    /// Copies out every sink completion summary.
    pub fn summaries(&self) -> Vec<TraceSummary> {
        self.state.lock().summaries.clone()
    }

    /// Records a finished backpressure stall at `op` lasting `stall_us`:
    /// a window during which the coordinator pulled no data (saturated
    /// downstream edge or speculation admission cap).
    pub fn record_backpressure(&self, op: u32, stall_us: u64) {
        if !self.enabled() {
            return;
        }
        let at_us = self.now_us();
        let mut s = self.state.lock();
        if s.backpressure.len() < MAX_RECORDS {
            s.backpressure.push(BackpressureRecord { at_us, op, stall_us });
        }
    }

    /// Copies out every backpressure stall episode.
    pub fn backpressure_waits(&self) -> Vec<BackpressureRecord> {
        self.state.lock().backpressure.clone()
    }

    /// Aggregated blast radius: determinant span → every span its
    /// revisions invalidated, across all recorded rollbacks.
    pub fn blast_radius(&self) -> HashMap<u64, Vec<u64>> {
        let s = self.state.lock();
        let mut out: HashMap<u64, Vec<u64>> = HashMap::new();
        for r in &s.rollbacks {
            let entry = out.entry(r.determinant).or_default();
            for &sp in &r.invalidated {
                if !entry.contains(&sp) {
                    entry.push(sp);
                }
            }
        }
        out
    }

    /// Spans dropped because the retention cap was hit.
    pub fn dropped_spans(&self) -> u64 {
        self.dropped_spans.load(Ordering::Relaxed)
    }

    /// Drops all retained trace data (sampling config is kept).
    pub fn clear(&self) {
        *self.state.lock() = TraceState::default();
    }

    /// Renders everything as Chrome trace-event JSON (the
    /// `{"traceEvents":[...]}` object form), loadable in Perfetto or
    /// `chrome://tracing`. One complete (`"X"`) slice per span — `pid` is
    /// the operator, `tid` the transaction serial — with the stage
    /// decomposition, dependency set, and rollback count in `args`;
    /// instant (`"i"`) events mark rollbacks, attributed to their
    /// determinant; sink completions appear as counter-style instants on
    /// pid 0xFFFF.
    pub fn chrome_trace(&self) -> String {
        use std::fmt::Write as _;
        let s = self.state.lock();
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
        };
        let mut ops_seen: Vec<u32> = Vec::new();
        for id in &s.order {
            let Some(sp) = s.spans.get(id) else { continue };
            if !ops_seen.contains(&sp.op) {
                ops_seen.push(sp.op);
                sep(&mut out);
                let _ = write!(
                    out,
                    "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{},\"tid\":0,\
                     \"args\":{{\"name\":\"op{}\"}}}}",
                    sp.op, sp.op
                );
            }
            // Processing, log wait and commit gate all start at admission.
            let held = sp.log_wait_us.unwrap_or(0).max(sp.commit_gate_us.unwrap_or(0));
            let dur = sp.queue_wait_us + sp.process_us.max(held);
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"X\",\"name\":\"op{}#{}\",\"cat\":\"span\",\"pid\":{},\"tid\":{},\
                 \"ts\":{},\"dur\":{},\"args\":{{\"trace\":{},\"span\":{},\"parent\":{},\
                 \"queue_wait_us\":{},\"process_us\":{},\"log_wait_us\":{},\
                 \"commit_gate_us\":{},\"rollbacks\":{},\"state\":\"{}\",\"deps\":[",
                sp.op,
                sp.serial,
                sp.op,
                sp.serial,
                sp.start_us.saturating_sub(sp.queue_wait_us),
                dur.max(1),
                sp.trace_id,
                sp.span_id,
                sp.parent,
                sp.queue_wait_us,
                sp.process_us,
                sp.log_wait_us.map_or("null".into(), |v| v.to_string()),
                sp.commit_gate_us.map_or("null".into(), |v| v.to_string()),
                sp.rollbacks,
                if sp.committed { "committed" } else { "open" },
            );
            for (i, d) in sp.deps.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{d}");
            }
            out.push_str("]}}");
        }
        for r in &s.rollbacks {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"i\",\"name\":\"rollback op{}#{}\",\"cat\":\"rollback\",\"pid\":{},\
                 \"tid\":{},\"ts\":{},\"s\":\"p\",\"args\":{{\"trace\":{},\
                 \"determinant\":{},\"determinant_op\":{},\"determinant_serial\":{},\
                 \"invalidated\":[",
                r.op,
                r.serial,
                r.op,
                r.serial,
                r.at_us,
                r.trace_id,
                r.determinant,
                r.determinant_op,
                r.determinant_serial,
            );
            for (i, sp) in r.invalidated.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{sp}");
            }
            out.push_str("]}}");
        }
        for bp in &s.backpressure {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"X\",\"name\":\"backpressure op{}\",\"cat\":\"backpressure\",\
                 \"pid\":{},\"tid\":47806,\"ts\":{},\"dur\":{},\
                 \"args\":{{\"stall_us\":{}}}}}",
                bp.op,
                bp.op,
                bp.at_us.saturating_sub(bp.stall_us),
                bp.stall_us.max(1),
                bp.stall_us,
            );
        }
        for (i, sum) in s.summaries.iter().enumerate() {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"i\",\"name\":\"sink-final\",\"cat\":\"sink\",\"pid\":65535,\
                 \"tid\":{},\"ts\":{},\"s\":\"t\",\"args\":{{\"trace\":{},\"emitting_span\":{},\
                 \"first_arrival_us\":{},\"final_us\":{},\"critical_op\":{},\
                 \"critical_log_wait_us\":{}}}}}",
                i,
                sum.final_us,
                sum.trace_id,
                sum.emitting_span,
                sum.first_arrival_us.map_or("null".into(), |v| v.to_string()),
                sum.final_us,
                sum.critical.map_or("null".into(), |c| c.op.to_string()),
                sum.critical.map_or("null".into(), |c| c.log_wait_us.to_string()),
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

// ---------------------------------------------------------------------
// Chrome trace-event JSON validation (no serde in this workspace: a small
// recursive-descent checker, used by tests and the CI schema gate).
// ---------------------------------------------------------------------

struct JsonScanner<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonScanner<'a> {
    fn new(text: &'a str) -> Self {
        JsonScanner { bytes: text.as_bytes(), pos: 0 }
    }

    fn err(&self, msg: &str) -> String {
        format!("byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", c as char)))
        }
    }

    fn value(&mut self) -> Result<(), String> {
        match self.peek().ok_or_else(|| self.err("unexpected end"))? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => self.string().map(|_| ()),
            b't' => self.literal("true"),
            b'f' => self.literal("false"),
            b'n' => self.literal("null"),
            b'-' | b'0'..=b'9' => self.number(),
            c => Err(self.err(&format!("unexpected `{}`", c as char))),
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn number(&mut self) -> Result<(), String> {
        self.skip_ws();
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        text.parse::<f64>().map(|_| ()).map_err(|_| self.err("malformed number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 2; // escape: accept any escaped byte
                    out.push('?');
                }
                Some(&c) => {
                    out.push(c as char);
                    self.pos += 1;
                }
            }
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.expect(b'[')?;
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.value()?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<(), String> {
        self.expect(b'{')?;
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.string()?;
            self.expect(b':')?;
            self.value()?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

/// Validates a Chrome trace-event document: syntactically well-formed
/// JSON, top-level object containing a `traceEvents` array whose entries
/// each carry a string `ph`, numeric `pid`/`tid`, and (for non-metadata
/// phases) a numeric `ts`. Returns the number of trace events.
///
/// # Errors
///
/// Returns a description of the first violation, with a byte offset.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    // Whole-document syntax pass first: a trailing-garbage or unbalanced
    // document must fail even if the traceEvents prefix parses.
    let mut syn = JsonScanner::new(text);
    syn.value()?;
    syn.skip_ws();
    if syn.pos != syn.bytes.len() {
        return Err(syn.err("trailing garbage after document"));
    }
    // Structural pass over traceEvents.
    let start = text.find("\"traceEvents\"").ok_or("missing `traceEvents` key")?;
    if !text.trim_start().starts_with('{') {
        return Err("top level must be an object".into());
    }
    let after = &text[start + "\"traceEvents\"".len()..];
    let bracket =
        after.find('[').ok_or("`traceEvents` must be an array")? + start + "\"traceEvents\"".len();
    let mut events = 0usize;
    let mut sc = JsonScanner::new(text);
    sc.pos = bracket;
    sc.expect(b'[')?;
    if sc.peek() == Some(b']') {
        return Ok(0);
    }
    loop {
        // Each event: an object with required keys.
        let obj_start = sc.pos;
        sc.object()?;
        let obj_text = &text[obj_start..sc.pos];
        let ph = extract_string_field(obj_text, "ph")
            .ok_or_else(|| format!("event {events}: missing string `ph`"))?;
        for key in ["pid", "tid"] {
            if !has_numeric_field(obj_text, key) {
                return Err(format!("event {events}: missing numeric `{key}`"));
            }
        }
        if ph != "M" && !has_numeric_field(obj_text, "ts") {
            return Err(format!("event {events}: phase `{ph}` missing numeric `ts`"));
        }
        events += 1;
        match sc.peek() {
            Some(b',') => sc.pos += 1,
            Some(b']') => break,
            _ => return Err(sc.err("expected `,` or `]` in traceEvents")),
        }
    }
    Ok(events)
}

fn extract_string_field(obj: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let at = obj.find(&pat)? + pat.len();
    obj[at..].split('"').next().map(str::to_string)
}

fn has_numeric_field(obj: &str, key: &str) -> bool {
    let pat = format!("\"{key}\":");
    obj.find(&pat)
        .map(|at| {
            obj[at + pat.len()..]
                .trim_start()
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_digit() || c == '-')
        })
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_samples_nothing() {
        let t = Tracer::new();
        assert!(!t.enabled());
        assert_eq!(t.sample(0, 0), None);
        t.record_process(0, 0, 5);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn sampling_mask_is_deterministic() {
        let t = Tracer::sampling(64);
        assert_eq!(t.sample_one_in(), 64);
        assert!(t.sample(1, 0).is_some());
        assert!(t.sample(1, 1).is_none());
        assert!(t.sample(1, 63).is_none());
        assert!(t.sample(1, 64).is_some());
        // Deterministic: the same (op, seq) yields the same id.
        assert_eq!(t.sample(1, 64), t.sample(1, 64));
        assert_ne!(t.sample(1, 0), t.sample(2, 0));
        // Rate 1 traces everything; non-power-of-two rounds up.
        let every = Tracer::sampling(1);
        assert!(every.sample(0, 17).is_some());
        let t3 = Tracer::sampling(3);
        assert_eq!(t3.sample_one_in(), 4);
    }

    #[test]
    fn spans_chain_dependencies_through_parents() {
        let t = Tracer::sampling(1);
        let trace = t.sample(9, 0).unwrap();
        let s0 = t.begin_span(trace, 0, 0, 5, 10);
        let s1 = t.begin_span(trace, s0, 1, 7, 2);
        let s2 = t.begin_span(trace, s1, 2, 3, 1);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].deps, vec![s1, s0], "nearest ancestor first");
        assert_eq!(spans[0].deps, Vec::<u64>::new());
        assert_eq!(spans[1].parent, s0);
        assert_eq!(s2, span_key(2, 3));
    }

    #[test]
    fn rollback_attributes_to_deepest_open_ancestor() {
        let t = Tracer::sampling(1);
        let trace = t.sample(9, 0).unwrap();
        let s0 = t.begin_span(trace, 0, 0, 1, 0);
        let s1 = t.begin_span(trace, s0, 1, 1, 0);
        let s2 = t.begin_span(trace, s1, 2, 1, 0);
        // op0 committed; op1 still open → a rollback at op2 is op1's fault.
        t.record_commit(0, 1, 0);
        t.record_rollback(2, 1);
        let rb = t.rollbacks();
        assert_eq!(rb.len(), 1);
        assert_eq!(rb[0].determinant, s1);
        assert_eq!(rb[0].determinant_op, 1);
        assert_eq!(rb[0].invalidated, vec![s2]);
        // With op1 also committed, the rollback is self-originated.
        t.record_commit(1, 1, 3);
        t.record_rollback(2, 1);
        let rb = t.rollbacks();
        assert_eq!(rb[1].determinant, rb[1].span_id);
        assert_eq!(t.blast_radius().get(&s1), Some(&vec![s2]));
        assert_eq!(t.spans()[2].rollbacks, 2);
    }

    #[test]
    fn sink_final_names_slowest_log_as_critical_path() {
        let t = Tracer::sampling(1);
        let trace = t.sample(9, 4).unwrap();
        let s0 = t.begin_span(trace, 0, 0, 1, 0);
        let s1 = t.begin_span(trace, s0, 1, 1, 0);
        let s2 = t.begin_span(trace, s1, 2, 1, 0);
        t.record_log_wait(0, 1, 900);
        t.record_log_wait(1, 1, 40_000);
        t.record_log_wait(2, 1, 1_100);
        t.sink_first_arrival(trace, s2, 500);
        t.sink_final(trace, s2, 42_000);
        let sums = t.summaries();
        assert_eq!(sums.len(), 1);
        let crit = sums[0].critical.expect("critical path");
        assert_eq!(crit.op, 1);
        assert_eq!(crit.span_id, s1);
        assert_eq!(crit.log_wait_us, 40_000);
        assert_eq!(sums[0].first_arrival_us, Some(500));
        assert_eq!(sums[0].final_us, 42_000);
    }

    #[test]
    fn chrome_trace_is_valid_and_carries_everything() {
        let t = Tracer::sampling(1);
        let trace = t.sample(9, 0).unwrap();
        let s0 = t.begin_span(trace, 0, 0, 1, 12);
        let _s1 = t.begin_span(trace, s0, 1, 1, 3);
        t.record_process(0, 1, 250);
        t.record_log_wait(0, 1, 2_000);
        t.record_commit(0, 1, 2_100);
        t.record_rollback(1, 1);
        t.sink_final(trace, span_key(1, 1), 4_000);
        let json = t.chrome_trace();
        let events = validate_chrome_trace(&json).expect("valid chrome trace");
        // 2 metadata + 2 spans + 1 rollback + 1 sink completion.
        assert_eq!(events, 6, "{json}");
        assert!(json.contains("\"process_name\""), "{json}");
        assert!(json.contains("\"rollback op1#1\""), "{json}");
        assert!(json.contains("\"log_wait_us\":2000"), "{json}");
        assert!(json.contains("\"state\":\"committed\""), "{json}");
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err(), "missing traceEvents");
        assert!(validate_chrome_trace("{\"traceEvents\":[]}").unwrap() == 0);
        assert!(
            validate_chrome_trace("{\"traceEvents\":[{\"pid\":1,\"tid\":1,\"ts\":1}]}").is_err(),
            "missing ph"
        );
        assert!(
            validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"X\",\"pid\":1,\"tid\":1}]}")
                .is_err(),
            "missing ts"
        );
        assert!(validate_chrome_trace("{\"traceEvents\":[]} garbage").is_err());
        assert!(
            validate_chrome_trace(
                "{\"traceEvents\":[{\"ph\":\"M\",\"pid\":0,\"tid\":0,\
                 \"args\":{\"name\":\"op0\"}}]}"
            )
            .unwrap()
                == 1,
            "metadata events need no ts"
        );
    }

    #[test]
    fn backpressure_waits_record_and_export() {
        let t = Tracer::sampling(1);
        t.record_backpressure(2, 1_500);
        t.record_backpressure(2, 300);
        let waits = t.backpressure_waits();
        assert_eq!(waits.len(), 2);
        assert_eq!(waits[0].op, 2);
        assert_eq!(waits[0].stall_us, 1_500);
        let json = t.chrome_trace();
        validate_chrome_trace(&json).expect("valid chrome trace");
        assert!(json.contains("\"backpressure op2\""), "{json}");
        assert!(json.contains("\"stall_us\":1500"), "{json}");
        // A disabled tracer records nothing.
        let off = Tracer::new();
        off.record_backpressure(0, 99);
        assert!(off.backpressure_waits().is_empty());
    }

    #[test]
    fn span_capacity_is_bounded() {
        let t = Tracer::sampling(1);
        // Keys are hashed; just confirm the drop counter path works by
        // spot-checking the cap constant is respected via the API.
        for serial in 0..100u64 {
            t.begin_span(1, 0, 0, serial, 0);
        }
        assert_eq!(t.spans().len(), 100);
        assert_eq!(t.dropped_spans(), 0);
        t.clear();
        assert!(t.spans().is_empty());
    }
}
