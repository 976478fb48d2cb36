//! Ring-buffered structured event journal.
//!
//! The journal replaces ad-hoc `eprintln!` diagnostics with typed,
//! timestamped records of the speculation lifecycle: event ingest →
//! speculative publish → log stable → commit (or rollback, with cascade
//! depth), plus replay/resend decisions, checkpoints, and supervised
//! restarts. Records live in a bounded ring so a long run cannot grow
//! without bound; when a test fails or a chaos run diverges, the tail of
//! the ring — rendered by [`Journal::render`] — is the flight recorder.
//!
//! Recording is gated by a [`Verbosity`] level read with a single relaxed
//! atomic load, so a disabled journal costs one branch on the hot path.
//! Nothing is ever printed unless echo is explicitly enabled (or a level
//! is forced via the `STREAMMINE_OBS` environment variable), keeping test
//! output silent by default.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::time::Instant;

use parking_lot::Mutex;

/// How much the journal records.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verbosity {
    /// Record nothing.
    Off = 0,
    /// Record only warnings and supervised restarts (the default).
    Warn = 1,
    /// Record the full speculation lifecycle.
    Trace = 2,
}

impl Verbosity {
    fn from_u8(v: u8) -> Verbosity {
        match v {
            0 => Verbosity::Off,
            1 => Verbosity::Warn,
            _ => Verbosity::Trace,
        }
    }
}

/// What happened. Every variant carries the ids needed to correlate it
/// with the graph: the owning operator rides on [`JournalEvent::op`],
/// ports/edges and transaction serials ride here.
#[derive(Clone, Debug, PartialEq)]
pub enum JournalKind {
    /// An input event entered processing on `port` as transaction `serial`.
    Ingest {
        /// Transaction serial assigned to the event.
        serial: u64,
        /// Input port it arrived on.
        port: u32,
    },
    /// A speculative attempt published `outputs` events downstream before
    /// its log write was stable.
    SpecPublish {
        /// Transaction serial.
        serial: u64,
        /// Number of events published.
        outputs: u32,
    },
    /// The log write covering transaction `serial` became stable.
    LogStable {
        /// Transaction serial.
        serial: u64,
    },
    /// Transaction `serial` committed; its outputs are final.
    Commit {
        /// Transaction serial.
        serial: u64,
    },
    /// A speculative attempt aborted and will re-execute; `cascade_depth`
    /// counts how many dependent transactions the rollback dragged along.
    Rollback {
        /// Transaction serial.
        serial: u64,
        /// Transactions aborted downstream of this one.
        cascade_depth: u32,
    },
    /// Recovery moved the cursor of input ring `port` back, to read again
    /// from link sequence `from` (the checkpoint's position).
    Rewind {
        /// Input port.
        port: u32,
        /// First link sequence read again.
        from: u64,
    },
    /// Re-executed outputs on `edge` were suppressed instead of re-sent
    /// (they were already on the wire before the crash).
    ResendSuppressed {
        /// Output edge index.
        edge: u32,
        /// Events suppressed.
        count: u64,
    },
    /// A checkpoint was saved.
    CheckpointSaved {
        /// Checkpoint id.
        id: u64,
        /// The checkpoint covers log records below this sequence.
        covers_log: u64,
    },
    /// The supervisor restarted a crashed node.
    Restart {
        /// Restart attempt number for this node.
        attempt: u32,
        /// Backoff waited before the restart, in microseconds.
        backoff_us: u64,
    },
    /// The node stopped pulling new data events because output edge
    /// `edge` is saturated (its link window is full); upstream pumps
    /// block and backpressure propagates.
    BackpressureStall {
        /// Saturated output edge index.
        edge: u32,
    },
    /// The node resumed pulling data after a backpressure or
    /// admission-control stall lasting `stall_us` microseconds.
    BackpressureResume {
        /// Stall duration in microseconds.
        stall_us: u64,
    },
    /// Speculation admission control engaged: the node hit its cap on
    /// `open` concurrent transactions or `retained` unfinalized
    /// speculative outputs, and paces by log stability instead of
    /// speculating further (it never aborts).
    SpecCapHit {
        /// Open speculative transactions at the hit.
        open: u32,
        /// Retained (published, unfinalized) speculative outputs.
        retained: u64,
    },
    /// Something degraded: a short machine-readable code plus detail.
    Warn {
        /// Stable code, e.g. `checkpoint-restore-failed`.
        code: &'static str,
        /// Human-readable detail.
        detail: String,
    },
    /// An approximate-mode recovery resumed from a stale snapshot,
    /// dropping `skipped` replayed updates instead of re-executing them.
    ApproxResume {
        /// Replayed updates dropped by this resume.
        skipped: u64,
        /// Cumulative updates lost across all recoveries so far.
        lost: u64,
        /// Updates still droppable under the declared bound.
        remaining: u64,
    },
    /// An approximate-mode recovery would have exceeded its error budget
    /// and escalated to a precise checkpoint+replay cycle instead.
    ApproxEscalate {
        /// Cumulative loss admitting would have left: updates already
        /// baked by earlier recoveries plus this resume's refused drop.
        lost: u64,
        /// Total loss allowance under the declared bound.
        allowed: u64,
    },
}

/// Code of a pinned [`JournalKind::Warn`]: a cluster worker's transaction
/// re-executed and may have drawn out of serial order, so a replacement
/// process re-deriving its decisions from the slot's seed might not draw
/// what it drew.
pub const REDERIVATION_BROKEN: &str = "rederivation-broken";

/// Code of the other pinned warning: a recovering node's rewind stopped
/// above its checkpoint's position, because acknowledgments had trimmed
/// the input ring past it — the frames in between are gone.
const REWIND_SHORT: &str = "rewind-short";

impl JournalKind {
    /// The minimum verbosity at which this record is kept.
    pub fn level(&self) -> Verbosity {
        match self {
            // Overload episodes are operationally significant and rare
            // (one record per stall episode, not per event), so they are
            // kept at the default verbosity like warnings and restarts.
            JournalKind::Warn { .. }
            | JournalKind::Restart { .. }
            | JournalKind::BackpressureStall { .. }
            | JournalKind::BackpressureResume { .. }
            | JournalKind::SpecCapHit { .. }
            // Recovery decisions are rare (one per recovery, or per port
            // of one) and a post-mortem needs them: where the replay began,
            // and what the approximate contract gave up.
            | JournalKind::Rewind { .. }
            | JournalKind::ApproxResume { .. }
            | JournalKind::ApproxEscalate { .. } => Verbosity::Warn,
            _ => Verbosity::Trace,
        }
    }

    /// Whether the record is lifecycle-critical: kept in a pinned region
    /// the ring never evicts, so a long chaos run cannot truncate the
    /// restart/checkpoint history a post-mortem needs.
    pub fn pinned(&self) -> bool {
        matches!(
            self,
            JournalKind::Restart { .. }
                | JournalKind::CheckpointSaved { .. }
                | JournalKind::ApproxResume { .. }
                | JournalKind::ApproxEscalate { .. }
                | JournalKind::Warn { code: REDERIVATION_BROKEN | REWIND_SHORT, .. }
        )
    }
}

/// One journal record.
#[derive(Clone, Debug, PartialEq)]
pub struct JournalEvent {
    /// Monotone sequence number (never resets, survives ring eviction).
    pub seq: u64,
    /// Microseconds since the journal was created.
    pub at_us: u64,
    /// Owning operator (node) index, when the record is node-scoped.
    pub op: Option<u32>,
    /// Causal trace id of the event this record concerns, when the event
    /// was sampled for tracing. Rendered into every line so a grep on one
    /// trace id reconstructs the event's full path through the journal.
    pub trace: Option<u64>,
    /// What happened.
    pub kind: JournalKind,
}

impl fmt::Display for JournalEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:>10}us", self.at_us)?;
        match self.op {
            Some(op) => write!(f, " op{op}]")?,
            None => write!(f, "     ]")?,
        }
        match &self.kind {
            JournalKind::Ingest { serial, port } => {
                write!(f, " ingest serial={serial} port={port}")
            }
            JournalKind::SpecPublish { serial, outputs } => {
                write!(f, " spec-publish serial={serial} outputs={outputs}")
            }
            JournalKind::LogStable { serial } => write!(f, " log-stable serial={serial}"),
            JournalKind::Commit { serial } => write!(f, " commit serial={serial}"),
            JournalKind::Rollback { serial, cascade_depth } => {
                write!(f, " rollback serial={serial} cascade={cascade_depth}")
            }
            JournalKind::Rewind { port, from } => write!(f, " rewind port={port} from={from}"),
            JournalKind::ResendSuppressed { edge, count } => {
                write!(f, " resend-suppressed edge={edge} count={count}")
            }
            JournalKind::CheckpointSaved { id, covers_log } => {
                write!(f, " checkpoint-saved id={id} covers-log={covers_log}")
            }
            JournalKind::Restart { attempt, backoff_us } => {
                write!(f, " restart attempt={attempt} backoff={backoff_us}us")
            }
            JournalKind::BackpressureStall { edge } => {
                write!(f, " backpressure-stall edge={edge}")
            }
            JournalKind::BackpressureResume { stall_us } => {
                write!(f, " backpressure-resume stalled={stall_us}us")
            }
            JournalKind::SpecCapHit { open, retained } => {
                write!(f, " spec-cap-hit open={open} retained={retained}")
            }
            JournalKind::Warn { code, detail } => write!(f, " WARN {code}: {detail}"),
            JournalKind::ApproxResume { skipped, lost, remaining } => {
                write!(f, " approx-resume skipped={skipped} lost={lost} remaining={remaining}")
            }
            JournalKind::ApproxEscalate { lost, allowed } => {
                write!(f, " approx-escalate lost={lost} allowed={allowed}")
            }
        }?;
        if let Some(trace) = self.trace {
            write!(f, " trace={trace}")?;
        }
        Ok(())
    }
}

/// Default ring capacity.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 4096;

/// Capacity of the pinned region holding lifecycle-critical records
/// (restarts, checkpoints). These are never displaced by ordinary
/// lifecycle traffic; only other pinned records can evict them.
pub const PINNED_JOURNAL_CAPACITY: usize = 256;

#[derive(Default)]
struct Rings {
    /// Ordinary lifecycle records, evicted oldest-first at capacity.
    ring: VecDeque<JournalEvent>,
    /// Lifecycle-critical records ([`JournalKind::pinned`]), kept apart so
    /// a flood of commits cannot truncate the restart history.
    pinned: VecDeque<JournalEvent>,
}

impl Rings {
    /// All retained records merged by sequence number, oldest first.
    fn merged(&self) -> Vec<JournalEvent> {
        let mut out = Vec::with_capacity(self.ring.len() + self.pinned.len());
        let (mut a, mut b) = (self.ring.iter().peekable(), self.pinned.iter().peekable());
        loop {
            match (a.peek(), b.peek()) {
                (Some(x), Some(y)) => {
                    if x.seq <= y.seq {
                        out.push((*x).clone());
                        a.next();
                    } else {
                        out.push((*y).clone());
                        b.next();
                    }
                }
                (Some(_), None) => {
                    out.extend(a.cloned());
                    break;
                }
                (None, Some(_)) => {
                    out.extend(b.cloned());
                    break;
                }
                (None, None) => break,
            }
        }
        out
    }
}

/// The ring-buffered journal. Shared by every node of a graph.
pub struct Journal {
    level: AtomicU8,
    echo: AtomicBool,
    rings: Mutex<Rings>,
    capacity: usize,
    dropped: AtomicU64,
    seq: AtomicU64,
    start: Instant,
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field("level", &self.level())
            .field("len", &self.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl Default for Journal {
    fn default() -> Self {
        Journal::new()
    }
}

impl Journal {
    /// A journal with the default capacity at [`Verbosity::Warn`] (or the
    /// level named by the `STREAMMINE_OBS` environment variable: `off`,
    /// `warn`, `trace` — `trace` also echoes to stderr).
    pub fn new() -> Journal {
        let mut level = Verbosity::Warn;
        let mut echo = false;
        match std::env::var("STREAMMINE_OBS").ok().as_deref() {
            Some("off") => level = Verbosity::Off,
            Some("warn") => level = Verbosity::Warn,
            Some("trace") => {
                level = Verbosity::Trace;
                echo = true;
            }
            _ => {}
        }
        Journal::with_level(DEFAULT_JOURNAL_CAPACITY, level).echoing(echo)
    }

    /// A journal with explicit capacity and level.
    pub fn with_level(capacity: usize, level: Verbosity) -> Journal {
        Journal {
            level: AtomicU8::new(level as u8),
            echo: AtomicBool::new(false),
            rings: Mutex::new(Rings::default()),
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            start: Instant::now(),
        }
    }

    fn echoing(self, echo: bool) -> Journal {
        self.echo.store(echo, Ordering::Relaxed);
        self
    }

    /// Current verbosity.
    pub fn level(&self) -> Verbosity {
        Verbosity::from_u8(self.level.load(Ordering::Relaxed))
    }

    /// Changes the verbosity.
    pub fn set_level(&self, level: Verbosity) {
        self.level.store(level as u8, Ordering::Relaxed);
    }

    /// Mirrors every kept record to stderr (debugging aid; off by default).
    pub fn set_echo(&self, echo: bool) {
        self.echo.store(echo, Ordering::Relaxed);
    }

    /// Whether records at `level` are currently kept. Callers building an
    /// expensive record can skip the work when this is false; `record`
    /// performs the same check itself.
    pub fn enabled(&self, level: Verbosity) -> bool {
        self.level.load(Ordering::Relaxed) >= level as u8
    }

    /// Appends a record if the current verbosity keeps it.
    pub fn record(&self, op: Option<u32>, kind: JournalKind) {
        self.record_traced(op, None, kind);
    }

    /// Appends a record tagged with the causal trace id of the event it
    /// concerns, so `journal_dump` lines can be grepped per trace.
    pub fn record_traced(&self, op: Option<u32>, trace: Option<u64>, kind: JournalKind) {
        if !self.enabled(kind.level()) {
            return;
        }
        let ev = JournalEvent {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            at_us: self.start.elapsed().as_micros() as u64,
            op,
            trace,
            kind,
        };
        if self.echo.load(Ordering::Relaxed) {
            eprintln!("[obs] {ev}");
        }
        let mut rings = self.rings.lock();
        if ev.kind.pinned() {
            if rings.pinned.len() == PINNED_JOURNAL_CAPACITY {
                rings.pinned.pop_front();
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
            rings.pinned.push_back(ev);
        } else {
            if rings.ring.len() == self.capacity {
                rings.ring.pop_front();
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
            rings.ring.push_back(ev);
        }
    }

    /// Convenience: records a [`JournalKind::Warn`].
    pub fn warn(&self, op: Option<u32>, code: &'static str, detail: String) {
        self.record(op, JournalKind::Warn { code, detail });
    }

    /// Copies out the retained records (including the pinned region),
    /// oldest first.
    pub fn events(&self) -> Vec<JournalEvent> {
        self.rings.lock().merged()
    }

    /// Records retained that match a predicate.
    pub fn count_matching(&self, pred: impl Fn(&JournalEvent) -> bool) -> usize {
        let rings = self.rings.lock();
        rings.ring.iter().filter(|e| pred(e)).count()
            + rings.pinned.iter().filter(|e| pred(e)).count()
    }

    /// Records evicted from the ring since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        let rings = self.rings.lock();
        rings.ring.len() + rings.pinned.len()
    }

    /// Whether no records are retained.
    pub fn is_empty(&self) -> bool {
        let rings = self.rings.lock();
        rings.ring.is_empty() && rings.pinned.is_empty()
    }

    /// Drops all retained records (the eviction counter is kept).
    pub fn clear(&self) {
        let mut rings = self.rings.lock();
        rings.ring.clear();
        rings.pinned.clear();
    }

    /// Renders the retained records as one printable flight-recorder dump.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let rings = self.rings.lock();
        let merged = rings.merged();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "=== journal ({} records, {} evicted, {} pinned) ===",
            merged.len(),
            self.dropped.load(Ordering::Relaxed),
            rings.pinned.len()
        );
        for ev in &merged {
            let _ = writeln!(out, "{ev}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_journal(cap: usize) -> Journal {
        Journal::with_level(cap, Verbosity::Trace)
    }

    #[test]
    fn off_level_records_nothing() {
        let j = Journal::with_level(16, Verbosity::Off);
        j.record(Some(0), JournalKind::Commit { serial: 1 });
        j.warn(None, "x", "y".into());
        assert!(j.is_empty());
        assert!(!j.enabled(Verbosity::Warn));
    }

    #[test]
    fn warn_level_keeps_warnings_and_restarts_only() {
        let j = Journal::with_level(16, Verbosity::Warn);
        j.record(Some(2), JournalKind::Ingest { serial: 0, port: 0 });
        j.record(Some(2), JournalKind::SpecPublish { serial: 0, outputs: 3 });
        j.warn(Some(2), "torn-tail", "dropped 1 group".into());
        j.record(Some(1), JournalKind::Restart { attempt: 1, backoff_us: 500 });
        let evs = j.events();
        assert_eq!(evs.len(), 2);
        assert!(matches!(evs[0].kind, JournalKind::Warn { code: "torn-tail", .. }));
        assert!(matches!(evs[1].kind, JournalKind::Restart { attempt: 1, .. }));
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let j = trace_journal(4);
        for serial in 0..10 {
            j.record(Some(0), JournalKind::Commit { serial });
        }
        assert_eq!(j.len(), 4);
        assert_eq!(j.dropped(), 6);
        let evs = j.events();
        assert!(matches!(evs[0].kind, JournalKind::Commit { serial: 6 }));
        assert!(matches!(evs[3].kind, JournalKind::Commit { serial: 9 }));
        // Sequence numbers survive eviction.
        assert_eq!(evs[0].seq, 6);
    }

    #[test]
    fn lifecycle_renders_in_order() {
        let j = trace_journal(64);
        j.record(Some(0), JournalKind::Ingest { serial: 7, port: 1 });
        j.record(Some(0), JournalKind::SpecPublish { serial: 7, outputs: 2 });
        j.record(Some(0), JournalKind::LogStable { serial: 7 });
        j.record(Some(0), JournalKind::Commit { serial: 7 });
        let dump = j.render();
        let ingest = dump.find("ingest serial=7").unwrap();
        let publish = dump.find("spec-publish serial=7").unwrap();
        let stable = dump.find("log-stable serial=7").unwrap();
        let commit = dump.find("commit serial=7").unwrap();
        assert!(ingest < publish && publish < stable && stable < commit, "{dump}");
    }

    #[test]
    fn overload_records_survive_the_default_warn_level() {
        let j = Journal::with_level(16, Verbosity::Warn);
        j.record(Some(1), JournalKind::BackpressureStall { edge: 0 });
        j.record(Some(1), JournalKind::SpecCapHit { open: 256, retained: 4096 });
        j.record(Some(1), JournalKind::BackpressureResume { stall_us: 1234 });
        j.record(Some(1), JournalKind::Commit { serial: 0 }); // trace-only
        let evs = j.events();
        assert_eq!(evs.len(), 3, "stall/resume/cap-hit must be kept at Warn");
        let dump = j.render();
        assert!(dump.contains("backpressure-stall edge=0"), "{dump}");
        assert!(dump.contains("spec-cap-hit open=256 retained=4096"), "{dump}");
        assert!(dump.contains("backpressure-resume stalled=1234us"), "{dump}");
    }

    #[test]
    fn count_matching_filters() {
        let j = trace_journal(64);
        j.record(Some(0), JournalKind::Rollback { serial: 1, cascade_depth: 2 });
        j.record(Some(1), JournalKind::Rollback { serial: 2, cascade_depth: 0 });
        j.record(Some(0), JournalKind::Commit { serial: 3 });
        assert_eq!(j.count_matching(|e| matches!(e.kind, JournalKind::Rollback { .. })), 2);
        assert_eq!(j.count_matching(|e| e.op == Some(0)), 2);
    }

    #[test]
    fn pinned_region_survives_ring_truncation() {
        let j = trace_journal(4);
        j.record(Some(1), JournalKind::Restart { attempt: 1, backoff_us: 100 });
        j.record(Some(0), JournalKind::CheckpointSaved { id: 1, covers_log: 9 });
        // Of the warnings only the broken re-derivation and the short
        // rewind are pinned.
        j.warn(Some(0), REDERIVATION_BROKEN, "1 rollback".into());
        j.warn(Some(0), REWIND_SHORT, "port 0 stands at 9, not 4".into());
        j.warn(Some(0), "plain-mode-abort", "evictable".into());
        // Flood with ordinary traffic far past the ring capacity.
        for serial in 0..50 {
            j.record(Some(0), JournalKind::Commit { serial });
        }
        let evs = j.events();
        // The restart + checkpoint are still there, oldest first.
        assert!(matches!(evs[0].kind, JournalKind::Restart { attempt: 1, .. }));
        assert!(matches!(evs[1].kind, JournalKind::CheckpointSaved { id: 1, .. }));
        assert!(matches!(evs[2].kind, JournalKind::Warn { code: REDERIVATION_BROKEN, .. }));
        assert!(matches!(evs[3].kind, JournalKind::Warn { code: REWIND_SHORT, .. }));
        assert_eq!(j.len(), 4 + 4);
        assert_eq!(
            j.count_matching(|e| matches!(e.kind, JournalKind::Restart { .. })),
            1,
            "post-mortem must always see the restart"
        );
        let dump = j.render();
        assert!(dump.contains("restart attempt=1"), "{dump}");
        assert!(dump.contains("4 pinned"), "{dump}");
    }

    #[test]
    fn merged_view_orders_pinned_and_ordinary_by_seq() {
        let j = trace_journal(64);
        j.record(Some(0), JournalKind::Ingest { serial: 1, port: 0 });
        j.record(Some(0), JournalKind::Restart { attempt: 1, backoff_us: 10 });
        j.record(Some(0), JournalKind::Commit { serial: 1 });
        let seqs: Vec<u64> = j.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn trace_ids_render_into_lines() {
        let j = trace_journal(64);
        j.record_traced(Some(0), Some(0xDEAD), JournalKind::Ingest { serial: 3, port: 0 });
        j.record_traced(Some(1), Some(0xDEAD), JournalKind::Commit { serial: 8 });
        j.record(Some(0), JournalKind::Commit { serial: 4 });
        let dump = j.render();
        let tagged: Vec<&str> =
            dump.lines().filter(|l| l.contains(&format!("trace={}", 0xDEAD))).collect();
        assert_eq!(tagged.len(), 2, "{dump}");
        assert!(tagged[0].contains("ingest serial=3"));
        assert!(tagged[1].contains("commit serial=8"));
    }

    #[test]
    fn clear_keeps_drop_counter() {
        let j = trace_journal(2);
        for serial in 0..5 {
            j.record(None, JournalKind::LogStable { serial });
        }
        assert_eq!(j.dropped(), 3);
        j.clear();
        assert!(j.is_empty());
        assert_eq!(j.dropped(), 3);
    }
}
