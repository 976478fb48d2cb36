//! The per-operator runtime (coordinator loop).
//!
//! One [`Node`] drives one operator instance: it merges inputs, assigns
//! serials, runs the processing function (plainly or under STM control),
//! logs determinants, emits speculative or final events, finalizes /
//! revises / revokes them as speculation resolves, checkpoints state, and
//! performs precise recovery after a crash: restore the checkpoint, rewind
//! the input rings it reads to the checkpoint's positions, swallow the
//! re-derived outputs its edges already carry. An edge is a retained ring
//! that outlives the node, so the rewind is the node moving its own cursor
//! back — no request, no answer, nothing that can be lost or retried.
//!
//! # The two execution modes (§2.3, §2.4)
//!
//! * **Non-speculative**: events are processed sequentially; outputs are
//!   *held* until every decision record of the event is stable on disk —
//!   each was appended the moment the decision was taken, so the write
//!   runs beside the operator — then sent as final. A speculative input
//!   event is parked until its finalize arrives — a non-speculative
//!   operator only consumes and produces final events.
//! * **Speculative**: each event runs as an STM transaction; outputs are
//!   sent immediately, tagged speculative when anything about them may
//!   still change (speculative inputs, open dependencies, unstable log).
//!   When the transaction commits — inputs final + log stable +
//!   dependencies committed, in timestamp order — `Finalize` control
//!   messages upgrade the outputs downstream. Rollbacks re-execute the
//!   event and re-emit revised outputs under a bumped version.
//!
//! # Emission-ordering protocol (speculative mode)
//!
//! Attempts of one event may finish on different worker threads in any
//! order, while the commit gate runs on yet another thread. Three rules
//! keep the wire consistent:
//!
//! 1. **Generation-ordered diffs** — each attempt's outputs carry the STM
//!    generation; diffs against the `sent` list apply monotonically, so a
//!    straggling old attempt can never resurrect outputs a newer attempt
//!    revised or revoked.
//! 2. **Attempts-in-flight gate** — the commit gate only opens when no
//!    attempt is scheduled or mid-emission, so a commit's finalizes always
//!    follow the last data/revoke of the surviving generation.
//! 3. **Finalize/diff mutual exclusion** — finalizes are sent under the
//!    same `sent` lock the diffs use, with a `finalized` flag checked
//!    inside it: nothing can revise an output after its finalize entered
//!    the wire.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use streammine_common::clock::SharedClock;
use streammine_common::codec::{decode_from_slice, encode_to_vec};
use streammine_common::event::{Event, TraceCtx, Value};
use streammine_common::ids::{EventId, OperatorId};
use streammine_common::pool::ThreadPool;
use streammine_common::rng::DetRng;
use streammine_net::LinkSender;
use streammine_obs::{span_key, Counter, Gauge, Histogram, Journal, JournalKind, Labels, Obs};
use streammine_sketch::{ErrorBound, ErrorBudget};
use streammine_stm::{Serial, StatsSnapshot, StmAbort, StmRuntime, TxnHandle, TxnId};
use streammine_storage::checkpoint::CheckpointStore;
use streammine_storage::log::{LogSeq, StableLog};

use crate::config::{OperatorConfig, RecoveryMode};
use crate::determinant::{recovered_tapes, DecisionLog, DecisionRecord, Determinant, Tape};
use crate::message::{Control, Message};
use crate::operator::{OpCtx, Operator, PortId, SetupCtx};
use crate::plumbing::{DownEdge, EdgeCursor, Inbox, NodeCommand, Notice};
use crate::state::{StateAccess, StateRegistry};
use crate::supervisor::Signal;

/// Maximum outputs a single `process` call may emit (output event ids pack
/// the emit index into the low bits of the sequence number).
pub const MAX_OUTPUTS_PER_EVENT: u64 = 1 << 16;

/// Size threshold at which a per-edge output buffer flushes as a
/// [`Message::DataBatch`] without waiting for the inbox to run dry; also
/// how many frames the coordinator reads from one input ring before it
/// looks at control again.
pub(crate) const BATCH_MAX_EVENTS: usize = 32;

/// The current view of a pending event's input (revisions replace it).
#[derive(Clone)]
struct InputView {
    version: u32,
    payload: Value,
    speculative: bool,
}

/// `(generation, outputs)` captured by one execution attempt.
type AttemptCapture = (u64, Vec<(Option<u32>, Value)>);

/// Tracking info for one in-flight speculative event.
struct PendingTxn {
    serial: u64,
    input_id: EventId,
    port: u32,
    input_ts: u64,
    /// When the event entered processing; the commit-gate histogram
    /// measures from here to commit (spec-arrival vs final-commit
    /// decomposition, §4).
    started: Instant,
    /// Rollbacks this event has absorbed so far (its re-execution ordinal,
    /// reported as the journal's cascade depth).
    rollbacks: std::sync::atomic::AtomicU64,
    input: Mutex<InputView>,
    handle: TxnHandle,
    /// `(generation, outputs)` captured by the latest successful attempt;
    /// the generation orders diff application.
    attempt: Mutex<Option<AttemptCapture>>,
    /// Highest generation whose outputs were applied to `sent` (guarded by
    /// the `sent` mutex's critical sections).
    applied_gen: std::sync::atomic::AtomicU64,
    /// The event's decisions, taken once and read by every later attempt;
    /// its records turning stable is the log leg of the commit gate.
    tape: Tape,
    /// Events as last sent downstream (by emit index), with their routing.
    sent: Mutex<Vec<(Event, Option<u32>)>>,
    /// True once every sent output is final (txn committed + finalizes sent).
    finalized: AtomicBool,
    /// Number of (re-)execution attempts scheduled but not yet fully
    /// emitted. The commit gate stays closed while this is non-zero:
    /// otherwise a commit's finalize can overtake the attempt's revised
    /// outputs on the wire.
    attempts_pending: std::sync::atomic::AtomicU64,
    /// Causal trace context of the input event, when it was sampled for
    /// tracing. Downstream outputs carry a child context whose parent is
    /// this hop's span.
    trace: Option<TraceCtx>,
}

/// Output held by a non-speculative operator until its log is stable.
struct HeldOutput {
    tape: Tape,
    outputs: Vec<(Event, Option<u32>)>,
    /// Trace id of the input event, when sampled for tracing.
    trace: Option<u64>,
}

/// Per down-edge: how many of the outputs a recovering node re-derives it
/// must swallow instead of sending, because the edge carries them already
/// ([`crate::plumbing::Sent`] minus the checkpoint's baseline). Re-derived
/// output comes in the order it was first sent, so the first `events` data
/// events and the first `finals` finalizes are exactly the ones on the
/// wire. Putting them on again would park copies at fresh link sequences,
/// which a *later* downstream crash would replay and process as new
/// events, and would count twice in a receiver's cursor. Set by
/// [`Node::recover`] before the first event is admitted, then only counted
/// down — by the coordinator, or by the one thread of a speculative node
/// that has any to swallow.
#[derive(Default)]
struct Resend {
    events: AtomicU64,
    finals: AtomicU64,
}

/// A checkpoint taken but not saved yet: the fields of the image, and per
/// down-edge the ring position its downstream must have acknowledged
/// before it may be saved (see [`Node::maybe_checkpoint`]).
struct Image {
    covers_log: LogSeq,
    events_processed: u64,
    input_positions: Vec<u64>,
    inputs_covered_below: Vec<u64>,
    outputs_sent: Vec<u64>,
    state: Vec<u8>,
    rng_state: Vec<u8>,
    /// Per down-edge: where the outputs the image counts end in the ring
    /// (0 where the ring outlives the node, so nothing is waited for).
    outputs_end: Vec<u64>,
}

/// Whether an output routed to `target` (`None`: every edge) goes out on
/// edge `out`.
fn routes_to(target: Option<u32>, out: usize) -> bool {
    target.is_none_or(|t| t as usize == out)
}

/// Takes one off `count` if any is left: `true` when the caller's output
/// is one of the swallowed.
fn swallow(count: &AtomicU64) -> bool {
    count.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1)).is_ok()
}

/// Runtime state of approximate recovery
/// ([`RecoveryMode::Approximate`]): the declared bound, the current
/// resume window, and the error-budget gauges.
struct ApproxState {
    /// The declared (ε, δ) accuracy contract.
    bound: ErrorBound,
    /// Replayed inputs still to drop in the current resume window. Each
    /// dropped input consumes a serial without running the operator, so
    /// later output ids stay aligned with the fault-free run; its state
    /// update is the loss the budget charged.
    skip_remaining: u64,
    /// Updates dropped by the current resume window, not yet permanent:
    /// baked into the store's durable loss counter when the next
    /// checkpoint makes the stale lineage the only lineage. A crash
    /// before that save re-derives a superset window from the same
    /// baseline, so baking earlier would double-charge.
    window_loss: u64,
    /// `recovery.error_budget.lost` — updates lost across all recoveries.
    lost_gauge: Gauge,
    /// `recovery.error_budget.allowed` — current loss allowance (ε·N).
    allowed_gauge: Gauge,
    /// `recovery.error_budget.remaining` — allowance minus realized loss.
    remaining_gauge: Gauge,
    /// `recovery.escalations` — precise cycles forced by budget
    /// exhaustion.
    escalations: Counter,
}

impl ApproxState {
    fn registered(bound: ErrorBound, obs: &Obs, op: u32) -> ApproxState {
        let r = &obs.registry;
        ApproxState {
            bound,
            skip_remaining: 0,
            window_loss: 0,
            lost_gauge: r.gauge("recovery.error_budget.lost", Labels::op(op)),
            allowed_gauge: r.gauge("recovery.error_budget.allowed", Labels::op(op)),
            remaining_gauge: r.gauge("recovery.error_budget.remaining", Labels::op(op)),
            escalations: r.counter("recovery.escalations", Labels::op(op)),
        }
    }

    /// Refreshes the budget gauges for `delivered` events and `lost`
    /// realized losses.
    fn set_gauges(&self, lost: u64, delivered: u64) {
        let allowed = self.bound.allowed_loss(delivered);
        self.lost_gauge.set(lost as i64);
        self.allowed_gauge.set(allowed as i64);
        self.remaining_gauge.set(allowed.saturating_sub(lost) as i64);
    }
}

/// Why the overload gate closed (see [`Node::overload_reason`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StallReason {
    /// A downstream edge is saturated (its link window is full).
    Edge(u32),
    /// Speculation admission control: too many open transactions or
    /// retained speculative outputs.
    SpecCap { open: usize, retained: usize },
}

/// Per-node metric handles, registered once at construction. Bumping one
/// on the hot path is a relaxed atomic op; the registry lock is never
/// taken after registration.
#[derive(Clone)]
struct NodeMetrics {
    /// Events accepted into processing, per input port.
    events_in: Vec<Counter>,
    /// Speculative outputs published before log stability.
    spec_published: Counter,
    /// Transactions committed (outputs finalized downstream).
    spec_finalized: Counter,
    /// Rollback + re-execution rounds.
    spec_rollbacks: Counter,
    /// Input rings rewound by recovery: one per port per recovery. (The
    /// name dates from when the rewind was a request to the upstream.)
    replay_requests: Counter,
    /// Re-executed outputs swallowed because they were already on the wire.
    resend_suppressed: Counter,
    /// Time events sat in a port queue before processing.
    queue_wait_us: Histogram,
    /// Operator `process` call duration.
    process_us: Histogram,
    /// Append-to-stable latency of decision-log writes, per record (the
    /// paper's "one parallel log write" leg). A record is appended when
    /// its decision is taken, so this runs beside `process_us`; the two
    /// must not be added.
    log_wait_us: Histogram,
    /// Admission → commit time of a transaction: its processing, its log
    /// wait (overlapping), its input's finalize and its turn in the commit
    /// order.
    commit_gate_us: Histogram,
    /// Events per outgoing data frame (micro-batching effectiveness).
    batch_events: Histogram,
    /// Backpressure / admission-control stall episodes entered.
    backpressure_stalls: Counter,
    /// Duration of finished stall episodes.
    backpressure_stall_us: Histogram,
    /// Times speculation admission control engaged (a cap was hit).
    spec_cap_hits: Counter,
    /// Open speculative transactions right now.
    spec_open: Gauge,
    /// Published-but-unfinalized speculative outputs right now.
    spec_retained: Gauge,
    /// Events read from the input rings but not yet admitted.
    intake_depth: Gauge,
    /// STM runtime counters (`stm.*`, including `stm.fastpath.*`),
    /// refreshed from [`StatsSnapshot::fields`] before every park. Empty
    /// on non-speculative nodes. Same order as `fields()`.
    stm_gauges: Vec<Gauge>,
}

impl NodeMetrics {
    fn registered(obs: &Obs, op: u32, inputs: usize, speculative: bool) -> NodeMetrics {
        let r = &obs.registry;
        NodeMetrics {
            events_in: (0..inputs)
                .map(|p| r.counter("events.in", Labels::op_port(op, p as u32)))
                .collect(),
            spec_published: r.counter("spec.published", Labels::op(op)),
            spec_finalized: r.counter("spec.finalized", Labels::op(op)),
            spec_rollbacks: r.counter("spec.rollbacks", Labels::op(op)),
            replay_requests: r.counter("replay.requests", Labels::op(op)),
            resend_suppressed: r.counter("resend.suppressed", Labels::op(op)),
            queue_wait_us: r.histogram("stage.queue_wait_us", Labels::op(op)),
            process_us: r.histogram("stage.process_us", Labels::op(op)),
            log_wait_us: r.histogram("stage.log_wait_us", Labels::op(op)),
            commit_gate_us: r.histogram("stage.commit_gate_us", Labels::op(op)),
            batch_events: r.histogram("batch.events", Labels::op(op)),
            backpressure_stalls: r.counter("backpressure.stalls", Labels::op(op)),
            backpressure_stall_us: r.histogram("backpressure.stall_us", Labels::op(op)),
            spec_cap_hits: r.counter("spec.cap_hits", Labels::op(op)),
            spec_open: r.gauge("spec.open", Labels::op(op)),
            spec_retained: r.gauge("spec.retained", Labels::op(op)),
            intake_depth: r.gauge("node.intake_depth", Labels::op(op)),
            stm_gauges: if speculative {
                StatsSnapshot::default()
                    .fields()
                    .iter()
                    .map(|(name, _)| r.gauge(name, Labels::op(op)))
                    .collect()
            } else {
                Vec::new()
            },
        }
    }
}

pub(crate) struct NodeSeed {
    pub id: OperatorId,
    pub operator: Arc<dyn Operator>,
    pub config: OperatorConfig,
    pub clock: SharedClock,
    /// Everything the node reads; survives its crashes.
    pub inbox: Arc<Inbox>,
    /// Control back to each input port's sender (acks): a severed control
    /// link delays — never loses — them.
    pub up: Vec<LinkSender<Control>>,
    pub down: Vec<DownEdge>,
    pub log: Option<StableLog>,
    pub checkpoints: Option<Arc<CheckpointStore>>,
    pub rng_seed: u64,
    /// Shared observability bundle (metrics registry + journal).
    pub obs: Obs,
    /// Where the coordinator thread reports its exit (a graph's
    /// supervisor listens there).
    pub exits: Option<crossbeam_channel::Sender<Signal>>,
    /// True when this node restarts after a crash (triggers replay).
    pub recovering: bool,
}

/// The running state of one operator.
pub(crate) struct Node {
    id: OperatorId,
    operator: Arc<dyn Operator>,
    config: OperatorConfig,
    clock: SharedClock,
    inbox: Arc<Inbox>,
    /// Spare storage the notice queue is swapped against.
    notices: VecDeque<Notice>,
    up: Vec<LinkSender<Control>>,
    down: Vec<DownEdge>,
    log: Option<StableLog>,
    checkpoints: Option<Arc<CheckpointStore>>,
    registry: Arc<StateRegistry>,
    stm: Option<StmRuntime>,
    pool: Option<Arc<ThreadPool>>,
    rng: Arc<Mutex<DetRng>>,
    obs: Obs,
    metrics: NodeMetrics,

    /// Per-port receive cursors: the in-order delivery position, which a
    /// checkpoint records and recovery rewinds the ring to.
    cursors: Vec<EdgeCursor>,
    /// Per-port queues of `(event, enqueued_at)` read but not admitted yet
    /// (replay-order merge, overload gate; the enqueue instant feeds the
    /// queue-wait histogram).
    port_queues: Vec<VecDeque<(Event, Instant)>>,
    /// Speculative inputs parked by a non-speculative operator.
    parked: HashMap<EventId, (u32, Event)>,
    /// Tapes recovered from the stable log, by serial, until the event is
    /// admitted again; while any is left the merge follows their input
    /// choices.
    recovered: HashMap<u64, Vec<Determinant>>,

    next_serial: u64,
    /// Per port: every upstream event with an id sequence below it is
    /// covered by the last checkpoint (saved or restored) and dropped if it
    /// shows up again. At a checkpoint nothing is pending, parked or queued
    /// and finals arrive in the sender's serial order, so what was consumed
    /// is an id prefix per port. Unlike [`Self::processed`] it is durable:
    /// a sender that recovers *after* this node did re-sends what it
    /// re-derives under the ids this node consumed before its own crash.
    covered_below: Vec<u64>,
    /// Per port: the ids consumed for good (processed, or committed) since
    /// the last checkpoint or the start; duplicates of them are dropped.
    /// Each save folds them into `covered_below` and clears them.
    processed: Vec<HashSet<EventId>>,
    pending: HashMap<EventId, Arc<PendingTxn>>,
    pending_by_txn: HashMap<TxnId, EventId>,
    pending_by_serial: HashMap<u64, EventId>,
    hold_queue: VecDeque<(u64, HeldOutput)>,
    /// Per-down-edge buffers of final outputs awaiting a batched send
    /// (non-speculative path). Flushed when they reach
    /// [`BATCH_MAX_EVENTS`] or when nothing is left to read, so batching
    /// never adds latency under low load.
    out_batch: Vec<Vec<Event>>,
    /// Per down-edge: re-derived outputs still to swallow (shared with the
    /// speculative send path).
    resend: Arc<Vec<Resend>>,
    /// What an attempt needs to publish, shared by every attempt.
    send_view: Arc<NodeSendView>,
    /// Approximate-recovery state (`Some` iff the config declares
    /// [`RecoveryMode::Approximate`]).
    approx: Option<ApproxState>,
    events_since_checkpoint: u64,
    /// The checkpoint taken last, while it waits for its downstreams.
    image: Option<Image>,
    /// Per down-edge: the highest position the downstream acknowledged.
    down_acked: Vec<u64>,
    eof_count: usize,
    recovering: bool,
    running: bool,
    crashed: bool,
    /// When the current backpressure / admission-control stall began
    /// (`None`: flowing normally). While set, the coordinator admits
    /// nothing and reads an input ring only for the notices its admitted
    /// inputs still await (see [`Node::reads_port`]) — data stays unread in
    /// the ring and un-admitted in `port_queues`, and the upstream
    /// saturates in turn.
    stall_since: Option<Instant>,
    /// Running count of published-but-unfinalized speculative output
    /// events across all pending transactions (updated by worker threads
    /// in `after_publish`, decremented on commit/revoke). Drives the
    /// `max_retained_spec_outputs` admission cap without walking `pending`
    /// on the hot path.
    spec_retained: Arc<AtomicI64>,
}

impl Node {
    /// Builds a fresh node (initial start or post-crash restart) and runs
    /// recovery if a checkpoint or log exists. The thread's last act is to
    /// report its exit on the seed's channel.
    pub fn start(seed: NodeSeed) -> std::thread::JoinHandle<()> {
        let exits = seed.exits.clone();
        let journal = seed.obs.journal.clone();
        std::thread::Builder::new()
            .name(format!("node-{}", seed.id))
            .spawn(move || {
                let op = seed.id;
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                    let mut node = Node::build(seed);
                    node.recover();
                    node.run()
                }));
                // A panicked coordinator is a crash the supervisor can
                // recover from, not a hung process.
                let crashed = result.unwrap_or_else(|panic| {
                    let msg = panic
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| panic.downcast_ref::<&str>().copied())
                        .unwrap_or("<non-string panic>");
                    journal.warn(
                        Some(op.index()),
                        "coordinator-panic",
                        format!("coordinator panicked: {msg}"),
                    );
                    true
                });
                if let Some(exits) = exits {
                    let _ = exits.send(Signal::Exited { op, crashed });
                }
            })
            .expect("spawn node thread")
    }

    fn build(seed: NodeSeed) -> Node {
        let stm = seed.config.speculative.then(|| StmRuntime::with_config(seed.config.stm.clone()));
        let mut registry = match &stm {
            Some(rt) => StateRegistry::speculative(rt.clone()),
            None => StateRegistry::plain(),
        };
        seed.operator.setup(&mut SetupCtx { registry: &mut registry });
        if let Some(rt) = &stm {
            // STM notifications go straight into the notice queue:
            // unbounded, but at most `max_open_speculations` transactions
            // are in flight (admission control), each with at most one
            // outstanding notification per state change.
            let inbox = seed.inbox.clone();
            rt.set_abort_sink(move |txn| inbox.post(Notice::TxnAborted(txn)));
            let inbox = seed.inbox.clone();
            rt.set_commit_sink(move |txn| inbox.post(Notice::TxnCommitted(txn)));
        }
        let pool = (seed.config.speculative && seed.config.threads > 1).then(|| {
            Arc::new(ThreadPool::new(&format!("op{}-worker", seed.id.index()), seed.config.threads))
        });
        let inputs = seed.up.len();
        let outputs = seed.down.len();
        let metrics =
            NodeMetrics::registered(&seed.obs, seed.id.index(), inputs, seed.config.speculative);
        let resend: Arc<Vec<Resend>> = Arc::new((0..outputs).map(|_| Resend::default()).collect());
        let spec_retained = Arc::new(AtomicI64::new(0));
        let approx = match seed.config.recovery {
            RecoveryMode::Approximate(bound) => {
                Some(ApproxState::registered(bound, &seed.obs, seed.id.index()))
            }
            RecoveryMode::Precise => None,
        };
        // Approximate mode trades the determinant log for the error
        // budget: bound-covered state never needs deterministic
        // re-execution (a budget refusal escalates to full replay, which
        // re-derives determinants live off the checkpointed RNG), so no
        // decision is appended and no output waits for the log.
        let decisions = seed.log.clone().filter(|_| approx.is_none()).map(|log| DecisionLog {
            log,
            inbox: seed.inbox.clone(),
            log_wait_us: metrics.log_wait_us.clone(),
            tracer: seed.obs.tracer.clone(),
            op: seed.id.index(),
            scratch: Mutex::default(),
        });
        let send_view = Arc::new(NodeSendView {
            id: seed.id,
            down: seed.down.clone(),
            resend: resend.clone(),
            decisions,
            journal: seed.obs.journal.clone(),
            spec_published: metrics.spec_published.clone(),
            resend_suppressed: metrics.resend_suppressed.clone(),
            batch_events: metrics.batch_events.clone(),
            spec_retained: spec_retained.clone(),
        });
        Node {
            id: seed.id,
            operator: seed.operator,
            config: seed.config,
            clock: seed.clock,
            inbox: seed.inbox,
            notices: VecDeque::new(),
            up: seed.up,
            down: seed.down,
            log: seed.log,
            checkpoints: seed.checkpoints,
            registry: Arc::new(registry),
            stm,
            pool,
            rng: Arc::new(Mutex::new(DetRng::seed_from(seed.rng_seed))),
            obs: seed.obs,
            metrics,
            cursors: (0..inputs).map(|_| EdgeCursor::starting_at(0)).collect(),
            port_queues: (0..inputs).map(|_| VecDeque::new()).collect(),
            parked: HashMap::new(),
            recovered: HashMap::new(),
            next_serial: 0,
            covered_below: vec![0; inputs],
            processed: vec![HashSet::new(); inputs],
            pending: HashMap::new(),
            pending_by_txn: HashMap::new(),
            pending_by_serial: HashMap::new(),
            hold_queue: VecDeque::new(),
            out_batch: (0..outputs).map(|_| Vec::new()).collect(),
            resend,
            send_view,
            approx,
            events_since_checkpoint: 0,
            image: None,
            down_acked: vec![0; outputs],
            eof_count: 0,
            recovering: seed.recovering,
            running: true,
            crashed: false,
            stall_since: None,
            spec_retained,
        }
    }

    // -----------------------------------------------------------------
    // Recovery (§2.2): restore the checkpoint, rebuild the decision tapes
    // from the stable log, size the resend suppression, rewind the input
    // rings. The paper's "ask the upstream to resend" is the last step and
    // no message: the ring is retained outside the node and read by a
    // cursor, which the node moves back itself.
    // -----------------------------------------------------------------

    fn recover(&mut self) {
        let mut from_positions: Vec<u64> = vec![0; self.up.len()];
        let mut covered_serials: u64 = 0;
        let mut covers_log = LogSeq(0);
        let mut sent_baseline: Vec<u64> = vec![0; self.down.len()];
        if let Some(store) = &self.checkpoints {
            if let Some(cp) = store.latest() {
                match self.registry.restore(&cp.state) {
                    Ok(()) => {
                        from_positions = cp.input_positions.clone();
                        if cp.inputs_covered_below.len() == self.covered_below.len() {
                            self.covered_below = cp.inputs_covered_below.clone();
                        }
                        covered_serials = cp.events_processed;
                        covers_log = cp.covers_log;
                        if cp.outputs_sent.len() == sent_baseline.len() {
                            sent_baseline = cp.outputs_sent.clone();
                        }
                        // Restoring the RNG position keeps the random
                        // stream continuous across the crash: re-executed
                        // events that never reached the log draw exactly
                        // the values the failure-free run drew.
                        if !cp.rng_state.is_empty() {
                            if let Ok(rng) = decode_from_slice::<DetRng>(&cp.rng_state) {
                                *self.rng.lock() = rng;
                            }
                        }
                    }
                    Err(e) => {
                        // Degrade instead of dying: recover from the log
                        // and full upstream replay as if no checkpoint
                        // existed.
                        self.obs.journal.warn(
                            Some(self.id.index()),
                            "checkpoint-restore-failed",
                            format!("{e}; falling back to log + full replay"),
                        );
                    }
                }
            }
        }
        self.next_serial = covered_serials;
        for (cursor, from) in self.cursors.iter_mut().zip(&from_positions) {
            *cursor = EdgeCursor::starting_at(*from);
        }
        // Rebuild the tapes of the uncovered serials from the stable log.
        if let Some(log) = &self.log {
            let entries = log.stable_entries().into_iter().filter(|(seq, _)| *seq >= covers_log);
            let records = entries
                .filter_map(|(_, bytes)| decode_from_slice::<DecisionRecord>(&bytes).ok())
                .filter(|record| record.serial >= covered_serials);
            self.recovered = recovered_tapes(records);
        }
        if self.recovering {
            // Per edge, the re-derived events and finalizes already on the
            // wire: the edge's counts minus the checkpoint's baseline (at a
            // checkpoint every event sent is final, so one baseline serves
            // both). A speculative node subtracts only from a receiver's
            // count ([`crate::plumbing::Sent::by_receiver`]).
            let excess: Vec<(u64, u64)> = self
                .down
                .iter()
                .zip(&sent_baseline)
                .map(|(edge, baseline)| {
                    if self.config.speculative && !edge.sent.by_receiver {
                        return (0, 0);
                    }
                    let over = |n: &AtomicU64| n.load(Ordering::Acquire).saturating_sub(*baseline);
                    (over(&edge.sent.events), over(&edge.sent.finals))
                })
                .collect();
            // Approximate mode first tries a stale-snapshot resume:
            // instead of re-executing the suffix (and suppressing its
            // re-sent outputs), drop the replayed inputs whose outputs
            // are already downstream, charging their lost state
            // updates to the error budget. Falls back to the precise
            // path when the budget refuses.
            let events: Vec<u64> = excess.iter().map(|(events, _)| *events).collect();
            if !self.try_approx_resume(&events, covered_serials) {
                // Replay regenerates the post-checkpoint output stream
                // in its original send order (sends are a serial-order
                // prefix), so the first `excess` regenerated events per
                // edge are byte-identical to what the edge already
                // carries. Swallow them; whoever holds them (the link's
                // retained buffer, the receiver) serves any downstream
                // replay of that range.
                for (out, (events, finals)) in excess.into_iter().enumerate() {
                    self.resend[out].events.store(events, Ordering::Relaxed);
                    self.resend[out].finals.store(finals, Ordering::Relaxed);
                    if events > 0 {
                        self.obs.journal.record(
                            Some(self.id.index()),
                            JournalKind::ResendSuppressed { edge: out as u32, count: events },
                        );
                    }
                }
            }
            // Read again what the checkpoint does not cover: every frame
            // from its position on is still in the ring (acks trim to a
            // checkpoint's positions, never past them), including what
            // arrived while the node was down. In a worker the ring is the
            // acceptor's fresh local one, numbered from the position, and
            // the reconnect handshake rewinds the sender's side instead.
            for (port, from) in from_positions.into_iter().enumerate() {
                let stands = self.inbox.inputs[port].rewind_to(from);
                self.metrics.replay_requests.incr();
                self.obs
                    .journal
                    .record(Some(self.id.index()), JournalKind::Rewind { port: port as u32, from });
                // Frontier invariant: the ring reaches back to the
                // checkpoint. Short of it, the frames in between are gone
                // and the cursor would drop everything after them while it
                // waits for them.
                if stands > from {
                    self.obs.journal.warn(
                        Some(self.id.index()),
                        "rewind-short",
                        format!(
                            "port {port}: the ring is trimmed to {stands}, past the \
                             checkpoint's position {from}; {} frame(s) cannot be replayed",
                            stands - from
                        ),
                    );
                }
                debug_assert!(stands <= from, "port {port}: rewound to {stands}, not {from}");
            }
        }
    }

    /// Attempts a stale-snapshot resume under the approximate recovery
    /// budget. `excess` holds, per output edge, how many regenerated
    /// outputs are already on the wire past the checkpoint baseline;
    /// `covered_serials` is the checkpoint's input position.
    ///
    /// The resume window is the per-edge maximum of `excess`: that many
    /// replayed inputs produced outputs that already reached downstream,
    /// so instead of re-executing them (the precise path) the node drops
    /// them, charging one lost state update each to the error budget.
    /// Returns `false` — escalate to precise checkpoint+replay — when the
    /// node is not in approximate mode or when baked loss plus this
    /// window would exceed the ε·N allowance.
    fn try_approx_resume(&mut self, excess: &[u64], covered_serials: u64) -> bool {
        let Some(approx) = &mut self.approx else { return false };
        let Some(store) = &self.checkpoints else { return false };
        // Operators are 1:1 (one output per input), so the on-wire output
        // excess equals the count of replayed inputs to drop. Edges may
        // disagree only if the crash interrupted a fan-out mid-event;
        // taking the max never re-emits a delivered output (at-most-once
        // on the divergent edge is within the approximate contract).
        let skip = excess.iter().copied().max().unwrap_or(0);
        let baked = store.approx_loss();
        let delivered = covered_serials + skip;
        let mut budget = ErrorBudget { bound: approx.bound, lost: baked, escalations: 0 };
        if budget.admit(skip, delivered) {
            approx.skip_remaining = skip;
            // The whole window is provisional: a crash before the next
            // save re-derives a superset window from the same baseline.
            approx.window_loss = skip;
            let remaining = budget.remaining(delivered);
            approx.set_gauges(baked + skip, delivered);
            self.obs.journal.record(
                Some(self.id.index()),
                JournalKind::ApproxResume { skipped: skip, lost: baked + skip, remaining },
            );
            true
        } else {
            store.note_escalation();
            approx.escalations.incr();
            approx.set_gauges(baked, delivered);
            self.obs.journal.record(
                Some(self.id.index()),
                JournalKind::ApproxEscalate {
                    lost: baked + skip,
                    allowed: approx.bound.allowed_loss(delivered),
                },
            );
            false
        }
    }

    // -----------------------------------------------------------------
    // Main loop
    // -----------------------------------------------------------------

    /// Runs until a shutdown or a simulated crash; `true` for a crash.
    fn run(&mut self) -> bool {
        while self.running {
            // Control first, and never gated: a node stalled on
            // backpressure or an admission cap still receives the acks,
            // commits and log-stability callbacks that end the stall.
            let mut worked = self.serve_control();
            if !self.running {
                break;
            }
            // The gate decides what may be read, and a stall can end
            // without any message (the consumer reading on frees its
            // window, which only signals the waker): evaluate it on every
            // pass.
            self.drain_ready_events();
            worked |= self.read_inputs();
            if !worked {
                // Adaptive flush: buffered outputs only hit the wire when
                // nothing is readable (about to sleep) or a buffer reached
                // the size threshold. Under low load that is after every
                // event, so each output goes out at once as a plain `Data`
                // message and latency is unchanged; under backlog the
                // buffers fill toward `BATCH_MAX_EVENTS`-sized frames.
                self.flush_out_batches();
                // Gauges stay current while the node sleeps.
                self.publish_gauges();
                // The one place the coordinator sleeps — never inside a
                // read: until something signals or a frame in flight falls
                // due.
                self.inbox.park(self.earliest_due());
            }
        }
        if !self.crashed {
            // A clean stop drains buffered outputs; a simulated crash
            // loses them with the rest of volatile state (recovery
            // re-derives them from replay).
            self.flush_out_batches();
            self.publish_gauges();
        }
        self.operator.terminate();
        if let Some(pool) = self.pool.take() {
            if let Ok(pool) = Arc::try_unwrap(pool) {
                pool.shutdown();
            }
        }
        self.crashed
    }

    fn publish_gauges(&self) {
        for edge in &self.down {
            edge.data_tx.publish_gauges();
        }
        let unadmitted: usize = self.port_queues.iter().map(VecDeque::len).sum();
        self.metrics.intake_depth.set(unadmitted as i64);
        self.metrics.spec_open.set(self.pending.len() as i64);
        self.metrics.spec_retained.set(self.spec_retained.load(Ordering::Relaxed).max(0));
        if let Some(stm) = &self.stm {
            let fields = stm.stats().fields();
            for ((_, value), gauge) in fields.iter().zip(&self.metrics.stm_gauges) {
                gauge.set(*value as i64);
            }
        }
    }

    // -----------------------------------------------------------------
    // Overload control: window-backed backpressure + speculation
    // admission (bounded optimism).
    // -----------------------------------------------------------------

    /// Why the node must stop pulling new data events, if it must.
    fn overload_reason(&self) -> Option<StallReason> {
        // Outputs already produced but held for log stability will land on
        // every downstream link once their records turn stable; counting
        // them against the window keeps the overshoot past it bounded by
        // one event's outputs, instead of everything admitted inside a
        // stability wait. (Event count is conservative: micro-batching
        // can coalesce them into fewer frames, never more.)
        let held: usize = self.hold_queue.iter().map(|(_, h)| h.outputs.len()).sum();
        for (out, edge) in self.down.iter().enumerate() {
            if edge.data_tx.is_saturated_with(held) {
                return Some(StallReason::Edge(out as u32));
            }
        }
        if self.config.speculative {
            let open = self.pending.len();
            let retained = self.spec_retained.load(Ordering::Relaxed).max(0) as usize;
            if open >= self.config.node.max_open_speculations
                || retained >= self.config.node.max_retained_spec_outputs
            {
                return Some(StallReason::SpecCap { open, retained });
            }
        }
        None
    }

    /// Evaluates the overload gate, entering or ending a stall episode.
    /// Returns `true` while the node must not pull data. Control-plane
    /// work (acks, commits, log callbacks) is never gated — that asymmetry
    /// is what makes the flow-control protocol deadlock-free: a stalled
    /// node still takes in what ends its stall.
    fn check_overload(&mut self) -> bool {
        match self.overload_reason() {
            Some(reason) => {
                self.enter_stall(reason);
                true
            }
            None => {
                self.exit_stall();
                false
            }
        }
    }

    fn enter_stall(&mut self, reason: StallReason) {
        if self.stall_since.is_some() {
            return; // already inside an episode
        }
        self.stall_since = Some(Instant::now());
        self.metrics.backpressure_stalls.incr();
        match reason {
            StallReason::Edge(edge) => {
                self.obs
                    .journal
                    .record(Some(self.id.index()), JournalKind::BackpressureStall { edge });
            }
            StallReason::SpecCap { open, retained } => {
                self.metrics.spec_cap_hits.incr();
                self.obs.journal.record(
                    Some(self.id.index()),
                    JournalKind::SpecCapHit { open: open as u32, retained: retained as u64 },
                );
            }
        }
    }

    fn exit_stall(&mut self) {
        let Some(since) = self.stall_since.take() else { return };
        let stalled = since.elapsed();
        self.metrics.backpressure_stall_us.record_duration(stalled);
        self.obs.journal.record(
            Some(self.id.index()),
            JournalKind::BackpressureResume { stall_us: stalled.as_micros() as u64 },
        );
        self.obs.tracer.record_backpressure(self.id.index(), stalled.as_micros() as u64);
    }

    /// Handles every queued notice, then every readable downstream
    /// control frame, acknowledging what it read; `true` when there was
    /// any.
    fn serve_control(&mut self) -> bool {
        let mut notices = std::mem::take(&mut self.notices);
        self.inbox.take_notices(&mut notices);
        let mut worked = !notices.is_empty();
        for notice in notices.drain(..) {
            self.handle_notice(notice);
        }
        self.notices = notices;
        for out in 0..self.inbox.ctrls.len() {
            let mut handled = None;
            while let Ok(Some((seq, ctrl))) = self.inbox.ctrls[out].try_recv() {
                self.handle_downstream(out as u32, ctrl);
                handled = Some(seq);
            }
            if let Some(seq) = handled {
                // Handled: nobody re-reads a control link.
                self.inbox.ctrls[out].ack_upto(seq + 1);
                worked = true;
            }
        }
        worked
    }

    /// Reads the input rings by cursor, admitting after every frame so
    /// the order of processing stays a function of the order of frames; at
    /// most [`BATCH_MAX_EVENTS`] frames per port, then control is looked at
    /// again. `true` when anything was read.
    ///
    /// A stalled node admits nothing, and what it does not read is what
    /// fills the window and stops its upstream. It must not stop reading
    /// altogether, though: the `Finalize` (or `Revoke`) that lets an open
    /// transaction commit — and so ends a stall on the speculation caps,
    /// here or downstream — travels on the same ring, behind data. So a
    /// stalled node keeps reading a port exactly while an input it already
    /// admitted from there still awaits that notice ([`Self::reads_port`]);
    /// events read on the way wait un-admitted in `port_queues`. The notice
    /// is at most the upstream's own speculation caps behind, which bounds
    /// the read-ahead by configuration; a node whose admitted inputs are
    /// all final (fed by a source, say) reads nothing.
    fn read_inputs(&mut self) -> bool {
        let mut worked = false;
        for port in 0..self.inbox.inputs.len() {
            for _ in 0..BATCH_MAX_EVENTS {
                if !self.reads_port(port) {
                    break;
                }
                let Ok(Some((link_seq, msg))) = self.inbox.inputs[port].try_recv() else { break };
                worked = true;
                if self.cursors[port].accept(link_seq, &msg) {
                    self.handle_upstream(port as u32, msg);
                }
                self.drain_ready_events();
            }
        }
        worked
    }

    /// Whether the node reads input ring `port` right now: always while it
    /// flows; stalled, only while an input admitted from that port is
    /// still speculative — open and unfinalized, or parked.
    fn reads_port(&self, port: usize) -> bool {
        self.stall_since.is_none()
            || self.parked.values().any(|(p, _)| *p as usize == port)
            || self.pending.values().any(|p| p.port as usize == port && p.input.lock().speculative)
    }

    /// When the earliest frame in flight on a ring the node reads falls
    /// due, if any is.
    fn earliest_due(&self) -> Option<Instant> {
        let inputs =
            self.inbox.inputs.iter().enumerate().filter(|(port, _)| self.reads_port(*port));
        let rings = inputs
            .map(|(_, rx)| rx.next_due())
            .chain(self.inbox.ctrls.iter().map(|rx| rx.next_due()));
        rings.flatten().min()
    }

    fn handle_notice(&mut self, notice: Notice) {
        match notice {
            Notice::Downstream { out, ctrl } => self.handle_downstream(out, ctrl),
            Notice::TxnCommitted(txn) => self.on_txn_committed(txn),
            Notice::TxnAborted(txn) => self.on_txn_aborted(txn),
            Notice::LogStable { serial } => self.on_log_stable(serial),
            Notice::Command(NodeCommand::Shutdown) => {
                self.running = false;
            }
            Notice::Command(NodeCommand::Crash) => {
                // Simulated crash: just stop; all volatile state dies with
                // this object. Links, log and checkpoints survive outside.
                self.running = false;
                self.crashed = true;
            }
        }
    }

    fn handle_upstream(&mut self, port: u32, msg: Message) {
        match msg {
            Message::Data(event) => {
                self.port_queues[port as usize].push_back((event, Instant::now()));
            }
            Message::DataBatch(events) => {
                let now = Instant::now();
                self.port_queues[port as usize].extend(events.into_iter().map(|e| (e, now)));
            }
            Message::Control(Control::Finalize { id, version }) => {
                self.on_input_finalized(port, id, version)
            }
            Message::Control(Control::Revoke { id }) => self.on_input_revoked(port, id),
            Message::Control(Control::Eof) => {
                self.eof_count += 1;
                if self.eof_count >= self.up.len() {
                    // Buffered data must precede EOF on the wire.
                    self.flush_out_batches();
                    for edge in &self.down {
                        edge.data_tx.push(Message::Control(Control::Eof));
                    }
                }
            }
            Message::Control(other) => {
                debug_assert!(false, "unexpected upstream control {other}");
            }
        }
    }

    fn handle_downstream(&mut self, out: u32, ctrl: Control) {
        match ctrl {
            Control::Ack { upto } => {
                self.down[out as usize].data_tx.ack_upto(upto);
                let acked = &mut self.down_acked[out as usize];
                *acked = (*acked).max(upto);
                self.save_image();
            }
            other => debug_assert!(false, "unexpected downstream control {other}"),
        }
    }

    /// Pulls queued events into processing: what the log recorded, in the
    /// logged order; live, in arrival order.
    fn drain_ready_events(&mut self) {
        loop {
            // Overload gate first: while a downstream edge is saturated or
            // a speculation cap is hit, admit nothing — queued events wait
            // in `port_queues` and unread in the input rings, and the
            // node paces itself by downstream drain / log stability
            // instead of speculating further (it never aborts admitted
            // work). Applies to replay identically: replayed input obeys
            // the same window as live input.
            if self.check_overload() {
                return;
            }
            // The event at `next_serial` comes from the port its recovered
            // tape names (a single-input node logs no choice: port 0) and
            // waits until that port has it. Without a tape — live, or the
            // serial left nothing in the log — take from any non-empty
            // queue, lowest port first (the *choice* is logged, so any
            // policy is legal; port order keeps tests deterministic). For
            // a serial recovery lost that is only unambiguous on a
            // single-input operator.
            let logged_port =
                self.recovered.get(&self.next_serial).map(|tape| match tape.first() {
                    Some(Determinant::InputChoice(port)) => *port as usize,
                    _ => 0,
                });
            let port = match logged_port {
                Some(port) => port,
                None => match self.port_queues.iter().position(|q| !q.is_empty()) {
                    Some(port) => port,
                    None => return,
                },
            };
            let Some((event, enq)) = self.port_queues[port].pop_front() else { return };
            let queue_wait = enq.elapsed();
            self.metrics.queue_wait_us.record_duration(queue_wait);
            self.accept_event(port as u32, event, queue_wait);
        }
    }

    /// Routes one data event into processing, handling duplicates,
    /// revisions, and non-speculative parking.
    fn accept_event(&mut self, port: u32, event: Event, queue_wait: Duration) {
        if let Some(c) = self.metrics.events_in.get(port as usize) {
            c.incr();
        }
        // Revision of an in-flight speculative input?
        if let Some(pending) = self.pending.get(&event.id).cloned() {
            let current = pending.input.lock().version;
            if event.version > current {
                self.revise_pending(&pending, event);
            }
            return; // same or older version: duplicate, silently dropped
        }
        // Duplicate of an already processed event (recovery replay, or a
        // recovered sender re-sending what it re-derives): a finalized
        // event can never legally be revised, so drop outright.
        if event.id.seq < self.covered_below[port as usize]
            || self.processed[port as usize].contains(&event.id)
        {
            return;
        }
        if !self.config.speculative {
            if event.speculative {
                // A non-speculative operator only consumes final events.
                self.parked.insert(event.id, (port, event));
                return;
            }
            self.process_nonspec(port, event, queue_wait);
        } else {
            self.process_spec(port, event, queue_wait);
        }
    }

    /// The decision tape of the event admitted at `serial` from `port`:
    /// what recovery read from the log for it, and on a multi-input node
    /// the merge's choice as entry 0 (§1's union-order rule) — read back
    /// if recovered, taken and logged now otherwise. The live generator
    /// steps over each recovered draw here, once per serial however often
    /// the event then executes, so a draw past the recovered prefix, and
    /// every later event's, continues the stream of the run that crashed.
    fn open_tape(&mut self, serial: u64, port: u32, traced: bool) -> Tape {
        let recovered = self.recovered.remove(&serial).unwrap_or_default();
        let draws = recovered.iter().filter(|d| matches!(d, Determinant::Random(_))).count();
        if draws > 0 {
            let mut rng = self.rng.lock();
            for _ in 0..draws {
                let _ = rng.next_u64();
            }
        }
        let tape = Tape::new(serial, traced, recovered);
        if self.up.len() > 1 {
            let log = self.send_view.decisions.as_ref();
            tape.decide(0, log, || Determinant::InputChoice(port));
        }
        tape
    }

    /// Admits `event` from `port` into processing: the next serial, its
    /// trace span and journal record, its decision tape.
    fn admit(&mut self, port: u32, event: &Event, queue_wait: Duration) -> (u64, Tape) {
        let serial = self.next_serial;
        self.next_serial += 1;
        if let Some(ctx) = event.trace {
            self.obs.tracer.begin_span(
                ctx.id,
                ctx.parent,
                self.id.index(),
                serial,
                queue_wait.as_micros() as u64,
            );
        }
        self.obs.journal.record_traced(
            Some(self.id.index()),
            event.trace.map(|c| c.id),
            JournalKind::Ingest { serial, port },
        );
        let tape = self.open_tape(serial, port, event.trace.is_some());
        (serial, tape)
    }

    /// The input `id` from `port` is consumed for good — processed, or its
    /// transaction committed: a duplicate is dropped from now on, and the
    /// next checkpoint covers it.
    fn note_consumed(&mut self, port: u32, id: EventId) {
        self.processed[port as usize].insert(id);
        self.events_since_checkpoint += 1;
    }

    // -----------------------------------------------------------------
    // Non-speculative path
    // -----------------------------------------------------------------

    fn process_nonspec(&mut self, port: u32, event: Event, queue_wait: Duration) {
        if let Some(approx) = &mut self.approx {
            if approx.skip_remaining > 0 {
                // Approximate resume window: this replayed input's output
                // is already on the wire downstream. Consume its serial
                // without running the operator so later output ids stay
                // aligned with the fault-free run; its dropped state
                // update is the loss the budget charged at resume.
                approx.skip_remaining -= 1;
                self.next_serial += 1;
                self.note_consumed(port, event.id);
                return;
            }
        }
        let (serial, tape) = self.admit(port, &event, queue_wait);
        let trace_id = event.trace.map(|c| c.id);
        let mut ctx = OpCtx {
            registry: &self.registry,
            access: StateAccess::Plain,
            outputs: Vec::new(),
            tape: &tape,
            drawn: usize::from(self.up.len() > 1),
            log: self.send_view.decisions.as_ref(),
            rng: &self.rng,
            clock: &self.clock,
            input_port: PortId(port),
            input_ts: event.timestamp,
        };
        let process_start = Instant::now();
        let process_result = self.operator.process(&mut ctx, &event);
        let process_took = process_start.elapsed();
        self.metrics.process_us.record_duration(process_took);
        if event.trace.is_some() {
            self.obs.tracer.record_process(
                self.id.index(),
                serial,
                process_took.as_micros() as u64,
            );
        }
        if process_result.is_err() {
            // StmAbort cannot legitimately occur outside speculative mode;
            // treat it as an operator bug and drop the event's outputs
            // rather than killing the coordinator.
            self.obs.journal.warn(
                Some(self.id.index()),
                "plain-mode-abort",
                format!("process aborted on {}; outputs dropped", event.id),
            );
        }
        let child = event.trace.map(|c| c.child(span_key(self.id.index(), serial)));
        let outputs =
            assign_output_ids(self.id, serial, event.timestamp, &ctx.outputs, false, child);
        drop(ctx);

        self.note_consumed(port, event.id);

        // Hold the outputs until every decision the event took is stable
        // (§2.4) — each record has been on its way since it was taken.
        // Nothing taken live (deterministic, or all of it read back from
        // the log) or stable already: forward now, unless earlier outputs
        // are still held, which go first.
        if self.hold_queue.is_empty() && tape.is_stable() {
            if trace_id.is_some() {
                self.obs.tracer.record_commit(self.id.index(), serial, 0);
            }
            self.send_outputs_final(outputs);
        } else {
            self.hold_queue.push_back((serial, HeldOutput { tape, outputs, trace: trace_id }));
        }
        self.maybe_checkpoint();
    }

    fn on_log_stable(&mut self, serial: u64) {
        let trace_id = self
            .pending_by_serial
            .get(&serial)
            .and_then(|id| self.pending.get(id))
            .and_then(|p| p.trace.map(|c| c.id))
            .or_else(|| {
                self.hold_queue.iter().find(|(s, _)| *s == serial).and_then(|(_, h)| h.trace)
            });
        self.obs.journal.record_traced(
            Some(self.id.index()),
            trace_id,
            JournalKind::LogStable { serial },
        );
        // Non-speculative mode: flush the stable prefix in serial order
        // (keeps FIFO downstream).
        while let Some((_s, held)) = self.hold_queue.front() {
            if !held.tape.is_stable() {
                break;
            }
            let (s, held) = self.hold_queue.pop_front().expect("nonempty");
            if held.trace.is_some() {
                // A held output turning loose is the non-speculative commit
                // point: log stable, outputs final downstream.
                self.obs.tracer.record_commit(self.id.index(), s, 0);
            }
            self.send_outputs_final(held.outputs);
        }
        // Speculative mode: a stable log is one leg of the commit gate.
        if let Some(id) = self.pending_by_serial.get(&serial).cloned() {
            if let Some(pending) = self.pending.get(&id).cloned() {
                maybe_authorize_pending(&pending);
            }
        }
        // A drained hold queue may unblock a deferred checkpoint.
        self.maybe_checkpoint();
    }

    /// Stages final outputs for sending. Events accumulate in per-edge
    /// buffers (payloads are shared via their `Arc`, not deep-copied) and
    /// go out as one `DataBatch` frame when a buffer reaches
    /// [`BATCH_MAX_EVENTS`] or the coordinator runs out of readable work.
    fn send_outputs_final(&mut self, outputs: Vec<(Event, Option<u32>)>) {
        for (event, target) in outputs {
            for out in 0..self.down.len() {
                if routes_to(target, out) {
                    if swallow(&self.resend[out].events) {
                        self.metrics.resend_suppressed.incr();
                        continue;
                    }
                    self.out_batch[out].push(event.clone());
                    if self.out_batch[out].len() >= BATCH_MAX_EVENTS {
                        self.flush_edge(out);
                    }
                }
            }
        }
    }

    /// Sends edge `out`'s buffered outputs as one frame.
    fn flush_edge(&mut self, out: usize) {
        let Some(msg) = data_frame(&mut self.out_batch[out], &self.metrics.batch_events) else {
            return;
        };
        self.down[out].sent.events.fetch_add(msg.event_count() as u64, Ordering::AcqRel);
        self.down[out].data_tx.push(msg);
    }

    fn flush_out_batches(&mut self) {
        for out in 0..self.down.len() {
            self.flush_edge(out);
        }
    }

    // -----------------------------------------------------------------
    // Speculative path
    // -----------------------------------------------------------------

    fn process_spec(&mut self, port: u32, event: Event, queue_wait: Duration) {
        let (serial, tape) = self.admit(port, &event, queue_wait);
        let stm = self.stm.as_ref().expect("speculative node has an stm");
        let handle = stm.begin(Serial(serial));
        let pending = Arc::new(PendingTxn {
            serial,
            input_id: event.id,
            port,
            input_ts: event.timestamp,
            started: Instant::now(),
            rollbacks: std::sync::atomic::AtomicU64::new(0),
            input: Mutex::new(InputView {
                version: event.version,
                payload: event.payload.clone(),
                speculative: event.speculative,
            }),
            handle: handle.clone(),
            attempt: Mutex::new(None),
            applied_gen: std::sync::atomic::AtomicU64::new(0),
            tape,
            sent: Mutex::new(Vec::new()),
            finalized: AtomicBool::new(false),
            attempts_pending: std::sync::atomic::AtomicU64::new(0),
            trace: event.trace,
        });
        self.pending.insert(event.id, pending.clone());
        self.pending_by_txn.insert(handle.id(), event.id);
        self.pending_by_serial.insert(serial, event.id);
        self.spawn_attempt(pending);
    }

    /// Runs (or re-runs) the processing transaction for `pending`.
    fn spawn_attempt(&self, pending: Arc<PendingTxn>) {
        pending.attempts_pending.fetch_add(1, Ordering::SeqCst);
        let stm = self.stm.as_ref().expect("speculative node").clone();
        let operator = self.operator.clone();
        let registry = self.registry.clone();
        let rng = self.rng.clone();
        let clock = self.clock.clone();
        let first_draw = usize::from(self.up.len() > 1);
        let process_us = self.metrics.process_us.clone();
        let attempt_tracer = pending.trace.is_some().then(|| self.obs.tracer.clone());
        let op_index = self.id.index();
        let node_view = self.send_view.clone();
        let run = move || {
            let body = |txn: &mut streammine_stm::Txn<'_>| -> Result<(), StmAbort> {
                let view = pending.input.lock().clone();
                let event = Event {
                    id: pending.input_id,
                    version: view.version,
                    timestamp: pending.input_ts,
                    speculative: view.speculative,
                    payload: view.payload,
                    trace: pending.trace,
                };
                let generation = txn.generation();
                let mut ctx = OpCtx {
                    registry: &registry,
                    access: StateAccess::Txn(txn),
                    outputs: Vec::new(),
                    tape: &pending.tape,
                    drawn: first_draw,
                    log: node_view.decisions.as_ref(),
                    rng: &rng,
                    clock: &clock,
                    input_port: PortId(pending.port),
                    input_ts: pending.input_ts,
                };
                let process_start = Instant::now();
                let process_result = operator.process(&mut ctx, &event);
                let process_took = process_start.elapsed();
                process_us.record_duration(process_took);
                if let Some(tracer) = &attempt_tracer {
                    tracer.record_process(
                        op_index,
                        pending.serial,
                        process_took.as_micros() as u64,
                    );
                }
                process_result?;
                // The generation tag orders diff application across
                // concurrently finishing attempts.
                *pending.attempt.lock() = Some((generation, ctx.outputs));
                Ok(())
            };
            if stm.reexecute(&pending.handle, body).is_ok() {
                node_view.after_publish(&pending);
            }
            // Only after the attempt's outputs are fully on the wire may
            // the commit gate re-open.
            pending.attempts_pending.fetch_sub(1, Ordering::SeqCst);
            maybe_authorize_pending(&pending);
        };
        match &self.pool {
            Some(pool) => pool.execute(run),
            None => run(),
        }
    }

    fn revise_pending(&mut self, pending: &Arc<PendingTxn>, event: Event) {
        // The input was replaced by a newer speculative version (§3.1,
        // E1′ → E1″): revoke and re-execute with the new content.
        {
            let mut view = pending.input.lock();
            view.version = event.version;
            view.payload = event.payload;
            view.speculative = event.speculative;
        }
        pending.handle.revoke();
        self.spawn_attempt(pending.clone());
    }

    fn on_input_finalized(&mut self, port: u32, id: EventId, version: u32) {
        if let Some(pending) = self.pending.get(&id).cloned() {
            let matches = {
                let mut view = pending.input.lock();
                if view.version == version {
                    view.speculative = false;
                    true
                } else {
                    false
                }
            };
            if matches {
                maybe_authorize_pending(&pending);
                return;
            }
        }
        let queue = &mut self.port_queues[port as usize];
        let is_it = |e: &Event| e.id == id && e.version == version;
        if self.config.speculative {
            // Read but not admitted yet (the node was stalled, or is
            // replaying in logged order): final when its turn comes.
            if let Some((event, _)) = queue.iter_mut().find(|(e, _)| is_it(e)) {
                event.speculative = false;
            }
            return;
        }
        // A non-speculative operator parks a speculative input when its
        // turn comes and processes it when the finalize arrives — behind
        // everything read before this notice. Parked already or still
        // waiting its turn, the event joins the back of the queue as
        // final: the order of processing is that of the frames, whether or
        // not the node was stalled in between.
        let parked = self.parked.remove(&id).map(|(_, event)| event).filter(is_it);
        let at = queue.iter().position(|(e, _)| is_it(e));
        let Some(mut event) = parked.or_else(|| at.and_then(|at| queue.remove(at)).map(|(e, _)| e))
        else {
            return;
        };
        queue.retain(|(e, _)| e.id != id); // versions it superseded
        event.speculative = false;
        queue.push_back((event, Instant::now()));
    }

    fn on_input_revoked(&mut self, port: u32, id: EventId) {
        self.parked.remove(&id);
        self.port_queues[port as usize].retain(|(e, _)| e.id != id);
        if let Some(pending) = self.pending.remove(&id) {
            self.pending_by_txn.remove(&pending.handle.id());
            self.pending_by_serial.remove(&pending.serial);
            // Revoke our outputs downstream, then drop the transaction.
            {
                let sent = pending.sent.lock();
                self.spec_retained.fetch_sub(sent.len() as i64, Ordering::Relaxed);
                for (event, target) in sent.iter() {
                    for (out, edge) in self.down.iter().enumerate() {
                        if routes_to(*target, out) {
                            edge.data_tx.push(Message::Control(Control::Revoke { id: event.id }));
                        }
                    }
                }
            }
            pending.handle.discard();
        }
    }

    fn on_txn_committed(&mut self, txn: TxnId) {
        let Some(id) = self.pending_by_txn.get(&txn).cloned() else { return };
        let Some(pending) = self.pending.get(&id).cloned() else { return };
        // Upgrade all sent outputs to final downstream. Holding the sent
        // lock while sending orders these finalizes after every attempt's
        // output diff and blocks any straggler diff from revising or
        // revoking a finalized output afterwards (it observes `finalized`
        // under the same lock).
        {
            let sent = pending.sent.lock();
            pending.finalized.store(true, Ordering::Release);
            // Finalized outputs stop counting against the retained-
            // speculation admission cap.
            self.spec_retained.fetch_sub(sent.len() as i64, Ordering::Relaxed);
            for (event, target) in sent.iter() {
                if event.speculative {
                    for (out, edge) in self.down.iter().enumerate() {
                        if routes_to(*target, out) && !swallow(&self.resend[out].finals) {
                            edge.sent.finals.fetch_add(1, Ordering::AcqRel);
                            edge.data_tx.push(Message::Control(Control::Finalize {
                                id: event.id,
                                version: event.version,
                            }));
                        }
                    }
                }
            }
        }
        self.metrics.spec_finalized.incr();
        let gate = pending.started.elapsed();
        self.metrics.commit_gate_us.record_duration(gate);
        if pending.trace.is_some() {
            self.obs.tracer.record_commit(self.id.index(), pending.serial, gate.as_micros() as u64);
        }
        self.obs.journal.record_traced(
            Some(self.id.index()),
            pending.trace.map(|c| c.id),
            JournalKind::Commit { serial: pending.serial },
        );
        self.note_consumed(pending.port, id);
        self.pending.remove(&id);
        self.pending_by_txn.remove(&txn);
        self.pending_by_serial.remove(&pending.serial);
        self.maybe_checkpoint();
    }

    fn on_txn_aborted(&mut self, txn: TxnId) {
        let Some(id) = self.pending_by_txn.get(&txn).cloned() else { return };
        let Some(pending) = self.pending.get(&id).cloned() else { return };
        self.metrics.spec_rollbacks.incr();
        let depth = pending.rollbacks.fetch_add(1, Ordering::Relaxed) + 1;
        if pending.trace.is_some() {
            // Attribute the cascade to its originating determinant (the
            // deepest still-uncommitted ancestor span).
            self.obs.tracer.record_rollback(self.id.index(), pending.serial);
        }
        self.obs.journal.record_traced(
            Some(self.id.index()),
            pending.trace.map(|c| c.id),
            JournalKind::Rollback { serial: pending.serial, cascade_depth: depth as u32 },
        );
        // Cascade abort: re-execute the event (§3: rollback + re-execution).
        self.spawn_attempt(pending);
    }

    // -----------------------------------------------------------------
    // Checkpointing
    // -----------------------------------------------------------------

    fn maybe_checkpoint(&mut self) {
        let Some(interval) = self.config.checkpoint_every else { return };
        if self.events_since_checkpoint < interval {
            return;
        }
        // Never save mid-resume-window: the save would pin mid-window
        // input positions against pre-crash output counters, corrupting
        // the skip computation of any later crash. The window's loss is
        // baked into the durable budget only at the first save after the
        // window drains — a crash before that re-derives a superset
        // window from the same baseline, so baking earlier would
        // double-charge.
        if self.approx.as_ref().is_some_and(|a| a.skip_remaining > 0) {
            return;
        }
        // A checkpoint may only cover fully settled work: no in-flight
        // transactions, no outputs still held for log stability, no parked
        // speculative inputs. Otherwise the covered events' effects would
        // be lost in a crash while replay skips them. Port queues must be
        // empty too: a partially consumed DataBatch shares one link
        // sequence across its events, so a mid-batch position would make
        // replay re-deliver (and re-serialize) its already-processed
        // prefix under fresh serials.
        if !self.pending.is_empty()
            || !self.hold_queue.is_empty()
            || !self.parked.is_empty()
            || self.port_queues.iter().any(|q| !q.is_empty())
        {
            return; // try again once in-flight work settles
        }
        // One image waits for its downstreams at a time.
        if self.checkpoints.is_none() || self.image.is_some() {
            return;
        }
        // Outputs still buffered for batching are volatile; put them on
        // the (replay-retaining) links before the covering events become
        // unreplayable.
        self.flush_out_batches();
        // What was consumed since the last save becomes covered. Nothing is
        // pending, parked or queued here, so per port that is an id prefix.
        for (covered, consumed) in self.covered_below.iter_mut().zip(&mut self.processed) {
            let top = consumed.drain().map(|id| id.seq + 1).max();
            *covered = top.map_or(*covered, |top| top.max(*covered));
        }
        self.image = Some(Image {
            covers_log: LogSeq(self.log.as_ref().map(|l| l.appended()).unwrap_or(0)),
            events_processed: self.next_serial,
            // The link seq each upstream must replay from. Every frame read
            // is fully processed (the queues are empty), so that is the
            // cursor's delivery position.
            input_positions: self.cursors.iter().map(EdgeCursor::next_seq).collect(),
            inputs_covered_below: self.covered_below.clone(),
            // With the hold queue drained and batches flushed, the send
            // counters cover exactly the outputs of the checkpointed
            // prefix — the baseline recovery subtracts to size its resend
            // suppression.
            outputs_sent: self.down.iter().map(|e| e.sent.events.load(Ordering::Acquire)).collect(),
            state: self.registry.snapshot(),
            // The serialized RNG goes into the checkpoint so the random
            // stream stays continuous across a crash (see `recover`).
            rng_state: encode_to_vec(&*self.rng.lock()),
            // A ring told its counts by the receiver lives in this process
            // and dies with it, and a replacement re-derives only the
            // outputs past the image's counts: the image waits until the
            // receiver acknowledges every output it counts. Its own
            // checkpoint acks them, so a crash of the receiver cannot lose
            // them either.
            outputs_end: self
                .down
                .iter()
                .map(|e| if e.sent.by_receiver { e.data_tx.sent() } else { 0 })
                .collect(),
        });
        self.events_since_checkpoint = 0;
        self.save_image();
    }

    /// Saves the waiting image once every downstream has acknowledged the
    /// outputs it counts, then acks the upstreams down to its positions.
    fn save_image(&mut self) {
        let acked = &self.down_acked;
        let Some(image) = self
            .image
            .take_if(|image| image.outputs_end.iter().zip(acked).all(|(end, acked)| acked >= end))
        else {
            return;
        };
        let Some(store) = &self.checkpoints else { return };
        let covers_log = image.covers_log;
        let positions = image.input_positions.clone();
        let saved = store.save(
            covers_log,
            image.events_processed,
            image.input_positions,
            image.inputs_covered_below,
            image.outputs_sent,
            image.state,
            image.rng_state,
        );
        // An image that missed its file (the store warned) is not one a
        // replacement can resume from: nothing is acked on its strength.
        let Ok(cp) = saved else { return };
        self.obs.journal.record(
            Some(self.id.index()),
            JournalKind::CheckpointSaved { id: cp.id, covers_log: covers_log.0 },
        );
        // The save made the stale lineage the only lineage: the resume
        // window's provisional loss is now permanent. Bake it into the
        // store's durable counter so later recoveries charge against it.
        if let Some(approx) = &mut self.approx {
            if approx.window_loss > 0 {
                store.add_approx_loss(approx.window_loss);
                approx.window_loss = 0;
            }
            approx.set_gauges(store.approx_loss(), self.next_serial);
        }
        if let Some(log) = &self.log {
            log.truncate_below(covers_log);
        }
        for (port, ctrl_tx) in self.up.iter().enumerate() {
            ctrl_tx.push(Control::Ack { upto: positions[port] });
        }
    }
}

/// The subset of node context an execution needs off the coordinator:
/// where its live decisions are logged, and — after a transaction
/// publishes — what it takes to assign output ids and send them.
struct NodeSendView {
    id: OperatorId,
    down: Vec<DownEdge>,
    resend: Arc<Vec<Resend>>,
    /// `None`: the node logs nothing (no log configured, or approximate
    /// recovery).
    decisions: Option<DecisionLog>,
    journal: Arc<Journal>,
    spec_published: Counter,
    resend_suppressed: Counter,
    batch_events: Histogram,
    /// Shared retained-speculative-output count (admission control input).
    spec_retained: Arc<AtomicI64>,
}

impl NodeSendView {
    fn after_publish(&self, pending: &Arc<PendingTxn>) {
        let Some((generation, outputs)) = pending.attempt.lock().take() else { return };
        // First emissions are always speculative: even with final inputs, a
        // stable-by-construction log and no *observed* dependencies, an
        // earlier-serial transaction's re-execution can still invalidate
        // this one before it commits (its conflict may not exist yet).
        // Finality is only ever granted by the commit path, which under
        // the configured commit order is precisely when nothing can change
        // anymore. For gate-ready transactions the commit — and thus the
        // finalize — follows within microseconds.
        let child = pending.trace.map(|c| c.child(span_key(self.id.index(), pending.serial)));
        let new_events =
            assign_output_ids(self.id, pending.serial, pending.input_ts, &outputs, true, child);

        // Diff against previously sent outputs (re-execution produces a
        // revision; identical payloads need no resend).
        {
            let mut sent = pending.sent.lock();
            if pending.finalized.load(Ordering::Acquire) {
                // The transaction committed and its outputs were finalized;
                // a straggling attempt must not touch the wire anymore.
                return;
            }
            // Diffs must apply in generation order: a stale attempt's diff
            // running after a newer one's would resurrect dead outputs.
            if generation < pending.applied_gen.load(Ordering::Acquire) {
                return;
            }
            pending.applied_gen.store(generation, Ordering::Release);
            let sent_before = sent.len();
            let mut to_send: Vec<(Message, Option<u32>)> = Vec::new();
            for (k, (new_ev, target)) in new_events.iter().enumerate() {
                match sent.get(k) {
                    None => {
                        sent.push((new_ev.clone(), *target));
                        to_send.push((Message::Data(new_ev.clone()), *target));
                    }
                    Some((old, old_target))
                        if old.payload == new_ev.payload && old_target == target => {}
                    Some((old, old_target)) => {
                        // Content or routing changed: revoke on the old
                        // route if the route moved, then send the revision.
                        if old_target != target {
                            to_send.push((
                                Message::Control(Control::Revoke { id: old.id }),
                                *old_target,
                            ));
                        }
                        let revised = old.reissue(new_ev.payload.clone());
                        sent[k] = (revised.clone(), *target);
                        to_send.push((Message::Data(revised), *target));
                    }
                }
            }
            // Outputs that disappeared in the re-execution are revoked.
            while sent.len() > new_events.len() {
                let (gone, target) = sent.pop().expect("nonempty");
                to_send.push((Message::Control(Control::Revoke { id: gone.id }), target));
            }
            // Keep the retained-speculative-output count current for the
            // admission gate (revisions replace in place: no change).
            self.spec_retained.fetch_add(sent.len() as i64 - sent_before as i64, Ordering::Relaxed);
            // Route the diff to each edge, coalescing consecutive data
            // messages into one `DataBatch` frame per edge. Control
            // messages (revokes) act as barriers, so relative data/control
            // order on each link is exactly what unbatched sending yields.
            let mut published = 0u64;
            for (out, edge) in self.down.iter().enumerate() {
                let mut run: Vec<Event> = Vec::new();
                let flush = |run: &mut Vec<Event>| {
                    if let Some(frame) = data_frame(run, &self.batch_events) {
                        edge.data_tx.push(frame);
                    }
                };
                let mut sent_here = 0u64;
                for (msg, target) in &to_send {
                    if !routes_to(*target, out) {
                        continue;
                    }
                    match msg {
                        // Re-derived and on the wire already: it stays in
                        // `sent` (its finalize is still owed) and off the
                        // edge.
                        Message::Data(_) if swallow(&self.resend[out].events) => {
                            self.resend_suppressed.incr();
                        }
                        Message::Data(e) => {
                            run.push(e.clone());
                            sent_here += 1;
                        }
                        other => {
                            flush(&mut run);
                            edge.data_tx.push(other.clone());
                        }
                    }
                }
                flush(&mut run);
                edge.sent.events.fetch_add(sent_here, Ordering::AcqRel);
                published += sent_here;
            }
            if published > 0 {
                self.spec_published.add(published);
                self.journal.record_traced(
                    Some(self.id.index()),
                    pending.trace.map(|c| c.id),
                    JournalKind::SpecPublish { serial: pending.serial, outputs: published as u32 },
                );
            }
        }
    }
}

/// Empties `events` into the frame that carries them, counted in
/// `batch_events`: none for no events, plain `Data` for a lone one
/// (identical wire behavior to unbatched operation), a `DataBatch`
/// otherwise.
fn data_frame(events: &mut Vec<Event>, batch_events: &Histogram) -> Option<Message> {
    let msg = match events.len() {
        0 => return None,
        // Pop the lone event and keep the buffer (and its capacity); only
        // the multi-event frame has to hand the Vec itself over the wire.
        1 => Message::Data(events.pop().expect("len checked")),
        _ => Message::DataBatch(std::mem::take(events)),
    };
    batch_events.record(msg.event_count() as u64);
    Some(msg)
}

/// Opens the commit gate when (and only when) every condition holds: no
/// attempt is mid-flight (its outputs must hit the wire before any
/// finalize can, and it may still take decisions), every decision on the
/// tape is stable, and the input event is final.
fn maybe_authorize_pending(pending: &Arc<PendingTxn>) {
    if pending.attempts_pending.load(Ordering::SeqCst) != 0 {
        return;
    }
    if pending.tape.is_stable() && !pending.input.lock().speculative {
        pending.handle.authorize();
    }
}

/// Deterministically derives output event ids from the input serial: the
/// k-th output of the event at `serial` is `op#(serial << 16 | k)`, which
/// replays to the identical id after recovery.
fn assign_output_ids(
    op: OperatorId,
    serial: u64,
    ts: u64,
    payloads: &[(Option<u32>, Value)],
    speculative: bool,
    trace: Option<TraceCtx>,
) -> Vec<(Event, Option<u32>)> {
    assert!(
        (payloads.len() as u64) < MAX_OUTPUTS_PER_EVENT,
        "operator emitted too many outputs for one event"
    );
    payloads
        .iter()
        .enumerate()
        .map(|(k, (target, p))| {
            (
                Event {
                    id: EventId::new(op, (serial << 16) | k as u64),
                    version: 0,
                    timestamp: ts,
                    speculative,
                    payload: p.clone(),
                    trace,
                },
                *target,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LoggingConfig, NodeConfig};
    use streammine_common::clock::{shared, SystemClock};
    use streammine_net::{link, LinkConfig, LinkReceiver};

    struct Relay;
    impl Operator for Relay {
        fn process(&self, ctx: &mut OpCtx<'_, '_>, event: &Event) -> Result<(), StmAbort> {
            ctx.emit(event.payload.clone());
            Ok(())
        }
    }

    /// One relay node on hand-held rings: what a graph wires around a
    /// coordinator, with every end in the test's hands.
    struct Rig {
        /// Into the node's one input port.
        input: LinkSender<Message>,
        /// The node's one output, sender side (retention, window).
        out_tx: LinkSender<Message>,
        /// The node's one output, as its downstream reads it.
        out_rx: LinkReceiver<Message>,
        /// The downstream's control back to the node.
        out_ctrl: LinkSender<Control>,
        inbox: Arc<Inbox>,
        obs: Obs,
        seed: Option<NodeSeed>,
        node: Option<std::thread::JoinHandle<()>>,
    }

    impl Rig {
        fn new(config: OperatorConfig, input_link: LinkConfig, output_link: LinkConfig) -> Rig {
            let (input, input_rx) = link::<Message>(input_link);
            let (up_ctrl, _) = link::<Control>(LinkConfig::instant());
            let (out_tx, out_rx) = link::<Message>(output_link);
            let (out_ctrl, out_ctrl_rx) = link::<Control>(LinkConfig::instant());
            let inbox = Inbox::new(vec![input_rx], vec![out_ctrl_rx]);
            inbox.wake_on_room(&out_tx);
            let obs = Obs::tracing();
            let seed = NodeSeed {
                id: OperatorId::new(0),
                operator: Arc::new(Relay),
                log: config.logging.as_ref().map(|l| StableLog::new(l.disks.clone())),
                config,
                clock: shared(SystemClock::new()),
                inbox: inbox.clone(),
                up: vec![up_ctrl],
                down: vec![DownEdge { data_tx: out_tx.clone(), sent: Arc::default() }],
                checkpoints: None,
                rng_seed: 1,
                obs: obs.clone(),
                exits: None,
                recovering: false,
            };
            Rig { input, out_tx, out_rx, out_ctrl, inbox, obs, seed: Some(seed), node: None }
        }

        fn start(mut self) -> Rig {
            self.node = Some(Node::start(self.seed.take().expect("started once")));
            self
        }

        fn send(&self, n: u64, speculative: bool) -> EventId {
            let mut event = source_event(n);
            event.speculative = speculative;
            self.input.send(Message::Data(event)).expect("room in the input window");
            source_event(n).id
        }

        fn notify(&self, ctrl: Control) {
            self.input.send(Message::Control(ctrl)).expect("room in the input window");
        }

        /// The payloads of the data events the node emits next, until
        /// `count` arrived.
        fn outputs(&self, count: usize) -> Vec<Value> {
            let mut got = Vec::new();
            while got.len() < count {
                let (_, msg) = self.out_rx.recv_timeout(PATIENCE).expect("the node fell silent");
                match msg {
                    Message::Data(event) => got.push(event.payload),
                    Message::DataBatch(events) => got.extend(events.into_iter().map(|e| e.payload)),
                    Message::Control(_) => {}
                }
            }
            got
        }
    }

    impl Drop for Rig {
        fn drop(&mut self) {
            self.inbox.post(Notice::Command(NodeCommand::Shutdown));
            if let Some(node) = self.node.take() {
                let _ = node.join();
            }
        }
    }

    const PATIENCE: Duration = Duration::from_secs(10);
    /// Long enough for a node that wrongly reads, admits or sends to have
    /// done so.
    const SETTLE: Duration = Duration::from_millis(30);

    fn source_event(n: u64) -> Event {
        Event::new(EventId::new(OperatorId::new(9), n), 0, Value::Int(n as i64))
    }

    fn wait_until(what: &str, done: impl Fn() -> bool) -> Duration {
        let start = Instant::now();
        while !done() {
            assert!(start.elapsed() < PATIENCE, "timed out waiting until {what}");
            std::thread::yield_now();
        }
        start.elapsed()
    }

    /// Control is served before data, and never gated: with a data frame, an
    /// ack and a shutdown all waiting when the coordinator first looks, the
    /// ack is applied and the node stops without admitting the event.
    #[test]
    fn control_is_served_before_data() {
        let rig = Rig::new(OperatorConfig::plain(), LinkConfig::instant(), LinkConfig::instant());
        rig.send(0, false);
        rig.out_ctrl.send(Control::Ack { upto: 1 }).unwrap();
        rig.inbox.post(Notice::Command(NodeCommand::Shutdown));
        let mut rig = rig.start();
        rig.node.take().expect("started").join().expect("the coordinator panicked");
        assert_eq!(rig.out_ctrl.retained_len(), 0, "the ack was not read");
        let ingested =
            rig.obs.journal.count_matching(|e| matches!(e.kind, JournalKind::Ingest { .. }));
        assert_eq!(ingested, 0, "data was admitted ahead of the shutdown");
        assert_eq!(rig.out_rx.try_recv(), Ok(None));
    }

    /// The coordinator never sleeps inside a read: while a data frame is in
    /// flight on a 20 ms link, downstream control is served at once.
    #[test]
    fn control_is_served_while_a_data_frame_is_in_flight() {
        const DELAY: Duration = Duration::from_millis(20);
        const PROMPT: Duration = Duration::from_millis(5);
        let rig =
            Rig::new(OperatorConfig::plain(), LinkConfig::with_delay(DELAY), LinkConfig::instant())
                .start();
        rig.send(0, false);
        assert_eq!(rig.outputs(1), vec![Value::Int(0)]);
        // A loaded machine can delay any one wake-up; a coordinator asleep
        // in a read delays every one of them by most of the 20 ms.
        let mut best = Duration::MAX;
        for round in 1..=5u64 {
            // Outputs 0..round are read, the last one not yet acknowledged.
            let sent = Instant::now();
            rig.send(round, false);
            rig.out_ctrl.send(Control::Ack { upto: round }).unwrap();
            let ack = wait_until("the ack is applied", || rig.out_tx.retained_len() == 0);
            best = best.min(ack);
            assert_eq!(rig.outputs(1), vec![Value::Int(round as i64)]);
            assert!(sent.elapsed() >= DELAY, "the frame arrived before it was due");
        }
        assert!(best < PROMPT, "an ack waited {best:?} behind a frame in flight");
    }

    /// A recovering node rewinds its input ring to its checkpoint's
    /// position itself. A ring trimmed past that position cannot be
    /// rewound that far, and the node says so — a pinned warning, and in a
    /// debug build a failed frontier assertion — instead of waiting for
    /// ever for frames nobody holds.
    #[test]
    fn rewind_that_cannot_reach_the_checkpoint_is_loud() {
        let mut rig =
            Rig::new(OperatorConfig::plain(), LinkConfig::instant(), LinkConfig::instant());
        // Five frames read, the first four acknowledged away; the
        // checkpoint claims the node needs them from the third on.
        for n in 0..5 {
            rig.send(n, false);
            rig.inbox.inputs[0].try_recv().unwrap().expect("just sent");
        }
        rig.input.ack_upto(4);
        let store = streammine_storage::checkpoint::instant_store();
        let no_state = StateRegistry::plain().snapshot();
        store.save(LogSeq(0), 2, vec![2], vec![2], vec![2], no_state, Vec::new()).unwrap();
        let seed = rig.seed.as_mut().expect("not started");
        seed.checkpoints = Some(Arc::new(store));
        seed.recovering = true;
        let rig = rig.start();
        let short = |e: &streammine_obs::JournalEvent| {
            matches!(e.kind, JournalKind::Warn { code: "rewind-short", .. }) && e.kind.pinned()
        };
        wait_until("the short rewind is journaled", || rig.obs.journal.count_matching(short) == 1);
        let rewinds =
            rig.obs.journal.count_matching(|e| matches!(e.kind, JournalKind::Rewind { .. }));
        assert_eq!(rewinds, 1);
        assert_eq!(rig.obs.registry.counter_value("replay.requests", Labels::op(0)), Some(1));
        if cfg!(debug_assertions) {
            let node = rig.node.as_ref().expect("started");
            wait_until("the frontier assertion stops the node", || node.is_finished());
        }
    }

    /// What a stalled node does not read stays in the ring, the full
    /// window blocks the producer, and draining downstream resumes both.
    #[test]
    fn stalled_node_leaves_its_input_unread_and_the_window_blocks_the_producer() {
        let rig = Rig::new(
            OperatorConfig::plain(),
            LinkConfig::instant().with_capacity(2),
            LinkConfig::instant().with_capacity(1),
        )
        .start();
        // One output fills the downstream window: the node stalls.
        rig.send(0, false);
        wait_until("the output window is full", || rig.out_tx.is_saturated_with(0));
        rig.send(1, false);
        rig.send(2, false);
        std::thread::sleep(SETTLE);
        assert_eq!(
            rig.input.send(Message::Data(source_event(3))),
            Err(streammine_net::LinkError::Saturated),
            "the stalled node read its input"
        );
        std::thread::scope(|s| {
            let producer = s.spawn(|| rig.input.send_blocking(Message::Data(source_event(3))));
            std::thread::sleep(SETTLE);
            assert!(!producer.is_finished(), "sent into a full window");
            // The downstream drains: the stall ends on the read, the node
            // reads on, and the producer's send goes through.
            let drained: Vec<Value> = (0..4).map(Value::Int).collect();
            assert_eq!(rig.outputs(4), drained);
            assert_eq!(producer.join().unwrap(), Ok(3));
        });
    }

    /// A speculative node stalled at its cap keeps reading for the notices
    /// its open transaction awaits; a `Finalize` and a `Revoke` for events
    /// it read on the way — still waiting, un-admitted — take effect.
    #[test]
    fn notices_find_events_a_stalled_speculative_node_read_ahead() {
        let caps = NodeConfig { max_open_speculations: 1, ..NodeConfig::default() };
        let log = LoggingConfig::simulated(Duration::from_millis(1));
        let rig = Rig::new(
            OperatorConfig::speculative(log).with_node(caps),
            LinkConfig::instant(),
            LinkConfig::instant(),
        )
        .start();
        let open = rig.send(0, true);
        let kept = rig.send(1, true);
        let dropped = rig.send(2, true);
        rig.send(3, false);
        assert_eq!(rig.outputs(1), vec![Value::Int(0)]);
        // Event 0 stays open until finalized, so 1, 2 and 3 wait.
        rig.notify(Control::Finalize { id: kept, version: 0 });
        rig.notify(Control::Revoke { id: dropped });
        std::thread::sleep(SETTLE);
        assert_eq!(rig.out_rx.try_recv(), Ok(None), "admitted past the cap");
        rig.notify(Control::Finalize { id: open, version: 0 });
        assert_eq!(rig.outputs(2), vec![Value::Int(1), Value::Int(3)]);
        // All three commit — event 1's finalize was not lost — and nothing
        // was ever emitted for the revoked event.
        let finalized = |count| {
            wait_until("the outputs are finalized", || {
                rig.obs.registry.counter_value("spec.finalized", Labels::op(0)) == Some(count)
            })
        };
        finalized(3);
        let journal = rig.obs.journal.events();
        let ingested = journal.iter().filter(|e| matches!(e.kind, JournalKind::Ingest { .. }));
        assert_eq!(ingested.count(), 3);
    }

    /// The same for a non-speculative node, which parks a speculative
    /// input until its finalize: stalled on its output window with one
    /// input parked, it keeps reading, and finalized events are processed
    /// in the order of their finalizes — as if it had never stalled.
    #[test]
    fn notices_find_events_a_stalled_plain_node_read_ahead() {
        let rig = Rig::new(
            OperatorConfig::plain(),
            LinkConfig::instant(),
            LinkConfig::instant().with_capacity(1),
        )
        .start();
        let parked = rig.send(10, true);
        rig.send(0, false);
        wait_until("the output window is full", || rig.out_tx.is_saturated_with(0));
        let kept = rig.send(1, true);
        let dropped = rig.send(2, true);
        rig.notify(Control::Finalize { id: kept, version: 0 });
        rig.notify(Control::Revoke { id: dropped });
        rig.notify(Control::Finalize { id: parked, version: 0 });
        rig.send(3, false);
        let in_frame_order = [0, 1, 10, 3].map(Value::Int).to_vec();
        assert_eq!(rig.outputs(4), in_frame_order);
    }

    /// The speculative node of a new process swallows what the receiver's
    /// cursor counted — events and finalizes each by their own count — and
    /// sends the rest: for an event the receiver holds speculative, the
    /// finalize alone.
    #[test]
    fn respawned_speculative_node_sends_only_what_the_receiver_lacks() {
        use crate::plumbing::Sent;
        let log = LoggingConfig::simulated(Duration::from_millis(1));
        let mut rig = Rig::new(
            OperatorConfig::speculative(log),
            LinkConfig::instant(),
            LinkConfig::instant(),
        );
        // The receiver holds the outputs of events 0 and 1, the second not
        // final yet.
        let sent = Arc::new(Sent { events: 2.into(), finals: 1.into(), by_receiver: true });
        let seed = rig.seed.as_mut().expect("not started");
        seed.recovering = true;
        seed.down[0].sent = sent.clone();
        let rig = rig.start();
        for n in 0..3 {
            rig.send(n, false);
        }
        let output = |serial: u64| EventId::new(OperatorId::new(0), serial << 16);
        let frames: Vec<Message> =
            (0..3).map(|_| rig.out_rx.recv_timeout(PATIENCE).expect("a frame is owed").1).collect();
        let [Message::Data(event), finalizes @ ..] = &frames[..] else {
            panic!("expected the missing event first: {frames:?}")
        };
        assert_eq!(
            (event.id, &event.payload, event.speculative),
            (output(2), &Value::Int(2), true)
        );
        let finalize =
            |serial| Message::Control(Control::Finalize { id: output(serial), version: 0 });
        assert_eq!(finalizes, [finalize(1), finalize(2)]);
        std::thread::sleep(SETTLE);
        assert_eq!(rig.out_rx.try_recv(), Ok(None), "something the receiver holds was sent again");
        let counter = |name| rig.obs.registry.counter_value(name, Labels::op(0));
        assert_eq!(counter("resend.suppressed"), Some(2));
        assert_eq!(counter("spec.published"), Some(1));
        // What the edge carries now, whoever sent it.
        assert_eq!(sent.events.load(Ordering::Acquire), 3);
        assert_eq!(sent.finals.load(Ordering::Acquire), 3);
    }

    #[test]
    fn output_ids_are_deterministic_and_ordered() {
        let op = OperatorId::new(3);
        let payloads = vec![(None, Value::Int(1)), (Some(2), Value::Int(2))];
        let a = assign_output_ids(op, 5, 99, &payloads, true, None);
        let b = assign_output_ids(op, 5, 99, &payloads, true, None);
        assert_eq!(a, b);
        assert_eq!(a[0].0.id.seq, (5 << 16));
        assert_eq!(a[1].0.id.seq, (5 << 16) | 1);
        assert!(a[0].0.speculative);
        assert_eq!(a[0].0.timestamp, 99);
        assert_eq!(a[0].1, None);
        assert_eq!(a[1].1, Some(2));
    }

    #[test]
    #[should_panic(expected = "too many outputs")]
    fn too_many_outputs_panics() {
        let payloads = vec![(None, Value::Null); MAX_OUTPUTS_PER_EVENT as usize];
        let _ = assign_output_ids(OperatorId::new(0), 0, 0, &payloads, false, None);
    }

    #[test]
    fn output_ids_carry_the_child_trace_context() {
        let ctx = TraceCtx { id: 77, parent: span_key(3, 5) };
        let outs =
            assign_output_ids(OperatorId::new(3), 5, 99, &[(None, Value::Int(1))], true, Some(ctx));
        assert_eq!(outs[0].0.trace, Some(ctx));
    }
}
