//! The per-operator runtime (coordinator loop).
//!
//! One [`Node`] drives one operator instance: it merges inputs, assigns
//! serials, runs the processing function (plainly or under STM control),
//! logs determinants, emits speculative or final events, finalizes /
//! revises / revokes them as speculation resolves, checkpoints state, and
//! performs precise recovery after a crash: restore the checkpoint, rewind
//! each input port to the frontier it records, swallow the re-derived
//! outputs its edges already carry. An edge is a retained ring that
//! outlives the node, so the rewind is the node moving its own cursor back
//! — no request, no answer, nothing that can be lost or retried.
//!
//! # Modules
//!
//! * this one — the node's state, its construction and its loop;
//! * [`intake`] — reading the rings, the overload gate, admission order,
//!   duplicate suppression and input finalizes;
//! * [`execute`] — running an admitted event, plainly or as an STM
//!   transaction, and STM cascade rollback (revision, revoke, abort);
//! * [`publish`] — holding outputs for log stability, batching, the
//!   speculative send path and resend suppression;
//! * [`rewind`] — the per-port [`rewind::Frontier`], checkpoints, and
//!   recovery: one rewind to the restored frontiers.
//!

mod execute;
mod intake;
mod publish;
mod rewind;

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
use streammine_stm::{
    CommitOrder, Serial, StatsSnapshot, StmAbort, StmRuntime, TxnHandle, TxnId, TxnStatus,
};
use streammine_storage::checkpoint::{Checkpoint, CheckpointStore, InputFrontier};
use streammine_storage::log::{LogSeq, StableLog};

use crate::config::{OperatorConfig, RecoveryMode};
use crate::determinant::{recovered_tapes, DecisionLog, DecisionRecord, Determinant, Tape};
use crate::message::{Control, Message};
use crate::operator::{OpCtx, Operator, PortId, SetupCtx};
use crate::plumbing::{DownEdge, Inbox, NodeCommand, Notice};
use crate::state::{StateAccess, StateRegistry};
use crate::supervisor::Signal;
use execute::{assign_output_ids, maybe_authorize_pending};
use publish::{routes_to, swallow, NodeSendView, Resend};
use rewind::{Admitted, ApproxState, FrameAt, Frontier, Image};

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
    rollbacks: AtomicU64,
    input: Mutex<InputView>,
    handle: TxnHandle,
    /// `(generation, outputs)` captured by the latest successful attempt;
    /// the generation orders diff application.
    attempt: Mutex<Option<AttemptCapture>>,
    /// Highest generation whose outputs were applied to `sent` (guarded by
    /// the `sent` mutex's critical sections).
    applied_gen: AtomicU64,
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
    attempts_pending: AtomicU64,
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

    /// Per input port: where the node stands in the stream — what a
    /// checkpoint records and recovery rewinds the ring to.
    frontiers: Vec<Frontier>,
    /// Per-port queues of `(event, enqueued_at, read_at)` read but not
    /// admitted yet (replay-order merge, overload gate; the enqueue instant
    /// feeds the queue-wait histogram).
    port_queues: Vec<VecDeque<(Event, Instant, FrameAt)>>,
    /// Speculative inputs parked by a non-speculative operator, with the
    /// port and the frame they were read from.
    parked: HashMap<EventId, (u32, Event, FrameAt)>,
    /// Tapes recovered from the stable log, by serial, until the event is
    /// admitted again; while any is left the merge follows their input
    /// choices.
    recovered: HashMap<u64, Vec<Determinant>>,
    /// The records recovery read back from the log, which nothing appends
    /// again: the sequence of the first, and the serial past the last one
    /// they are for — until a checkpoint covers that serial.
    recovered_log: Option<(u64, u64)>,

    next_serial: u64,
    /// The serial the last checkpoint, taken or restored, resumes at:
    /// nothing below it executes again.
    checkpoint_serial: u64,
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
    /// The checkpoint taken last, while it waits for its downstreams.
    image: Option<Image>,
    /// `Some` iff the node images its committed prefix (a single-threaded
    /// speculative node in process): the events admitted since its last
    /// image, in serial order.
    admitted: Option<VecDeque<Admitted>>,
    /// Per down-edge: the highest position the downstream acknowledged.
    down_acked: Vec<u64>,
    eof_count: usize,
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
                    let recovering = seed.recovering;
                    let mut node = Node::build(seed);
                    node.recover(recovering);
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
        // See `Node::settled_cut` for who may not image a prefix.
        let images_prefix = seed.config.speculative
            && seed.config.threads == 1
            && seed.config.stm.commit_order == CommitOrder::Timestamp
            && !seed.down.iter().any(|e| e.sent.by_receiver);
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
            frontiers: (0..inputs).map(|_| Frontier::default()).collect(),
            port_queues: (0..inputs).map(|_| VecDeque::new()).collect(),
            parked: HashMap::new(),
            recovered: HashMap::new(),
            recovered_log: None,
            next_serial: 0,
            checkpoint_serial: 0,
            pending: HashMap::new(),
            pending_by_txn: HashMap::new(),
            pending_by_serial: HashMap::new(),
            hold_queue: VecDeque::new(),
            out_batch: (0..outputs).map(|_| Vec::new()).collect(),
            resend,
            send_view,
            approx,
            image: None,
            admitted: images_prefix.then(VecDeque::new),
            down_acked: vec![0; outputs],
            eof_count: 0,
            running: true,
            crashed: false,
            stall_since: None,
            spec_retained,
        }
    }

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
}

#[cfg(test)]
mod tests;
