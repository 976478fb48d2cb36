//! The worker process runtime: one operator node behind real sockets.
//!
//! A worker binary calls [`worker_main`] with an [`OperatorRegistry`]. The
//! runtime decodes its [`super::WorkerSpec`] from the environment, binds a
//! data listener, dials the parent's control plane, waits to be wired,
//! handshakes every out-edge (applying the receiver cursors to its link
//! counters **before** the node starts, so a restarted incarnation
//! suppresses exactly the outputs already on the wire), and then runs the
//! node until the parent says otherwise.
//!
//! A **precise** slot runs a speculative node on one thread: every output
//! goes on the wire the moment it is computed, flagged speculative, while
//! its decision record is still on its way to the log, and a `Finalize`
//! follows once the log is stable and the input itself was finalized. The
//! log waits of a chain of workers overlap instead of adding up; only the
//! launcher's sink, which externalises finals alone, waits for all of
//! them. An **approximate** slot stays non-speculative (it skips the log
//! hold anyway) and parks a speculative input until its `Finalize`.
//!
//! By default workers **checkpoint and ack**: every `checkpoint_every`
//! events, once the node is settled, it takes an image of state, RNG
//! position, input frontiers and output counts. Its out-ring lives in
//! this process, so the image waits until the downstream has acked every
//! output it counts; then it is saved to the worker's file in the
//! launcher's checkpoint directory, and each upstream ring is acked up to
//! its positions — what an edge retains is bounded by the interval, not
//! by the run. An image that does not reach the file acks nothing. A
//! respawned incarnation loads its predecessor's newest image, primes each
//! in-edge cursor at its port's frontier in the image (position and events
//! read: the upstream bridge rewinds only that far and swallows what was
//! read), restores, and replays the suffix after it,
//! swallowing the `Welcome` counts past the image's output counts — the
//! downstream acked them, so it holds them all. Nothing else the
//! process loses on SIGKILL is needed for correctness — the deterministic
//! RNG, restored to the image's position, re-derives every later decision
//! from the replayed input order. The downstream may hold open
//! transactions on what the dead incarnation published and never
//! finalized; the replacement re-derives the same events under the same
//! ids, swallows the ones the receiver's cursor counted, and sends the
//! finalizes still owed — it re-confirms its predecessor's speculation,
//! so nothing has to be revoked. A spec with `checkpoint_every == 0`
//! keeps nothing: it never acks, and recovers by a full upstream replay
//! from the per-slot seed.
//!
//! **Precondition of that re-derivation:** the slot takes its decisions in
//! serial order, from the checkpoint on. The decision log lives in process
//! memory and dies with the process, so a replacement cannot read a logged
//! draw back — it draws again from the restored RNG, event by event, in
//! serial order. A re-execution by itself no longer disturbs that: it
//! reads the decisions of its first execution from the event's tape and
//! the stream does not move. What would is a draw *out of serial order*:
//! two STM threads drawing for neighbouring serials in whichever order
//! they get there, or a re-execution that asks for more decisions than its
//! tape holds after later events have drawn — the replacement, whose
//! replayed inputs arrive final, executes each event once and draws them
//! the other way round. A slot has one input and one thread and its
//! upstream never revises, so nothing re-executes at all; the cluster
//! tests assert `spec.rollbacks == 0` for every worker, and a worker that
//! does see a rollback journals one `rederivation-broken` warning, which
//! reaches the launcher with its telemetry.
//!
//! A worker checkpoints only when settled (nothing open, held or parked),
//! unlike a single-threaded speculative node in process, which images its
//! committed prefix while later transactions stay open. That image leaves
//! the open transactions' decisions to be read back from the log, and a
//! worker's log dies with its process; its outputs counts would also have
//! to stop at the prefix, while the receiver's cursor counts everything
//! sent. So a worker fed faster than its commits settle does not
//! checkpoint and retains as a checkpoint-free one does. Approximate slots
//! (`approx_eps_ppm > 0`) resume from the same image *stale*: they drop
//! the replayed inputs whose outputs are already downstream, within a
//! bounded sketch error, instead of re-executing them.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use streammine_common::clock::{shared, SystemClock};
use streammine_net::{link, EdgeMetrics, LinkConfig, TcpTransport, Transport};
use streammine_obs::{Labels, Obs, TransportMetrics, REDERIVATION_BROKEN};

use crate::config::{LoggingConfig, OperatorConfig};
use crate::dist::bridge::{Acceptor, DialSlot, EdgeCursor, InEdge, OutBridge};
use crate::dist::control::{CtrlClient, CtrlIdentity};
use crate::dist::spec::{WorkerSpec, SPEC_ENV};
use crate::dist::wire::{CtrlMsg, FaultCmd};
use crate::plumbing::{DownEdge, Inbox, Notice, Sent};
use streammine_sketch::ErrorBound;
use streammine_storage::checkpoint::{Checkpoint, InputFrontier};
use streammine_storage::log::{LogObs, StableLog};
use streammine_storage::{CheckpointObs, CheckpointStore, DiskSpec};

use crate::message::{Control, Message};
use crate::node::{Node, NodeSeed};
use crate::operator::Operator;
use streammine_common::ids::OperatorId;

/// How long a worker waits for its first `Wire` and for every out-edge
/// handshake before giving up.
const WIRING_TIMEOUT: Duration = Duration::from_secs(30);

/// Worker exit codes (the launcher's monitor treats any non-zero exit it
/// did not cause as a crash).
pub mod exit {
    /// Clean shutdown, ordered by the parent.
    pub const OK: i32 = 0;
    /// The spec was missing, truncated, or corrupted.
    pub const BAD_SPEC: i32 = 2;
    /// A newer incarnation holds this worker's lease.
    pub const FENCED: i32 = 3;
    /// Wiring or the control plane never came up.
    pub const WIRING: i32 = 4;
}

/// Maps operator names (as carried in [`WorkerSpec::operator`]) to
/// factories. The worker *binary* owns the registry, so the core crate
/// stays ignorant of concrete operator crates.
#[derive(Default)]
pub struct OperatorRegistry {
    factories: HashMap<String, Box<dyn Fn() -> Arc<dyn Operator> + Send + Sync>>,
}

impl std::fmt::Debug for OperatorRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OperatorRegistry")
            .field("operators", &self.factories.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl OperatorRegistry {
    /// An empty registry.
    pub fn new() -> OperatorRegistry {
        OperatorRegistry::default()
    }

    /// Registers a factory under `name`.
    #[must_use]
    pub fn with<F>(mut self, name: &str, factory: F) -> OperatorRegistry
    where
        F: Fn() -> Arc<dyn Operator> + Send + Sync + 'static,
    {
        self.factories.insert(name.to_string(), Box::new(factory));
        self
    }

    /// Instantiates the operator registered under `name`.
    pub fn build(&self, name: &str) -> Option<Arc<dyn Operator>> {
        self.factories.get(name).map(|f| f())
    }
}

/// The re-derivation precondition (module docs), checked where the
/// launcher gets to see it. A rollback is the one way a single-threaded
/// slot can take a decision out of serial order (a re-execution that asks
/// past its tape), so the first one this worker's node counts is
/// journaled, once, ahead of the telemetry report that carries it.
fn warn_if_rederivation_broke(obs: &Obs, worker: u32, warned: &AtomicBool) {
    let rollbacks = obs.registry.counter_value("spec.rollbacks", Labels::op(worker)).unwrap_or(0);
    if rollbacks > 0 && !warned.swap(true, Ordering::Relaxed) {
        obs.journal.warn(
            Some(worker),
            REDERIVATION_BROKEN,
            format!(
                "{rollbacks} transaction(s) re-executed: one that took a decision its first \
                 execution had not drew after later events, and a replacement of this worker \
                 would not re-derive the same decisions"
            ),
        );
    }
}

/// Where each of `ports` in-edges resumes. A respawn resumes at the
/// frontier of its predecessor's newest image: every save acked the
/// upstream up to its position, trimming its retention, so a cursor
/// welcoming the reconnect from 0 would wait forever for frames nobody can
/// replay, and the events read below it are what the upstream swallows. An
/// image of another shape is one the node will not restore either; then,
/// as without an image, every edge starts at 0.
fn in_edge_cursors(image: Option<Checkpoint>, ports: usize) -> Vec<EdgeCursor> {
    let inputs = image.map(|cp| cp.inputs).filter(|inputs| inputs.len() == ports);
    let inputs = inputs.unwrap_or_else(|| vec![InputFrontier::default(); ports]);
    inputs.iter().map(|at| EdgeCursor::resuming(at.position, at.events)).collect()
}

/// Entry point of a worker binary: runs one node per the spec in
/// [`SPEC_ENV`], returns the process exit code.
pub fn worker_main(registry: &OperatorRegistry) -> i32 {
    let Ok(hex) = std::env::var(SPEC_ENV) else {
        eprintln!("worker: {SPEC_ENV} not set");
        return exit::BAD_SPEC;
    };
    let spec = match WorkerSpec::from_hex(&hex) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("worker: bad spec: {e}");
            return exit::BAD_SPEC;
        }
    };
    let Some(operator) = registry.build(&spec.operator) else {
        eprintln!("worker: unknown operator {:?}", spec.operator);
        return exit::BAD_SPEC;
    };
    let transport: Arc<dyn Transport> = Arc::new(TcpTransport::new());
    run_worker(spec, operator, transport)
}

/// The transport-generic body of [`worker_main`] (unit-testable over the
/// in-memory transport).
pub(crate) fn run_worker(
    spec: WorkerSpec,
    operator: Arc<dyn Operator>,
    transport: Arc<dyn Transport>,
) -> i32 {
    // Tracing is a cluster-wide decision: every worker must sample the
    // same deterministic trace ids or stitched traces have holes.
    let obs = if spec.trace_one_in > 0 { Obs::sampled(spec.trace_one_in) } else { Obs::new() };
    if spec.incarnation > 0 {
        // First record of a replacement incarnation. Restart records are
        // pinned and Warn-level, so the telemetry report of even a
        // default-verbosity worker carries it — the cluster-side restart
        // count never undercounts.
        obs.journal.record(
            Some(spec.worker),
            streammine_obs::JournalKind::Restart {
                attempt: spec.incarnation as u32,
                backoff_us: 0,
            },
        );
    }
    let clock = shared(SystemClock::new());
    let shutdown = Arc::new(AtomicBool::new(false));
    let config = {
        let logging =
            LoggingConfig::simulated_n(spec.disks as usize, Duration::from_micros(spec.log_micros));
        // Precise slots speculate; approximate ones may not (and skip the
        // log hold without it).
        let mut c = if spec.approx_eps_ppm > 0 {
            OperatorConfig::logged(logging)
        } else {
            OperatorConfig::speculative(logging)
        };
        // 0 is the spec's "no checkpoints", and the store below follows it:
        // the config must not keep its default interval without one.
        c.checkpoint_every = (spec.checkpoint_every > 0).then_some(spec.checkpoint_every);
        if spec.approx_eps_ppm > 0 {
            // Range-check before `from_ppm`, which panics on garbage.
            if spec.approx_eps_ppm > 1_000_000
                || spec.approx_delta_ppm == 0
                || spec.approx_delta_ppm >= 1_000_000
            {
                eprintln!("worker {}: approximate bound ppm out of range", spec.worker);
                return exit::BAD_SPEC;
            }
            c = c.with_approximate_recovery(ErrorBound::from_ppm(
                spec.approx_eps_ppm,
                spec.approx_delta_ppm,
            ));
        }
        if let Err(e) = c.validate() {
            eprintln!("worker {}: invalid config from spec: {e}", spec.worker);
            return exit::BAD_SPEC;
        }
        c
    };
    // Checkpoint store, when the spec asks for one — created before the
    // in-edges so a respawn can prime its receive cursors from the image.
    // The image is a file in the launcher's directory, so it survives
    // SIGKILL: the respawned incarnation preloads its predecessor's
    // snapshot (and, in approximate mode, the baked error-budget loss)
    // before recovering.
    let checkpoints = (spec.checkpoint_every > 0).then(|| {
        let store = Arc::new(CheckpointStore::new(DiskSpec::simulated(Duration::from_micros(
            spec.log_micros,
        ))));
        store.attach_obs(CheckpointObs::registered(&obs, spec.worker));
        let image = format!("worker{}.ckpt", spec.worker);
        store.attach_file(std::path::Path::new(&spec.checkpoint_dir).join(image));
        store
    });
    let cursors =
        in_edge_cursors(checkpoints.as_ref().and_then(|s| s.latest()), spec.in_edges.len());

    // In-edges: each is a local ring the node reads like any other, fed
    // by the acceptor's socket threads with the in-order frames of the
    // wire; each edge's upstream control link is pumped back over the
    // edge's current connection.
    let mut up = Vec::new();
    let mut inputs = Vec::new();
    let mut in_edges = Vec::new();
    for (edge, cursor) in spec.in_edges.iter().copied().zip(cursors) {
        let (ctrl_tx, ctrl_rx) = link::<Control>(LinkConfig::instant());
        up.push(ctrl_tx);
        let (data_tx, data_rx) = link::<Message>(LinkConfig::instant());
        inputs.push(data_rx);
        in_edges.push(InEdge {
            edge,
            data_tx,
            ctrl_rx,
            cursor,
            on_advance: None,
            metrics: TransportMetrics::registered(&obs.registry, spec.worker, edge),
        });
    }
    // Out-edges have no control ring here: their bridges post what they
    // read off the socket as notices.
    let inbox = Inbox::new(inputs, Vec::new());
    let acceptor =
        match Acceptor::start(transport.clone(), "127.0.0.1:0", in_edges, shutdown.clone()) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("worker {}: data listener failed: {e}", spec.worker);
                return exit::WIRING;
            }
        };

    // Control lane: claim the lease, then wait to be wired.
    let (ctrl_events_tx, ctrl_events) = crossbeam_channel::unbounded();
    let ctrl = match CtrlClient::connect(
        transport.clone(),
        spec.ctrl_addr.clone(),
        CtrlIdentity {
            worker: spec.worker,
            incarnation: spec.incarnation,
            data_addr: acceptor.local_addr().to_string(),
            beat: Duration::from_millis(spec.beat_millis),
        },
        ctrl_events_tx,
        shutdown.clone(),
    ) {
        Ok(c) => Arc::new(c),
        Err(e) => {
            eprintln!("worker {}: control plane unreachable: {e}", spec.worker);
            return exit::WIRING;
        }
    };

    // Out-edges: links + bridges now, addresses when the Wire arrives.
    let mut down_data = Vec::new();
    let mut dial_slots: HashMap<u32, DialSlot> = HashMap::new();
    let mut gates = Vec::new();
    for (out, edge) in spec.out_edges.iter().copied().enumerate() {
        let (data_tx, data_rx) = link::<Message>(LinkConfig::instant());
        // The ring the downstream's checkpoints trim: `edge.retained`.
        data_tx.set_metrics(EdgeMetrics::registered(&obs.registry, spec.worker, edge));
        let slot = DialSlot::new();
        let (gate_tx, gate_rx) = crossbeam_channel::bounded(1);
        let notices = inbox.clone();
        let out = out as u32;
        OutBridge {
            edge,
            incarnation: spec.incarnation,
            transport: transport.clone(),
            dial: slot.clone(),
            data_rx,
            ctrl_sink: Box::new(move |ctrl| notices.post(Notice::Downstream { out, ctrl })),
            metrics: TransportMetrics::registered(&obs.registry, spec.worker, edge),
            shutdown: shutdown.clone(),
            first_welcome: Some(gate_tx),
        }
        .start();
        dial_slots.insert(edge, slot);
        inbox.wake_on_room(&data_tx);
        down_data.push(data_tx);
        gates.push(gate_rx);
    }

    // A `Wire` fills the dial slots, which wakes their bridges.
    let wire = |outs: Vec<(u32, String)>| {
        for (edge, addr) in outs {
            if let Some(slot) = dial_slots.get(&edge) {
                slot.set(Some(addr));
            }
        }
    };
    let deadline = std::time::Instant::now() + WIRING_TIMEOUT;
    'wired: loop {
        let left = deadline.saturating_duration_since(std::time::Instant::now());
        match ctrl_events.recv_timeout(left) {
            Ok(CtrlMsg::Wire { outs }) => {
                wire(outs);
                break 'wired;
            }
            Ok(CtrlMsg::Fence) => return exit::FENCED,
            Ok(CtrlMsg::Shutdown) => return exit::OK,
            Ok(_) => continue,
            Err(_) => {
                if spec.out_edges.is_empty() {
                    break 'wired; // nothing to wire
                }
                eprintln!("worker {}: never wired", spec.worker);
                return exit::WIRING;
            }
        }
    }

    // Handshake gates: the receiver cursors, applied to the link counters
    // before the node runs. `next_seq` re-bases fresh output frames; the
    // counts are the re-derived events and finalizes to suppress.
    let mut down = Vec::new();
    for (gate, data_tx) in gates.iter().zip(down_data) {
        let Ok(welcomed) = gate.recv_timeout(WIRING_TIMEOUT) else {
            eprintln!("worker {}: out-edge handshake timed out", spec.worker);
            return exit::WIRING;
        };
        data_tx.set_next_seq(welcomed.next_seq());
        let sent = Sent {
            events: AtomicU64::new(welcomed.events()),
            finals: AtomicU64::new(welcomed.finals()),
            by_receiver: true,
        };
        down.push(DownEdge { data_tx, sent: Arc::new(sent) });
    }

    let log = StableLog::new(config.logging.as_ref().expect("logged config").disks.clone());
    log.attach_obs(LogObs::registered(&obs, spec.worker));
    let reporter_obs = obs.clone();
    let seed = NodeSeed {
        id: OperatorId::new(spec.worker),
        operator,
        config,
        clock,
        inbox,
        up,
        down,
        log: Some(log),
        checkpoints,
        rng_seed: spec.rng_seed,
        obs,
        exits: None,
        recovering: spec.incarnation > 0,
    };
    let _node = Node::start(seed);

    // Telemetry reporter: push a full snapshot + fresh journal records +
    // all spans up the control lane every `telemetry_millis`. A failed
    // send (connection mid-redial) just skips a period — the next report
    // supersedes it, and the journal watermark only advances on success
    // so no record is lost. `0` disables the periodic push; the final
    // flush below still runs.
    let report_seq = Arc::new(AtomicU64::new(0));
    let warned = Arc::new(AtomicBool::new(false));
    if spec.telemetry_millis > 0 {
        let obs = reporter_obs.clone();
        let warned = warned.clone();
        let ctrl = ctrl.clone();
        let shutdown = shutdown.clone();
        let report_seq = report_seq.clone();
        let (worker, incarnation) = (spec.worker, spec.incarnation);
        let period = Duration::from_millis(spec.telemetry_millis);
        std::thread::Builder::new()
            .name(format!("telemetry-w{worker}"))
            .spawn(move || {
                let mut journal_mark = 0u64;
                loop {
                    std::thread::sleep(period);
                    if shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    warn_if_rederivation_broke(&obs, worker, &warned);
                    let seq = report_seq.fetch_add(1, Ordering::Relaxed) + 1;
                    let (report, mark) = streammine_obs::TelemetryReport::gather(
                        worker,
                        incarnation,
                        seq,
                        false,
                        &obs,
                        journal_mark,
                    );
                    if ctrl.send(&CtrlMsg::Telemetry(report)) {
                        journal_mark = mark;
                    }
                }
            })
            .expect("spawn telemetry reporter");
    }

    // Steady state: obey the parent until told to stop.
    loop {
        match ctrl_events.recv() {
            // A downstream neighbor restarted at a new address: its
            // bridge, parked between dials of the dead one, redials now.
            Ok(CtrlMsg::Wire { outs }) => wire(outs),
            Ok(CtrlMsg::Fault(cmd)) => match cmd {
                FaultCmd::ListenerDrop { millis } => {
                    acceptor.drop_listener(Duration::from_millis(millis));
                }
                FaultCmd::PauseInbound { edge, millis } => {
                    acceptor.pause_inbound(edge, Duration::from_millis(millis));
                }
                FaultCmd::PauseBeats { millis } => {
                    ctrl.pause_beats(Duration::from_millis(millis));
                }
            },
            Ok(CtrlMsg::Fence) => {
                shutdown.store(true, Ordering::Release);
                return exit::FENCED;
            }
            Ok(CtrlMsg::Shutdown) | Err(_) => {
                // Final telemetry flush: the whole journal (watermark 0 —
                // the aggregator dedups) plus the closing snapshot, so a
                // clean shutdown never strands the tail of this
                // incarnation's history.
                warn_if_rederivation_broke(&reporter_obs, spec.worker, &warned);
                let seq = report_seq.fetch_add(1, Ordering::Relaxed) + 1;
                let (report, _) = streammine_obs::TelemetryReport::gather(
                    spec.worker,
                    spec.incarnation,
                    seq,
                    true,
                    &reporter_obs,
                    0,
                );
                let _ = ctrl.send(&CtrlMsg::Telemetry(report));
                shutdown.store(true, Ordering::Release);
                ctrl.stop();
                acceptor.poke();
                return exit::OK;
            }
            Ok(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::wire::DistFrame;
    use streammine_common::codec::{decode_from_slice, Encode};
    use streammine_net::{FrameError, MemTransport};

    /// A respawn primes each in-edge at its own port's frontier in its
    /// predecessor's image: each upstream is welcomed at the position and
    /// with the events read of that port. An image of another shape primes
    /// nothing.
    #[test]
    fn in_edges_primed_from_a_two_port_image_welcome_each_upstream_at_its_own_frontier() {
        let store = streammine_storage::checkpoint::instant_store();
        let at = |position, events| InputFrontier { position, events, covered_below: events };
        store
            .save(Checkpoint { inputs: vec![at(5, 7), at(3, 2)], ..Checkpoint::default() })
            .unwrap();
        let transport: Arc<dyn Transport> =
            Arc::new(MemTransport::new().with_read_timeout(Duration::from_millis(20)));
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut ends = Vec::new();
        let mut in_edges = Vec::new();
        for (edge, cursor) in [10, 11].into_iter().zip(in_edge_cursors(store.latest(), 2)) {
            let (data_tx, data_rx) = link::<Message>(LinkConfig::instant());
            let (ctrl_tx, ctrl_rx) = link::<Control>(LinkConfig::instant());
            ends.push((data_rx, ctrl_tx));
            let metrics = TransportMetrics::detached();
            in_edges.push(InEdge { edge, data_tx, ctrl_rx, cursor, on_advance: None, metrics });
        }
        let acceptor =
            Acceptor::start(transport.clone(), "mem-primed:0", in_edges, shutdown.clone()).unwrap();
        let welcome = |edge| {
            let mut conn = transport.dial(acceptor.local_addr()).unwrap();
            conn.send(&DistFrame::EdgeHello { edge, incarnation: 1 }.encode_to_vec()).unwrap();
            loop {
                match conn.recv() {
                    Ok(bytes) => break decode_from_slice::<DistFrame>(&bytes).unwrap(),
                    Err(FrameError::Timeout) => continue,
                    Err(e) => panic!("no welcome on edge {edge}: {e}"),
                }
            }
        };
        let primed = |next_seq, events| DistFrame::Welcome {
            next_seq,
            events_received: events,
            finals_received: events,
        };
        assert_eq!(welcome(10), primed(5, 7));
        assert_eq!(welcome(11), primed(3, 2));
        let misfit = in_edge_cursors(store.latest(), 3);
        let fresh: Vec<(u64, u64)> = misfit.iter().map(|c| (c.next_seq(), c.events())).collect();
        assert_eq!(fresh, vec![(0, 0); 3]);
        shutdown.store(true, Ordering::Release);
        acceptor.poke();
    }
}
