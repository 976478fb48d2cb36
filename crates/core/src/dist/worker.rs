//! The worker process runtime: one operator node behind real sockets.
//!
//! A worker binary calls [`worker_main`] with an [`OperatorRegistry`]. The
//! runtime decodes its [`super::WorkerSpec`] from the environment, binds a
//! data listener and dials the parent's control plane. From then on its
//! main thread is the worker's control client (`CtrlLane`): it serves
//! one queue — the parent's pushes, which one reader thread reads off the
//! control connection, and each out-bridge's first `Welcome` — and sends
//! its beats and telemetry reports as their deadlines come. It wires the
//! out-bridges, starts the node once every out-edge is welcomed (applying
//! the receiver cursors to its link counters **before** the node starts, so
//! a restarted incarnation suppresses exactly the outputs already on the
//! wire), applies the nemesis's faults and runs until the parent says
//! otherwise.
//!
//! The node is the one its spec's config
//! ([`OperatorConfig`](crate::config::OperatorConfig)) describes, built as
//! an operator in process is, with the same seed for its index; the
//! worker derives nothing. A slot built by `NodeSpec::logged` speculates
//! on one thread: every output goes on the wire the moment it is
//! computed, flagged speculative, while its decision record is still on
//! its way to the log, and a `Finalize` follows once the log is stable and
//! the input itself was finalized. The log waits of a chain of such
//! workers overlap instead of adding up; only the launcher's sink, which
//! externalises finals alone, waits for all of them. A non-speculative
//! slot (plain, or approximate) sends its outputs final when each event's
//! transaction commits, and parks a speculative input until its
//! `Finalize`.
//!
//! A worker's log is its file, `worker<i>.log` in the launcher's cluster
//! directory ([`StableLog::open`]), on the devices an operator in process
//! would log on (its config's `log_disks`): a group reaches the file
//! before it is stable, so a decision is there before its output
//! finalizes and an image before it truncates or acks. Every
//! `checkpoint_every` events the node takes an image of its committed
//! prefix, with transactions open, as a node in process does. Its out-ring
//! lives in this process, so the image waits until the downstream acked
//! every output it counts. Once it is stable the log (and its file) is
//! truncated below it and each upstream ring acked up to its positions:
//! retention is bounded by the interval, not by the run, however fast the
//! worker is fed. Without a checkpoint interval nothing is acked, and
//! recovery replays the whole stream over the whole log.
//!
//! A respawned incarnation opens its predecessor's file and recovers as a
//! node in process does (`determinant::read_back`): it primes each
//! in-edge cursor at its port's frontier in the newest image — position,
//! events read and finals read below it; the upstream bridge rewinds that
//! far and swallows what was read — restores, and replays the suffix,
//! reading back every decision logged and drawing live only past them; it
//! swallows the `Welcome` counts past what the image's covered serials
//! put on each edge. Outputs its predecessor published and never
//! finalized come again under the same ids, so it re-confirms that
//! speculation and nothing has to be revoked. Approximate slots resume
//! from the image *stale*: they drop the replayed inputs whose outputs are
//! downstream, within a bounded sketch error, instead of re-executing
//! them.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use streammine_common::clock::{shared, SystemClock};
use streammine_net::{link, EdgeMetrics, LinkConfig, TcpTransport, Transport};
use streammine_obs::{Obs, TransportMetrics};

use crate::determinant::read_back;
use crate::dist::bridge::{Acceptor, DialSlot, EdgeCursor, InEdge, OutBridge};
use crate::dist::control::{CtrlIdentity, CtrlLane, LaneEvent};
use crate::dist::spec::{log_file, WorkerSpec, SPEC_ENV};
use crate::dist::wire::{CtrlMsg, FaultCmd};
use crate::plumbing::{DownEdge, Inbox, Sent};
use streammine_storage::checkpoint::{Checkpoint, InputFrontier};
use streammine_storage::log::{LogObs, StableLog};

use crate::message::Message;
use crate::node::{Node, NodeSeed};
use crate::operator::Operator;
use streammine_common::ids::OperatorId;

/// How long a worker waits, from its `Hello`, for every out-edge to be
/// wired and welcomed before giving up.
const WIRING_TIMEOUT: Duration = Duration::from_secs(30);

/// Worker exit codes (the launcher's monitor treats any non-zero exit it
/// did not cause as a crash).
pub mod exit {
    /// Clean shutdown, ordered by the parent.
    pub const OK: i32 = 0;
    /// The spec was missing, truncated or corrupted, or its config did
    /// not validate.
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

/// Where each of `ports` in-edges resumes: at the frontier of the newest
/// image in the log — the upstream acked its retention away below it, and
/// swallows the events and finalizes read there — or, without one (or
/// with one of another shape, which the node will not restore either), at
/// 0.
fn in_edge_cursors(image: Option<Checkpoint>, ports: usize) -> Vec<EdgeCursor> {
    let inputs = image.map(|cp| cp.inputs).filter(|inputs| inputs.len() == ports);
    let inputs = inputs.unwrap_or_else(|| vec![InputFrontier::default(); ports]);
    inputs.iter().map(|at| EdgeCursor::resuming(at.position, at.events, at.finals)).collect()
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
    // The slot's one durable stream, in the launcher's directory so it
    // survives SIGKILL — opened before the in-edges so a respawn can prime
    // its receive cursors from its predecessor's newest image.
    let log = spec.config.log_disks().map(|disks| {
        let log = StableLog::open(disks, log_file(&spec.checkpoint_dir, spec.worker));
        log.attach_obs(LogObs::registered(&obs, spec.worker));
        log
    });
    let image = log.as_ref().and_then(|log| read_back(log.stable_entries()).image);
    let cursors = in_edge_cursors(image, spec.in_edges.len());

    // In-edges: each is a local ring the node reads like any other, fed
    // by the acceptor's socket threads with the in-order frames of the
    // wire; the node's acks on it go back over the edge's current
    // connection.
    let mut inputs = Vec::new();
    let mut in_edges = Vec::new();
    for (edge, cursor) in spec.in_edges.iter().copied().zip(cursors) {
        let (data_tx, data_rx) = link::<Message>(LinkConfig::instant());
        inputs.push(data_rx);
        in_edges.push(InEdge {
            edge,
            data_tx,
            cursor,
            on_advance: None,
            metrics: TransportMetrics::registered(&obs.registry, spec.worker, edge),
        });
    }
    let inbox = Inbox::new(inputs);
    let acceptor =
        match Acceptor::start(transport.clone(), "127.0.0.1:0", in_edges, shutdown.clone()) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("worker {}: data listener failed: {e}", spec.worker);
                return exit::WIRING;
            }
        };

    // Control lane: claim the lease. From here on this thread is the
    // worker's control client, and what it serves comes off one queue.
    let report_every =
        (spec.telemetry_millis > 0).then(|| Duration::from_millis(spec.telemetry_millis));
    let mut lane = match CtrlLane::connect(
        transport.clone(),
        spec.ctrl_addr.clone(),
        CtrlIdentity {
            worker: spec.worker,
            incarnation: spec.incarnation,
            data_addr: acceptor.local_addr().to_string(),
        },
        (obs.clone(), report_every),
        shutdown.clone(),
    ) {
        Ok(lane) => lane,
        Err(e) => {
            eprintln!("worker {}: control plane unreachable: {e}", spec.worker);
            return exit::WIRING;
        }
    };

    // Out-edges: links + bridges now, addresses when the Wire arrives.
    // Each bridge applies the acks it reads off its socket to the ring it
    // reads, as an in-process reader acks its own, and puts its first
    // `Welcome` on the lane.
    let mut outs = Vec::new();
    for edge in spec.out_edges.iter().copied() {
        let (data_tx, data_rx) = link::<Message>(LinkConfig::instant());
        // The ring the downstream's checkpoints trim: `edge.retained`.
        data_tx.set_metrics(EdgeMetrics::registered(&obs.registry, spec.worker, edge));
        let slot = DialSlot::new();
        OutBridge {
            edge,
            incarnation: spec.incarnation,
            transport: transport.clone(),
            dial: slot.clone(),
            data_rx,
            metrics: TransportMetrics::registered(&obs.registry, spec.worker, edge),
            shutdown: shutdown.clone(),
            first_welcome: Some(lane.queue()),
        }
        .start();
        inbox.wake_on_room(&data_tx);
        outs.push((edge, slot, data_tx));
    }

    let mut seed = Some(NodeSeed {
        id: OperatorId::new(spec.worker),
        operator,
        config: spec.config,
        clock,
        inbox,
        down: Vec::new(),
        log,
        obs,
        exits: None,
        recovering: spec.incarnation > 0,
    });
    let mut welcomed: HashMap<u32, EdgeCursor> = HashMap::new();
    let wiring = Instant::now() + WIRING_TIMEOUT;
    loop {
        // The node starts once every out-edge is welcomed: the receiver
        // cursors, applied to the link counters before it runs. `next_seq`
        // re-bases fresh output frames; the counts are the re-derived
        // events and finalizes to suppress.
        if seed.is_some() && welcomed.len() == outs.len() {
            let mut seed = seed.take().expect("not started yet");
            for (edge, _, data_tx) in &outs {
                let welcomed = welcomed[edge];
                data_tx.set_next_seq(welcomed.next_seq());
                let sent = Sent {
                    events: AtomicU64::new(welcomed.events()),
                    finals: AtomicU64::new(welcomed.finals()),
                    by_receiver: true,
                    ..Sent::default()
                };
                seed.down.push(DownEdge { data_tx: data_tx.clone(), sent: Arc::new(sent) });
            }
            Node::start(seed);
        }
        let msg = match lane.next(seed.as_ref().map(|_| wiring)) {
            Ok(Some(LaneEvent::Parent(msg))) => msg,
            Ok(Some(LaneEvent::Welcomed(edge, cursor))) => {
                welcomed.insert(edge, cursor);
                continue;
            }
            Ok(Some(LaneEvent::ReaderEnded(_))) => continue,
            Ok(None) => {
                eprintln!("worker {}: never wired", spec.worker);
                return exit::WIRING;
            }
            Err(e) => {
                eprintln!("worker {}: control plane lost: {e}", spec.worker);
                shutdown.store(true, Ordering::Release);
                return if seed.is_some() { exit::WIRING } else { exit::OK };
            }
        };
        match msg {
            // A downstream neighbor (re)started at a new address: its
            // bridge, parked between dials of the dead one, dials now.
            CtrlMsg::Wire { outs: wired } => {
                for (edge, addr) in wired {
                    if let Some((_, slot, _)) = outs.iter().find(|(out, ..)| *out == edge) {
                        slot.set(Some(addr));
                    }
                }
            }
            CtrlMsg::Fault(FaultCmd::ListenerDrop { millis }) => {
                acceptor.drop_listener(Duration::from_millis(millis));
            }
            CtrlMsg::Fault(FaultCmd::PauseInbound { edge, millis }) => {
                acceptor.pause_inbound(edge, Duration::from_millis(millis));
            }
            CtrlMsg::Fault(FaultCmd::PauseBeats { millis }) => {
                lane.pause_beats(Duration::from_millis(millis));
            }
            CtrlMsg::Fence => {
                shutdown.store(true, Ordering::Release);
                return exit::FENCED;
            }
            CtrlMsg::Shutdown => {
                // The final report carries the whole journal (watermark 0
                // — the aggregator dedups) and the closing snapshot, so a
                // clean shutdown never strands the tail of this
                // incarnation's history.
                lane.report(0);
                shutdown.store(true, Ordering::Release);
                acceptor.poke();
                return exit::OK;
            }
            _ => {}
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
    /// predecessor's image: each upstream is welcomed at the position, with
    /// the events read of that port and the finals read below the position.
    /// A committed-prefix image reads fewer finals than events: the
    /// finalizes of events it read lie past its position. An image of
    /// another shape primes nothing.
    #[test]
    fn in_edges_primed_from_a_two_port_image_welcome_each_upstream_at_its_own_frontier() {
        let at = |position, events, finals| InputFrontier {
            position,
            events,
            finals,
            covered_below: events,
        };
        let image = Checkpoint { inputs: vec![at(5, 7, 4), at(3, 2, 2)], ..Checkpoint::default() };
        let transport: Arc<dyn Transport> =
            Arc::new(MemTransport::new().with_read_timeout(Duration::from_millis(20)));
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut ends = Vec::new();
        let mut in_edges = Vec::new();
        for (edge, cursor) in [10, 11].into_iter().zip(in_edge_cursors(Some(image.clone()), 2)) {
            let (data_tx, data_rx) = link::<Message>(LinkConfig::instant());
            ends.push(data_rx);
            let metrics = TransportMetrics::detached();
            in_edges.push(InEdge { edge, data_tx, cursor, on_advance: None, metrics });
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
        let primed = |next_seq, events_received, finals_received| DistFrame::Welcome {
            next_seq,
            events_received,
            finals_received,
        };
        assert_eq!(welcome(10), primed(5, 7, 4));
        assert_eq!(welcome(11), primed(3, 2, 2));
        let misfit = in_edge_cursors(Some(image), 3);
        let fresh: Vec<(u64, u64)> = misfit.iter().map(|c| (c.next_seq(), c.events())).collect();
        assert_eq!(fresh, vec![(0, 0); 3]);
        shutdown.store(true, Ordering::Release);
        acceptor.poke();
    }
}
