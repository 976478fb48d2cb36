//! Graph construction and runtime control.
//!
//! A [`GraphBuilder`] assembles an acyclic operator graph with external
//! sources and observing sinks, validates it, and [`Graph::start`]s it into
//! a [`Running`] instance: one coordinator thread per operator, simulated
//! links between them, plus crash / recovery control for fault-injection
//! experiments.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam_channel::{Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use streammine_common::clock::{shared, SharedClock, SystemClock};
use streammine_common::error::{Error, Result};
use streammine_common::ids::OperatorId;
use streammine_net::{link, EdgeMetrics, LinkConfig, LinkReceiver, LinkSender};
use streammine_obs::{FaultKind, Obs, RecoveryTimeline, RegistrySnapshot};
use streammine_storage::checkpoint::Checkpoint;
use streammine_storage::log::{LogObs, StableLog};

use crate::config::OperatorConfig;
use crate::determinant::read_back;
use crate::endpoints::{SinkHandle, SourceHandle};
use crate::message::Message;
use crate::node::{Exit, Node, NodeSeed};
use crate::operator::Operator;
use crate::plumbing::{DownEdge, Inbox, NodeCommand, Notice, Sent};
use crate::restart::Restarts;

/// Identifies an external source created by the builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceId(pub usize);

/// Identifies a sink created by the builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SinkId(pub usize);

struct OpSpec {
    operator: Arc<dyn Operator>,
    config: OperatorConfig,
}

/// Builder for operator graphs.
///
/// See the crate-level quickstart for a complete worked example.
pub struct GraphBuilder {
    ops: Vec<OpSpec>,
    op_edges: Vec<(OperatorId, OperatorId)>,
    sources: Vec<OperatorId>, // target operator of each source
    sinks: Vec<OperatorId>,   // source operator of each sink
    clock: SharedClock,
    link_config: LinkConfig,
    obs: Obs,
}

impl fmt::Debug for GraphBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GraphBuilder")
            .field("operators", &self.ops.len())
            .field("edges", &self.op_edges.len())
            .field("sources", &self.sources.len())
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl Default for GraphBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl GraphBuilder {
    /// Creates an empty builder with a system clock and zero-delay links.
    pub fn new() -> Self {
        GraphBuilder {
            ops: Vec::new(),
            op_edges: Vec::new(),
            sources: Vec::new(),
            sinks: Vec::new(),
            clock: shared(SystemClock::new()),
            link_config: LinkConfig::instant(),
            obs: Obs::new(),
        }
    }

    /// Uses a custom clock for all components.
    #[must_use]
    pub fn with_clock(mut self, clock: SharedClock) -> Self {
        self.clock = clock;
        self
    }

    /// Uses a caller-supplied observability bundle (e.g. [`Obs::tracing`]
    /// to capture the full speculation lifecycle in the journal). By
    /// default the graph creates its own bundle, reachable through
    /// [`Running::obs`].
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Uses a custom link delay model for all operator-to-operator links
    /// (the LAN/WAN scenarios discussed under Figure 3).
    #[must_use]
    pub fn with_links(mut self, config: LinkConfig) -> Self {
        self.link_config = config;
        self
    }

    /// Adds an operator with its configuration; returns its id.
    pub fn add_operator(&mut self, operator: impl Operator, config: OperatorConfig) -> OperatorId {
        let id = OperatorId::new(self.ops.len() as u32);
        self.ops.push(OpSpec { operator: Arc::new(operator), config });
        id
    }

    fn check_op(&self, id: OperatorId) -> Result<()> {
        if (id.index() as usize) < self.ops.len() {
            Ok(())
        } else {
            Err(Error::UnknownOperator(id))
        }
    }

    /// Connects operator `from`'s output to a new input port of `to`.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownOperator`] for dangling ids; cycles are detected at
    /// [`GraphBuilder::build`].
    pub fn connect(&mut self, from: OperatorId, to: OperatorId) -> Result<()> {
        self.check_op(from)?;
        self.check_op(to)?;
        if from == to {
            return Err(Error::InvalidGraph(format!("self-loop on {from}")));
        }
        self.op_edges.push((from, to));
        Ok(())
    }

    /// Creates an external source feeding a new input port of `to`.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownOperator`] for dangling ids.
    pub fn source_into(&mut self, to: OperatorId) -> Result<SourceId> {
        self.check_op(to)?;
        self.sources.push(to);
        Ok(SourceId(self.sources.len() - 1))
    }

    /// Attaches a sink observing every output of `from`.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownOperator`] for dangling ids.
    pub fn sink_from(&mut self, from: OperatorId) -> Result<SinkId> {
        self.check_op(from)?;
        self.sinks.push(from);
        Ok(SinkId(self.sinks.len() - 1))
    }

    /// Validates the graph and freezes it.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidGraph`] for cycles or disconnected operators;
    /// [`Error::Config`] for invalid operator configurations.
    pub fn build(self) -> Result<Graph> {
        for (i, spec) in self.ops.iter().enumerate() {
            spec.config.validate().map_err(|e| {
                Error::Config(format!("operator op{i} ({}): {e}", spec.operator.name()))
            })?;
        }
        // Kahn's algorithm over operator-only edges: cycles are fatal
        // (ESP graphs are acyclic by definition, §1).
        let n = self.ops.len();
        let mut indegree = vec![0usize; n];
        for (_, to) in &self.op_edges {
            indegree[to.index() as usize] += 1;
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut visited = 0;
        while let Some(i) = queue.pop() {
            visited += 1;
            for (from, to) in &self.op_edges {
                if from.index() as usize == i {
                    let t = to.index() as usize;
                    indegree[t] -= 1;
                    if indegree[t] == 0 {
                        queue.push(t);
                    }
                }
            }
        }
        if visited != n {
            return Err(Error::InvalidGraph("cycle in operator graph".into()));
        }
        Ok(Graph { builder: self })
    }
}

/// A validated, not-yet-running graph.
pub struct Graph {
    builder: GraphBuilder,
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.builder.fmt(f)
    }
}

/// The per-node state that survives crashes: links, sequence counters,
/// retained output buffers, the log of its decisions and checkpoints —
/// everything the paper's model keeps outside the failed process — plus
/// where its coordinator reports its exit.
pub(crate) struct NodePersist {
    id: OperatorId,
    operator: Arc<dyn Operator>,
    config: OperatorConfig,
    inbox: Arc<Inbox>,
    log: Option<StableLog>,
    down_data: Vec<LinkSender<Message>>,
    /// Per-edge cumulative send counters (see [`Sent`]); survive restarts
    /// with the links.
    down_sent: Vec<Arc<Sent>>,
    join: Mutex<Option<JoinHandle<()>>>,
    clock: SharedClock,
    exits: Sender<Exit>,
    obs: Obs,
}

impl NodePersist {
    fn seed(&self, recovering: bool) -> NodeSeed {
        NodeSeed {
            id: self.id,
            operator: self.operator.clone(),
            config: self.config.clone(),
            clock: self.clock.clone(),
            inbox: self.inbox.clone(),
            down: self
                .down_data
                .iter()
                .zip(&self.down_sent)
                .map(|(d, sent)| DownEdge { data_tx: d.clone(), sent: sent.clone() })
                .collect(),
            log: self.log.clone(),
            obs: self.obs.clone(),
            exits: Some(self.exits.clone()),
            recovering,
        }
    }

    /// Joins a dead coordinator, discards the notices in flight to it, and
    /// starts a fresh coordinator in recovery mode (checkpoint restore +
    /// log replay + input rewind) — unless the graph is `stopping`:
    /// `false` then, and no coordinator runs.
    fn restart(&self, stopping: &AtomicBool) -> bool {
        // Under the lock, so a crash or a shutdown finds the old
        // coordinator or the new one, never the gap between them.
        let mut join = self.join.lock();
        if let Some(old) = join.take() {
            let _ = old.join();
        }
        self.inbox.drain();
        // After the drain: a shutdown that sets the flag later posts its
        // command to the new coordinator.
        if stopping.load(Ordering::SeqCst) {
            return false;
        }
        *join = Some(Node::start(self.seed(true)));
        true
    }
}

impl Graph {
    /// Wires the links, spawns all node threads and endpoint helpers.
    pub fn start(self) -> Running {
        let b = self.builder;
        let clock = b.clock.clone();
        let obs = b.obs.clone();
        let n = b.ops.len();
        let (signals, exits) = crossbeam_channel::unbounded();

        // Per node, in port / output order: the rings it reads (its
        // inbox) and the senders it writes. A node reads its rings itself;
        // what it leaves unread fills the window — backpressure end to end.
        // Each edge is one ring: its reader acknowledges on it what it will
        // never read again.
        let mut inputs: Vec<Vec<LinkReceiver<Message>>> = (0..n).map(|_| Vec::new()).collect();
        let mut down_data: Vec<Vec<LinkSender<Message>>> = (0..n).map(|_| Vec::new()).collect();
        let mut edges: Vec<LinkSender<Message>> = Vec::new();

        // Operator-to-operator edges.
        for (from, to) in &b.op_edges {
            let f = from.index() as usize;
            let t = to.index() as usize;
            let (data_tx, data_rx) = link::<Message>(b.link_config.clone());
            let out = down_data[f].len() as u32;
            data_tx.set_metrics(EdgeMetrics::registered(&obs.registry, f as u32, out));
            inputs[t].push(data_rx);
            edges.push(data_tx.clone());
            down_data[f].push(data_tx);
        }

        // External sources.
        let mut sources = Vec::new();
        for (i, to) in b.sources.iter().enumerate() {
            let t = to.index() as usize;
            let (data_tx, data_rx) = link::<Message>(b.link_config.clone());
            inputs[t].push(data_rx);
            let source_id = OperatorId::new((n + i) as u32);
            sources.push(SourceHandle::new(source_id, data_tx, clock.clone(), &b.obs));
        }

        // Sinks.
        let mut sinks = Vec::new();
        for from in &b.sinks {
            let f = from.index() as usize;
            let (data_tx, data_rx) = link::<Message>(b.link_config.clone());
            let out = down_data[f].len() as u32;
            data_tx.set_metrics(EdgeMetrics::registered(&obs.registry, f as u32, out));
            down_data[f].push(data_tx);
            sinks.push(SinkHandle::new(data_rx, clock.clone(), &obs, f as u32, out));
        }

        // Persistent per-node infrastructure + node threads.
        let mut nodes = Vec::new();
        for (i, spec) in b.ops.into_iter().enumerate() {
            // One durable stream per node that logs or checkpoints.
            let log = spec.config.log_disks().map(StableLog::new);
            if let Some(log) = &log {
                log.attach_obs(LogObs::registered(&obs, i as u32));
            }
            let inbox = Inbox::new(std::mem::take(&mut inputs[i]));
            down_data[i].iter().for_each(|out| inbox.wake_on_room(out));
            let persist = NodePersist {
                id: OperatorId::new(i as u32),
                operator: spec.operator,
                config: spec.config,
                inbox,
                log,
                down_sent: (0..down_data[i].len()).map(|_| Arc::default()).collect(),
                down_data: std::mem::take(&mut down_data[i]),
                join: Mutex::new(None),
                clock: clock.clone(),
                exits: signals.clone(),
                obs: obs.clone(),
            };
            *persist.join.lock() = Some(Node::start(persist.seed(false)));
            nodes.push(persist);
        }

        let modes = nodes.iter().map(|n| n.config.recovery.tag()).collect();
        Running {
            clock,
            nodes: Arc::new(nodes),
            edges,
            sources,
            sinks,
            stopping: Arc::new(AtomicBool::new(false)),
            signals,
            exits,
            restarts: Arc::new(Restarts::new(&obs, modes)),
            supervisor: Mutex::new(None),
            obs,
        }
    }
}

/// A running graph: handles to sources, sinks and fault injection.
pub struct Running {
    clock: SharedClock,
    nodes: Arc<Vec<NodePersist>>,
    /// Each operator-to-operator edge's ring (chaos-injection targets).
    edges: Vec<LinkSender<Message>>,
    sources: Vec<SourceHandle>,
    sinks: Vec<SinkHandle>,
    stopping: Arc<AtomicBool>,
    /// Every coordinator's exit report.
    signals: Sender<Exit>,
    exits: Receiver<Exit>,
    restarts: Arc<Restarts>,
    /// The thread [`Running::supervise`] started, if it did.
    supervisor: Mutex<Option<JoinHandle<()>>>,
    obs: Obs,
}

impl fmt::Debug for Running {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Running")
            .field("operators", &self.nodes.len())
            .field("sources", &self.sources.len())
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl Running {
    /// The graph's clock.
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    /// The observability bundle every component of this graph reports
    /// into: the metrics registry and the structured journal.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// A point-in-time snapshot of every engine metric (nodes, edges,
    /// logs, supervisor).
    pub fn metrics(&self) -> RegistrySnapshot {
        self.obs.snapshot()
    }

    /// The metrics in Prometheus text exposition format, ready to serve
    /// from a `/metrics` endpoint.
    pub fn prometheus(&self) -> String {
        self.obs.prometheus()
    }

    /// The metrics as a JSON snapshot document.
    pub fn metrics_json(&self) -> String {
        self.obs.json()
    }

    /// The journal's flight-recorder dump (most recent events, oldest
    /// first) — attach this to failure reports.
    pub fn journal_dump(&self) -> String {
        self.obs.journal.render()
    }

    /// The causal traces recorded so far as Chrome trace-event JSON,
    /// loadable directly in Perfetto (<https://ui.perfetto.dev>) or
    /// `chrome://tracing`. Empty unless the graph was built with a traced
    /// [`Obs`] bundle (e.g. `Obs::traced(64)`).
    pub fn chrome_trace(&self) -> String {
        self.obs.tracer.chrome_trace()
    }

    /// Starts a blocking HTTP scrape endpoint on `addr` (use
    /// `"127.0.0.1:0"` for an ephemeral port) serving `/metrics`
    /// (Prometheus), `/metrics.json`, `/journal`, and `/traces` live from
    /// this graph's observability bundle. The endpoint runs on one
    /// background thread until the returned handle is stopped or dropped.
    ///
    /// # Errors
    ///
    /// Returns the bind error if the address is unavailable.
    pub fn serve_http(&self, addr: &str) -> std::io::Result<streammine_obs::HttpServer> {
        streammine_obs::serve(&self.obs, addr)
    }

    /// Handle to a source.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    pub fn source(&self, id: SourceId) -> &SourceHandle {
        &self.sources[id.0]
    }

    /// Handle to a sink.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    pub fn sink(&self, id: SinkId) -> &SinkHandle {
        &self.sinks[id.0]
    }

    /// The log of an operator: its decisions, when it logs them, and its
    /// checkpoint images (diagnostics / experiments / fault injection).
    /// `None` for an operator that neither logs nor checkpoints.
    pub fn operator_log(&self, op: OperatorId) -> Option<&StableLog> {
        self.nodes.get(op.index() as usize).and_then(|n| n.log.as_ref())
    }

    /// The newest stable checkpoint image in an operator's log — the one
    /// a recovery would restore (diagnostics).
    pub fn operator_image(&self, op: OperatorId) -> Option<Checkpoint> {
        read_back(self.operator_log(op)?.stable_entries()).image
    }

    /// Number of operators in the graph.
    pub fn operator_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of operator-to-operator edges (chaos-injection targets).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Severs the data link of edge `i`: what is sent from now on waits
    /// in the link until [`Running::heal_edge_data`].
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range edge index.
    pub fn sever_edge_data(&self, i: usize) {
        self.edges[i].sever();
    }

    /// Heals the data link of edge `i`; the backlog flows in order.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range edge index.
    pub fn heal_edge_data(&self, i: usize) {
        self.edges[i].heal();
    }

    /// Holds the acknowledgments on edge `i`'s ring — delaying them
    /// without touching data flow, or recovery: a node rewinds its input
    /// rings itself. The highest one taken meanwhile applies at
    /// [`Running::heal_edge_ctrl`].
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range edge index.
    pub fn sever_edge_ctrl(&self, i: usize) {
        self.edges[i].hold_acks();
    }

    /// Releases the acknowledgments held on edge `i`'s ring.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range edge index.
    pub fn heal_edge_ctrl(&self, i: usize) {
        self.edges[i].release_acks();
    }

    /// Edge `i`'s ack watermark: its receiver acknowledged every frame
    /// below it (diagnostics).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range edge index.
    pub fn edge_acked(&self, i: usize) -> u64 {
        self.edges[i].acked()
    }

    /// Messages held by every ring of the graph: each source's, then each
    /// operator's output rings in output order (its edges and its sinks).
    /// A reader acknowledges what it will never read again — a node below
    /// its stable image, a sink below its first record not final — so a
    /// ring read by either stays bounded however long the graph runs
    /// (diagnostics).
    pub fn rings_retained(&self) -> Vec<usize> {
        let nodes =
            self.nodes.iter().flat_map(|n| n.down_data.iter().map(LinkSender::retained_len));
        self.sources.iter().map(SourceHandle::retained).chain(nodes).collect()
    }

    /// Number of sinks (chaos-injection targets for slow-consumer stalls).
    pub fn sink_count(&self) -> usize {
        self.sinks.len()
    }

    /// Stalls sink `i`'s collector for `window`: it stops draining its
    /// link, so the upstream edge's window fills and backpressure
    /// propagates into the graph — the slow-consumer nemesis.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range sink index.
    pub fn stall_sink(&self, i: usize, window: Duration) {
        self.sinks[i].stall_for(window);
    }

    /// Adds `extra` propagation delay to every data delivery on edge `i`
    /// starting within the next `window` (a congestion spike).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range edge index.
    pub fn delay_spike_edge(&self, i: usize, extra: Duration, window: Duration) {
        self.edges[i].delay_spike(extra, window);
    }

    /// Sets the transient write-fault probability on every device of
    /// `op`'s log, which carries its decisions and its checkpoint images.
    /// No-op for an operator without a log.
    pub fn set_storage_fault_rate(&self, op: OperatorId, rate: f64) {
        for dev in self.operator_log(op).map_or(&[][..], StableLog::devices) {
            dev.set_fault_rate(rate);
        }
    }

    /// Stalls every write to `op`'s log — decisions and images — starting
    /// within the next `window` (a controller hiccup). No-op without a log.
    pub fn stall_storage(&self, op: OperatorId, window: Duration) {
        for dev in self.operator_log(op).map_or(&[][..], StableLog::devices) {
            dev.stall_for(window);
        }
    }

    /// Starts the supervisor: one thread that waits for coordinator
    /// threads to exit and restarts every one that crashed — a simulated
    /// crash or a panic — from its checkpoint (restore + log replay +
    /// input rewind). A first crash restarts at once; a crash within
    /// 200 ms of the operator's last restart waits 4 ms, doubling per
    /// such crash up to 40 ms. It runs until [`Running::shutdown`]; a
    /// second call does nothing.
    pub fn supervise(&self) {
        let mut supervisor = self.supervisor.lock();
        if supervisor.is_some() {
            return;
        }
        // Exits from before supervision are not its to restart.
        while self.exits.try_recv().is_ok() {}
        let (nodes, stopping) = (self.nodes.clone(), self.stopping.clone());
        let (exits, restarts) = (self.exits.clone(), self.restarts.clone());
        *supervisor = std::thread::Builder::new()
            .name("supervisor".into())
            .spawn(move || supervise(&nodes, &stopping, &exits, &restarts))
            .ok();
    }

    /// Supervised restarts so far.
    pub fn restarts(&self) -> u64 {
        self.restarts.count(None)
    }

    /// One timeline per supervised restart, in restart order; stamps are
    /// microseconds since the graph started. The thread's exit is both
    /// detection and fence, and the restart is the respawn; the later
    /// phases belong to processes. The attempt and the backoff are in the
    /// journal's `Restart` record.
    pub fn recovery_timelines(&self) -> Vec<RecoveryTimeline> {
        self.restarts.timelines()
    }

    /// Simulates a crash of `op`: the node thread stops and all volatile
    /// state (operator state, in-flight transactions, queued messages) is
    /// lost. Links and logs, with their checkpoint images, survive.
    ///
    /// # Panics
    ///
    /// Panics on an unknown operator.
    pub fn crash(&self, op: OperatorId) {
        let node = &self.nodes[op.index() as usize];
        // Held across the crash, so a supervised restart runs before it or
        // after it, never half-way through.
        let mut join = node.join.lock();
        // Commands are notices: a node stalled on backpressure still sees
        // the crash immediately.
        node.inbox.post(Notice::Command(NodeCommand::Crash));
        if let Some(join) = join.take() {
            let _ = join.join();
        }
        // Notices in flight die with the process.
        node.inbox.drain();
    }

    /// Restarts a crashed operator: restores the latest checkpoint, replays
    /// the stable log's determinants, and rewinds its input rings to the
    /// checkpoint's positions — the paper's precise recovery procedure
    /// (§2.2). Its "ask the upstream to resend" is no message here: the
    /// rings outlive the operator and it moves its own cursors back, so
    /// recovery waits for neither the upstream nor its acks.
    ///
    /// # Panics
    ///
    /// Panics if the operator is still running.
    pub fn recover(&self, op: OperatorId) {
        let node = &self.nodes[op.index() as usize];
        assert!(node.join.lock().is_none(), "recover() on a running operator {op}");
        node.restart(&self.stopping);
    }

    /// Stops all operators and waits for their threads.
    pub fn shutdown(self) {
        // No restart begins after this.
        self.stopping.store(true, Ordering::SeqCst);
        for node in self.nodes.iter() {
            node.inbox.post(Notice::Command(NodeCommand::Shutdown));
        }
        for node in self.nodes.iter() {
            if let Some(join) = node.join.lock().take() {
                let _ = join.join();
            }
        }
        // The coordinators' exits woke the supervisor, unless none ran:
        // one more report does.
        if let Some(supervisor) = self.supervisor.lock().take() {
            let _ = self.signals.send(Exit { op: OperatorId::new(0), crashed: false });
            let _ = supervisor.join();
        }
        for node in self.nodes.iter() {
            if let Some(log) = &node.log {
                log.shutdown();
            }
        }
    }
}

/// The in-process respawn step: a crashed coordinator's exit is its
/// slot's failure, and a restart that falls due starts a new coordinator.
/// Returns once the graph stops.
fn supervise(
    nodes: &[NodePersist],
    stopping: &AtomicBool,
    exits: &Receiver<Exit>,
    restarts: &Restarts,
) {
    while !stopping.load(Ordering::SeqCst) {
        let exit = match restarts.next_due() {
            Some(at) => exits.recv_timeout(at.saturating_duration_since(Instant::now())),
            None => exits.recv().map_err(|_| RecvTimeoutError::Disconnected),
        };
        match exit {
            // Nothing of the old coordinator outlives its exit: no fence.
            Ok(Exit { op, crashed: true }) => restarts.failed(op.index(), FaultKind::Crash, || {}),
            Ok(Exit { crashed: false, .. }) | Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
        while let Some(due) = restarts.take_due(Instant::now()) {
            if !nodes[due.slot as usize].restart(stopping) {
                return;
            }
            restarts.restarted(due);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{OpCtx, Operator};
    use streammine_common::event::Event;
    use streammine_stm::StmAbort;

    struct Passthrough;
    impl Operator for Passthrough {
        fn name(&self) -> &str {
            "passthrough"
        }
        fn process(
            &self,
            ctx: &mut OpCtx<'_, '_>,
            event: &Event,
        ) -> std::result::Result<(), StmAbort> {
            ctx.emit(event.payload.clone());
            Ok(())
        }
    }

    #[test]
    fn builder_validates_unknown_ids_and_self_loops() {
        let mut b = GraphBuilder::new();
        let a = b.add_operator(Passthrough, OperatorConfig::plain());
        assert!(b.connect(a, OperatorId::new(9)).is_err());
        assert!(b.connect(a, a).is_err());
        assert!(b.source_into(OperatorId::new(9)).is_err());
        assert!(b.sink_from(OperatorId::new(9)).is_err());
    }

    #[test]
    fn builder_detects_cycles() {
        let mut b = GraphBuilder::new();
        let a = b.add_operator(Passthrough, OperatorConfig::plain());
        let c = b.add_operator(Passthrough, OperatorConfig::plain());
        b.connect(a, c).unwrap();
        b.connect(c, a).unwrap();
        let err = b.build().unwrap_err();
        assert!(matches!(err, Error::InvalidGraph(_)));
    }

    #[test]
    fn builder_rejects_invalid_operator_config() {
        let mut b = GraphBuilder::new();
        let bad = OperatorConfig { threads: 3, ..OperatorConfig::plain() };
        b.add_operator(Passthrough, bad);
        assert!(matches!(b.build().unwrap_err(), Error::Config(_)));
    }

    #[test]
    fn acyclic_graph_builds() {
        let mut b = GraphBuilder::new();
        let a = b.add_operator(Passthrough, OperatorConfig::plain());
        let c = b.add_operator(Passthrough, OperatorConfig::plain());
        b.connect(a, c).unwrap();
        b.source_into(a).unwrap();
        b.sink_from(c).unwrap();
        assert!(b.build().is_ok());
    }
}
