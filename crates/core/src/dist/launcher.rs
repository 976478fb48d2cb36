//! The multi-process launcher: one OS process per operator, supervised.
//!
//! [`Cluster::launch`] spawns a chain of worker processes (one
//! [`NodeSpec`] each), hosts the graph's endpoints (source, sink) and the
//! [control plane](super::control) in the calling process, and runs a
//! **monitor** that turns two failure signals into restarts:
//!
//! * the **end of a process** — a crash, e.g. the nemesis's SIGKILL. Each
//!   incarnation has a reaper thread blocked on the child's piped stdout,
//!   which nothing writes and which reads end-of-file once the process has
//!   ended, however it ended: before its `Hello` or after. The reaper
//!   posts the exit, with its incarnation, to the monitor's queue;
//! * a **lease expiry** — no heartbeat inside the lease window while the
//!   process still runs: a partition (or a wedged process), killed and
//!   restarted just like a crash but counted separately.
//!
//! The monitor sleeps on the control plane's event queue: a `Hello` is
//! wired the moment it arrives, and an exit restarts its slot the moment
//! it arrives. The tick ([`ClusterSpec::poll`]) is the lease check and
//! nothing else. A closed control connection restarts nobody: a live
//! worker that lost its connection redials.
//!
//! A restart bumps the worker's incarnation and raises the control
//! plane's expected epoch *before* the replacement spawns, so a zombie of
//! the old incarnation is fenced rather than allowed to double-drive the
//! topology. The restarted process rebuilds its node from the spec and its
//! predecessor's newest checkpoint image, re-handshakes its edges, and the
//! combination of upstream retention replay (from the checkpoint's
//! position) + handshake resend-suppression yields output byte-identical
//! to a failure-free run. The images live in one directory per cluster,
//! under the temp directory, created by [`Cluster::launch`] and removed by
//! [`Cluster::shutdown`].
//!
//! Precise workers speculate ([`super::worker`]): what crosses the
//! sockets between them is speculative until its `Finalize` follows. The
//! cluster's sink is the barrier — [`SinkHandle`] reports an event final
//! only when the last worker said so, and only finals count as output
//! here: in what [`Cluster::sink`] hands out and in the recovery
//! timelines' `first_output` and `drain`.

use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam_channel::{RecvTimeoutError, Sender};
use parking_lot::{Condvar, Mutex};
use streammine_common::clock::{shared, SystemClock};
use streammine_common::ids::OperatorId;
use streammine_net::{link, EdgeMetrics, LinkConfig, TcpTransport, Transport};
use streammine_obs::{
    prometheus_text, timelines_json, ClusterObs, Counter, FaultKind, HttpServer, Labels, Obs,
    RecoveryTimeline, RegistrySnapshot, TransportMetrics,
};

use streammine_sketch::ErrorBound;

use crate::config::{RecoveryMode, CHECKPOINT_EVERY};
use crate::dist::bridge::{Acceptor, DialSlot, EdgeCursor, InEdge, OutBridge};
use crate::dist::control::{ControlPlane, CtrlEvent, LeaseView};
use crate::dist::spec::{WorkerSpec, SPEC_ENV};
use crate::dist::wire::{CtrlMsg, FaultCmd};
use crate::endpoints::{SinkHandle, SourceHandle};
use crate::message::{Control, Message};

/// How long [`Cluster::shutdown`] lets the workers finish by themselves.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(2);

/// One operator slot in the cluster chain.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// Operator name, resolved by the worker binary's registry.
    pub operator: String,
    /// Simulated stable-log write latency, microseconds.
    pub log_micros: u64,
    /// Replicated decision-log disks.
    pub disks: u32,
    /// Crash-recovery contract: precise (the default) or approximate
    /// under a declared bound.
    pub recovery: RecoveryMode,
    /// Checkpoint interval in processed events (`None` = no
    /// checkpointing: nothing is acked upstream and recovery is a full
    /// upstream replay). Every image goes into the cluster's checkpoint
    /// directory, where the respawned process finds its predecessor's.
    pub checkpoint_every: Option<u64>,
}

impl NodeSpec {
    /// A precise slot that logs each event's decisions on `disks` devices
    /// of `log_micros` write latency and checkpoints every 64 events. The
    /// log makes its output *final*, not sendable: the worker forwards
    /// every output at once, speculative, and finalizes it when the record
    /// is stable (and the input itself final), so a chain of such slots
    /// waits for one log write, not one per slot. The checkpoint acks its
    /// upstream's retention away, and a replacement resumes from it,
    /// replaying only the suffix after it.
    pub fn logged(operator: &str, log_micros: u64, disks: u32) -> NodeSpec {
        NodeSpec {
            operator: operator.into(),
            log_micros,
            disks,
            recovery: RecoveryMode::Precise,
            checkpoint_every: Some(CHECKPOINT_EVERY),
        }
    }

    /// Switches the slot to approximate recovery: checkpoints every
    /// `every` events, resumes stale within `bound`.
    #[must_use]
    pub fn with_approximate_recovery(mut self, bound: ErrorBound, every: u64) -> NodeSpec {
        self.recovery = RecoveryMode::Approximate(bound);
        self.checkpoint_every = Some(every);
        self
    }
}

/// The directory a cluster's workers keep their checkpoint images in: one
/// per [`Cluster::launch`], named by process id and a process-wide count so
/// two clusters never share one, removed with the cluster.
struct CheckpointDir(PathBuf);

impl CheckpointDir {
    fn create() -> Result<CheckpointDir, String> {
        static LAUNCHED: AtomicU64 = AtomicU64::new(0);
        let n = LAUNCHED.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("streammine-cluster-{}-{n}", std::process::id()));
        // One already there was left by a dead process that had this pid:
        // its images would pass for the predecessors of this cluster's
        // first incarnations.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("checkpoint dir {}: {e}", path.display()))?;
        Ok(CheckpointDir(path))
    }

    fn remove(&self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

impl Drop for CheckpointDir {
    fn drop(&mut self) {
        self.remove();
    }
}

/// Configuration of a [`Cluster`].
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// The operator chain, upstream to downstream. One process each.
    pub operators: Vec<NodeSpec>,
    /// Path to the worker binary (calls [`super::worker_main`]).
    pub worker_bin: PathBuf,
    /// Worker heartbeat interval.
    pub beat: Duration,
    /// Silence after which a lease is declared expired.
    pub lease_timeout: Duration,
    /// Lease check interval.
    pub poll: Duration,
    /// Per-worker RNG seed base: worker `i` gets `base + i`. Matches the
    /// in-process graph's convention so a single-process run of the same
    /// chain is the byte-identical reference.
    pub rng_seed_base: u64,
    /// Causal-tracer sampling rate for the whole cluster: trace one source
    /// event in this many (`0` = tracing off). Applied to the parent's
    /// endpoints and every worker, so sampled trace ids line up across
    /// processes and stitch into one timeline.
    pub trace_one_in: u64,
    /// How often each worker pushes a telemetry report up the control
    /// lane, milliseconds (`0` = only the final flush on clean shutdown).
    pub telemetry_millis: u64,
}

impl ClusterSpec {
    /// A chain of `operators` with the default timing (20 ms beats,
    /// 250 ms leases checked every 25 ms) and the in-process RNG seeds.
    pub fn new(operators: Vec<NodeSpec>, worker_bin: PathBuf) -> ClusterSpec {
        ClusterSpec {
            operators,
            worker_bin,
            beat: Duration::from_millis(20),
            lease_timeout: Duration::from_millis(250),
            poll: Duration::from_millis(25),
            rng_seed_base: 0xABCD_0000,
            trace_one_in: 0,
            telemetry_millis: 50,
        }
    }
}

struct WorkerSlot {
    child: Option<Child>,
    incarnation: u64,
    spawned_at: Instant,
    /// Set once this incarnation's `Hello` arrived (lease checks start
    /// only then — a booting process is not "partitioned").
    seen_hello: bool,
    /// Control connections of this incarnation that said `Hello` and have
    /// not closed since. Shutdown waits for it to reach zero.
    open_conns: u32,
}

/// Whether `slot`'s lease has expired: its incarnation said `Hello` and
/// has not beaten within `lease_timeout`, or its lease was evicted (fenced)
/// and no newer incarnation of it came back within four lease times. A
/// booting process is not partitioned: before its `Hello` nothing expires.
fn lease_expired(
    lease: Option<&LeaseView>,
    slot: &WorkerSlot,
    now: Instant,
    lease_timeout: Duration,
) -> bool {
    slot.seen_hello
        && match lease {
            Some(l) => {
                l.epoch == slot.incarnation
                    && now.saturating_duration_since(l.last_beat) > lease_timeout
            }
            None => now.saturating_duration_since(slot.spawned_at) > lease_timeout * 4,
        }
}

/// The launcher's recovery counters, as the registry exports them. The
/// counts [`Cluster`] reports are the timelines'.
struct Counters {
    crash_detected: Counter,
    lease_expired: Counter,
    restarts: Counter,
}

/// A recovery timeline under assembly: the launcher-side phases are
/// stamped synchronously by the monitor; the rest fill in as the
/// replacement's `Hello` arrives (monitor) and the sink edge accepts
/// output again (the sink connection's thread, as it happens).
struct PendingTimeline {
    timeline: RecoveryTimeline,
    /// Finals the sink edge had counted at detection: one beyond this
    /// proves the replacement's replayed deliveries — and their finalizes
    /// — reached the end of the chain.
    cursor_at_detect: u64,
}

struct TimelineState {
    pending: Vec<PendingTimeline>,
    last_cursor: u64,
    last_advance_us: u64,
}

struct MonitorShared {
    slots: Mutex<Vec<WorkerSlot>>,
    addrs: Mutex<Vec<Option<String>>>,
    /// Notified whenever the monitor records an address in `addrs`.
    wired: Condvar,
    counters: Counters,
    stopping: AtomicBool,
    /// Cluster-level aggregation of worker telemetry reports.
    telemetry: ClusterObs,
    timelines: Mutex<TimelineState>,
    /// Zero of the cluster clock all timeline stamps use.
    epoch: Instant,
}

impl MonitorShared {
    /// The bookkeeping of an `n`-worker cluster nobody has joined yet.
    fn new(obs: &Obs, n: usize) -> MonitorShared {
        MonitorShared {
            slots: Mutex::new(Vec::new()),
            addrs: Mutex::new(vec![None; n]),
            wired: Condvar::new(),
            counters: Counters {
                crash_detected: obs.registry.counter("control.crash_detected", Labels::NONE),
                lease_expired: obs.registry.counter("control.lease_expired", Labels::NONE),
                restarts: obs.registry.counter("recovery.restarts", Labels::NONE),
            },
            stopping: AtomicBool::new(false),
            telemetry: ClusterObs::new(),
            timelines: Mutex::new(TimelineState {
                pending: Vec::new(),
                last_cursor: 0,
                last_advance_us: 0,
            }),
            epoch: Instant::now(),
        }
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// The sink edge's advance hook: tracks how many events the edge has
    /// delivered *final* — a speculative arrival is not output anybody may
    /// act on — and stamps `first_output` on pending timelines whose
    /// replacement has handshaked and whose backlog that count has now
    /// passed. Without a fault on record it reads no clock.
    fn observe_cursor(&self, cursor_finals: u64) {
        let mut st = self.timelines.lock();
        if cursor_finals <= st.last_cursor {
            return;
        }
        st.last_cursor = cursor_finals;
        if st.pending.is_empty() {
            return;
        }
        let now = self.now_us();
        st.last_advance_us = now;
        for p in st.pending.iter_mut() {
            if p.timeline.handshake_us.is_some()
                && p.timeline.first_output_us.is_none()
                && cursor_finals > p.cursor_at_detect
            {
                p.timeline.first_output_us = Some(now);
            }
        }
    }

    /// A control connection of `worker` at `incarnation` closed: one
    /// fewer for shutdown to wait for. An older incarnation's is history.
    fn note_gone(&self, worker: u32, incarnation: u64) {
        let mut slots = self.slots.lock();
        if let Some(slot) = slots.get_mut(worker as usize) {
            if slot.incarnation == incarnation {
                slot.open_conns = slot.open_conns.saturating_sub(1);
            }
        }
    }

    /// How many timelines so far are of `kind` (all of them for `None`).
    fn count(&self, kind: Option<FaultKind>) -> u64 {
        let st = self.timelines.lock();
        st.pending.iter().filter(|p| kind.is_none_or(|k| p.timeline.kind == k)).count() as u64
    }

    /// Stamps `handshake` on the pending timeline waiting for this
    /// worker incarnation's `Hello`.
    fn stamp_handshake(&self, worker: u32, incarnation: u64) {
        let mut st = self.timelines.lock();
        let now = self.now_us();
        for p in st.pending.iter_mut() {
            if p.timeline.worker == worker
                && p.timeline.incarnation == incarnation
                && p.timeline.handshake_us.is_none()
            {
                p.timeline.handshake_us = Some(now);
            }
        }
    }

    /// The timelines assembled so far. `drain` resolves lazily to the
    /// sink cursor's last advance, so it settles once the run has drained
    /// and the cursor stops moving.
    fn recovery_timelines(&self) -> Vec<RecoveryTimeline> {
        let st = self.timelines.lock();
        st.pending
            .iter()
            .map(|p| {
                let mut t = p.timeline.clone();
                if t.drain_us.is_none() {
                    if let Some(first) = t.first_output_us {
                        t.drain_us = Some(st.last_advance_us.max(first));
                    }
                }
                t
            })
            .collect()
    }
}

/// A running multi-process cluster: endpoints, nemesis handles, and the
/// supervising monitor.
pub struct Cluster {
    source: SourceHandle,
    sink: SinkHandle,
    obs: Obs,
    plane: Arc<ControlPlane>,
    shared: Arc<MonitorShared>,
    shutdown: Arc<AtomicBool>,
    sink_acceptor: Acceptor,
    /// The monitor thread, joined by the first [`Cluster::shutdown`].
    monitor: Mutex<Option<JoinHandle<()>>>,
    checkpoints: CheckpointDir,
    n: usize,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("workers", &self.n)
            .field("restarts", &self.restarts())
            .field("checkpoints", &self.checkpoints.0)
            .finish()
    }
}

impl Cluster {
    /// Creates the checkpoint directory, spawns the worker processes and
    /// starts the monitor.
    ///
    /// # Errors
    ///
    /// Returns a message when a listener cannot bind, the checkpoint
    /// directory cannot be created or a process cannot spawn.
    pub fn launch(spec: ClusterSpec) -> Result<Cluster, String> {
        let n = spec.operators.len();
        if n == 0 {
            return Err("cluster needs at least one operator".into());
        }
        let obs = if spec.trace_one_in > 0 { Obs::sampled(spec.trace_one_in) } else { Obs::new() };
        let clock = shared(SystemClock::new());
        let transport: Arc<dyn Transport> = Arc::new(TcpTransport::new());
        let shutdown = Arc::new(AtomicBool::new(false));

        let plane = Arc::new(
            ControlPlane::start(transport.clone(), "127.0.0.1:0", shutdown.clone())
                .map_err(|e| format!("control listener: {e}"))?,
        );

        let shared = Arc::new(MonitorShared::new(&obs, n));

        // Sink: real SinkHandle on a local link, fed by an acceptor for
        // the last edge (id = n). The link carries the remote sequence
        // numbers (in-order from 0), so the sink's cumulative acks refer
        // to the sequences the last worker retained.
        let (sink_data_tx, sink_data_rx) = link::<Message>(LinkConfig::instant());
        let (sink_ctrl_tx, sink_ctrl_rx) = link::<Control>(LinkConfig::instant());
        let sink =
            SinkHandle::new(sink_data_rx, sink_ctrl_tx, clock.clone(), &obs, (n - 1) as u32, 0);
        let timelines = shared.clone();
        let sink_acceptor = Acceptor::start(
            transport.clone(),
            "127.0.0.1:0",
            vec![InEdge {
                edge: n as u32,
                data_tx: sink_data_tx,
                ctrl_rx: sink_ctrl_rx,
                cursor: EdgeCursor::default(),
                on_advance: Some(Box::new(move |finals| timelines.observe_cursor(finals))),
                metrics: TransportMetrics::registered(&obs.registry, (n - 1) as u32, n as u32),
            }],
            shutdown.clone(),
        )
        .map_err(|e| format!("sink listener: {e}"))?;

        // Source: real SourceHandle on a local link; its consumer side is
        // a bridge dialing worker 0 (edge 0). The source's responder
        // thread applies the acks arriving back over the socket.
        let (src_data_tx, src_data_rx) = link::<Message>(LinkConfig::instant());
        src_data_tx.set_metrics(EdgeMetrics::registered(&obs.registry, n as u32, 0));
        let (src_ctrl_tx, src_ctrl_rx) = link::<Control>(LinkConfig::instant());
        let source =
            SourceHandle::new(OperatorId::new(n as u32), src_data_tx, src_ctrl_rx, clock, &obs);
        let src_slot = DialSlot::new();
        OutBridge {
            edge: 0,
            incarnation: 0, // the parent process never restarts
            transport: transport.clone(),
            dial: src_slot.clone(),
            data_rx: src_data_rx,
            ctrl_sink: Box::new(move |c| {
                let _ = src_ctrl_tx.send(c);
            }),
            metrics: TransportMetrics::registered(&obs.registry, n as u32, 0),
            shutdown: shutdown.clone(),
            first_welcome: None,
        }
        .start();

        // First generation of children.
        let checkpoints = CheckpointDir::create()?;
        {
            let mut slots = shared.slots.lock();
            for i in 0..n {
                let child = spawn_worker(&spec, &checkpoints.0, i, 0, &plane)?;
                slots.push(WorkerSlot {
                    child: Some(child),
                    incarnation: 0,
                    spawned_at: Instant::now(),
                    seen_hello: false,
                    open_conns: 0,
                });
            }
        }

        // Monitor: lease/exit watching + wiring pushes.
        let monitor = Monitor {
            shared: shared.clone(),
            plane: plane.clone(),
            spec,
            checkpoint_dir: checkpoints.0.clone(),
            src_slot,
            sink_addr: sink_acceptor.local_addr().to_string(),
        };
        let monitor = std::thread::Builder::new()
            .name("cluster-monitor".into())
            .spawn(move || monitor.run())
            .expect("spawn cluster monitor");
        let monitor = Mutex::new(Some(monitor));

        Ok(Cluster {
            source,
            sink,
            obs,
            plane,
            shared,
            shutdown,
            sink_acceptor,
            monitor,
            checkpoints,
            n,
        })
    }

    /// The cluster's source endpoint.
    pub fn source(&self) -> &SourceHandle {
        &self.source
    }

    /// The cluster's sink endpoint.
    pub fn sink(&self) -> &SinkHandle {
        &self.sink
    }

    /// The parent process's observability bundle.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Blocks until every worker holds a lease and is wired end to end.
    pub fn wait_connected(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut addrs = self.shared.addrs.lock();
        while !addrs.iter().all(Option::is_some) {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            self.shared.wired.wait_for(&mut addrs, left);
        }
        true
    }

    /// Nemesis: SIGKILL worker `i`'s process. The monitor detects the
    /// exit and restarts it with a bumped incarnation.
    pub fn kill_worker(&self, i: usize) {
        let mut slots = self.shared.slots.lock();
        if let Some(child) = slots[i].child.as_mut() {
            let _ = child.kill();
        }
    }

    /// Nemesis: worker `i` drops its data listener (refusing + severing
    /// connections) for `window`.
    pub fn drop_listener(&self, i: usize, window: Duration) {
        let cmd = CtrlMsg::Fault(FaultCmd::ListenerDrop { millis: window.as_millis() as u64 });
        self.plane.send_to(i as u32, &cmd);
    }

    /// Nemesis: one-way partition of worker `i`'s inbound edge for
    /// `window` (its outbound control keeps flowing).
    pub fn partition_inbound(&self, i: usize, window: Duration) {
        let cmd = CtrlMsg::Fault(FaultCmd::PauseInbound {
            edge: i as u32,
            millis: window.as_millis() as u64,
        });
        self.plane.send_to(i as u32, &cmd);
    }

    /// Nemesis: worker `i` stops heartbeating for `window` while running
    /// normally — drives the lease-expiry (partition) recovery path.
    pub fn pause_beats(&self, i: usize, window: Duration) {
        let cmd = CtrlMsg::Fault(FaultCmd::PauseBeats { millis: window.as_millis() as u64 });
        self.plane.send_to(i as u32, &cmd);
    }

    /// In-order progress of the sink edge: `(next expected link seq,
    /// events delivered)` — delivered, not necessarily final yet
    /// ([`SinkHandle::final_count`] says how many are). The event count
    /// only moves when a frame arrives in order, so it is the cluster's
    /// end-to-end progress watermark.
    pub fn sink_cursor(&self) -> (u64, u64) {
        self.sink_acceptor.cursor(self.n as u32)
    }

    /// The data-plane address a worker's current incarnation listens on,
    /// if it holds a live lease.
    pub fn worker_addr(&self, worker: u32) -> Option<String> {
        self.plane.lease(worker).map(|l| l.data_addr)
    }

    /// Number of worker processes (slots) in the chain.
    pub fn workers(&self) -> usize {
        self.n
    }

    /// Total worker restarts so far: one recovery timeline each.
    pub fn restarts(&self) -> u64 {
        self.shared.count(None)
    }

    /// Restarts triggered by the end of a worker process.
    pub fn crashes_detected(&self) -> u64 {
        self.shared.count(Some(FaultKind::Crash))
    }

    /// Restarts triggered by lease expiry (partition-style).
    pub fn leases_expired(&self) -> u64 {
        self.shared.count(Some(FaultKind::LeaseExpiry))
    }

    /// Microseconds elapsed on the cluster clock — the time base of every
    /// [`RecoveryTimeline`] stamp.
    pub fn now_us(&self) -> u64 {
        self.shared.now_us()
    }

    /// The launcher-side telemetry aggregator merging worker reports.
    pub fn telemetry(&self) -> &ClusterObs {
        &self.shared.telemetry
    }

    /// Structured per-fault recovery timelines assembled so far.
    pub fn recovery_timelines(&self) -> Vec<RecoveryTimeline> {
        self.shared.recovery_timelines()
    }

    /// Cluster-wide metrics snapshot: the parent's own samples plus the
    /// worker-labeled aggregates from telemetry reports.
    pub fn cluster_snapshot(&self) -> RegistrySnapshot {
        self.shared.telemetry.merged_snapshot(&self.obs.snapshot())
    }

    /// The cluster snapshot in Prometheus text exposition format.
    pub fn cluster_prometheus(&self) -> String {
        prometheus_text(&self.cluster_snapshot())
    }

    /// The cluster snapshot as JSON.
    pub fn cluster_json(&self) -> String {
        streammine_obs::json(&self.cluster_snapshot())
    }

    /// Chrome trace of every worker span pushed so far, stitched across
    /// processes (pid = worker incarnation).
    pub fn cluster_chrome_trace(&self) -> String {
        self.shared.telemetry.chrome_trace()
    }

    /// Serves the cluster telemetry endpoints over HTTP:
    /// `/cluster/metrics`, `/cluster/metrics.json`, `/cluster/journal`,
    /// `/cluster/traces`, and `/cluster/recovery`.
    ///
    /// # Errors
    ///
    /// Returns the bind error when `addr` is unavailable.
    pub fn serve_http(&self, addr: &str) -> std::io::Result<HttpServer> {
        let shared = self.shared.clone();
        let obs = self.obs.clone();
        streammine_obs::serve_with(
            addr,
            Box::new(move |path| {
                let (ct, body) = match path {
                    "/cluster/metrics" => (
                        "text/plain; version=0.0.4",
                        prometheus_text(&shared.telemetry.merged_snapshot(&obs.snapshot())),
                    ),
                    "/cluster/metrics.json" => (
                        "application/json",
                        streammine_obs::json(&shared.telemetry.merged_snapshot(&obs.snapshot())),
                    ),
                    "/cluster/journal" => ("text/plain", shared.telemetry.journal_render()),
                    "/cluster/traces" => ("application/json", shared.telemetry.chrome_trace()),
                    "/cluster/recovery" => {
                        ("application/json", timelines_json(&shared.recovery_timelines()))
                    }
                    "/" => (
                        "text/plain",
                        "streammine cluster: /cluster/metrics /cluster/metrics.json \
                         /cluster/journal /cluster/traces /cluster/recovery\n"
                            .to_string(),
                    ),
                    _ => return None,
                };
                Some((ct.to_string(), body))
            }),
        )
    }

    /// Stops every worker and the parent-side machinery, and removes the
    /// workers' checkpoint images.
    pub fn shutdown(&self) {
        self.shared.stopping.store(true, Ordering::Release);
        for i in 0..self.n {
            self.plane.send_to(i as u32, &CtrlMsg::Shutdown);
        }
        // The monitor ends its watch at the next event — the workers'
        // final telemetry flushes are on their way — and merges what still
        // arrives until every worker's control connection has closed.
        if let Some(monitor) = self.monitor.lock().take() {
            let _ = monitor.join();
        }
        // A closed connection means the process is exiting; whoever is
        // still running had its grace, or never had a connection to be
        // told on.
        for slot in self.shared.slots.lock().iter_mut() {
            if let Some(mut child) = slot.child.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
        // Nobody is left to write an image, or to read one back.
        self.checkpoints.remove();
        self.shutdown.store(true, Ordering::Release);
        self.plane.poke();
        self.sink_acceptor.poke();
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        if !self.shared.stopping.load(Ordering::Acquire) {
            self.shutdown();
        }
    }
}

/// Spawns incarnation `incarnation` of worker `i` and its reaper.
fn spawn_worker(
    spec: &ClusterSpec,
    checkpoint_dir: &Path,
    i: usize,
    incarnation: u64,
    plane: &ControlPlane,
) -> Result<Child, String> {
    let op = &spec.operators[i];
    let wspec = WorkerSpec {
        worker: i as u32,
        incarnation,
        ctrl_addr: plane.local_addr().to_string(),
        operator: op.operator.clone(),
        rng_seed: spec.rng_seed_base + i as u64,
        log_micros: op.log_micros,
        disks: op.disks,
        in_edges: vec![i as u32],
        out_edges: vec![(i + 1) as u32],
        beat_millis: spec.beat.as_millis() as u64,
        trace_one_in: spec.trace_one_in,
        telemetry_millis: spec.telemetry_millis,
        checkpoint_every: op.checkpoint_every.unwrap_or(0),
        checkpoint_dir: checkpoint_dir.to_string_lossy().into_owned(),
        approx_eps_ppm: match op.recovery {
            RecoveryMode::Approximate(b) => b.epsilon_ppm(),
            RecoveryMode::Precise => 0,
        },
        approx_delta_ppm: match op.recovery {
            RecoveryMode::Approximate(b) => b.delta_ppm(),
            RecoveryMode::Precise => 0,
        },
    };
    let mut child = Command::new(&spec.worker_bin)
        .env(SPEC_ENV, wspec.to_hex())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn worker {i}: {e}"))?;
    if let Some(stdout) = child.stdout.take() {
        // A worker nobody would see end is not kept running.
        if let Err(e) = reap(stdout, i as u32, incarnation, plane.notifier()) {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("spawn reaper of worker {i}: {e}"));
        }
    }
    Ok(child)
}

/// The crash signal of one incarnation: a thread blocked on its stdout.
/// Only the child holds the pipe's write end, and the kernel closes it
/// when the process ends, so the read returns end-of-file then and not
/// before — for a SIGKILL before `Hello` as for any other end. The
/// [`Child`] stays in its slot, so the nemesis can still kill it and the
/// monitor still waits for it.
fn reap(
    mut stdout: ChildStdout,
    worker: u32,
    incarnation: u64,
    exits: Sender<CtrlEvent>,
) -> std::io::Result<()> {
    std::thread::Builder::new()
        .name(format!("reaper-w{worker}"))
        .spawn(move || {
            // Whatever a worker prints is read and dropped.
            let _ = std::io::copy(&mut stdout, &mut std::io::sink());
            let _ = exits.send(CtrlEvent::Exited { worker, incarnation });
        })
        .map(drop)
}

/// The monitor thread's view of the cluster.
struct Monitor {
    shared: Arc<MonitorShared>,
    plane: Arc<ControlPlane>,
    spec: ClusterSpec,
    /// The cluster's checkpoint directory, handed to every incarnation.
    checkpoint_dir: PathBuf,
    /// Where the source's bridge dials: worker 0.
    src_slot: DialSlot,
    sink_addr: String,
}

impl Monitor {
    /// Supervises until [`Cluster::shutdown`], then sees the workers out.
    fn run(&self) {
        self.supervise();
        // Every worker has been told to stop. Each one's final telemetry
        // report precedes the close of its control connection, so once
        // every connection has closed there is nothing left to merge.
        let deadline = Instant::now() + SHUTDOWN_GRACE;
        while self.shared.slots.lock().iter().any(|slot| slot.open_conns > 0) {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.plane.events().recv_timeout(left) {
                Ok(CtrlEvent::Telemetry(report)) => {
                    self.shared.telemetry.merge(&report);
                }
                Ok(CtrlEvent::WorkerGone { worker, incarnation }) => {
                    self.shared.note_gone(worker, incarnation);
                }
                Ok(CtrlEvent::WorkerUp { .. } | CtrlEvent::Exited { .. }) => {}
                Err(_) => return,
            }
        }
    }

    fn stopping(&self) -> bool {
        self.shared.stopping.load(Ordering::Acquire)
    }

    /// The supervision loop: wires workers as they say `Hello`, restarts
    /// ended and silent ones. Returns once the cluster is stopping.
    fn supervise(&self) {
        let n = self.spec.operators.len();
        let mut tick = Instant::now() + self.spec.poll;
        // Checked before the wait, not after it: an event taken off the
        // queue is accounted for even when it is the last one.
        while !self.stopping() {
            // Sleep until the control plane or a reaper has something to
            // say or the lease check is due; a due check is not kept
            // waiting by a busy queue.
            let now = Instant::now();
            let event = if now < tick {
                self.plane.events().recv_timeout(tick - now)
            } else {
                Err(RecvTimeoutError::Timeout)
            };
            match event {
                Ok(CtrlEvent::Telemetry(report)) => {
                    self.shared.telemetry.merge(&report);
                }
                Ok(CtrlEvent::WorkerUp { worker, incarnation, data_addr }) => {
                    if (worker as usize) < n {
                        self.wire(worker, incarnation, data_addr);
                    }
                }
                Ok(CtrlEvent::WorkerGone { worker, incarnation }) => {
                    self.shared.note_gone(worker, incarnation);
                }
                // An older incarnation's end is the restart that replaced
                // it; the current one's is a crash. A slot without a child
                // is a respawn that failed: the lease check retries it.
                Ok(CtrlEvent::Exited { worker, incarnation }) => {
                    let i = worker as usize;
                    let current = {
                        let slot = &self.shared.slots.lock()[i];
                        slot.incarnation == incarnation && slot.child.is_some()
                    };
                    if current && !self.stopping() {
                        self.restart(i, FaultKind::Crash);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    tick = Instant::now() + self.spec.poll;
                    for i in 0..n {
                        let lease = self.plane.lease(i as u32);
                        let now = Instant::now();
                        // One statement: the `slots` lock is gone before a
                        // restart takes it.
                        let expired = lease_expired(
                            lease.as_ref(),
                            &self.shared.slots.lock()[i],
                            now,
                            self.spec.lease_timeout,
                        );
                        if expired && !self.stopping() {
                            self.restart(i, FaultKind::LeaseExpiry);
                        }
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return,
            }
        }
    }

    /// Records a worker's address and pushes the wiring it changes.
    fn wire(&self, worker: u32, incarnation: u64, data_addr: String) {
        let i = worker as usize;
        {
            let mut slots = self.shared.slots.lock();
            if slots[i].incarnation != incarnation {
                return; // stale Hello raced a restart; it gets fenced
            }
            slots[i].seen_hello = true;
            slots[i].open_conns += 1;
        }
        self.shared.stamp_handshake(worker, incarnation);
        let downstream = {
            let mut addrs = self.shared.addrs.lock();
            addrs[i] = Some(data_addr.clone());
            self.shared.wired.notify_all();
            if i + 1 == addrs.len() {
                Some(self.sink_addr.clone())
            } else {
                addrs[i + 1].clone()
            }
        };
        // Wire this worker's out-edge…
        if let Some(addr) = downstream {
            self.plane.send_to(worker, &CtrlMsg::Wire { outs: vec![(worker + 1, addr)] });
        }
        // …and refresh the upstream neighbor's, which now dials here.
        if i == 0 {
            self.src_slot.set(Some(data_addr));
        } else {
            self.plane.send_to(worker - 1, &CtrlMsg::Wire { outs: vec![(worker, data_addr)] });
        }
    }

    /// Replaces worker `i`'s process by its next incarnation and opens the
    /// fault's recovery timeline.
    fn restart(&self, i: usize, kind: FaultKind) {
        let (shared, plane) = (&self.shared, &self.plane);
        let detect_us = shared.now_us();
        let cursor_at_detect = shared.timelines.lock().last_cursor;
        match kind {
            FaultKind::Crash => shared.counters.crash_detected.incr(),
            FaultKind::LeaseExpiry => shared.counters.lease_expired.incr(),
        }
        let next = shared.slots.lock()[i].incarnation + 1;
        // Fence first: anything still claiming the old incarnation must
        // not survive alongside the replacement.
        plane.expect_epoch(i as u32, next);
        let fence_us = shared.now_us();
        {
            let mut slots = shared.slots.lock();
            let slot = &mut slots[i];
            if let Some(child) = slot.child.as_mut() {
                let _ = child.kill();
                let _ = child.wait();
            }
            match spawn_worker(&self.spec, &self.checkpoint_dir, i, next, plane) {
                Ok(child) => {
                    slot.child = Some(child);
                    slot.incarnation = next;
                    slot.spawned_at = Instant::now();
                    slot.seen_hello = false;
                    slot.open_conns = 0;
                }
                Err(e) => {
                    eprintln!("cluster: respawn of worker {i} failed: {e}");
                    slot.child = None;
                }
            }
        }
        shared.addrs.lock()[i] = None;
        if i == 0 {
            // Dialing the dead address is pointless; the bridge waits for
            // the replacement's Hello.
            self.src_slot.set(None);
        }
        shared.counters.restarts.incr();
        shared.timelines.lock().pending.push(PendingTimeline {
            timeline: RecoveryTimeline {
                worker: i as u32,
                incarnation: next,
                kind,
                mode: self.spec.operators[i].recovery.tag(),
                detect_us,
                fence_us,
                respawn_us: shared.now_us(),
                handshake_us: None,
                first_output_us: None,
                drain_us: None,
            },
            cursor_at_detect,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LEASE: Duration = Duration::from_millis(250);

    fn slot(incarnation: u64, seen_hello: bool, spawned_at: Instant) -> WorkerSlot {
        WorkerSlot { child: None, incarnation, spawned_at, seen_hello, open_conns: 0 }
    }

    fn lease(epoch: u64, last_beat: Instant) -> LeaseView {
        LeaseView { epoch, last_beat, data_addr: "mem:data".into() }
    }

    #[test]
    fn a_silent_lease_expires_and_a_booting_process_does_not() {
        let now = Instant::now();
        let up = slot(1, true, now);
        assert!(!lease_expired(Some(&lease(1, now)), &up, now, LEASE));
        let later = now + LEASE + Duration::from_millis(1);
        assert!(lease_expired(Some(&lease(1, now)), &up, later, LEASE));
        // Evicted (fenced) and not back after four lease times.
        assert!(!lease_expired(None, &up, now + LEASE * 2, LEASE));
        assert!(lease_expired(None, &up, now + LEASE * 4 + Duration::from_millis(1), LEASE));
        // A predecessor's stale lease says nothing about this incarnation.
        assert!(!lease_expired(Some(&lease(0, now)), &up, now + LEASE * 2, LEASE));
        // Before its `Hello` a replacement holds no lease to lose.
        let booting = slot(2, false, now);
        assert!(!lease_expired(None, &booting, now + LEASE * 8, LEASE));
    }

    #[test]
    fn a_gone_event_counts_only_against_the_current_incarnation() {
        let shared = MonitorShared::new(&Obs::new(), 1);
        let mut current = slot(2, true, Instant::now());
        current.open_conns = 2;
        shared.slots.lock().push(current);
        shared.note_gone(0, 1); // an older incarnation's connection is history
        shared.note_gone(7, 2); // no such worker
        assert_eq!(shared.slots.lock()[0].open_conns, 2);
        shared.note_gone(0, 2);
        assert_eq!(shared.slots.lock()[0].open_conns, 1, "it redialed: one is still open");
        shared.note_gone(0, 2);
        assert_eq!(shared.slots.lock()[0].open_conns, 0);
    }

    /// The crash signal: a reaper posts its incarnation's exit when the
    /// process ends, whether it said anything or not.
    #[test]
    fn a_reaper_posts_the_exit_of_its_incarnation() {
        let (tx, rx) = crossbeam_channel::unbounded();
        let mut child = Command::new("sh")
            .args(["-c", "echo chatter; exit 3"])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn sh");
        reap(child.stdout.take().expect("piped"), 4, 7, tx).expect("spawn reaper");
        let exited = rx.recv_timeout(Duration::from_secs(10)).expect("no exit posted");
        assert_eq!(exited, CtrlEvent::Exited { worker: 4, incarnation: 7 });
        assert!(child.wait().is_ok());
    }
}
