//! The multi-process launcher: one OS process per operator, supervised.
//!
//! [`Cluster::launch`] spawns a chain of worker processes (one
//! [`NodeSpec`] each), hosts the graph's endpoints (source, sink) and the
//! [control plane](super::control) in the calling process, and runs a
//! **monitor** that turns two failure signals into restarts:
//!
//! * a child **exit** (`try_wait`) — a crash, e.g. the nemesis's SIGKILL;
//! * a **lease expiry** — no heartbeat inside the lease window while the
//!   process still runs: a partition (or a wedged process), killed and
//!   restarted just like a crash but counted separately.
//!
//! The monitor sleeps on the control plane's event queue, not on a timer:
//! a `Hello` is wired the moment it arrives, and the close of a worker's
//! control connection makes it look at that worker's process at once. The
//! poll tick remains as the bound — it is the lease check, and it finds
//! the exit no closed connection announced (a worker killed before its
//! `Hello`). A closed connection alone restarts nobody.
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
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam_channel::RecvTimeoutError;
use parking_lot::{Condvar, Mutex};
use streammine_common::clock::{shared, SystemClock};
use streammine_common::ids::OperatorId;
use streammine_net::{link, BackoffConfig, EdgeMetrics, LinkConfig, TcpTransport, Transport};
use streammine_obs::{
    prometheus_text, timelines_json, ClusterObs, Counter, FaultKind, HttpServer, Labels, Obs,
    RecoveryModeTag, RecoveryTimeline, RegistrySnapshot, TransportMetrics,
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
/// Spacing of the looks at a suspect that has not exited yet: the kernel
/// closes a dying process's sockets a moment before its parent can reap
/// it. 100 µs doubling to 2 ms; after [`REAP_RECHECKS`] of them (~5 ms)
/// the suspect is left to the poll tick.
const REAP_RECHECK: BackoffConfig =
    BackoffConfig { base: Duration::from_micros(100), cap: Duration::from_millis(2) };
const REAP_RECHECKS: u32 = 6;

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
    /// Monitor poll interval.
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
    /// 250 ms leases, 25 ms monitor poll) and the in-process RNG seeds.
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

/// What the monitor concludes from one look at a slot.
#[derive(Debug, PartialEq, Eq)]
enum Verdict {
    Healthy,
    /// Its control connection closed, its process has not exited (yet):
    /// worth another look soon, nothing more.
    Suspect,
    Restart(FaultKind),
}

/// The monitor's decision rule. A restart needs an observed exit or an
/// expired lease; `suspect` (the control connection closed) never
/// suffices, because a live worker that lost its connection redials.
fn verdict(
    exited: bool,
    lease: Option<&LeaseView>,
    slot: &WorkerSlot,
    suspect: bool,
    now: Instant,
    lease_timeout: Duration,
) -> Verdict {
    if exited {
        return Verdict::Restart(FaultKind::Crash);
    }
    let expired = slot.seen_hello
        && match lease {
            Some(l) => {
                l.epoch == slot.incarnation
                    && now.saturating_duration_since(l.last_beat) > lease_timeout
            }
            // Lease evicted (e.g. fenced) without a newer incarnation of
            // ours: treat as expired once the process has had time to
            // re-Hello.
            None => now.saturating_duration_since(slot.spawned_at) > lease_timeout * 4,
        };
    if expired {
        Verdict::Restart(FaultKind::LeaseExpiry)
    } else if suspect {
        Verdict::Suspect
    } else {
        Verdict::Healthy
    }
}

/// Recovery bookkeeping shared between the monitor and the test API.
struct Counters {
    crash_detected: Counter,
    lease_expired: Counter,
    restarts: Counter,
    crashes: AtomicU64,
    expiries: AtomicU64,
    total_restarts: AtomicU64,
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
                crashes: AtomicU64::new(0),
                expiries: AtomicU64::new(0),
                total_restarts: AtomicU64::new(0),
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

    /// A control connection of `worker` at `incarnation` closed. `true`
    /// when that is the slot's current incarnation and leaves it without
    /// one — a suspect; an older incarnation's is history.
    fn note_gone(&self, worker: u32, incarnation: u64) -> bool {
        let mut slots = self.slots.lock();
        match slots.get_mut(worker as usize) {
            Some(slot) if slot.incarnation == incarnation => {
                slot.open_conns = slot.open_conns.saturating_sub(1);
                slot.open_conns == 0
            }
            _ => false,
        }
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
                let child = spawn_worker(&spec, &checkpoints.0, i, 0, plane.local_addr())?;
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

    /// Total worker restarts so far.
    pub fn restarts(&self) -> u64 {
        self.shared.counters.total_restarts.load(Ordering::Acquire)
    }

    /// Restarts triggered by an observed process exit.
    pub fn crashes_detected(&self) -> u64 {
        self.shared.counters.crashes.load(Ordering::Acquire)
    }

    /// Restarts triggered by lease expiry (partition-style).
    pub fn leases_expired(&self) -> u64 {
        self.shared.counters.expiries.load(Ordering::Acquire)
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

fn spawn_worker(
    spec: &ClusterSpec,
    checkpoint_dir: &Path,
    i: usize,
    incarnation: u64,
    ctrl_addr: &str,
) -> Result<Child, String> {
    let op = &spec.operators[i];
    let wspec = WorkerSpec {
        worker: i as u32,
        incarnation,
        ctrl_addr: ctrl_addr.to_string(),
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
    Command::new(&spec.worker_bin)
        .env(SPEC_ENV, wspec.to_hex())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn worker {i}: {e}"))
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
                Ok(CtrlEvent::WorkerUp { .. }) => {}
                Err(_) => return,
            }
        }
    }

    fn stopping(&self) -> bool {
        self.shared.stopping.load(Ordering::Acquire)
    }

    /// The supervision loop: wires workers as they say `Hello`, restarts
    /// dead and silent ones. Returns once the cluster is stopping.
    fn supervise(&self) {
        let n = self.spec.operators.len();
        let mut tick = Instant::now() + self.spec.poll;
        // Checked before the wait, not after it: an event taken off the
        // queue is accounted for even when it is the last one.
        while !self.stopping() {
            // Sleep until the control plane has something to say or the
            // tick is due; a due tick is not kept waiting by a busy queue.
            let now = Instant::now();
            let event = if now < tick {
                self.plane.events().recv_timeout(tick - now)
            } else {
                Err(RecvTimeoutError::Timeout)
            };
            // Which slots to look at, and whether a closed control
            // connection is the reason.
            let (look, suspect) = match event {
                Ok(CtrlEvent::Telemetry(report)) => {
                    self.shared.telemetry.merge(&report);
                    continue;
                }
                Ok(CtrlEvent::WorkerUp { worker, incarnation, data_addr }) => {
                    if (worker as usize) < n {
                        self.wire(worker, incarnation, data_addr);
                    }
                    continue;
                }
                Ok(CtrlEvent::WorkerGone { worker, incarnation }) => {
                    if !self.shared.note_gone(worker, incarnation) {
                        continue;
                    }
                    let i = worker as usize;
                    (i..i + 1, true)
                }
                // The tick: every lease, and every exit that no closed
                // connection announced (a worker killed before its `Hello`).
                Err(RecvTimeoutError::Timeout) => {
                    tick = Instant::now() + self.spec.poll;
                    (0..n, false)
                }
                Err(RecvTimeoutError::Disconnected) => return,
            };
            for i in look {
                let Some(kind) = self.examine(i, suspect) else { continue };
                if self.stopping() {
                    return;
                }
                self.restart(i, kind);
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

    /// Looks at slot `i`: has its process exited, has its lease expired?
    /// A suspect that has done neither is looked at a few more times, off
    /// the `slots` lock, before it is left to the tick — never waited for.
    fn examine(&self, i: usize, suspect: bool) -> Option<FaultKind> {
        let mut rechecks = 0;
        loop {
            let verdict = {
                let mut slots = self.shared.slots.lock();
                let slot = &mut slots[i];
                let exited = match slot.child.as_mut() {
                    Some(child) => child.try_wait().ok().flatten().is_some(),
                    None => false,
                };
                let lease = self.plane.lease(i as u32);
                let now = Instant::now();
                verdict(exited, lease.as_ref(), slot, suspect, now, self.spec.lease_timeout)
            };
            match verdict {
                Verdict::Healthy => return None,
                Verdict::Restart(kind) => return Some(kind),
                Verdict::Suspect => {
                    rechecks += 1;
                    if rechecks > REAP_RECHECKS || self.stopping() {
                        return None;
                    }
                    std::thread::sleep(REAP_RECHECK.delay(rechecks));
                }
            }
        }
    }

    /// Replaces worker `i`'s process by its next incarnation and opens the
    /// fault's recovery timeline.
    fn restart(&self, i: usize, kind: FaultKind) {
        let (shared, plane) = (&self.shared, &self.plane);
        let detect_us = shared.now_us();
        let cursor_at_detect = shared.timelines.lock().last_cursor;
        match kind {
            FaultKind::Crash => {
                shared.counters.crash_detected.incr();
                shared.counters.crashes.fetch_add(1, Ordering::AcqRel);
            }
            FaultKind::LeaseExpiry => {
                shared.counters.lease_expired.incr();
                shared.counters.expiries.fetch_add(1, Ordering::AcqRel);
            }
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
            match spawn_worker(&self.spec, &self.checkpoint_dir, i, next, plane.local_addr()) {
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
        shared.counters.total_restarts.fetch_add(1, Ordering::AcqRel);
        shared.timelines.lock().pending.push(PendingTimeline {
            timeline: RecoveryTimeline {
                worker: i as u32,
                incarnation: next,
                kind,
                mode: match self.spec.operators[i].recovery {
                    RecoveryMode::Approximate(_) => RecoveryModeTag::Approximate,
                    RecoveryMode::Precise => RecoveryModeTag::Precise,
                },
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

    /// The safety of the crash signal: a closed control connection makes
    /// the monitor look, and only what it then sees restarts anybody.
    #[test]
    fn a_dropped_control_connection_alone_restarts_nobody() {
        let now = Instant::now();
        let beating = lease(1, now);
        let up = slot(1, true, now);
        assert_eq!(verdict(false, Some(&beating), &up, false, now, LEASE), Verdict::Healthy);
        assert_eq!(verdict(false, Some(&beating), &up, true, now, LEASE), Verdict::Suspect);
        // Nor while the replacement boots (no Hello yet, nobody's lease).
        let booting = slot(2, false, now);
        assert_eq!(verdict(false, None, &booting, true, now, LEASE), Verdict::Suspect);
        assert_eq!(verdict(false, None, &booting, false, now + LEASE * 8, LEASE), Verdict::Healthy);
    }

    #[test]
    fn an_observed_exit_is_a_crash_and_a_silent_lease_an_expiry() {
        let now = Instant::now();
        let up = slot(1, true, now);
        for suspect in [false, true] {
            let crash = Verdict::Restart(FaultKind::Crash);
            assert_eq!(verdict(true, Some(&lease(1, now)), &up, suspect, now, LEASE), crash);
            assert_eq!(verdict(true, None, &slot(1, false, now), suspect, now, LEASE), crash);

            let expiry = Verdict::Restart(FaultKind::LeaseExpiry);
            let later = now + LEASE + Duration::from_millis(1);
            assert_eq!(verdict(false, Some(&lease(1, now)), &up, suspect, later, LEASE), expiry);
            // Evicted (fenced) and not back after four lease times.
            let much_later = now + LEASE * 4 + Duration::from_millis(1);
            assert_eq!(verdict(false, None, &up, suspect, much_later, LEASE), expiry);
        }
        // A predecessor's stale lease says nothing about this incarnation.
        let later = now + LEASE * 2;
        assert_eq!(
            verdict(false, Some(&lease(0, now)), &up, false, later, LEASE),
            Verdict::Healthy
        );
    }

    #[test]
    fn a_gone_event_counts_only_against_the_current_incarnation() {
        let shared = MonitorShared::new(&Obs::new(), 1);
        let mut current = slot(2, true, Instant::now());
        current.open_conns = 2;
        shared.slots.lock().push(current);
        assert!(!shared.note_gone(0, 1), "an older incarnation's connection is history");
        assert!(!shared.note_gone(7, 2), "no such worker");
        assert_eq!(shared.slots.lock()[0].open_conns, 2);
        assert!(!shared.note_gone(0, 2), "it redialed: one connection is still open");
        assert!(shared.note_gone(0, 2));
        assert_eq!(shared.slots.lock()[0].open_conns, 0);
    }
}
