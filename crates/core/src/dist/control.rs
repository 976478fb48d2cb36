//! The control lane: heartbeat leases, epoch fencing, and wiring pushes.
//!
//! The parent process runs a [`ControlPlane`] — one listener every worker
//! dials at startup. A worker introduces itself with [`CtrlMsg::Hello`]
//! (claiming a *lease* at its incarnation number) and renews the lease
//! with periodic [`CtrlMsg::Beat`]s. The launcher's monitor distinguishes
//! failures by combining two signals:
//!
//! * the **end of the child process**, posted on this plane's event queue
//!   as [`CtrlEvent::Exited`] by the launcher's reaper — a definite crash;
//! * **lease expiry** without an exit — the process is alive but
//!   unreachable (or wedged): a partition, handled identically (kill,
//!   then restart) but counted separately.
//!
//! The end of a control connection that had said `Hello` is surfaced as
//! [`CtrlEvent::WorkerGone`]. It is no failure signal: a live worker that
//! lost its connection redials, and the lease table is untouched by it.
//! Shutdown counts it, to know when every worker has gone.
//!
//! Restarts bump the worker's *expected epoch* **before** the replacement
//! is spawned, so any zombie of the old incarnation that still manages to
//! present a `Hello` or `Beat` is answered with [`CtrlMsg::Fence`] and
//! exits instead of double-driving the topology.
//!
//! A worker's side of the lane is its main thread: a [`CtrlLane`] dials,
//! says `Hello` and then serves one queue, sending each `Beat` and each
//! telemetry report when its deadline comes. One reader thread per
//! connection puts the parent's pushes on that queue, and the out-bridges
//! put their first `Welcome`s there. A failed send or an ended reader
//! makes it dial again and say `Hello` again.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam_channel::{Receiver, Sender};
use parking_lot::Mutex;
use streammine_common::codec::{decode_from_slice, Encode};
use streammine_common::BackoffConfig;
use streammine_net::{FrameError, FrameRx, FrameTx, SharedFrameTx, Transport};
use streammine_obs::{Obs, TelemetryReport};

use crate::dist::bridge::EdgeCursor;
use crate::dist::wire::CtrlMsg;

/// How long a worker keeps redialing the control listener.
const CTRL_DIAL_TIMEOUT: Duration = Duration::from_secs(10);
/// Worker-side redial backoff for the control connection: 5 ms doubling
/// to 200 ms.
const CTRL_REDIAL: BackoffConfig = BackoffConfig::millis(5, 200);
/// A cluster worker's heartbeat period.
const BEAT: Duration = Duration::from_millis(20);
/// The silence after which the launcher declares a worker's lease expired.
pub(crate) const LEASE_TIMEOUT: Duration = Duration::from_millis(250);

/// A live lease: the newest incarnation seen for a worker slot and when
/// it last proved liveness.
#[derive(Clone)]
pub(crate) struct LeaseView {
    /// Incarnation currently holding the lease.
    pub epoch: u64,
    /// Last `Hello`/`Beat` arrival.
    pub last_beat: Instant,
}

struct Lease {
    view: LeaseView,
    tx: SharedFrameTx,
}

/// Events the control plane surfaces to the launcher.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum CtrlEvent {
    /// A worker's `Hello` was accepted: it is up at `data_addr` and wants
    /// its out-edge wiring.
    WorkerUp {
        /// Worker index.
        worker: u32,
        /// The incarnation that connected.
        incarnation: u64,
        /// The worker's data listener address.
        data_addr: String,
    },
    /// The control connection this incarnation's `Hello` was accepted on
    /// has ended (EOF, reset, torn frame). Parent-local: nothing on the
    /// wire says so, the failed read does. The process may be dead or may
    /// be redialing.
    WorkerGone {
        /// Worker index.
        worker: u32,
        /// The incarnation whose connection ended.
        incarnation: u64,
    },
    /// The process of this incarnation has ended: its reaper read
    /// end-of-file on the child's stdout. Parent-local, posted through
    /// [`ControlPlane::notifier`].
    Exited {
        /// Worker index.
        worker: u32,
        /// The incarnation whose process ended.
        incarnation: u64,
    },
    /// A worker pushed a telemetry report. Surfaced regardless of lease
    /// state: a fenced or superseded incarnation's history is still valid
    /// history, and the aggregator's merge is idempotent anyway.
    Telemetry(TelemetryReport),
}

struct PlaneShared {
    leases: Mutex<HashMap<u32, Lease>>,
    /// Minimum incarnation allowed to hold each lease. Bumped by the
    /// monitor *before* respawning, so stale processes get fenced.
    expected: Mutex<HashMap<u32, u64>>,
    events: crossbeam_channel::Sender<CtrlEvent>,
    shutdown: Arc<AtomicBool>,
}

/// Parent-side control listener: lease table plus push channel per worker.
pub(crate) struct ControlPlane {
    shared: Arc<PlaneShared>,
    events_rx: crossbeam_channel::Receiver<CtrlEvent>,
    local_addr: String,
    transport: Arc<dyn Transport>,
}

impl ControlPlane {
    /// Binds the control listener and starts accepting workers.
    pub fn start(
        transport: Arc<dyn Transport>,
        addr: &str,
        shutdown: Arc<AtomicBool>,
    ) -> Result<ControlPlane, FrameError> {
        let listener = transport.bind(addr)?;
        let local_addr = listener.local_addr();
        let (events, events_rx) = crossbeam_channel::unbounded();
        let shared = Arc::new(PlaneShared {
            leases: Mutex::new(HashMap::new()),
            expected: Mutex::new(HashMap::new()),
            events,
            shutdown,
        });
        let accept_shared = shared.clone();
        std::thread::Builder::new()
            .name("ctrl-accept".into())
            .spawn(move || loop {
                if accept_shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                let conn = match listener.accept() {
                    Ok(c) => c,
                    Err(e) if e.is_fatal() => return,
                    Err(_) => continue,
                };
                let conn_shared = accept_shared.clone();
                std::thread::Builder::new()
                    .name("ctrl-conn".into())
                    .spawn(move || serve_worker(conn, conn_shared))
                    .expect("spawn ctrl conn handler");
            })
            .expect("spawn ctrl accept loop");
        Ok(ControlPlane { shared, events_rx, local_addr, transport })
    }

    /// The bound control address (goes into every [`super::WorkerSpec`]).
    pub fn local_addr(&self) -> &str {
        &self.local_addr
    }

    /// Lease accept/announce events, in arrival order.
    pub fn events(&self) -> &crossbeam_channel::Receiver<CtrlEvent> {
        &self.events_rx
    }

    /// A sender into [`ControlPlane::events`], for what the launcher
    /// learns outside the control lane: a process's end.
    pub fn notifier(&self) -> crossbeam_channel::Sender<CtrlEvent> {
        self.shared.events.clone()
    }

    /// Raises the minimum incarnation for `worker`. Call **before**
    /// spawning the replacement process: anything older that still talks
    /// gets fenced.
    pub fn expect_epoch(&self, worker: u32, epoch: u64) {
        self.shared.expected.lock().insert(worker, epoch);
        // An existing lease held by an older incarnation is now void.
        let mut leases = self.shared.leases.lock();
        if let Some(lease) = leases.get(&worker) {
            if lease.view.epoch < epoch {
                lease.tx.send(&CtrlMsg::Fence.encode_to_vec());
                leases.remove(&worker);
            }
        }
    }

    /// A snapshot of `worker`'s lease, if one is held.
    pub fn lease(&self, worker: u32) -> Option<LeaseView> {
        self.shared.leases.lock().get(&worker).map(|l| l.view.clone())
    }

    /// Pushes a message to the worker currently holding the lease.
    /// Returns `false` when no lease (or no live connection) exists.
    pub fn send_to(&self, worker: u32, msg: &CtrlMsg) -> bool {
        let tx = match self.shared.leases.lock().get(&worker) {
            Some(lease) => lease.tx.clone(),
            None => return false,
        };
        tx.send(&msg.encode_to_vec())
    }

    /// Unblocks the accept loop so it can observe shutdown.
    pub fn poke(&self) {
        let _ = self.transport.dial(&self.local_addr);
    }
}

/// Handles one worker's control connection on the parent side.
fn serve_worker(conn: Box<dyn streammine_net::FrameConn>, shared: Arc<PlaneShared>) {
    let (raw_tx, mut rx) = conn.split();
    let tx = SharedFrameTx::new();
    tx.install(raw_tx);
    let fence = |tx: &SharedFrameTx| {
        tx.send(&CtrlMsg::Fence.encode_to_vec());
    };
    // Who the accepted `Hello` on this connection said it was.
    let mut accepted: Option<(u32, u64)> = None;
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let bytes = match rx.recv() {
            Ok(b) => b,
            Err(e) if e.is_fatal() => {
                if let Some((worker, incarnation)) = accepted {
                    let _ = shared.events.send(CtrlEvent::WorkerGone { worker, incarnation });
                }
                return;
            }
            Err(_) => continue,
        };
        let Ok(msg) = decode_from_slice::<CtrlMsg>(&bytes) else { continue };
        match msg {
            CtrlMsg::Hello { worker, incarnation, data_addr } => {
                let floor = shared.expected.lock().get(&worker).copied().unwrap_or(0);
                if incarnation < floor {
                    fence(&tx);
                    return;
                }
                shared.leases.lock().insert(
                    worker,
                    Lease {
                        view: LeaseView { epoch: incarnation, last_beat: Instant::now() },
                        tx: tx.clone(),
                    },
                );
                accepted = Some((worker, incarnation));
                let _ = shared.events.send(CtrlEvent::WorkerUp { worker, incarnation, data_addr });
            }
            CtrlMsg::Beat { worker, incarnation } => {
                let floor = shared.expected.lock().get(&worker).copied().unwrap_or(0);
                if incarnation < floor {
                    fence(&tx);
                    return;
                }
                if let Some(lease) = shared.leases.lock().get_mut(&worker) {
                    if lease.view.epoch == incarnation {
                        lease.view.last_beat = Instant::now();
                    }
                }
            }
            CtrlMsg::Telemetry(report) => {
                let _ = shared.events.send(CtrlEvent::Telemetry(report));
            }
            // Parent-bound lanes only; anything else is a protocol error
            // from a confused peer — drop the connection.
            _ => return,
        }
    }
}

/// Who a control client claims to be: the identity fields carried by its
/// `Hello` and echoed in every `Beat`.
pub(crate) struct CtrlIdentity {
    /// Worker index.
    pub worker: u32,
    /// This process's incarnation (the lease epoch it claims).
    pub incarnation: u64,
    /// Where this worker's data listener accepts edge connections.
    pub data_addr: String,
}

/// What a worker's main thread serves, in arrival order, off its control
/// lane's one queue.
#[derive(Debug, PartialEq)]
pub(crate) enum LaneEvent {
    /// A push from the parent, read off the control connection.
    Parent(CtrlMsg),
    /// An out-edge's first handshake: where its receiver stands, which the
    /// worker applies to its link counters before its node starts.
    Welcomed(u32, EdgeCursor),
    /// The reader of the numbered control connection has ended; the lane
    /// redials if it was the live one.
    ReaderEnded(u64),
}

/// A worker's control client, run by the worker's main thread (see the
/// module docs).
pub(crate) struct CtrlLane {
    transport: Arc<dyn Transport>,
    addr: String,
    identity: CtrlIdentity,
    /// The live connection's sending half; `None` until the redial once a
    /// send on it failed or its reader ended.
    tx: Option<Box<dyn FrameTx>>,
    /// The live connection's number, and whether its reader may go on.
    conn: (u64, Arc<AtomicBool>),
    queue: (Sender<LaneEvent>, Receiver<LaneEvent>),
    /// When the next `Beat` is due; a `PauseBeats` fault moves it.
    beat_at: Instant,
    obs: Obs,
    /// The reporting period and the next report's deadline; `None`: only
    /// the final report is sent.
    reports: Option<(Duration, Instant)>,
    /// The last report's number, and the journal watermark past the last
    /// report that was sent.
    reported: (u64, u64),
    shutdown: Arc<AtomicBool>,
}

impl CtrlLane {
    /// Dials the control plane at `addr` and says `Hello`. From then on
    /// the lane reports `obs` every `report_every` (never with `None`).
    pub fn connect(
        transport: Arc<dyn Transport>,
        addr: String,
        identity: CtrlIdentity,
        (obs, report_every): (Obs, Option<Duration>),
        shutdown: Arc<AtomicBool>,
    ) -> Result<CtrlLane, FrameError> {
        let now = Instant::now();
        let mut lane = CtrlLane {
            transport,
            addr,
            identity,
            tx: None,
            conn: (0, Arc::new(AtomicBool::new(false))),
            queue: crossbeam_channel::unbounded(),
            beat_at: now + BEAT,
            obs,
            reports: report_every.map(|every| (every, now + every)),
            reported: (0, 0),
            shutdown,
        };
        lane.redial()?;
        Ok(lane)
    }

    /// A sender onto the lane's queue, for an out-bridge's first welcome.
    pub fn queue(&self) -> Sender<LaneEvent> {
        self.queue.0.clone()
    }

    /// Waits until `until` (for ever with `None`) for the next thing the
    /// main thread serves: a parent's push or an out-edge's first welcome.
    /// Beats and reports falling due meanwhile are sent, and a lost
    /// connection is dialed again. `Ok(None)` when `until` came first; an
    /// error when the control plane stayed unreachable for a whole redial.
    pub fn next(&mut self, until: Option<Instant>) -> Result<Option<LaneEvent>, FrameError> {
        loop {
            if self.tx.is_none() {
                self.redial()?;
            }
            let now = Instant::now();
            if now >= self.beat_at {
                self.beat_at = now + BEAT;
                let CtrlIdentity { worker, incarnation, .. } = self.identity;
                self.send(&CtrlMsg::Beat { worker, incarnation });
            }
            if let Some((every, at)) = self.reports {
                if now >= at {
                    self.reports = Some((every, now + every));
                    self.report(self.reported.1);
                }
            }
            if self.tx.is_none() {
                continue;
            }
            let due = self.reports.map_or(self.beat_at, |(_, at)| at.min(self.beat_at));
            let wake = until.map_or(due, |until| until.min(due));
            match self.queue.1.recv_timeout(wake.saturating_duration_since(now)) {
                Ok(LaneEvent::ReaderEnded(conn)) => {
                    if conn == self.conn.0 {
                        self.tx = None;
                    }
                }
                Ok(event) => return Ok(Some(event)),
                Err(_) if until.is_some_and(|until| Instant::now() >= until) => return Ok(None),
                Err(_) => {}
            }
        }
    }

    /// Applies the pause-beats fault: no `Beat` for `window`. Reports go on.
    pub fn pause_beats(&mut self, window: Duration) {
        self.beat_at = self.beat_at.max(Instant::now() + window);
    }

    /// Sends a telemetry report: the whole metrics snapshot, the journal
    /// past `journal_from` and every span. A report that was sent moves
    /// the journal watermark past what it carried; one that was not (the
    /// connection is down) is superseded by the next, which carries its
    /// records too. `0` carries the whole journal: the final report, which
    /// the aggregator dedups.
    pub fn report(&mut self, journal_from: u64) {
        self.reported.0 += 1;
        let CtrlIdentity { worker, incarnation, .. } = self.identity;
        let (report, mark) =
            TelemetryReport::gather(worker, incarnation, self.reported.0, &self.obs, journal_from);
        if self.send(&CtrlMsg::Telemetry(report)) {
            self.reported.1 = mark;
        }
    }

    /// Sends `msg`; a failed send drops the connection, for `next` to redial.
    fn send(&mut self, msg: &CtrlMsg) -> bool {
        let sent = self.tx.as_mut().is_some_and(|tx| tx.send(&msg.encode_to_vec()).is_ok());
        if !sent {
            self.tx = None;
        }
        sent
    }

    /// Retires the connection, if any, and dials until a new one carries
    /// the `Hello`, then starts its reader.
    fn redial(&mut self) -> Result<(), FrameError> {
        self.tx = None;
        self.conn.1.store(false, Ordering::Release);
        let CtrlIdentity { worker, incarnation, ref data_addr } = self.identity;
        let hello = CtrlMsg::Hello { worker, incarnation, data_addr: data_addr.clone() };
        let deadline = Instant::now() + CTRL_DIAL_TIMEOUT;
        let mut failures = 0;
        while !self.shutdown.load(Ordering::Acquire) && Instant::now() < deadline {
            let Ok(conn) = self.transport.dial(&self.addr) else {
                failures += 1;
                std::thread::sleep(CTRL_REDIAL.delay(failures));
                continue;
            };
            let (mut tx, rx) = conn.split();
            if tx.send(&hello.encode_to_vec()).is_err() {
                continue;
            }
            let reading = Arc::new(AtomicBool::new(true));
            self.conn = (self.conn.0 + 1, reading.clone());
            let (conn, queue, shutdown) =
                (self.conn.0, self.queue.0.clone(), self.shutdown.clone());
            std::thread::Builder::new()
                .name(format!("ctrl-read-w{worker}"))
                .spawn(move || read_parent(rx, conn, &queue, &reading, &shutdown))
                .expect("spawn ctrl reader");
            self.tx = Some(tx);
            return Ok(());
        }
        Err(FrameError::Addr(format!("control listener unreachable at {}", self.addr)))
    }
}

/// Puts what the parent pushes on connection `conn` onto the worker's
/// queue until the connection ends, it is retired or the worker shuts
/// down, and then says that it ended.
fn read_parent(
    mut rx: Box<dyn FrameRx>,
    conn: u64,
    queue: &Sender<LaneEvent>,
    reading: &AtomicBool,
    shutdown: &AtomicBool,
) {
    while reading.load(Ordering::Acquire) && !shutdown.load(Ordering::Acquire) {
        match rx.recv() {
            Ok(bytes) => {
                if let Ok(msg) = decode_from_slice::<CtrlMsg>(&bytes) {
                    if queue.send(LaneEvent::Parent(msg)).is_err() {
                        return;
                    }
                }
            }
            Err(e) if e.is_fatal() => break,
            Err(_) => {}
        }
    }
    let _ = queue.send(LaneEvent::ReaderEnded(conn));
}

#[cfg(test)]
mod tests {
    use super::*;
    use streammine_net::MemTransport;

    fn mem() -> Arc<dyn Transport> {
        Arc::new(MemTransport::new().with_read_timeout(Duration::from_millis(20)))
    }

    /// A worker's lane at `plane` as `(worker, incarnation)`, reporting
    /// every `report_every`.
    fn lane(
        t: &Arc<dyn Transport>,
        plane: &ControlPlane,
        (worker, incarnation): (u32, u64),
        report_every: Option<Duration>,
        shutdown: &Arc<AtomicBool>,
    ) -> CtrlLane {
        let data_addr = format!("mem:data-w{worker}");
        CtrlLane::connect(
            t.clone(),
            plane.local_addr().to_string(),
            CtrlIdentity { worker, incarnation, data_addr },
            (Obs::new(), report_every),
            shutdown.clone(),
        )
        .unwrap()
    }

    /// Serves `lane` until it hands over a parent's push that `wanted`
    /// accepts; panics after five seconds.
    fn serve_until(lane: &mut CtrlLane, wanted: impl Fn(&CtrlMsg) -> bool) -> CtrlMsg {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match lane.next(Some(deadline)).unwrap() {
                Some(LaneEvent::Parent(msg)) if wanted(&msg) => return msg,
                Some(_) => continue,
                None => panic!("no such push arrived"),
            }
        }
    }

    /// Serves `lane` for `window`, handing over nothing.
    fn serve_for(lane: &mut CtrlLane, window: Duration) {
        let until = Instant::now() + window;
        while lane.next(Some(until)).unwrap().is_some() {}
    }

    #[test]
    fn hello_claims_lease_and_wire_reaches_the_worker() {
        let t = mem();
        let shutdown = Arc::new(AtomicBool::new(false));
        let plane = ControlPlane::start(t.clone(), "mem-ctrl:0", shutdown.clone()).unwrap();
        let mut lane = lane(&t, &plane, (2, 0), None, &shutdown);

        let up = plane.events().recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(
            up,
            CtrlEvent::WorkerUp { worker: 2, incarnation: 0, data_addr: "mem:data-w2".into() }
        );
        let lease = plane.lease(2).unwrap();
        assert_eq!(lease.epoch, 0);

        // Beats renew the lease while the lane is served.
        let before = plane.lease(2).unwrap().last_beat;
        serve_for(&mut lane, Duration::from_millis(60));
        assert!(plane.lease(2).unwrap().last_beat > before, "beats should renew the lease");

        // A parent push reaches the worker's main thread.
        let wire = CtrlMsg::Wire { outs: vec![(3, "mem:data-w3".into())] };
        assert!(plane.send_to(2, &wire));
        assert_eq!(serve_until(&mut lane, |msg| matches!(msg, CtrlMsg::Wire { .. })), wire);
        shutdown.store(true, Ordering::Release);
        plane.poke();
    }

    #[test]
    fn telemetry_pushes_surface_to_the_launcher() {
        let t = mem();
        let shutdown = Arc::new(AtomicBool::new(false));
        let plane = ControlPlane::start(t.clone(), "mem-telemetry:0", shutdown.clone()).unwrap();
        let mut lane = lane(&t, &plane, (7, 0), Some(Duration::from_millis(10)), &shutdown);
        let up = plane.events().recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(matches!(up, CtrlEvent::WorkerUp { worker: 7, .. }));

        // Periodic reports, numbered from 1, then a final one.
        serve_for(&mut lane, Duration::from_millis(35));
        lane.report(0);
        let mut seqs = Vec::new();
        while let Ok(event) = plane.events().recv_timeout(Duration::from_millis(200)) {
            if let CtrlEvent::Telemetry(report) = event {
                assert_eq!((report.worker, report.incarnation), (7, 0));
                seqs.push(report.seq);
            }
        }
        assert!(seqs.len() >= 3, "reports: {seqs:?}");
        assert_eq!(seqs, (1..=seqs.len() as u64).collect::<Vec<_>>());
        shutdown.store(true, Ordering::Release);
        plane.poke();
    }

    /// A `PauseBeats` fault stops the beats and nothing else: the lease
    /// ages through the window while the reports keep arriving, and the
    /// beats resume after it.
    #[test]
    fn paused_beats_still_report() {
        let t = mem();
        let shutdown = Arc::new(AtomicBool::new(false));
        let plane = ControlPlane::start(t.clone(), "mem-paused:0", shutdown.clone()).unwrap();
        let mut lane = lane(&t, &plane, (8, 0), Some(Duration::from_millis(10)), &shutdown);
        plane.events().recv_timeout(Duration::from_secs(5)).unwrap();
        lane.pause_beats(Duration::from_millis(150));
        // A beat sent before the pause may still be on its way.
        serve_for(&mut lane, Duration::from_millis(30));
        let paused = plane.lease(8).unwrap().last_beat;
        let reports = || {
            std::iter::from_fn(|| plane.events().try_recv().ok())
                .filter(|event| matches!(event, CtrlEvent::Telemetry(_)))
                .count()
        };
        reports();
        serve_for(&mut lane, Duration::from_millis(80));
        assert_eq!(plane.lease(8).unwrap().last_beat, paused, "a Beat arrived while paused");
        let reports = reports();
        assert!(reports >= 3, "{reports} reports in 80 ms of a paused lane");
        serve_for(&mut lane, Duration::from_millis(100));
        assert!(plane.lease(8).unwrap().last_beat > paused, "the beats never resumed");
        shutdown.store(true, Ordering::Release);
        plane.poke();
    }

    #[test]
    fn stale_incarnation_is_fenced() {
        let t = mem();
        let shutdown = Arc::new(AtomicBool::new(false));
        let plane = ControlPlane::start(t.clone(), "mem-fence:0", shutdown.clone()).unwrap();
        // The monitor has already decided incarnation 0 is dead.
        plane.expect_epoch(4, 1);

        // A zombie incarnation.
        let mut lane = lane(&t, &plane, (4, 0), None, &shutdown);
        serve_until(&mut lane, |msg| *msg == CtrlMsg::Fence);
        assert!(plane.lease(4).is_none(), "a fenced incarnation must not hold the lease");
        shutdown.store(true, Ordering::Release);
        plane.poke();
    }

    #[test]
    fn expect_epoch_fences_a_live_stale_lease() {
        let t = mem();
        let shutdown = Arc::new(AtomicBool::new(false));
        let plane = ControlPlane::start(t.clone(), "mem-bump:0", shutdown.clone()).unwrap();
        let mut lane = lane(&t, &plane, (1, 0), None, &shutdown);
        plane.events().recv_timeout(Duration::from_secs(5)).unwrap();
        // Partition declared: the monitor bumps the epoch while the old
        // incarnation is still connected — it gets fenced immediately.
        plane.expect_epoch(1, 1);
        serve_until(&mut lane, |msg| *msg == CtrlMsg::Fence);
        assert!(plane.lease(1).is_none());
        shutdown.store(true, Ordering::Release);
        plane.poke();
    }

    /// A raw control connection that has said `Hello` as `(worker,
    /// incarnation)` and whose `WorkerUp` has been read off `plane`.
    fn hello(
        t: &Arc<dyn Transport>,
        plane: &ControlPlane,
        worker: u32,
        incarnation: u64,
    ) -> Box<dyn streammine_net::FrameConn> {
        let mut conn = t.dial(plane.local_addr()).unwrap();
        let hello = CtrlMsg::Hello { worker, incarnation, data_addr: "mem:data".into() };
        conn.send(&hello.encode_to_vec()).unwrap();
        let up = plane.events().recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(up, CtrlEvent::WorkerUp { worker, incarnation, data_addr: "mem:data".into() });
        conn
    }

    fn recv_msg(conn: &mut dyn streammine_net::FrameConn) -> CtrlMsg {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match conn.recv() {
                Ok(bytes) => return decode_from_slice(&bytes).unwrap(),
                Err(FrameError::Timeout) if Instant::now() < deadline => continue,
                Err(e) => panic!("no control message: {e}"),
            }
        }
    }

    /// How long a test listens for an event that must not come.
    const QUIET: Duration = Duration::from_millis(100);

    #[test]
    fn closed_connection_after_hello_is_reported_exactly_once() {
        let t = mem();
        let shutdown = Arc::new(AtomicBool::new(false));
        let plane = ControlPlane::start(t.clone(), "mem-gone:0", shutdown.clone()).unwrap();
        let conn = hello(&t, &plane, 5, 2);
        // What a SIGKILL does to the worker's socket.
        drop(conn);
        let gone = plane.events().recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(gone, CtrlEvent::WorkerGone { worker: 5, incarnation: 2 });
        assert!(plane.events().recv_timeout(QUIET).is_err(), "the close was reported twice");
        // The event is a hint: the lease is the monitor's to expire.
        assert_eq!(plane.lease(5).map(|l| l.epoch), Some(2));
        shutdown.store(true, Ordering::Release);
        plane.poke();
    }

    #[test]
    fn silent_and_fenced_connections_report_nothing() {
        let t = mem();
        let shutdown = Arc::new(AtomicBool::new(false));
        let plane = ControlPlane::start(t.clone(), "mem-nobody:0", shutdown.clone()).unwrap();
        // Never said Hello.
        drop(t.dial(plane.local_addr()).unwrap());
        // Fenced at its Hello: the monitor had already moved on.
        plane.expect_epoch(4, 1);
        let mut zombie = t.dial(plane.local_addr()).unwrap();
        let stale = CtrlMsg::Hello { worker: 4, incarnation: 0, data_addr: "mem:data".into() };
        zombie.send(&stale.encode_to_vec()).unwrap();
        assert_eq!(recv_msg(&mut *zombie), CtrlMsg::Fence);
        drop(zombie);
        // Fenced at a Beat: accepted once, superseded since.
        let mut old = hello(&t, &plane, 6, 0);
        plane.expect_epoch(6, 1);
        assert_eq!(recv_msg(&mut *old), CtrlMsg::Fence);
        old.send(&CtrlMsg::Beat { worker: 6, incarnation: 0 }.encode_to_vec()).unwrap();
        assert_eq!(recv_msg(&mut *old), CtrlMsg::Fence);
        drop(old);
        assert_eq!(plane.events().recv_timeout(QUIET).ok(), None);
        shutdown.store(true, Ordering::Release);
        plane.poke();
    }

    #[test]
    fn redial_at_the_same_incarnation_keeps_the_lease() {
        let t = mem();
        let shutdown = Arc::new(AtomicBool::new(false));
        let plane = ControlPlane::start(t.clone(), "mem-redial:0", shutdown.clone()).unwrap();
        let first = hello(&t, &plane, 3, 0);
        let mut second = hello(&t, &plane, 3, 0);
        // The old connection's end is noticed after the new Hello: it must
        // not take the lease the new connection holds with it.
        drop(first);
        let gone = plane.events().recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(gone, CtrlEvent::WorkerGone { worker: 3, incarnation: 0 });
        assert_eq!(plane.lease(3).map(|l| l.epoch), Some(0));
        assert!(plane.send_to(3, &CtrlMsg::Shutdown));
        assert_eq!(recv_msg(&mut *second), CtrlMsg::Shutdown);
        shutdown.store(true, Ordering::Release);
        plane.poke();
    }
}
