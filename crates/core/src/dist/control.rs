//! The control lane: heartbeat leases, epoch fencing, and wiring pushes.
//!
//! The parent process runs a [`ControlPlane`] — one listener every worker
//! dials at startup. A worker introduces itself with [`CtrlMsg::Hello`]
//! (claiming a *lease* at its incarnation number) and renews the lease
//! with periodic [`CtrlMsg::Beat`]s. The launcher's monitor distinguishes
//! failures by combining two signals:
//!
//! * the child's **exit status** (`try_wait`) — a definite crash;
//! * **lease expiry** without an exit — the process is alive but
//!   unreachable (or wedged): a partition, handled identically (kill,
//!   then restart) but counted separately.
//!
//! The end of a control connection that had said `Hello` is surfaced as
//! [`CtrlEvent::WorkerGone`]: the kernel closes a SIGKILLed process's
//! socket, so the monitor learns of a crash from the read that fails, not
//! from its next poll. It is a reason to look, never a verdict — the lease
//! table is untouched by it.
//!
//! Restarts bump the worker's *expected epoch* **before** the replacement
//! is spawned, so any zombie of the old incarnation that still manages to
//! present a `Hello` or `Beat` is answered with [`CtrlMsg::Fence`] and
//! exits instead of double-driving the topology.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use streammine_common::codec::{decode_from_slice, Encode};
use streammine_net::{BackoffConfig, FrameError, SharedFrameTx, Transport};
use streammine_obs::TelemetryReport;

use crate::dist::wire::CtrlMsg;

/// How long a worker keeps redialing the control listener at startup.
const CTRL_DIAL_TIMEOUT: Duration = Duration::from_secs(10);
/// Worker-side redial backoff for the control connection: 5 ms doubling
/// to 200 ms.
const CTRL_REDIAL: BackoffConfig = BackoffConfig::millis(5, 200);

/// A live lease: the newest incarnation seen for a worker slot and when
/// it last proved liveness.
#[derive(Clone)]
pub(crate) struct LeaseView {
    /// Incarnation currently holding the lease.
    pub epoch: u64,
    /// Last `Hello`/`Beat` arrival.
    pub last_beat: Instant,
    /// The worker's data listener address.
    pub data_addr: String,
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
    /// be redialing; whoever reads this has to look.
    WorkerGone {
        /// Worker index.
        worker: u32,
        /// The incarnation whose connection ended.
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
                        view: LeaseView {
                            epoch: incarnation,
                            last_beat: Instant::now(),
                            data_addr: data_addr.clone(),
                        },
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
    /// Heartbeat period.
    pub beat: Duration,
}

/// Worker-side control client: dials the parent, claims the lease, beats,
/// and forwards parent pushes (`Wire`/`Fence`/`Fault`/`Shutdown`) to the
/// worker's main loop.
pub(crate) struct CtrlClient {
    pause_until: Arc<Mutex<Option<Instant>>>,
    shutdown: Arc<AtomicBool>,
    /// The live sending half, shared with the beat writer (which owns
    /// redialing). Lets other worker threads — the telemetry reporter —
    /// push parent-bound messages on the same connection.
    tx: SharedFrameTx,
}

impl CtrlClient {
    /// Connects and starts the beat/read threads. Parent pushes arrive on
    /// `events`. Returns after the first successful `Hello`.
    pub fn connect(
        transport: Arc<dyn Transport>,
        ctrl_addr: String,
        identity: CtrlIdentity,
        events: crossbeam_channel::Sender<CtrlMsg>,
        shutdown: Arc<AtomicBool>,
    ) -> Result<CtrlClient, FrameError> {
        let CtrlIdentity { worker, incarnation, data_addr, beat } = identity;
        let pause_until = Arc::new(Mutex::new(None));
        let shared_tx = SharedFrameTx::new();
        let client = CtrlClient {
            pause_until: pause_until.clone(),
            shutdown: shutdown.clone(),
            tx: shared_tx.clone(),
        };
        let (ready_tx, ready_rx) = crossbeam_channel::bounded(1);
        std::thread::Builder::new()
            .name(format!("ctrl-client-w{worker}"))
            .spawn(move || {
                let mut ready = Some(ready_tx);
                while !shutdown.load(Ordering::Acquire) {
                    let conn = match dial_backoff(&*transport, &ctrl_addr, &shutdown) {
                        Some(c) => c,
                        None => {
                            if let Some(r) = ready.take() {
                                let _ = r.send(Err(FrameError::Addr(format!(
                                    "control listener unreachable at {ctrl_addr}"
                                ))));
                            }
                            return;
                        }
                    };
                    let (raw_tx, mut rx) = conn.split();
                    shared_tx.install(raw_tx);
                    let hello =
                        CtrlMsg::Hello { worker, incarnation, data_addr: data_addr.clone() };
                    if !shared_tx.send(&hello.encode_to_vec()) {
                        continue;
                    }
                    if let Some(r) = ready.take() {
                        let _ = r.send(Ok(()));
                    }
                    // Reader: parent pushes → worker main loop.
                    let conn_dead = Arc::new(AtomicBool::new(false));
                    std::thread::scope(|s| {
                        let reader_dead = conn_dead.clone();
                        let events = &events;
                        let shutdown = &shutdown;
                        s.spawn(move || loop {
                            if shutdown.load(Ordering::Acquire)
                                || reader_dead.load(Ordering::Acquire)
                            {
                                return;
                            }
                            match rx.recv() {
                                Ok(bytes) => {
                                    if let Ok(msg) = decode_from_slice::<CtrlMsg>(&bytes) {
                                        let _ = events.send(msg);
                                    }
                                }
                                Err(e) if e.is_fatal() => {
                                    reader_dead.store(true, Ordering::Release);
                                    return;
                                }
                                Err(_) => continue,
                            }
                        });
                        // Writer: beats, honoring the pause-beats fault.
                        loop {
                            if shutdown.load(Ordering::Acquire) || conn_dead.load(Ordering::Acquire)
                            {
                                conn_dead.store(true, Ordering::Release);
                                break;
                            }
                            let paused = pause_until
                                .lock()
                                .map(|until| Instant::now() < until)
                                .unwrap_or(false);
                            if !paused {
                                let beat_msg = CtrlMsg::Beat { worker, incarnation };
                                if !shared_tx.send(&beat_msg.encode_to_vec()) {
                                    conn_dead.store(true, Ordering::Release);
                                    break; // redial + re-Hello
                                }
                            }
                            std::thread::sleep(beat);
                        }
                    });
                }
            })
            .expect("spawn ctrl client");
        match ready_rx.recv_timeout(CTRL_DIAL_TIMEOUT + Duration::from_secs(1)) {
            Ok(Ok(())) => Ok(client),
            Ok(Err(e)) => Err(e),
            Err(_) => Err(FrameError::Timeout),
        }
    }

    /// Pushes a parent-bound message on the live control connection.
    /// Returns `false` when the connection is currently down (the beat
    /// writer is redialing) or the send fails — callers just retry on
    /// their next period; reports are idempotent at the aggregator.
    pub fn send(&self, msg: &CtrlMsg) -> bool {
        self.tx.send(&msg.encode_to_vec())
    }

    /// Applies the pause-beats fault: no beats for `window`.
    pub fn pause_beats(&self, window: Duration) {
        *self.pause_until.lock() = Some(Instant::now() + window);
    }

    /// Stops the client's threads (shared flag; threads exit on next poll).
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::Release);
    }
}

fn dial_backoff(
    transport: &dyn Transport,
    addr: &str,
    shutdown: &AtomicBool,
) -> Option<Box<dyn streammine_net::FrameConn>> {
    let deadline = Instant::now() + CTRL_DIAL_TIMEOUT;
    let mut failures = 0;
    loop {
        if shutdown.load(Ordering::Acquire) || Instant::now() >= deadline {
            return None;
        }
        match transport.dial(addr) {
            Ok(c) => return Some(c),
            Err(_) => {
                failures += 1;
                std::thread::sleep(CTRL_REDIAL.delay(failures));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::wire::FaultCmd;
    use streammine_net::MemTransport;

    fn mem() -> Arc<dyn Transport> {
        Arc::new(MemTransport::new().with_read_timeout(Duration::from_millis(20)))
    }

    #[test]
    fn hello_claims_lease_and_wire_reaches_the_worker() {
        let t = mem();
        let shutdown = Arc::new(AtomicBool::new(false));
        let plane = ControlPlane::start(t.clone(), "mem-ctrl:0", shutdown.clone()).unwrap();
        let (ev_tx, ev_rx) = crossbeam_channel::unbounded();
        let client = CtrlClient::connect(
            t,
            plane.local_addr().to_string(),
            CtrlIdentity {
                worker: 2,
                incarnation: 0,
                data_addr: "mem:data-w2".into(),
                beat: Duration::from_millis(10),
            },
            ev_tx,
            shutdown.clone(),
        )
        .unwrap();

        let up = plane.events().recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(
            up,
            CtrlEvent::WorkerUp { worker: 2, incarnation: 0, data_addr: "mem:data-w2".into() }
        );
        let lease = plane.lease(2).unwrap();
        assert_eq!(lease.epoch, 0);
        assert_eq!(lease.data_addr, "mem:data-w2");

        // Beats renew the lease.
        let before = plane.lease(2).unwrap().last_beat;
        std::thread::sleep(Duration::from_millis(60));
        assert!(plane.lease(2).unwrap().last_beat > before, "beats should renew the lease");

        // Parent push reaches the worker's event stream.
        let wire = CtrlMsg::Wire { outs: vec![(3, "mem:data-w3".into())] };
        assert!(plane.send_to(2, &wire));
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match ev_rx.recv_timeout(deadline - Instant::now()) {
                Ok(CtrlMsg::Wire { outs }) => {
                    assert_eq!(outs, vec![(3, "mem:data-w3".to_string())]);
                    break;
                }
                Ok(_) => continue,
                Err(e) => panic!("wire never arrived: {e}"),
            }
        }
        let fault = CtrlMsg::Fault(FaultCmd::PauseBeats { millis: 50 });
        assert!(plane.send_to(2, &fault));

        client.stop();
        shutdown.store(true, Ordering::Release);
        plane.poke();
    }

    #[test]
    fn telemetry_pushes_surface_to_the_launcher() {
        let t = mem();
        let shutdown = Arc::new(AtomicBool::new(false));
        let plane = ControlPlane::start(t.clone(), "mem-telemetry:0", shutdown.clone()).unwrap();
        let (ev_tx, _ev_rx) = crossbeam_channel::unbounded();
        let client = CtrlClient::connect(
            t,
            plane.local_addr().to_string(),
            CtrlIdentity {
                worker: 7,
                incarnation: 0,
                data_addr: "mem:data-w7".into(),
                beat: Duration::from_millis(10),
            },
            ev_tx,
            shutdown.clone(),
        )
        .unwrap();
        let up = plane.events().recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(matches!(up, CtrlEvent::WorkerUp { worker: 7, .. }));

        let report = TelemetryReport {
            worker: 7,
            incarnation: 0,
            seq: 1,
            fin: false,
            metrics: vec![],
            journal: vec![],
            spans: vec![],
        };
        assert!(client.send(&CtrlMsg::Telemetry(report.clone())));
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match plane.events().recv_timeout(deadline - Instant::now()) {
                Ok(CtrlEvent::Telemetry(r)) => {
                    assert_eq!(r, report);
                    break;
                }
                Ok(_) => continue,
                Err(e) => panic!("telemetry never arrived: {e}"),
            }
        }
        client.stop();
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

        let (ev_tx, ev_rx) = crossbeam_channel::unbounded();
        let _client = CtrlClient::connect(
            t,
            plane.local_addr().to_string(),
            CtrlIdentity {
                worker: 4,
                incarnation: 0, // zombie incarnation
                data_addr: "mem:data-w4".into(),
                beat: Duration::from_millis(10),
            },
            ev_tx,
            shutdown.clone(),
        )
        .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match ev_rx.recv_timeout(deadline - Instant::now()) {
                Ok(CtrlMsg::Fence) => break,
                Ok(_) => continue,
                Err(e) => panic!("zombie never fenced: {e}"),
            }
        }
        assert!(plane.lease(4).is_none(), "a fenced incarnation must not hold the lease");
        shutdown.store(true, Ordering::Release);
        plane.poke();
    }

    #[test]
    fn expect_epoch_fences_a_live_stale_lease() {
        let t = mem();
        let shutdown = Arc::new(AtomicBool::new(false));
        let plane = ControlPlane::start(t.clone(), "mem-bump:0", shutdown.clone()).unwrap();
        let (ev_tx, ev_rx) = crossbeam_channel::unbounded();
        let _client = CtrlClient::connect(
            t,
            plane.local_addr().to_string(),
            CtrlIdentity {
                worker: 1,
                incarnation: 0,
                data_addr: "mem:data-w1".into(),
                beat: Duration::from_millis(10),
            },
            ev_tx,
            shutdown.clone(),
        )
        .unwrap();
        plane.events().recv_timeout(Duration::from_secs(5)).unwrap();
        // Partition declared: the monitor bumps the epoch while the old
        // incarnation is still connected — it gets fenced immediately.
        plane.expect_epoch(1, 1);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match ev_rx.recv_timeout(deadline - Instant::now()) {
                Ok(CtrlMsg::Fence) => break,
                Ok(_) => continue,
                Err(e) => panic!("live stale lease never fenced: {e}"),
            }
        }
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
