//! Per-edge bridges between local links and transport connections.
//!
//! Each graph edge that crosses a process boundary is carried by **one
//! full-duplex connection**, dialed by the sending side:
//!
//! * the **out-bridge** (sender side) is the receiver of the sender's
//!   local link: it reads the ring and writes [`DistFrame::Data`] frames
//!   — speculative events, and the finalizes that follow them, as the
//!   node put them there: a bridge holds nothing back and reorders
//!   nothing. A frame carries everything the ring held ready when the
//!   bridge looked (a replay, a burst, an event with its finalize: one
//!   write). The bridge is the ring's reader and the only one who rewinds
//!   it, once per connection, so a sequence is written on a connection at
//!   most once; the reverse direction of the same socket carries the
//!   remote receiver's acks back into the sender's inbox. On connection
//!   loss it redials, re-handshakes, and rewinds its own read position to
//!   the remote cursor (`Welcome.next_seq`) — every frame the peer has not
//!   consumed is still in the ring, so it is simply read again. Between
//!   failed dials it parks on its [`DialSlot`]: being wired anew ends the
//!   wait at once, and the capped exponential back-off is only the
//!   deadline that paces retries against an unchanged address;
//! * the **acceptor** (receiver side) owns the process's single data
//!   listener, routes each inbound connection to its edge by the opening
//!   [`DistFrame::EdgeHello`], answers with the edge cursor, and appends
//!   in-order frames to the edge's local ring, which the consumer (a node,
//!   a sink) reads like any in-process edge — the socket thread hands over
//!   directly, blocking while the ring's window is full. The per-edge
//!   [`EdgeCursor`] survives connection replacement, so duplicates from
//!   overlapping replays are dropped and its counts — events consumed,
//!   and how many of them are known final — stay exact: they are the
//!   source of truth for a restarted sender, which swallows that many of
//!   the events and finalizes it re-derives and sends the rest. Once a
//!   restarted sender has been told the counts, the connections of its
//!   predecessors are cut off: frames a dead process left in a socket
//!   buffer — a speculative event, a finalize — must not arrive after its
//!   successor was welcomed, or the receiver would hold one more than the
//!   successor was told and get it a second time.
//!
//! The acceptor also implements the distributed nemesis faults: a
//! listener *blackhole* (new connections dropped, existing ones severed)
//! and a per-edge *inbound pause* (a one-way partition: outbound control
//! keeps flowing while inbound reads stop until the sender's write times
//! out and tears the connection).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use streammine_common::codec::{decode_from_slice, Encode};
use streammine_net::{
    BackoffConfig, FrameError, FrameListener, FrameTx, LinkError, LinkReceiver, LinkSender,
    Transport, Waker,
};
use streammine_obs::TransportMetrics;

use crate::dist::wire::DistFrame;
use crate::message::{Control, Message};

/// Reconnect backoff of an out-bridge: 10 ms doubling to 400 ms.
const RECONNECT: BackoffConfig = BackoffConfig::millis(10, 400);
/// How long a handshake waits for the `Welcome` before redialing.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(2);
/// Poll interval of local-link drains (shutdown / connection-death checks).
const DRAIN_POLL: Duration = Duration::from_millis(20);
/// Most ring messages an out-bridge puts into one frame.
const MAX_RUN: usize = 64;

/// Where an out-bridge dials: the address the control plane last wired
/// (`None`: nowhere yet, or the peer is known dead) and the waker its
/// bridge parks on while it has nobody to talk to. Setting it signals, so
/// a restarted downstream (new port) is dialed the moment it is known.
#[derive(Clone, Default)]
pub(crate) struct DialSlot {
    addr: Arc<Mutex<Option<String>>>,
    waker: Waker,
}

impl DialSlot {
    /// A slot pointing nowhere.
    pub fn new() -> DialSlot {
        DialSlot::default()
    }

    /// Points the bridge at `addr` and wakes it.
    pub fn set(&self, addr: Option<String>) {
        *self.addr.lock() = addr;
        self.waker.wake();
    }
}

/// The receive cursor of one edge: the next link sequence it accepts and
/// the cumulative counts of data events accepted and of events known final.
///
/// A link hands its receiver consecutive sequences, and after every rewind
/// (crash replay, reconnect) consecutive sequences again from the rewind
/// point — so the cursor only has to ask "is this the sequence I expect?"
/// and drop everything else: a lower sequence is a duplicate from an
/// overlapping replay or a zombie sender; a higher one belongs to a
/// connection whose reconnect rewind delivers it again, in order.
///
/// A sender's handshake is told where the cursor stands (`Welcome`); the
/// default cursor is a fresh edge's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct EdgeCursor {
    next: u64,
    events: u64,
    finals: u64,
}

impl EdgeCursor {
    /// A cursor resuming at a checkpoint's frontier: link sequence `seq`
    /// next (everything below was acknowledged away upstream and is
    /// unreplayable), `events` data events consumed before it — all of
    /// them final, or the checkpoint would not have been taken.
    pub fn resuming(seq: u64, events: u64) -> EdgeCursor {
        EdgeCursor { next: seq, events, finals: events }
    }

    /// The next expected link sequence.
    pub fn next_seq(&self) -> u64 {
        self.next
    }

    /// Data events accepted so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Events known final so far: data that arrived final plus `Finalize`
    /// notices (one per event that arrived speculative).
    pub fn finals(&self) -> u64 {
        self.finals
    }

    /// Offers a frame; `true` when it is the expected one (the cursor
    /// advances and the caller processes it), `false` when it is dropped.
    pub fn accept(&mut self, link_seq: u64, msg: &Message) -> bool {
        if link_seq != self.next {
            return false;
        }
        self.next += 1;
        self.events += msg.event_count() as u64;
        self.finals += msg.final_count() as u64;
        true
    }
}

/// Configuration of one sender-side bridge.
pub(crate) struct OutBridge {
    /// Graph-global edge id (sent in the `EdgeHello`).
    pub edge: u32,
    /// Incarnation of the sending process.
    pub incarnation: u64,
    pub transport: Arc<dyn Transport>,
    /// Dial address of the receiving process's listener, set by the
    /// control plane's wiring and re-read on every dial attempt.
    pub dial: DialSlot,
    /// The retained local link's consumer side.
    pub data_rx: LinkReceiver<Message>,
    /// Where received control frames (acks) go.
    pub ctrl_sink: Box<dyn Fn(Control) + Send + Sync>,
    pub metrics: TransportMetrics,
    pub shutdown: Arc<AtomicBool>,
    /// Receives the receiver's cursor from the **first** successful
    /// handshake — a freshly started sender applies it to its link
    /// counters before the node runs.
    pub first_welcome: Option<crossbeam_channel::Sender<EdgeCursor>>,
}

impl OutBridge {
    /// Runs the bridge on a background thread until shutdown.
    pub fn start(self) -> JoinHandle<()> {
        std::thread::Builder::new()
            .name(format!("bridge-out-e{}", self.edge))
            .spawn(move || self.run())
            .expect("spawn out bridge")
    }

    fn run(mut self) {
        let mut failures = 0;
        let mut connected_before = false;
        while !self.shutdown.load(Ordering::Acquire) {
            let addr = self.dial.addr.lock().clone();
            let Some((welcomed, conn)) = addr.as_deref().and_then(|addr| self.handshake(addr))
            else {
                // Nobody answers (or nobody to dial): wait to be wired
                // anew. The back-off is the deadline, so it only paces
                // retries against an address that has not changed; with no
                // address the deadline is just the shutdown check.
                let patience = match addr {
                    Some(_) => {
                        failures += 1;
                        RECONNECT.delay(failures)
                    }
                    None => DRAIN_POLL,
                };
                if self.dial.waker.park(Some(Instant::now() + patience)) {
                    failures = 0;
                }
                continue;
            };
            failures = 0;
            self.metrics.handshakes.incr();
            if connected_before {
                self.metrics.reconnects.incr();
            } else if let Some(gate) = self.first_welcome.take() {
                let _ = gate.send(welcomed);
            }
            // Read again from what the receiver has not consumed: frames
            // lost with the old socket (or read from the local link but
            // never written) are all still in the ring — retained until
            // acked. A no-op on a first connection.
            self.data_rx.rewind_to(welcomed.next_seq());
            connected_before = true;
            self.pump(conn);
        }
    }

    /// Dials, sends `EdgeHello`, waits for `Welcome`.
    fn handshake(&self, addr: &str) -> Option<(EdgeCursor, Box<dyn streammine_net::FrameConn>)> {
        let mut conn = self.transport.dial(addr).ok()?;
        let hello =
            DistFrame::EdgeHello { edge: self.edge, incarnation: self.incarnation }.encode_to_vec();
        conn.send(&hello).ok()?;
        let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
        loop {
            match conn.recv() {
                Ok(bytes) => match decode_from_slice::<DistFrame>(&bytes) {
                    Ok(DistFrame::Welcome { next_seq, events_received, finals_received }) => {
                        let welcomed = EdgeCursor {
                            next: next_seq,
                            events: events_received,
                            finals: finals_received,
                        };
                        return Some((welcomed, conn));
                    }
                    _ => return None,
                },
                Err(e) if e.is_fatal() => return None,
                Err(_) => {
                    if Instant::now() >= deadline || self.shutdown.load(Ordering::Acquire) {
                        return None;
                    }
                }
            }
        }
    }

    /// Drives one established connection: this thread writes data frames,
    /// a scoped helper thread reads control frames. Returns when the
    /// connection dies (either direction) or shutdown is requested.
    fn pump(&self, conn: Box<dyn streammine_net::FrameConn>) {
        let (mut tx, mut rx) = conn.split();
        let dead = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            let reader_dead = dead.clone();
            let handle = s.spawn(|| {
                let dead = reader_dead;
                loop {
                    if self.shutdown.load(Ordering::Acquire) || dead.load(Ordering::Acquire) {
                        break;
                    }
                    match rx.recv() {
                        Ok(bytes) => {
                            self.metrics.frames_in.incr();
                            self.metrics.bytes_in.add(bytes.len() as u64);
                            if let Ok(DistFrame::Ctrl(c)) = decode_from_slice::<DistFrame>(&bytes) {
                                (self.ctrl_sink)(c);
                            }
                        }
                        Err(e) if e.is_fatal() => {
                            classify(&self.metrics, &e);
                            dead.store(true, Ordering::Release);
                            break;
                        }
                        Err(_) => continue,
                    }
                }
            });
            loop {
                if self.shutdown.load(Ordering::Acquire) {
                    dead.store(true, Ordering::Release);
                    break;
                }
                if dead.load(Ordering::Acquire) {
                    break;
                }
                match self.data_rx.recv_timeout(DRAIN_POLL) {
                    Ok(first) => {
                        // Whatever else is readable rides along: a replay,
                        // a burst, an event and the finalize behind it cost
                        // one write and one wake-up of the peer, not one
                        // per message. Nothing is waited for.
                        let mut run = vec![first];
                        while run.len() < MAX_RUN {
                            match self.data_rx.try_recv() {
                                Ok(Some(next)) => run.push(next),
                                // Empty, or gone: the next `recv` says which.
                                Ok(None) | Err(_) => break,
                            }
                        }
                        let bytes = DistFrame::Data(run).encode_to_vec();
                        match tx.send(&bytes) {
                            Ok(()) => {
                                self.metrics.frames_out.incr();
                                self.metrics.bytes_out.add(bytes.len() as u64);
                            }
                            Err(_) => {
                                // Its messages stay retained in the link; the
                                // next handshake's rewind reads them again.
                                dead.store(true, Ordering::Release);
                                break;
                            }
                        }
                    }
                    Err(LinkError::Timeout) => continue,
                    Err(_) => {
                        // Local sender gone: the process is shutting down.
                        dead.store(true, Ordering::Release);
                        break;
                    }
                }
            }
            let _ = handle.join();
        });
    }
}

fn classify(metrics: &TransportMetrics, e: &FrameError) {
    match e {
        FrameError::Torn { .. } => metrics.torn_frames.incr(),
        FrameError::Crc { .. } => metrics.crc_errors.incr(),
        _ => {}
    }
}

/// One receiving edge registered with an [`Acceptor`].
pub(crate) struct InEdge {
    /// Graph-global edge id.
    pub edge: u32,
    /// The local ring the consumer (a node's inbox, a sink) reads; it must
    /// be unused. The remote sender retains the edge for replay, so this
    /// hop is acknowledged ahead — it keeps nothing once read — and it is
    /// numbered from `cursor`'s sequence, so the consumer sees the wire's
    /// own sequences.
    pub data_tx: LinkSender<Message>,
    /// The node's upstream control link (acks), pumped to the current
    /// connection's reverse direction.
    pub ctrl_rx: LinkReceiver<Control>,
    /// Where this edge resumes: fresh, or at a respawn's checkpoint
    /// frontier (see `worker::in_edge_cursors`).
    pub cursor: EdgeCursor,
    /// Called with the cursor's count of finals after each accepted frame,
    /// under the cursor lock (so calls are in cursor order): the cluster's
    /// sink edge stamps its recovery timelines here, at the moment output
    /// a user may act on arrives. `None` in workers.
    pub on_advance: Option<Box<dyn Fn(u64) + Send + Sync>>,
    pub metrics: TransportMetrics,
}

/// What an edge has taken in, and from whom.
struct Intake {
    cursor: EdgeCursor,
    /// The newest sender incarnation welcomed on this edge. A respawned
    /// sender re-derives its output and may frame it differently (batches
    /// form by timing), so from its `Welcome` on, what a connection of its
    /// predecessor still holds — frames the kernel buffered for a process
    /// that is dead — must not move the cursor: the same sequence would
    /// name other events.
    sender: u64,
}

struct EdgeState {
    intake: Mutex<Intake>,
    data_tx: LinkSender<Message>,
    on_advance: Option<Box<dyn Fn(u64) + Send + Sync>>,
    writer: Mutex<Option<Box<dyn FrameTx>>>,
    /// Signalled when a connection installs itself as `writer`; the
    /// control pump parks here while it has a frame and no connection.
    writer_installed: Waker,
    pause_until: Mutex<Option<Instant>>,
    metrics: TransportMetrics,
}

struct AcceptorShared {
    edges: HashMap<u32, Arc<EdgeState>>,
    /// Nemesis: while set and in the future, new connections are dropped.
    blackhole_until: Mutex<Option<Instant>>,
    /// Bumped by a blackhole to sever established connections: conn
    /// readers exit when the epoch moves past the one they joined at.
    conn_epoch: AtomicU64,
    shutdown: Arc<AtomicBool>,
}

/// The receiver side of a process: one listener, any number of in-edges.
pub(crate) struct Acceptor {
    shared: Arc<AcceptorShared>,
    local_addr: String,
    transport: Arc<dyn Transport>,
}

impl Acceptor {
    /// Binds `addr` on `transport` and starts the accept loop plus one
    /// control pump per edge.
    pub fn start(
        transport: Arc<dyn Transport>,
        addr: &str,
        edges: Vec<InEdge>,
        shutdown: Arc<AtomicBool>,
    ) -> Result<Acceptor, FrameError> {
        let listener = transport.bind(addr)?;
        let local_addr = listener.local_addr();
        let mut map = HashMap::new();
        let mut pumps = Vec::new();
        for e in edges {
            e.data_tx.ack_upto(u64::MAX);
            e.data_tx.set_next_seq(e.cursor.next_seq());
            let state = Arc::new(EdgeState {
                intake: Mutex::new(Intake { cursor: e.cursor, sender: 0 }),
                data_tx: e.data_tx,
                on_advance: e.on_advance,
                writer: Mutex::new(None),
                writer_installed: Waker::new(),
                pause_until: Mutex::new(None),
                metrics: e.metrics,
            });
            map.insert(e.edge, state.clone());
            pumps.push((e.edge, e.ctrl_rx, state));
        }
        let shared = Arc::new(AcceptorShared {
            edges: map,
            blackhole_until: Mutex::new(None),
            conn_epoch: AtomicU64::new(0),
            shutdown: shutdown.clone(),
        });
        for (edge, ctrl_rx, state) in pumps {
            let shutdown = shutdown.clone();
            std::thread::Builder::new()
                .name(format!("bridge-ctrl-e{edge}"))
                .spawn(move || pump_edge_ctrl(ctrl_rx, state, shutdown))
                .expect("spawn edge ctrl pump");
        }
        let accept_shared = shared.clone();
        std::thread::Builder::new()
            .name("bridge-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))
            .expect("spawn accept loop");
        Ok(Acceptor { shared, local_addr, transport })
    }

    /// The bound listener address (goes into the worker's `Hello`).
    pub fn local_addr(&self) -> &str {
        &self.local_addr
    }

    /// The cursor of one edge: `(next_seq, events_received)`.
    pub fn cursor(&self, edge: u32) -> (u64, u64) {
        let intake = self.shared.edges[&edge].intake.lock();
        (intake.cursor.next_seq(), intake.cursor.events())
    }

    /// Nemesis: drop new connections and sever existing ones for `window`.
    pub fn drop_listener(&self, window: Duration) {
        *self.shared.blackhole_until.lock() = Some(Instant::now() + window);
        self.shared.conn_epoch.fetch_add(1, Ordering::AcqRel);
        for state in self.shared.edges.values() {
            *state.writer.lock() = None;
        }
    }

    /// Nemesis: stop reading inbound frames on `edge` for `window` (the
    /// outbound direction keeps flowing — a one-way partition).
    pub fn pause_inbound(&self, edge: u32, window: Duration) {
        if let Some(state) = self.shared.edges.get(&edge) {
            *state.pause_until.lock() = Some(Instant::now() + window);
        }
    }

    /// Unblocks the accept loop so it can observe shutdown. Call after
    /// setting the shared shutdown flag.
    pub fn poke(&self) {
        let _ = self.transport.dial(&self.local_addr);
    }
}

fn accept_loop(listener: Box<dyn FrameListener>, shared: Arc<AcceptorShared>) {
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let conn = match listener.accept() {
            Ok(c) => c,
            Err(e) if e.is_fatal() => return,
            Err(_) => continue,
        };
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let blackholed =
            shared.blackhole_until.lock().map(|until| Instant::now() < until).unwrap_or(false);
        if blackholed {
            drop(conn); // refuse: the dialer sees a dead connection
            continue;
        }
        let shared = shared.clone();
        std::thread::Builder::new()
            .name("bridge-conn".into())
            .spawn(move || serve_conn(conn, shared))
            .expect("spawn conn handler");
    }
}

/// Handles one accepted connection: `EdgeHello` routing, `Welcome` reply,
/// then the inbound read loop.
fn serve_conn(mut conn: Box<dyn streammine_net::FrameConn>, shared: Arc<AcceptorShared>) {
    let joined_epoch = shared.conn_epoch.load(Ordering::Acquire);
    // Handshake: first frame must be an EdgeHello.
    let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
    let (edge, incarnation) = loop {
        match conn.recv() {
            Ok(bytes) => match decode_from_slice::<DistFrame>(&bytes) {
                Ok(DistFrame::EdgeHello { edge, incarnation }) => break (edge, incarnation),
                _ => return,
            },
            Err(e) if e.is_fatal() => return,
            Err(_) => {
                if Instant::now() >= deadline {
                    return;
                }
            }
        }
    };
    let Some(state) = shared.edges.get(&edge).cloned() else { return };
    let welcome = {
        let mut intake = state.intake.lock();
        if incarnation < intake.sender {
            return; // a zombie: its successor has been welcomed already
        }
        intake.sender = incarnation;
        DistFrame::Welcome {
            next_seq: intake.cursor.next_seq(),
            events_received: intake.cursor.events(),
            finals_received: intake.cursor.finals(),
        }
    };
    if conn.send(&welcome.encode_to_vec()).is_err() {
        return;
    }
    let (tx, mut rx) = conn.split();
    // This connection becomes the edge's current outbound control path;
    // an older connection's writer (if any) is dropped here.
    *state.writer.lock() = Some(tx);
    state.writer_installed.wake();
    loop {
        if shared.shutdown.load(Ordering::Acquire)
            || shared.conn_epoch.load(Ordering::Acquire) != joined_epoch
        {
            return; // severed by a blackhole or shutting down
        }
        if let Some(until) = *state.pause_until.lock() {
            let now = Instant::now();
            if now < until {
                std::thread::sleep((until - now).min(Duration::from_millis(5)));
                continue;
            }
        }
        match rx.recv() {
            Ok(bytes) => {
                // A pause that landed while this frame was mid-read still
                // applies: hold it until the window passes (for TCP the
                // unread backlog then fills the kernel buffer until the
                // sender's write times out — the one-way partition).
                loop {
                    if shared.shutdown.load(Ordering::Acquire)
                        || shared.conn_epoch.load(Ordering::Acquire) != joined_epoch
                    {
                        return; // dropped frame is healed by reconnect replay
                    }
                    let paused = state
                        .pause_until
                        .lock()
                        .map(|until| Instant::now() < until)
                        .unwrap_or(false);
                    if !paused {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                state.metrics.frames_in.incr();
                state.metrics.bytes_in.add(bytes.len() as u64);
                if let Ok(DistFrame::Data(run)) = decode_from_slice::<DistFrame>(&bytes) {
                    // Hand over under the cursor lock so concurrent
                    // connections of the same edge (old + replacement)
                    // cannot interleave out of order. Waiting on a full
                    // window is the backpressure that fills the socket.
                    let mut intake = state.intake.lock();
                    if intake.sender != incarnation {
                        return; // superseded since this frame was sent
                    }
                    for (seq, msg) in run {
                        if intake.cursor.accept(seq, &msg) {
                            // The cursor accepts consecutive sequences only
                            // and the ring numbers from the same start; a
                            // consumer that is gone means the process is
                            // going too.
                            let local = state.data_tx.send_blocking(msg);
                            assert!(
                                local.map_or(true, |local| local == seq),
                                "edge ring numbered {local:?} for wire sequence {seq}"
                            );
                            if let Some(on_advance) = &state.on_advance {
                                on_advance(intake.cursor.finals());
                            }
                        }
                    }
                }
            }
            Err(e) if e.is_fatal() => {
                classify(&state.metrics, &e);
                return;
            }
            Err(_) => continue,
        }
    }
}

/// Pumps a node's upstream control link out over the edge's current
/// connection. Control frames wait (bounded retained link, unbounded
/// patience) while no connection exists — acks are delayed, never lost,
/// exactly like a severed in-process link.
fn pump_edge_ctrl(
    ctrl_rx: LinkReceiver<Control>,
    state: Arc<EdgeState>,
    shutdown: Arc<AtomicBool>,
) {
    while !shutdown.load(Ordering::Acquire) {
        match ctrl_rx.recv_timeout(DRAIN_POLL) {
            Ok((seq, ctrl)) => {
                let bytes = DistFrame::Ctrl(ctrl).encode_to_vec();
                loop {
                    if shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    let mut writer = state.writer.lock();
                    if let Some(tx) = writer.as_mut() {
                        match tx.send(&bytes) {
                            Ok(()) => {
                                state.metrics.frames_out.incr();
                                state.metrics.bytes_out.add(bytes.len() as u64);
                                // Written: nobody re-reads a control link.
                                ctrl_rx.ack_upto(seq + 1);
                                break;
                            }
                            Err(_) => {
                                *writer = None; // dead conn; wait for the next
                            }
                        }
                    }
                    drop(writer);
                    state.writer_installed.park(Some(Instant::now() + DRAIN_POLL));
                }
            }
            Err(LinkError::Timeout) => continue,
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streammine_common::event::{Event, Value};
    use streammine_common::ids::{EventId, OperatorId};
    use streammine_net::{link, LinkConfig, MemTransport};
    use streammine_obs::TransportMetrics;

    fn ev(n: u64) -> Message {
        Message::Data(Event::new(EventId::new(OperatorId::new(0), n), 0, Value::Int(n as i64)))
    }

    #[test]
    fn cursor_accepts_only_the_expected_sequence() {
        let mut c = EdgeCursor::default();
        assert!(c.accept(0, &ev(0)));
        // Ahead of the cursor: dropped.
        assert!(!c.accept(2, &ev(2)));
        assert_eq!((c.next_seq(), c.events()), (1, 1));
        // The rewind delivers from the gap on, in order; batches count
        // events, not frames.
        let batch = Message::DataBatch(vec![
            Event::new(EventId::new(OperatorId::new(0), 10), 0, Value::Int(1)),
            Event::new(EventId::new(OperatorId::new(0), 11), 0, Value::Int(2)),
        ]);
        assert!(c.accept(1, &batch));
        assert!(c.accept(2, &ev(2)));
        assert_eq!((c.next_seq(), c.events()), (3, 4));
        // Stale duplicate: dropped.
        assert!(!c.accept(1, &ev(1)));
        assert_eq!((c.events(), c.finals()), (4, 4));
        // A speculative event is an event when it arrives and a final only
        // with its `Finalize`.
        let id = EventId::new(OperatorId::new(0), 12);
        assert!(c.accept(3, &Message::Data(Event::speculative(id, 0, Value::Int(3)))));
        assert_eq!((c.events(), c.finals()), (5, 4));
        assert!(c.accept(4, &Message::Control(Control::Finalize { id, version: 0 })));
        assert_eq!((c.events(), c.finals()), (5, 5));
    }

    #[test]
    fn cursor_resumes_at_a_checkpoint_position() {
        // Sequence 5 next, three events (two frames were notices) before.
        let mut c = EdgeCursor::resuming(5, 3);
        assert!(!c.accept(3, &ev(3)), "pre-checkpoint frames are stale");
        assert!(c.accept(5, &ev(5)));
        assert_eq!((c.next_seq(), c.events(), c.finals()), (6, 4, 4));
    }

    /// End-to-end over the in-memory transport: an out-bridge dials an
    /// acceptor, frames flow in order, acks flow back, and killing the
    /// connection path (address swap to a fresh acceptor) replays
    /// retained frames.
    #[test]
    fn out_bridge_delivers_and_acks_over_mem_transport() {
        let transport: Arc<dyn Transport> =
            Arc::new(MemTransport::new().with_read_timeout(Duration::from_millis(50)));
        let shutdown = Arc::new(AtomicBool::new(false));

        let (got_tx, got_rx) = link::<Message>(LinkConfig::instant());
        let (up_ctrl_tx, up_ctrl_rx) = link::<Control>(LinkConfig::instant());
        let acceptor = Acceptor::start(
            transport.clone(),
            "mem-acc:0",
            vec![InEdge {
                edge: 7,
                data_tx: got_tx,
                ctrl_rx: up_ctrl_rx,
                cursor: EdgeCursor::default(),
                on_advance: None,
                metrics: TransportMetrics::detached(),
            }],
            shutdown.clone(),
        )
        .unwrap();

        let (data_tx, data_rx) = link::<Message>(LinkConfig::instant());
        let (acks_tx, acks_rx) = crossbeam_channel::unbounded();
        let (gate_tx, gate_rx) = crossbeam_channel::bounded(1);
        let dial = DialSlot::new();
        dial.set(Some(acceptor.local_addr().to_string()));
        let _bridge = OutBridge {
            edge: 7,
            incarnation: 0,
            transport: transport.clone(),
            dial,
            data_rx,
            ctrl_sink: Box::new(move |c| {
                acks_tx.send(c).unwrap();
            }),
            metrics: TransportMetrics::detached(),
            shutdown: shutdown.clone(),
            first_welcome: Some(gate_tx),
        }
        .start();

        // First handshake reports a zero cursor.
        let fresh = EdgeCursor::default();
        assert_eq!(gate_rx.recv_timeout(Duration::from_secs(5)).unwrap(), fresh);
        for n in 0..5u64 {
            data_tx.send(ev(n)).unwrap();
        }
        for n in 0..5u64 {
            let (seq, _) = got_rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(seq, n);
        }
        assert_eq!(acceptor.cursor(7), (5, 5));

        // Reverse direction: an ack from the receiver's node reaches the
        // sender's ctrl sink.
        up_ctrl_tx.send(Control::Ack { upto: 3 }).unwrap();
        assert_eq!(acks_rx.recv_timeout(Duration::from_secs(5)).unwrap(), Control::Ack { upto: 3 });

        // Sever everything; the bridge reconnects and the handshake-driven
        // replay resends only what the cursor still misses (nothing, here),
        // then new frames flow on the same cursor.
        acceptor.drop_listener(Duration::from_millis(100));
        std::thread::sleep(Duration::from_millis(150));
        for n in 5..8u64 {
            data_tx.send(ev(n)).unwrap();
        }
        for n in 5..8u64 {
            let (seq, _) = got_rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(seq, n);
        }
        assert_eq!(acceptor.cursor(7), (8, 8));

        shutdown.store(true, Ordering::Release);
        acceptor.poke();
    }

    /// What the ring holds ready when the bridge looks goes out as one
    /// frame, and is handed over in ring order under the ring's sequences.
    #[test]
    fn a_backlog_rides_in_one_frame() {
        let transport: Arc<dyn Transport> =
            Arc::new(MemTransport::new().with_read_timeout(Duration::from_millis(20)));
        let shutdown = Arc::new(AtomicBool::new(false));
        let (acceptor, got_rx) = acceptor_at(&transport, "mem-backlog:0", 4, &shutdown);
        let (data_tx, data_rx) = link::<Message>(LinkConfig::instant());
        for n in 0..10u64 {
            data_tx.send(ev(n)).unwrap();
        }
        let metrics = TransportMetrics::detached();
        let dial = DialSlot::new();
        dial.set(Some(acceptor.local_addr().to_string()));
        OutBridge {
            edge: 4,
            incarnation: 0,
            transport,
            dial,
            data_rx,
            ctrl_sink: Box::new(|_| {}),
            metrics: metrics.clone(),
            shutdown: shutdown.clone(),
            first_welcome: None,
        }
        .start();
        for n in 0..10u64 {
            assert_eq!(got_rx.recv_timeout(Duration::from_secs(5)).unwrap(), (n, ev(n)));
        }
        // The bridge counts a frame once its send returned, which may be
        // after the acceptor delivered it.
        let deadline = Instant::now() + Duration::from_secs(5);
        while metrics.frames_out.get() == 0 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(metrics.frames_out.get(), 1, "ten ready messages, one write");
        assert_eq!(acceptor.cursor(4), (10, 10));
        shutdown.store(true, Ordering::Release);
        acceptor.poke();
    }

    /// The bridge is its ring's only reader and rewinds it once per
    /// connection, at the handshake, to where the receiver says it stands:
    /// each connection carries every sequence from there on exactly once,
    /// and a reconnect writes again exactly what the new `Welcome` asks for.
    #[test]
    fn each_sequence_is_written_once_per_connection() {
        let transport: Arc<dyn Transport> =
            Arc::new(MemTransport::new().with_read_timeout(Duration::from_millis(20)));
        let listener = transport.bind("mem-once:0").unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let (data_tx, data_rx) = link::<Message>(LinkConfig::instant());
        let dial = DialSlot::new();
        dial.set(Some(listener.local_addr()));
        OutBridge {
            edge: 5,
            incarnation: 0,
            transport: transport.clone(),
            dial,
            data_rx,
            ctrl_sink: Box::new(|_| {}),
            metrics: TransportMetrics::detached(),
            shutdown: shutdown.clone(),
            first_welcome: None,
        }
        .start();
        // Welcomes the bridge's next connection at `next_seq` and returns
        // the sequences written on it up to `last`, then hangs up.
        let serve = |next_seq: u64, last: u64| -> Vec<u64> {
            let deadline = Instant::now() + Duration::from_secs(5);
            let frame_of = |conn: &mut dyn streammine_net::FrameConn| loop {
                match conn.recv() {
                    Ok(bytes) => break decode_from_slice::<DistFrame>(&bytes).unwrap(),
                    Err(FrameError::Timeout) if Instant::now() < deadline => continue,
                    Err(e) => panic!("the bridge fell silent: {e}"),
                }
            };
            let mut conn = loop {
                match listener.accept() {
                    Ok(conn) => break conn,
                    Err(FrameError::Timeout) if Instant::now() < deadline => continue,
                    Err(e) => panic!("the bridge never dialed: {e}"),
                }
            };
            assert_eq!(frame_of(&mut *conn), DistFrame::EdgeHello { edge: 5, incarnation: 0 });
            let welcome =
                DistFrame::Welcome { next_seq, events_received: next_seq, finals_received: 0 };
            conn.send(&welcome.encode_to_vec()).unwrap();
            let mut written = Vec::new();
            while written.last() != Some(&last) {
                let DistFrame::Data(run) = frame_of(&mut *conn) else { panic!("not a data frame") };
                written.extend(run.iter().map(|(seq, _)| *seq));
            }
            written
        };
        for n in 0..6u64 {
            data_tx.send(ev(n)).unwrap();
        }
        assert_eq!(serve(0, 5), (0..6).collect::<Vec<u64>>());
        // The receiver took in 0..4 of them; two more are sent meanwhile.
        data_tx.send(ev(6)).unwrap();
        data_tx.send(ev(7)).unwrap();
        assert_eq!(serve(4, 7), (4..8).collect::<Vec<u64>>());
        shutdown.store(true, Ordering::Release);
    }

    /// A paused inbound edge (one-way partition) delays frames but the
    /// cursor dedups any overlap once the window ends.
    #[test]
    fn pause_inbound_only_delays_delivery() {
        let transport: Arc<dyn Transport> =
            Arc::new(MemTransport::new().with_read_timeout(Duration::from_millis(20)));
        let shutdown = Arc::new(AtomicBool::new(false));
        let (got_tx, got_rx) = link::<Message>(LinkConfig::instant());
        let (_up_ctrl_tx, up_ctrl_rx) = link::<Control>(LinkConfig::instant());
        let acceptor = Acceptor::start(
            transport.clone(),
            "mem-pause:0",
            vec![InEdge {
                edge: 1,
                data_tx: got_tx,
                ctrl_rx: up_ctrl_rx,
                cursor: EdgeCursor::default(),
                on_advance: None,
                metrics: TransportMetrics::detached(),
            }],
            shutdown.clone(),
        )
        .unwrap();

        let (data_tx, data_rx) = link::<Message>(LinkConfig::instant());
        let dial = DialSlot::new();
        dial.set(Some(acceptor.local_addr().to_string()));
        let _bridge = OutBridge {
            edge: 1,
            incarnation: 0,
            transport,
            dial,
            data_rx,
            ctrl_sink: Box::new(|_| {}),
            metrics: TransportMetrics::detached(),
            shutdown: shutdown.clone(),
            first_welcome: None,
        }
        .start();

        // Wait for the link to come up.
        data_tx.send(ev(0)).unwrap();
        got_rx.recv_timeout(Duration::from_secs(5)).unwrap();

        acceptor.pause_inbound(1, Duration::from_millis(120));
        let paused_at = Instant::now();
        data_tx.send(ev(1)).unwrap();
        let (seq, _) = got_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(seq, 1);
        assert!(
            paused_at.elapsed() >= Duration::from_millis(80),
            "frame should have been delayed by the pause window"
        );
        shutdown.store(true, Ordering::Release);
        acceptor.poke();
    }

    /// A [`MemTransport`] that reports every finished dial, so a test
    /// knows how often a bridge has tried without timing it.
    struct ReportingTransport {
        inner: MemTransport,
        dials: crossbeam_channel::Sender<Instant>,
    }

    impl Transport for ReportingTransport {
        fn bind(&self, addr: &str) -> Result<Box<dyn FrameListener>, FrameError> {
            self.inner.bind(addr)
        }

        fn dial(&self, addr: &str) -> Result<Box<dyn streammine_net::FrameConn>, FrameError> {
            let conn = self.inner.dial(addr);
            let _ = self.dials.send(Instant::now());
            conn
        }
    }

    /// A reporting transport, an out-bridge on edge 3 dialing `first`
    /// (where nothing listens), and what the test holds of them.
    struct Rig {
        transport: Arc<dyn Transport>,
        dials: crossbeam_channel::Receiver<Instant>,
        dial: DialSlot,
        connected: crossbeam_channel::Receiver<EdgeCursor>,
        shutdown: Arc<AtomicBool>,
        _data_tx: LinkSender<Message>,
    }

    fn bridge_dialing(first: &str) -> Rig {
        let (dials_tx, dials) = crossbeam_channel::unbounded();
        let transport: Arc<dyn Transport> = Arc::new(ReportingTransport {
            inner: MemTransport::new().with_read_timeout(Duration::from_millis(20)),
            dials: dials_tx,
        });
        let shutdown = Arc::new(AtomicBool::new(false));
        let (data_tx, data_rx) = link::<Message>(LinkConfig::instant());
        let (gate_tx, connected) = crossbeam_channel::bounded(1);
        let dial = DialSlot::new();
        dial.set(Some(first.to_string()));
        OutBridge {
            edge: 3,
            incarnation: 0,
            transport: transport.clone(),
            dial: dial.clone(),
            data_rx,
            ctrl_sink: Box::new(|_| {}),
            metrics: TransportMetrics::detached(),
            shutdown: shutdown.clone(),
            first_welcome: Some(gate_tx),
        }
        .start();
        Rig { transport, dials, dial, connected, shutdown, _data_tx: data_tx }
    }

    /// An acceptor at `addr` with the one in-edge `edge`, and the ring it
    /// feeds.
    fn acceptor_at(
        transport: &Arc<dyn Transport>,
        addr: &str,
        edge: u32,
        shutdown: &Arc<AtomicBool>,
    ) -> (Acceptor, LinkReceiver<Message>) {
        let (got_tx, got_rx) = link::<Message>(LinkConfig::instant());
        let (_up_ctrl_tx, up_ctrl_rx) = link::<Control>(LinkConfig::instant());
        let edges = vec![InEdge {
            edge,
            data_tx: got_tx,
            ctrl_rx: up_ctrl_rx,
            cursor: EdgeCursor::default(),
            on_advance: None,
            metrics: TransportMetrics::detached(),
        }];
        let acceptor = Acceptor::start(transport.clone(), addr, edges, shutdown.clone()).unwrap();
        (acceptor, got_rx)
    }

    fn listen(rig: &Rig, addr: &str) -> Acceptor {
        acceptor_at(&rig.transport, addr, 3, &rig.shutdown).0
    }

    /// Being wired ends a bridge's back-off: after four failed dials (the
    /// first does not count, see the next test) it is parked for 40 ms,
    /// and connects within 5 ms of its slot being set. The bound shares
    /// the machine with the other tests, so the best of three rounds
    /// counts.
    #[test]
    fn a_wired_bridge_dials_at_once_not_after_its_backoff() {
        let mut best = Duration::MAX;
        for _ in 0..3 {
            let rig = bridge_dialing("mem:nobody");
            for _ in 0..4 {
                rig.dials.recv_timeout(Duration::from_secs(5)).unwrap();
            }
            let acceptor = listen(&rig, "mem-wired:0");
            let wired = Instant::now();
            rig.dial.set(Some(acceptor.local_addr().to_string()));
            rig.connected.recv_timeout(Duration::from_secs(5)).unwrap();
            best = best.min(wired.elapsed());
            rig.shutdown.store(true, Ordering::Release);
            acceptor.poke();
            if best < Duration::from_millis(5) {
                return;
            }
        }
        panic!("a freshly wired bridge took {best:?} to connect: it slept out its back-off");
    }

    /// With nobody signalling, the back-off still paces the retries
    /// against an unchanged address, and they go on until one is answered.
    #[test]
    fn an_unsignalled_bridge_keeps_retrying_on_its_backoff() {
        let rig = bridge_dialing("mem:late");
        let attempts: Vec<Instant> =
            (0..5).map(|_| rig.dials.recv_timeout(Duration::from_secs(5)).unwrap()).collect();
        // Setting the slot signalled once, which the park after the first
        // failure consumes; from the second on it is 10 + 20 + 40 ms.
        assert!(attempts[4] - attempts[1] >= Duration::from_millis(70), "retries were not paced");
        let acceptor = listen(&rig, "mem:late");
        rig.connected.recv_timeout(Duration::from_secs(5)).expect("the retries stopped");
        rig.shutdown.store(true, Ordering::Release);
        acceptor.poke();
    }

    /// A respawned sender is told what the receiver holds and sends the
    /// rest, framed by its own timing. What its predecessor left unread in
    /// a socket (here: sent after the successor's `Welcome`, as a paused
    /// edge delivers it) is part of that rest — the finalize of an event
    /// the receiver holds speculative — under a sequence the successor
    /// uses for something else, and must not be taken.
    #[test]
    fn frames_of_a_superseded_sender_incarnation_are_dropped() {
        let transport: Arc<dyn Transport> =
            Arc::new(MemTransport::new().with_read_timeout(Duration::from_millis(20)));
        let shutdown = Arc::new(AtomicBool::new(false));
        let (acceptor, got_rx) = acceptor_at(&transport, "mem-superseded:0", 2, &shutdown);
        let join = |incarnation: u64| {
            let mut conn = transport.dial(acceptor.local_addr()).unwrap();
            conn.send(&DistFrame::EdgeHello { edge: 2, incarnation }.encode_to_vec()).unwrap();
            let welcome = loop {
                match conn.recv() {
                    Ok(bytes) => break decode_from_slice::<DistFrame>(&bytes).unwrap(),
                    Err(FrameError::Timeout) => continue,
                    Err(e) => panic!("no welcome: {e}"),
                }
            };
            (conn, welcome)
        };
        let hung_up = |conn: &mut dyn streammine_net::FrameConn| {
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                match conn.recv() {
                    Err(e) if e.is_fatal() => return true,
                    _ if Instant::now() >= deadline => return false,
                    _ => continue,
                }
            }
        };
        let data = |seq: u64, msg: Message| DistFrame::Data(vec![(seq, msg)]).encode_to_vec();
        let speculative = |n: u64| {
            Event::speculative(EventId::new(OperatorId::new(0), n), 0, Value::Int(n as i64))
        };
        let finalize =
            |n: u64| Message::Control(Control::Finalize { id: speculative(n).id, version: 0 });
        let welcome = |next_seq, events_received, finals_received| DistFrame::Welcome {
            next_seq,
            events_received,
            finals_received,
        };

        let (mut old, welcomed) = join(0);
        assert_eq!(welcomed, welcome(0, 0, 0));
        old.send(&data(0, Message::Data(speculative(0)))).unwrap();
        assert_eq!(got_rx.recv_timeout(Duration::from_secs(5)).unwrap().0, 0);

        // The successor is told: one event, not final yet.
        let (mut new, welcomed) = join(1);
        assert_eq!(welcomed, welcome(1, 1, 0));
        // The predecessor's leftover: that event's finalize under sequence
        // 1. The acceptor hangs up on it.
        old.send(&data(1, finalize(0))).unwrap();
        assert!(hung_up(&mut *old), "a superseded connection stayed open");
        // The successor swallowed event 0 and batches events 1 and 2 under
        // the same sequence, ahead of the finalize it owes.
        new.send(&data(1, Message::DataBatch(vec![speculative(1), speculative(2)]))).unwrap();
        new.send(&data(2, finalize(0))).unwrap();
        let (seq, msg) = got_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((seq, msg.event_count()), (1, 2));
        assert_eq!(got_rx.recv_timeout(Duration::from_secs(5)).unwrap(), (2, finalize(0)));
        assert_eq!(acceptor.cursor(2), (3, 3));
        // Exactly one finalize was counted.
        let (_third, welcomed) = join(1);
        assert_eq!(welcomed, welcome(3, 3, 1));
        // And a zombie that dials after its successor is not welcomed.
        let mut zombie = transport.dial(acceptor.local_addr()).unwrap();
        zombie.send(&DistFrame::EdgeHello { edge: 2, incarnation: 0 }.encode_to_vec()).unwrap();
        assert!(hung_up(&mut *zombie), "a zombie was welcomed");

        shutdown.store(true, Ordering::Release);
        acceptor.poke();
    }
}
