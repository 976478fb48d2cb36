//! Simulated network links between operators.
//!
//! In the paper's testbed, operators are OS processes connected by TCP
//! (§2.3); the evaluation notes that real network hops only add a
//! roughly-constant latency to the curves (§4, discussion of Figure 3).
//! This crate reproduces exactly the properties the protocols rely on.
//!
//! A link is **one ring per edge**: a queue of unacknowledged messages
//! with a base sequence number, under one mutex. The sender appends, the
//! receiver reads through a cursor kept in the same shared state, and an
//! acknowledgment trims the front. That one buffer is, at once,
//!
//! * the **output buffer** of upstream backup (§2.2): a message stays in
//!   the ring until acknowledged, so a recovering downstream re-reads from
//!   a sequence number — [`LinkReceiver::rewind_to`] moves the cursor back,
//!   it copies nothing, needs no message and can never stop half way;
//! * the **in-flight queue**, delivering in order and reliably, with a
//!   configurable **propagation delay** and optional jitter. The instant a
//!   message is due is stored with the entry, and a message is *readable*
//!   only when it is present, below the sever limit and due: a read never
//!   sleeps, it finds the message or it does not (FIFO order is preserved,
//!   as on a TCP stream);
//! * the **flow-control window**: at most [`LinkConfig::capacity`]
//!   messages may be unread (tail − cursor). [`LinkSender::send`] beyond it
//!   fails fast with [`LinkError::Saturated`] instead of growing memory,
//!   [`LinkSender::send_blocking`] waits for the cursor to advance, and the
//!   coordinator's [`LinkSender::push`] never rejects — dropping would
//!   break precise recovery — but reports the saturation so the producer
//!   stops. A rewind consumes no window, so replay can never wait on the
//!   live traffic it is about to re-deliver;
//! * the **severed-link backlog** (failure injection): severing freezes
//!   how far the cursor may read; what is sent meanwhile waits in the ring
//!   and flows, in order, when the link heals. A transient
//!   [`LinkSender::delay_spike`] models congestion without reordering.
//!
//! A receiver either blocks on its own ring ([`LinkReceiver::recv`]) or —
//! a consumer of several rings — polls each with
//! [`LinkReceiver::try_recv`] and parks on one [`Waker`] that every ring
//! signals ([`LinkReceiver::set_waker`]) until something was sent or the
//! earliest in-flight message ([`LinkReceiver::next_due`]) is due. A
//! producer that stops on a full window parks on its own waker
//! ([`LinkSender::set_waker`]), which the receiver's next read signals.
//!
//! # Example
//!
//! ```
//! use streammine_net::{link, LinkConfig};
//!
//! let (tx, rx) = link::<u32>(LinkConfig::instant());
//! tx.send(7)?;
//! tx.send(8)?;
//! assert_eq!(rx.recv()?, (0, 7));
//! assert_eq!(rx.recv()?, (1, 8));
//! // The reader crashed and recovered: it re-reads everything retained.
//! assert_eq!(rx.rewind_to(0), 0);
//! assert_eq!(rx.recv()?, (0, 7));
//! # Ok::<(), streammine_net::LinkError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backoff;
pub mod tcp;
pub mod transport;

pub use backoff::BackoffConfig;
pub use tcp::TcpTransport;
pub use transport::{
    FrameConn, FrameError, FrameListener, FrameRx, FrameTx, MemTransport, SharedFrameTx, Transport,
    MAX_FRAME,
};

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};
use streammine_common::rng::DetRng;
use streammine_obs::{Counter, Gauge, Labels, Registry};

/// Errors surfaced by link operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkError {
    /// The peer half of the link was dropped.
    Disconnected,
    /// `recv_timeout` elapsed without a message.
    Timeout,
    /// The link's window is full: the consumer has not yet read enough of
    /// what was sent. The message was **not** accepted; retry after the
    /// consumer drains (backpressure, not failure).
    Saturated,
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::Disconnected => write!(f, "link disconnected"),
            LinkError::Timeout => write!(f, "receive timed out"),
            LinkError::Saturated => write!(f, "link saturated (send window exhausted)"),
        }
    }
}

impl std::error::Error for LinkError {}

/// Default window of a link.
pub const DEFAULT_LINK_CAPACITY: usize = 1024;

/// Propagation-delay and flow-control model of a link.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkConfig {
    /// One-way propagation delay added to each message.
    pub delay: Duration,
    /// Uniform jitter fraction on `delay` (FIFO order still preserved).
    pub jitter: f64,
    /// Seed for the jitter generator.
    pub seed: u64,
    /// The window: the maximum number of sent-but-unread messages. Sends
    /// beyond it fail with [`LinkError::Saturated`] until the consumer
    /// drains.
    pub capacity: usize,
}

impl Default for LinkConfig {
    fn default() -> Self {
        Self::instant()
    }
}

impl LinkConfig {
    /// Zero-delay link (operators co-located in one process).
    pub fn instant() -> Self {
        LinkConfig { delay: Duration::ZERO, jitter: 0.0, seed: 0, capacity: DEFAULT_LINK_CAPACITY }
    }

    /// Typical LAN hop: 300 µs ± 20 %.
    pub fn lan() -> Self {
        LinkConfig {
            delay: Duration::from_micros(300),
            jitter: 0.2,
            seed: 0x1A4,
            ..Self::instant()
        }
    }

    /// Typical WAN hop: 20 ms ± 20 %.
    pub fn wan() -> Self {
        LinkConfig { delay: Duration::from_millis(20), jitter: 0.2, seed: 0x3A4, ..Self::instant() }
    }

    /// A fixed custom delay without jitter.
    pub fn with_delay(delay: Duration) -> Self {
        LinkConfig { delay, ..Self::instant() }
    }

    /// Overrides the window.
    #[must_use]
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }
}

/// Per-edge transport metrics, registered under `(op, edge)` labels.
///
/// `sent` counts messages put on the wire (at once, or when a heal
/// releases them), `queued` counts messages accepted behind a severed
/// link, `retransmits` counts those released by a heal, and `saturated`
/// counts sends that found or left the window full. The gauges track live
/// depths: `pending` (accepted but not yet deliverable: behind a sever or
/// beyond the window), `pending_hwm` (its high-water mark), `retained`
/// (unacknowledged messages in the ring), and `credits` (window remaining).
#[derive(Clone, Debug)]
pub struct EdgeMetrics {
    /// Messages put on the wire.
    pub sent: Counter,
    /// Sends accepted behind a severed link.
    pub queued: Counter,
    /// Backlogged messages released when the link healed.
    pub retransmits: Counter,
    /// Sends that found or left the window full.
    pub saturated: Counter,
    /// Messages accepted but not yet deliverable.
    pub pending: Gauge,
    /// High-water mark of `pending`.
    pub pending_hwm: Gauge,
    /// Messages in the ring awaiting acknowledgment.
    pub retained: Gauge,
    /// Window remaining.
    pub credits: Gauge,
}

impl EdgeMetrics {
    /// Registers the metrics as `edge.sent` / `edge.queued` /
    /// `edge.retransmits` / `edge.saturated` / `edge.pending` /
    /// `edge.pending_hwm` / `edge.retained` / `edge.credits` labeled with
    /// the owning operator and edge index.
    pub fn registered(registry: &Registry, op: u32, edge: u32) -> EdgeMetrics {
        let labels = Labels::op_port(op, edge);
        EdgeMetrics {
            sent: registry.counter("edge.sent", labels),
            queued: registry.counter("edge.queued", labels),
            retransmits: registry.counter("edge.retransmits", labels),
            saturated: registry.counter("edge.saturated", labels),
            pending: registry.gauge("edge.pending", labels),
            pending_hwm: registry.gauge("edge.pending_hwm", labels),
            retained: registry.gauge("edge.retained", labels),
            credits: registry.gauge("edge.credits", labels),
        }
    }
}

/// What [`LinkSender::push`] did with a message. The message is accepted
/// in every case and carries the link sequence number it was given.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// On the wire, window not yet full.
    Sent(u64),
    /// Accepted behind a severed link; it flows when the link heals.
    Queued(u64),
    /// Accepted, but the window is now full (or overfull): the producer
    /// must stop generating output until the consumer drains.
    Saturated(u64),
}

impl SendOutcome {
    /// The link sequence number the message was given.
    pub fn seq(self) -> u64 {
        match self {
            SendOutcome::Sent(seq) | SendOutcome::Queued(seq) | SendOutcome::Saturated(seq) => seq,
        }
    }
}

/// The one place a consumer of several rings sleeps. Everything it reads
/// signals the waker after making something readable; the consumer polls
/// its sources, and when none had anything parks here. A signal between
/// its last poll and the park is remembered, so it is never slept through.
#[derive(Clone, Debug, Default)]
pub struct Waker {
    inner: Arc<WakerInner>,
}

#[derive(Debug, Default)]
struct WakerInner {
    state: Mutex<WakerState>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct WakerState {
    signalled: bool,
    /// The consumer is waiting on the condvar (so a signal to a busy
    /// consumer skips the wake-up call).
    parked: bool,
}

impl Waker {
    /// A waker nobody has signalled.
    pub fn new() -> Waker {
        Waker::default()
    }

    /// Signals the consumer: its next (or current) park returns at once.
    pub fn wake(&self) {
        let mut state = self.inner.state.lock();
        state.signalled = true;
        if std::mem::take(&mut state.parked) {
            drop(state);
            self.inner.cv.notify_one();
        }
    }

    /// Sleeps until signalled or `deadline` (with none, until signalled),
    /// consuming the signal; `false` when the deadline came first.
    pub fn park(&self, deadline: Option<Instant>) -> bool {
        let mut state = self.inner.state.lock();
        loop {
            if std::mem::take(&mut state.signalled) {
                state.parked = false;
                return true;
            }
            let now = Instant::now();
            if deadline.is_some_and(|deadline| now >= deadline) {
                state.parked = false;
                return false;
            }
            state.parked = true;
            match deadline {
                Some(deadline) => {
                    let _ = self.inner.cv.wait_for(&mut state, deadline - now);
                }
                None => self.inner.cv.wait(&mut state),
            }
        }
    }
}

struct Spike {
    extra: Duration,
    until: Instant,
}

/// The edge's whole state. Sequence `base + i` is `entries[i]`;
/// `base <= cursor <= tail`, and everything below `min(acked, cursor)` has
/// been dropped.
struct Ring<T> {
    /// Unacknowledged messages with the instant each is due at the
    /// receiver (`None`: at once).
    entries: VecDeque<(Option<Instant>, T)>,
    base: u64,
    /// The next sequence the receiver reads.
    cursor: u64,
    /// The furthest the cursor ever got: the window senders were admitted
    /// against. A rewind makes read messages unread again, it does not
    /// put anything past the window.
    read_hwm: u64,
    /// Sever: sequences at or past it are not readable (`u64::MAX` while
    /// connected).
    limit: u64,
    /// Everything below it is acknowledged; an entry goes once it is also
    /// read.
    acked: u64,
    last_due: Option<Instant>,
    spike: Option<Spike>,
    rng: DetRng,
    metrics: Option<EdgeMetrics>,
    pending_hwm: usize,
    /// The receiver is parked on the condvar (so an idle send skips the
    /// wake-up call).
    rx_waiting: bool,
    /// A producer waits for the cursor to advance: a blocking send, or
    /// one that was told the window is full.
    tx_waiting: bool,
    tx_alive: bool,
    rx_alive: bool,
}

impl<T> Ring<T> {
    fn tail(&self) -> u64 {
        self.base + self.entries.len() as u64
    }

    fn unread(&self) -> usize {
        (self.tail() - self.cursor) as usize
    }

    /// Accepted messages the receiver cannot be handed yet: behind a sever
    /// or beyond the window, which ends `capacity` past the furthest read.
    fn pending(&self, capacity: usize) -> usize {
        let deliverable = self.tail().min(self.limit).min(self.read_hwm + capacity as u64);
        (self.tail() - deliverable.max(self.cursor)) as usize
    }

    fn trim(&mut self) {
        let keep_from = self.acked.min(self.cursor);
        while self.base < keep_from {
            self.entries.pop_front();
            self.base += 1;
        }
    }

    fn publish_gauges(&mut self, capacity: usize) {
        let Some(m) = &self.metrics else { return };
        let pending = self.pending(capacity);
        m.pending.set(pending as i64);
        if pending > self.pending_hwm {
            self.pending_hwm = pending;
            m.pending_hwm.set(pending as i64);
        }
        m.retained.set(self.entries.len() as i64);
        m.credits.set(capacity.saturating_sub(self.unread()) as i64);
    }

    /// When a message sent now is due at the receiver.
    fn due(&mut self, config: &LinkConfig) -> Option<Instant> {
        if config.delay.is_zero() && self.spike.is_none() {
            // FIFO: still never before a delayed predecessor.
            return self.last_due;
        }
        let now = Instant::now();
        let mut delay = config.delay.as_secs_f64();
        if config.jitter > 0.0 {
            delay *= 1.0 + config.jitter * (2.0 * self.rng.next_f64() - 1.0);
        }
        let mut due = now + Duration::from_secs_f64(delay.max(0.0));
        match &self.spike {
            Some(s) if now < s.until => due += s.extra,
            Some(_) => self.spike = None, // expired: self-clearing
            None => {}
        }
        // FIFO: a message never arrives before its predecessor.
        let due = self.last_due.map_or(due, |last| due.max(last));
        self.last_due = Some(due);
        Some(due)
    }

    /// Hands the receiver the message at the cursor, if it is readable:
    /// present, below the sever limit and due.
    fn take(&mut self) -> Head<T>
    where
        T: Clone,
    {
        let seq = self.cursor;
        if seq >= self.tail().min(self.limit) {
            return Head::Empty;
        }
        let idx = (seq - self.base) as usize;
        if let Some(due) = self.entries[idx].0 {
            if due > Instant::now() {
                return Head::InFlight(due);
            }
        }
        self.cursor += 1;
        self.read_hwm = self.read_hwm.max(self.cursor);
        if seq < self.acked {
            // Acknowledged ahead of the read (a link nobody replays):
            // nothing keeps the stored message, so it is moved out.
            self.base += 1;
            let (_, msg) = self.entries.pop_front().expect("cursor below tail");
            return Head::Ready(seq, msg);
        }
        Head::Ready(seq, self.entries[idx].1.clone())
    }
}

/// What the receiver finds at its cursor.
enum Head<T> {
    /// A readable message, now read.
    Ready(u64, T),
    /// A message still in flight, due at the instant.
    InFlight(Instant),
    /// Nothing below the tail and the sever limit.
    Empty,
}

struct Shared<T> {
    ring: Mutex<Ring<T>>,
    /// Signalled when the receiver may have something to read.
    readable: Condvar,
    /// Signalled when the cursor advanced under a blocked sender.
    writable: Condvar,
    /// The consumer's own waker, signalled with `readable`.
    waker: OnceLock<Waker>,
    /// The producer's own waker, signalled with `writable`.
    tx_waker: OnceLock<Waker>,
    config: LinkConfig,
}

impl<T> Shared<T> {
    /// Wakes the receiver wherever it sleeps; call with the ring locked.
    fn wake(&self, ring: &mut Ring<T>) {
        if std::mem::take(&mut ring.rx_waiting) {
            self.readable.notify_one();
        }
        if let Some(waker) = self.waker.get() {
            waker.wake();
        }
    }

    fn ack_upto(&self, upto: u64) {
        let mut ring = self.ring.lock();
        ring.acked = ring.acked.max(upto);
        ring.trim();
        if let Some(m) = &ring.metrics {
            m.retained.set(ring.entries.len() as i64);
        }
    }

    fn rewind(&self, from: u64) -> u64 {
        let mut ring = self.ring.lock();
        let to = from.max(ring.base).min(ring.cursor);
        if to < ring.cursor {
            ring.cursor = to;
            self.wake(&mut ring);
        }
        to
    }
}

/// Marks the link closed when the last [`LinkSender`] clone drops.
struct SenderToken<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Drop for SenderToken<T> {
    fn drop(&mut self) {
        let mut ring = self.shared.ring.lock();
        ring.tx_alive = false;
        self.shared.wake(&mut ring);
    }
}

/// Sending half of a link. Clones share the one ring.
pub struct LinkSender<T> {
    shared: Arc<Shared<T>>,
    _token: Arc<SenderToken<T>>,
}

impl<T> Clone for LinkSender<T> {
    fn clone(&self) -> Self {
        LinkSender { shared: self.shared.clone(), _token: self._token.clone() }
    }
}

impl<T> fmt::Debug for LinkSender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ring = self.shared.ring.lock();
        f.debug_struct("LinkSender")
            .field("base", &ring.base)
            .field("cursor", &ring.cursor)
            .field("tail", &ring.tail())
            .field("severed", &(ring.limit != u64::MAX))
            .finish()
    }
}

/// Receiving half of a link.
pub struct LinkReceiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Drop for LinkReceiver<T> {
    fn drop(&mut self) {
        self.shared.ring.lock().rx_alive = false;
        self.shared.writable.notify_all();
    }
}

impl<T> fmt::Debug for LinkReceiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LinkReceiver").field("cursor", &self.shared.ring.lock().cursor).finish()
    }
}

/// Creates a link with the given delay and flow-control model.
///
/// # Panics
///
/// Panics when `config.capacity` is zero: a link without a window could
/// never carry a message.
pub fn link<T: Clone + Send + 'static>(config: LinkConfig) -> (LinkSender<T>, LinkReceiver<T>) {
    assert!(config.capacity > 0, "link capacity must be at least 1");
    let shared = Arc::new(Shared {
        ring: Mutex::new(Ring {
            entries: VecDeque::new(),
            base: 0,
            cursor: 0,
            read_hwm: 0,
            limit: u64::MAX,
            acked: 0,
            last_due: None,
            spike: None,
            rng: DetRng::seed_from(config.seed),
            metrics: None,
            pending_hwm: 0,
            rx_waiting: false,
            tx_waiting: false,
            tx_alive: true,
            rx_alive: true,
        }),
        readable: Condvar::new(),
        writable: Condvar::new(),
        waker: OnceLock::new(),
        tx_waker: OnceLock::new(),
        config,
    });
    let token = Arc::new(SenderToken { shared: shared.clone() });
    (LinkSender { shared: shared.clone(), _token: token }, LinkReceiver { shared })
}

impl<T: Clone + Send + 'static> LinkSender<T> {
    /// Appends `msg` to the locked ring and wakes the receiver.
    fn append(&self, mut ring: MutexGuard<'_, Ring<T>>, msg: T) -> SendOutcome {
        let capacity = self.shared.config.capacity;
        let seq = ring.tail();
        let due = ring.due(&self.shared.config);
        ring.entries.push_back((due, msg));
        let severed = seq >= ring.limit;
        let saturated = ring.unread() >= capacity;
        if let Some(m) = &ring.metrics {
            if severed { &m.queued } else { &m.sent }.incr();
            if saturated {
                m.saturated.incr();
            }
        }
        ring.publish_gauges(capacity);
        let wake = !severed && std::mem::take(&mut ring.rx_waiting);
        drop(ring);
        if wake {
            self.shared.readable.notify_one();
        }
        if !severed {
            if let Some(waker) = self.shared.waker.get() {
                waker.wake();
            }
        }
        match (saturated, severed) {
            (true, _) => SendOutcome::Saturated(seq),
            (false, true) => SendOutcome::Queued(seq),
            (false, false) => SendOutcome::Sent(seq),
        }
    }

    /// Sends a message unless the window is full; returns its link
    /// sequence number. The message stays in the ring, re-readable, until
    /// acknowledged via [`LinkSender::ack_upto`]. While the link is
    /// severed an accepted message waits in the ring for the heal.
    ///
    /// # Errors
    ///
    /// [`LinkError::Saturated`] when the window is full — the message is
    /// not accepted and no sequence number is used; retry after the
    /// consumer drains. [`LinkError::Disconnected`] when the receiver is
    /// gone.
    pub fn send(&self, msg: T) -> Result<u64, LinkError> {
        self.send_when_room(msg, false)
    }

    /// [`LinkSender::send`] for a producer with nowhere to shed load to (a
    /// source, a socket reader): while the window is full it waits for the
    /// receiver's cursor to advance — backpressure felt as a blocked call.
    ///
    /// # Errors
    ///
    /// [`LinkError::Disconnected`] when the receiver is gone, before or
    /// during the wait.
    pub fn send_blocking(&self, msg: T) -> Result<u64, LinkError> {
        self.send_when_room(msg, true)
    }

    fn send_when_room(&self, msg: T, wait: bool) -> Result<u64, LinkError> {
        let mut ring = self.shared.ring.lock();
        loop {
            if !ring.rx_alive {
                return Err(LinkError::Disconnected);
            }
            if ring.unread() < self.shared.config.capacity {
                return Ok(self.append(ring, msg).seq());
            }
            if let Some(m) = &ring.metrics {
                m.saturated.incr();
            }
            if !wait {
                return Err(LinkError::Saturated);
            }
            ring.tx_waiting = true;
            self.shared.writable.wait(&mut ring);
        }
    }

    /// Sends a message and never rejects, drops or reorders it: a producer
    /// that has already computed an output cannot un-compute it, and
    /// dropping it would break precise recovery. The outcome says whether
    /// the window is now full, which is the producer's signal to stop
    /// (see [`LinkSender::is_saturated_with`]) — so the ring exceeds the
    /// window by at most what the producer emits between two checks.
    pub fn push(&self, msg: T) -> SendOutcome {
        self.append(self.shared.ring.lock(), msg)
    }

    /// Whether the window is full once `inflight` more messages the
    /// producer has already committed to sending — outputs held for log
    /// stability, say — are counted. Admission gates use this so deferred
    /// publication cannot overshoot the window by everything admitted
    /// inside one stability wait.
    ///
    /// A `true` answer arms the producer's waker ([`LinkSender::set_waker`]):
    /// the receiver's next read signals it.
    pub fn is_saturated_with(&self, inflight: usize) -> bool {
        let mut ring = self.shared.ring.lock();
        let saturated = ring.unread() + inflight >= self.shared.config.capacity;
        ring.tx_waiting |= saturated;
        saturated
    }

    /// Makes the receiver's next read signal `waker` once
    /// [`LinkSender::is_saturated_with`] has answered `true`, for a
    /// producer that stops on a full window and sleeps on the waker. A read
    /// costs nothing extra while the producer is not stopped.
    ///
    /// # Panics
    ///
    /// Panics when the ring already has a producer waker.
    pub fn set_waker(&self, waker: Waker) {
        assert!(self.shared.tx_waker.set(waker).is_ok(), "the ring already has a producer waker");
    }

    /// Acknowledges everything with sequence `< upto` — the downstream
    /// confirmed it will never need it again (paper's control message 5).
    /// An acknowledged message leaves the ring once it has also been read.
    pub fn ack_upto(&self, upto: u64) {
        self.shared.ack_upto(upto);
    }

    /// Number of messages in the ring (unacknowledged or unread).
    pub fn retained_len(&self) -> usize {
        self.shared.ring.lock().entries.len()
    }

    /// Accepted messages the receiver cannot be handed yet: behind a sever
    /// or beyond the window.
    pub fn pending_len(&self) -> usize {
        self.shared.ring.lock().pending(self.shared.config.capacity)
    }

    /// Total messages ever accepted (the next sequence number).
    pub fn sent(&self) -> u64 {
        self.shared.ring.lock().tail()
    }

    /// Starts numbering at `next`.
    ///
    /// Used when a fresh process incarnation adopts a surviving peer's
    /// delivery state: the reconnect handshake reports how many frames
    /// the receiver already consumed, and the sender continues numbering
    /// from there so the receiver's cursor sees neither a gap nor stale
    /// duplicates.
    ///
    /// # Panics
    ///
    /// Panics when something was already sent.
    pub fn set_next_seq(&self, next: u64) {
        let mut ring = self.shared.ring.lock();
        assert!(ring.entries.is_empty(), "set_next_seq after the first send");
        ring.base = next;
        ring.cursor = next;
        ring.read_hwm = next;
    }

    /// Attaches registered transport metrics; shared by all clones.
    pub fn set_metrics(&self, metrics: EdgeMetrics) {
        self.shared.ring.lock().metrics = Some(metrics);
    }

    /// Refreshes the depth gauges (they otherwise move only on a send, so
    /// a drained edge would keep showing its last busy reading).
    pub fn publish_gauges(&self) {
        self.shared.ring.lock().publish_gauges(self.shared.config.capacity);
    }

    /// Severs the link (failure injection): what was sent so far is still
    /// delivered, everything sent from now on waits for the heal.
    pub fn sever(&self) {
        let mut ring = self.shared.ring.lock();
        ring.limit = ring.limit.min(ring.tail());
    }

    /// Heals a severed link: the backlog flows, in order.
    pub fn heal(&self) {
        let mut ring = self.shared.ring.lock();
        let released = ring.tail().saturating_sub(ring.limit);
        ring.limit = u64::MAX;
        if let Some(m) = &ring.metrics {
            m.retransmits.add(released);
            m.sent.add(released);
        }
        ring.publish_gauges(self.shared.config.capacity);
        self.shared.wake(&mut ring);
    }

    /// Whether the link is currently severed.
    pub fn is_severed(&self) -> bool {
        self.shared.ring.lock().limit != u64::MAX
    }

    /// Adds `extra` propagation delay to every message sent within the
    /// next `window` (a congestion spike). Self-clearing; FIFO order is
    /// still preserved.
    pub fn delay_spike(&self, extra: Duration, window: Duration) {
        self.shared.ring.lock().spike = Some(Spike { extra, until: Instant::now() + window });
    }

    /// Clears any active delay spike.
    pub fn clear_delay_spike(&self) {
        self.shared.ring.lock().spike = None;
    }
}

impl<T: Clone + Send + 'static> LinkReceiver<T> {
    /// Reads the message at the cursor if it is readable, and lets a
    /// waiting producer know the window moved.
    fn take(&self, ring: &mut Ring<T>) -> Head<T> {
        let head = ring.take();
        if matches!(head, Head::Ready(..)) && std::mem::take(&mut ring.tx_waiting) {
            self.shared.writable.notify_all();
            if let Some(waker) = self.shared.tx_waker.get() {
                waker.wake();
            }
        }
        head
    }

    /// Waits until `deadline` (for ever when `None`) for a message.
    fn recv_until(&self, deadline: Option<Instant>) -> Result<(u64, T), LinkError> {
        let mut ring = self.shared.ring.lock();
        loop {
            let due = match self.take(&mut ring) {
                Head::Ready(seq, msg) => return Ok((seq, msg)),
                Head::InFlight(due) => Some(due),
                Head::Empty if ring.tx_alive => None,
                Head::Empty => return Err(LinkError::Disconnected),
            };
            // Until a send, a heal or a rewind — or the head falls due.
            let until = match (deadline, due) {
                (Some(deadline), Some(due)) => Some(deadline.min(due)),
                (deadline, due) => deadline.or(due),
            };
            ring.rx_waiting = true;
            match until {
                None => self.shared.readable.wait(&mut ring),
                Some(until) => {
                    let now = Instant::now();
                    if deadline.is_some_and(|deadline| now >= deadline) {
                        return Err(LinkError::Timeout);
                    }
                    let _ = self
                        .shared
                        .readable
                        .wait_for(&mut ring, until.saturating_duration_since(now));
                }
            }
        }
    }

    /// Blocks for the next message; returns `(link_seq, message)`.
    ///
    /// # Errors
    ///
    /// [`LinkError::Disconnected`] when every sender is gone and nothing
    /// is left to read.
    pub fn recv(&self) -> Result<(u64, T), LinkError> {
        self.recv_until(None)
    }

    /// Non-blocking receive. `Ok(None)` when nothing is readable — nothing
    /// sent, severed, or the next message still in flight (see
    /// [`LinkReceiver::next_due`]).
    ///
    /// # Errors
    ///
    /// [`LinkError::Disconnected`] when every sender is gone and nothing
    /// is left to read.
    pub fn try_recv(&self) -> Result<Option<(u64, T)>, LinkError> {
        let mut ring = self.shared.ring.lock();
        match self.take(&mut ring) {
            Head::Ready(seq, msg) => Ok(Some((seq, msg))),
            Head::Empty if !ring.tx_alive => Err(LinkError::Disconnected),
            Head::InFlight(_) | Head::Empty => Ok(None),
        }
    }

    /// When the message at the cursor is due, if it has a due instant: how
    /// long a consumer that just found nothing readable may sleep without
    /// being signalled.
    pub fn next_due(&self) -> Option<Instant> {
        let ring = self.shared.ring.lock();
        let present = ring.cursor < ring.tail().min(ring.limit);
        present.then(|| ring.entries[(ring.cursor - ring.base) as usize].0).flatten()
    }

    /// Makes the ring signal `waker` whenever it may have become readable
    /// (a send, a heal, a rewind, the last sender leaving), for a consumer
    /// that polls with [`LinkReceiver::try_recv`] and sleeps on the waker.
    ///
    /// # Panics
    ///
    /// Panics when the ring already has a waker: a ring has one consumer.
    pub fn set_waker(&self, waker: Waker) {
        assert!(self.shared.waker.set(waker).is_ok(), "the ring already has a waker");
    }

    /// Blocking receive with a timeout.
    ///
    /// # Errors
    ///
    /// [`LinkError::Timeout`] on timeout, [`LinkError::Disconnected`] when
    /// every sender is gone and nothing is left to read.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<(u64, T), LinkError> {
        self.recv_until(Some(Instant::now() + timeout))
    }

    /// Moves the cursor back to sequence `from`, so that the reader gets
    /// `from` and everything after it again, in order; never moves it
    /// forward. A ring is rewound by its reader and by nobody else: a node
    /// recovering from a crash, to its checkpoint's position; a bridge, to
    /// where the reconnect handshake says its peer really got. Returns
    /// where the cursor stands now: `from`, or below it when the reader had
    /// not got that far — or **above** it when acknowledgments already
    /// trimmed the ring past `from`, and what the reader asked for is gone.
    pub fn rewind_to(&self, from: u64) -> u64 {
        self.shared.rewind(from)
    }

    /// The receiver's side of [`LinkSender::ack_upto`], for a consumer
    /// that is the last one to need what it reads (the reader of a control
    /// link acknowledges what it has handled).
    pub fn ack_upto(&self, upto: u64) {
        self.shared.ack_upto(upto);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_delivery_with_sequence_numbers() {
        let (tx, rx) = link::<u8>(LinkConfig::instant());
        for i in 0..10 {
            assert_eq!(tx.send(i).unwrap(), u64::from(i));
        }
        for i in 0..10u8 {
            assert_eq!(rx.recv().unwrap(), (u64::from(i), i));
        }
    }

    #[test]
    fn delay_is_applied() {
        let (tx, rx) = link::<u8>(LinkConfig::with_delay(Duration::from_millis(5)));
        let start = Instant::now();
        tx.send(1).unwrap();
        let _ = rx.recv().unwrap();
        assert!(start.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn jittered_delay_preserves_fifo() {
        let cfg = LinkConfig {
            delay: Duration::from_micros(500),
            jitter: 0.9,
            seed: 42,
            ..LinkConfig::instant()
        };
        let (tx, rx) = link::<u32>(cfg);
        for i in 0..50 {
            tx.send(i).unwrap();
        }
        let mut prev = None;
        for _ in 0..50 {
            let (seq, _) = rx.recv().unwrap();
            if let Some(p) = prev {
                assert!(seq > p, "FIFO violated: {seq} after {p}");
            }
            prev = Some(seq);
        }
    }

    #[test]
    fn replay_rereads_the_retained_suffix() {
        let (tx, rx) = link::<u8>(LinkConfig::instant());
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        for _ in 0..5 {
            rx.recv().unwrap();
        }
        assert_eq!(rx.rewind_to(2), 2);
        assert_eq!(rx.recv().unwrap(), (2, 2));
        assert_eq!(rx.recv().unwrap(), (3, 3));
        assert_eq!(rx.recv().unwrap(), (4, 4));
        // Never forward: the receiver is at 5, asking from 9 moves nothing.
        assert_eq!(rx.rewind_to(9), 5);
        assert_eq!(rx.try_recv().unwrap(), None);
    }

    /// A rewind below what acknowledgments trimmed cannot reach its
    /// frontier, and says so: the cursor stands above what was asked for.
    #[test]
    fn a_rewind_below_the_trimmed_base_reports_where_it_stopped() {
        let (tx, rx) = link::<u8>(LinkConfig::instant());
        for i in 0..5 {
            tx.send(i).unwrap();
            rx.recv().unwrap();
        }
        tx.ack_upto(4);
        assert_eq!(rx.rewind_to(4), 4, "the first retained sequence is reachable");
        assert_eq!(rx.rewind_to(0), 4, "short: 0..4 are gone");
        assert_eq!(rx.recv().unwrap(), (4, 4));
        assert_eq!(rx.try_recv().unwrap(), None);
    }

    #[test]
    fn replay_needs_no_window() {
        let (tx, rx) = link::<u8>(LinkConfig::instant().with_capacity(2));
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv().unwrap(), (0, 1));
        tx.send(3).unwrap();
        assert_eq!(tx.send(4).unwrap_err(), LinkError::Saturated);
        // The window is full, yet the rewind goes through, whole, and the
        // receiver gets every sequence from 0 in order.
        assert_eq!(rx.rewind_to(0), 0);
        assert_eq!(tx.send(4).unwrap_err(), LinkError::Saturated);
        let seqs: Vec<u64> = (0..3).map(|_| rx.recv().unwrap().0).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(tx.send(4).unwrap(), 3);
    }

    #[test]
    fn ack_trims_what_was_read() {
        let (tx, rx) = link::<u8>(LinkConfig::instant());
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        assert_eq!(tx.retained_len(), 10);
        // Nothing read yet: an ack alone frees nothing the receiver still
        // has to be handed.
        tx.ack_upto(7);
        assert_eq!(tx.retained_len(), 10);
        for _ in 0..10 {
            rx.recv().unwrap();
        }
        assert_eq!(tx.retained_len(), 3);
        rx.ack_upto(10);
        assert_eq!(tx.retained_len(), 0);
    }

    #[test]
    fn acked_ahead_link_retains_nothing() {
        let (tx, rx) = link::<u8>(LinkConfig::instant());
        tx.ack_upto(u64::MAX);
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        for i in 0..4u8 {
            assert_eq!(rx.recv().unwrap(), (u64::from(i), i));
        }
        assert_eq!(tx.retained_len(), 0);
    }

    #[test]
    fn severed_sends_backlog_and_flow_in_order_on_heal() {
        let (tx, rx) = link::<u8>(LinkConfig::instant());
        assert_eq!(tx.push(1), SendOutcome::Sent(0));
        tx.sever();
        assert!(tx.is_severed());
        assert_eq!(tx.push(2), SendOutcome::Queued(1));
        assert_eq!(tx.send(3), Ok(2));
        assert_eq!(tx.pending_len(), 2);
        // What was on the wire before the sever still arrives; the rest
        // waits.
        assert_eq!(rx.recv().unwrap(), (0, 1));
        assert_eq!(rx.try_recv().unwrap(), None);
        tx.heal();
        assert_eq!(tx.push(4), SendOutcome::Sent(3));
        assert_eq!(tx.pending_len(), 0);
        let got: Vec<u8> = (0..3).map(|_| rx.recv().unwrap().1).collect();
        assert_eq!(got, vec![2, 3, 4]);
    }

    #[test]
    fn heal_wakes_a_blocked_receiver() {
        let (tx, rx) = link::<u8>(LinkConfig::instant());
        tx.sever();
        tx.push(7);
        std::thread::scope(|s| {
            let reader = s.spawn(|| rx.recv().unwrap());
            std::thread::sleep(Duration::from_millis(20));
            tx.heal();
            assert_eq!(reader.join().unwrap(), (0, 7));
        });
    }

    #[test]
    fn clones_share_the_ring() {
        let (tx, rx) = link::<u8>(LinkConfig::instant());
        let tx2 = tx.clone();
        tx.sever();
        tx.push(1);
        tx2.push(2);
        assert_eq!(tx.sent(), 2);
        assert_eq!(tx.pending_len(), 2);
        tx2.heal();
        assert_eq!(rx.recv().unwrap(), (0, 1));
        assert_eq!(rx.recv().unwrap(), (1, 2));
    }

    #[test]
    fn try_recv_and_timeout() {
        let (tx, rx) = link::<u8>(LinkConfig::instant());
        assert_eq!(rx.try_recv().unwrap(), None);
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)).unwrap_err(), LinkError::Timeout);
        tx.send(9).unwrap();
        assert_eq!(rx.try_recv().unwrap(), Some((0, 9)));
    }

    #[test]
    fn disconnect_when_either_half_dropped() {
        let (tx, rx) = link::<u8>(LinkConfig::instant());
        tx.send(1).unwrap();
        drop(tx);
        assert_eq!(rx.recv().unwrap(), (0, 1), "what was sent is still delivered");
        assert_eq!(rx.recv().unwrap_err(), LinkError::Disconnected);
        let (tx, rx) = link::<u8>(LinkConfig::instant());
        drop(rx);
        assert_eq!(tx.send(1).unwrap_err(), LinkError::Disconnected);
    }

    #[test]
    fn saturated_send_fails_without_burning_sequence() {
        let (tx, rx) = link::<u8>(LinkConfig::instant().with_capacity(2));
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(tx.send(3).unwrap_err(), LinkError::Saturated);
        assert_eq!(tx.sent(), 2, "a saturated send must not allocate a seq");
        // Reading frees the window; the send then succeeds with the next
        // contiguous sequence number.
        assert_eq!(rx.recv().unwrap(), (0, 1));
        assert_eq!(tx.send(3).unwrap(), 2);
        assert_eq!(rx.recv().unwrap(), (1, 2));
        assert_eq!(rx.recv().unwrap(), (2, 3));
    }

    #[test]
    fn push_past_the_window_is_accepted_and_reported() {
        let registry = Registry::new();
        let (tx, rx) = link::<u8>(LinkConfig::instant().with_capacity(2));
        tx.set_metrics(EdgeMetrics::registered(&registry, 0, 0));
        assert_eq!(tx.push(1), SendOutcome::Sent(0));
        assert!(!tx.is_saturated_with(0));
        assert!(tx.is_saturated_with(1), "held outputs count against the window");
        assert_eq!(tx.push(2), SendOutcome::Saturated(1), "the window is now full");
        assert!(tx.is_saturated_with(0));
        assert_eq!(tx.push(3), SendOutcome::Saturated(2), "over the window: still accepted");
        assert_eq!(tx.pending_len(), 1, "soft cap: nothing is dropped");
        let labels = Labels::op_port(0, 0);
        assert_eq!(registry.gauge_value("edge.pending", labels), Some(1));
        assert_eq!(registry.gauge_value("edge.pending_hwm", labels), Some(1));
        assert_eq!(registry.gauge_value("edge.credits", labels), Some(0));
        assert_eq!(registry.counter_value("edge.saturated", labels), Some(2));
        // The consumer draining (not time passing) is what frees space.
        let got: Vec<u8> = (0..3).map(|_| rx.recv().unwrap().1).collect();
        assert_eq!(got, vec![1, 2, 3]);
        assert!(!tx.is_saturated_with(0));
        tx.publish_gauges();
        assert_eq!(registry.gauge_value("edge.pending", labels), Some(0));
        assert_eq!(registry.gauge_value("edge.pending_hwm", labels), Some(1));
        assert_eq!(registry.gauge_value("edge.retained", labels), Some(3));
    }

    #[test]
    fn a_rewind_in_a_full_window_puts_nothing_past_it() {
        let registry = Registry::new();
        let (tx, rx) = link::<u8>(LinkConfig::instant().with_capacity(2));
        tx.set_metrics(EdgeMetrics::registered(&registry, 0, 0));
        for i in 0..2 {
            tx.send(i).unwrap();
            rx.recv().unwrap();
        }
        tx.send(2).unwrap();
        tx.send(3).unwrap();
        // Window full; the receiver crashes and reads from 0 again.
        assert_eq!(rx.rewind_to(0), 0);
        tx.publish_gauges();
        let labels = Labels::op_port(0, 0);
        assert_eq!(registry.gauge_value("edge.pending_hwm", labels), Some(0));
        assert_eq!(registry.gauge_value("edge.credits", labels), Some(0));
        // A push on top of that is past the window, as ever.
        assert_eq!(tx.push(4), SendOutcome::Saturated(4));
        assert_eq!(registry.gauge_value("edge.pending_hwm", labels), Some(1));
        let got: Vec<u8> = (0..5).map(|_| rx.recv().unwrap().1).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn metrics_count_sends_queues_and_retransmits() {
        let registry = Registry::new();
        let (tx, rx) = link::<u8>(LinkConfig::instant());
        tx.set_metrics(EdgeMetrics::registered(&registry, 2, 0));
        let labels = Labels::op_port(2, 0);
        tx.push(1);
        tx.sever();
        tx.push(2);
        tx.push(3);
        assert_eq!(registry.counter_value("edge.sent", labels), Some(1));
        assert_eq!(registry.counter_value("edge.queued", labels), Some(2));
        assert_eq!(registry.gauge_value("edge.pending", labels), Some(2));
        tx.heal();
        assert_eq!(registry.counter_value("edge.retransmits", labels), Some(2));
        assert_eq!(registry.counter_value("edge.sent", labels), Some(3));
        assert_eq!(registry.gauge_value("edge.pending", labels), Some(0));
        drop(rx);
    }

    #[test]
    fn concurrent_edge_registration_converges_on_shared_cells() {
        let registry = Arc::new(Registry::new());
        // Every thread registers the same (op, edge) cells and bumps them:
        // registration is idempotent, so the totals must all land on one
        // counter per name regardless of interleaving.
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let registry = Arc::clone(&registry);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        let m = EdgeMetrics::registered(&registry, 1, 2);
                        m.sent.incr();
                        m.queued.incr();
                        m.retransmits.incr();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = registry.snapshot();
        for name in ["edge.sent", "edge.queued", "edge.retransmits"] {
            assert_eq!(snap.counter(name, Labels::op_port(1, 2)), Some(800), "{name}");
        }
        // 4 counters + 4 gauges per edge, one cell each.
        assert_eq!(snap.samples.len(), 8, "no duplicate cells from racing registrations");
    }

    #[test]
    fn fresh_incarnation_continues_numbering() {
        let (tx, rx) = link::<u8>(LinkConfig::instant());
        tx.set_next_seq(40);
        assert_eq!(tx.send(1).unwrap(), 40);
        assert_eq!(rx.recv().unwrap(), (40, 1));
        assert_eq!(rx.rewind_to(0), 40, "a rewind stops at the first retained sequence");
    }

    #[test]
    fn in_flight_message_is_not_readable_until_due() {
        let delay = Duration::from_millis(20);
        let (tx, rx) = link::<u8>(LinkConfig::with_delay(delay).with_capacity(1));
        let sent_at = Instant::now();
        tx.send(1).unwrap();
        // A read never sleeps: it finds nothing, and says until when.
        assert_eq!(rx.try_recv().unwrap(), None);
        assert!(sent_at.elapsed() < delay, "try_recv slept out the delay");
        let due = rx.next_due().expect("a message is in flight");
        assert!(due >= sent_at + delay);
        // The window slot is the message's until it is read.
        assert_eq!(tx.send(2).unwrap_err(), LinkError::Saturated);
        assert_eq!(rx.recv_timeout(Duration::from_millis(1)).unwrap_err(), LinkError::Timeout);
        // A blocking read wakes itself when the head falls due.
        assert_eq!(rx.recv().unwrap(), (0, 1));
        assert!(Instant::now() >= due);
        assert_eq!(rx.next_due(), None);
        // What was sent is delivered when due, sender gone or not.
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.try_recv().unwrap(), None);
        assert_eq!(rx.recv().unwrap(), (1, 2));
        assert_eq!(rx.recv().unwrap_err(), LinkError::Disconnected);
    }

    #[test]
    fn blocking_send_waits_for_the_cursor() {
        let (tx, rx) = link::<u8>(LinkConfig::instant().with_capacity(1));
        tx.send(1).unwrap();
        std::thread::scope(|s| {
            let sender = s.spawn(|| tx.send_blocking(2));
            std::thread::sleep(Duration::from_millis(20));
            assert!(!sender.is_finished(), "sent into a full window");
            assert_eq!(tx.sent(), 1);
            assert_eq!(rx.recv().unwrap(), (0, 1));
            assert_eq!(sender.join().unwrap(), Ok(1));
        });
        assert_eq!(rx.recv().unwrap(), (1, 2));
        // The receiver leaving ends the wait.
        tx.send(3).unwrap();
        std::thread::scope(|s| {
            let sender = s.spawn(|| tx.send_blocking(4));
            std::thread::sleep(Duration::from_millis(20));
            drop(rx);
            assert_eq!(sender.join().unwrap(), Err(LinkError::Disconnected));
        });
    }

    #[test]
    fn ring_signals_its_waker() {
        let waker = Waker::new();
        let (tx, rx) = link::<u8>(LinkConfig::instant());
        rx.set_waker(waker.clone());
        let soon = || Instant::now() + Duration::from_millis(5);
        assert!(!waker.park(Some(soon())), "nothing was sent");
        tx.send(1).unwrap();
        assert!(waker.park(Some(soon())), "a send is a signal");
        assert!(!waker.park(Some(soon())), "the signal is consumed");
        assert_eq!(rx.try_recv().unwrap(), Some((0, 1)));
        // Behind a sever nothing became readable; the heal is the signal.
        tx.sever();
        tx.send(2).unwrap();
        assert!(!waker.park(Some(soon())));
        tx.heal();
        assert!(waker.park(Some(soon())));
        assert_eq!(rx.try_recv().unwrap(), Some((1, 2)));
        rx.rewind_to(0);
        assert!(waker.park(Some(soon())), "a rewind is a signal");
        drop(tx);
        assert!(waker.park(Some(soon())), "the last sender leaving is a signal");
    }

    #[test]
    fn a_read_wakes_only_a_producer_that_saw_the_window_full() {
        let now = Instant::now;
        let waker = Waker::new();
        let (tx, rx) = link::<u8>(LinkConfig::instant().with_capacity(1));
        tx.set_waker(waker.clone());
        // Told the window is full, the producer stops; the next read
        // signals it.
        tx.send(1).unwrap();
        assert!(tx.is_saturated_with(0));
        assert!(!waker.park(Some(now())), "nothing was read");
        assert_eq!(rx.try_recv().unwrap(), Some((0, 1)));
        assert!(waker.park(Some(now())), "the read is a signal");
        // A producer that never saw the window full is not woken by reads.
        tx.send(2).unwrap();
        assert_eq!(rx.try_recv().unwrap(), Some((1, 2)));
        assert!(!tx.is_saturated_with(0));
        tx.send(3).unwrap();
        assert_eq!(rx.try_recv().unwrap(), Some((2, 3)));
        assert!(!waker.park(Some(now())), "a read the producer did not wait for");
    }

    #[test]
    fn delay_spike_applies_then_self_clears() {
        let (tx, rx) = link::<u8>(LinkConfig::instant());
        tx.delay_spike(Duration::from_millis(10), Duration::from_millis(50));
        let start = Instant::now();
        tx.send(1).unwrap();
        let _ = rx.recv().unwrap();
        assert!(start.elapsed() >= Duration::from_millis(10));
        tx.clear_delay_spike();
        let start = Instant::now();
        tx.send(2).unwrap();
        let _ = rx.recv().unwrap();
        assert!(start.elapsed() < Duration::from_millis(10));
    }
}
