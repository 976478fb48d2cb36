//! Graph endpoints: external sources and observing sinks.
//!
//! Sources model the paper's *Publisher* components: they inject events
//! into the graph from outside (workload generators, test drivers). Sinks
//! model *Consumer* components: they record arrivals, track speculative →
//! final upgrades, and compute the latency series the evaluation plots.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use streammine_common::clock::SharedClock;
use streammine_common::event::{Event, Timestamp, TraceCtx, Value};
use streammine_common::ids::{EventId, OperatorId};
use streammine_net::{LinkReceiver, LinkSender};
use streammine_obs::{Histogram, Labels, Obs, Tracer};

use crate::message::{Control, Message};

/// Injects events into the graph from outside.
///
/// Events are stamped with the source's clock at push time, which is what
/// end-to-end latency is measured against. The source retains sent events
/// for replay (the paper's "log messages at the source components", §1) in
/// its ring, which a recovering reader rewinds itself and acknowledges on
/// once its image no longer needs them. A source runs no thread.
pub struct SourceHandle {
    id: OperatorId,
    tx: LinkSender<Message>,
    clock: SharedClock,
    next_seq: AtomicU64,
    /// Sampling tracer: pushed events that pass the (deterministic,
    /// sequence-based) sampling check are stamped with a root trace
    /// context.
    tracer: Arc<Tracer>,
}

impl fmt::Debug for SourceHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SourceHandle")
            .field("id", &self.id)
            .field("sent", &self.next_seq.load(Ordering::Relaxed))
            .finish()
    }
}

impl SourceHandle {
    pub(crate) fn new(
        id: OperatorId,
        tx: LinkSender<Message>,
        clock: SharedClock,
        obs: &Obs,
    ) -> Self {
        SourceHandle { id, tx, clock, next_seq: AtomicU64::new(0), tracer: obs.tracer.clone() }
    }

    /// Frames the source's ring still holds for replay.
    pub(crate) fn retained(&self) -> usize {
        self.tx.retained_len()
    }

    /// Sends one frame, blocking while the edge is saturated. A source is
    /// the outermost producer: when the graph pushes back there is nowhere
    /// further upstream to shed load to, so the push call itself blocks —
    /// exactly how an overloaded publisher experiences backpressure.
    /// A shut-down graph (receiver gone) drops the frame.
    fn send_blocking(&self, msg: Message) {
        let _ = self.tx.send_blocking(msg);
    }

    /// The root trace context for the event at `seq`, when sampled. The
    /// decision is a pure function of `(source op, seq)`, so recovery
    /// replays reproduce it exactly.
    fn stamp(&self, seq: u64) -> Option<TraceCtx> {
        self.tracer.sample(self.id.index(), seq).map(TraceCtx::root)
    }

    /// The operator id under which this source's events are identified.
    pub fn id(&self) -> OperatorId {
        self.id
    }

    /// Pushes a final event; returns its id.
    pub fn push(&self, payload: Value) -> EventId {
        self.push_inner(payload, false)
    }

    /// Pushes a *speculative* event (the upstream-subgraph-speculates
    /// scenario of §3.1); finalize later with [`SourceHandle::finalize`].
    pub fn push_speculative(&self, payload: Value) -> EventId {
        self.push_inner(payload, true)
    }

    /// Pushes several final events as one `DataBatch` frame (one link
    /// sequence number, one shared push timestamp); returns their ids.
    ///
    /// This is the injection-side counterpart of the engine's micro-batched
    /// edge transport: a workload generator that produces events faster
    /// than one-at-a-time sends can keep up with uses this to amortize
    /// per-message link overhead.
    pub fn push_batch(&self, payloads: Vec<Value>) -> Vec<EventId> {
        if payloads.is_empty() {
            return Vec::new();
        }
        let timestamp = self.clock.now_micros();
        let events: Vec<Event> = payloads
            .into_iter()
            .map(|payload| {
                let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
                Event {
                    id: EventId::new(self.id, seq),
                    version: 0,
                    timestamp,
                    speculative: false,
                    payload,
                    trace: self.stamp(seq),
                }
            })
            .collect();
        let ids = events.iter().map(|e| e.id).collect();
        let msg = if events.len() == 1 {
            Message::Data(events.into_iter().next().expect("len checked"))
        } else {
            Message::DataBatch(events)
        };
        self.send_blocking(msg);
        ids
    }

    fn push_inner(&self, payload: Value, speculative: bool) -> EventId {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let id = EventId::new(self.id, seq);
        let event = Event {
            id,
            version: 0,
            timestamp: self.clock.now_micros(),
            speculative,
            payload,
            trace: self.stamp(seq),
        };
        self.send_blocking(Message::Data(event));
        id
    }

    /// Replaces a previously pushed speculative event with new content
    /// (bumped version), as when `E1′` becomes `E1″` in §3.1. The revision
    /// carries the same trace context as the original push (same id → same
    /// sampling decision).
    pub fn revise(&self, id: EventId, version: u32, payload: Value) {
        let event = Event {
            id,
            version,
            timestamp: self.clock.now_micros(),
            speculative: true,
            payload,
            trace: self.stamp(id.seq),
        };
        self.send_blocking(Message::Data(event));
    }

    /// Finalizes a previously pushed speculative event.
    pub fn finalize(&self, id: EventId, version: u32) {
        self.send_blocking(Message::Control(Control::Finalize { id, version }));
    }

    /// Revokes a previously pushed speculative event.
    pub fn revoke(&self, id: EventId) {
        self.send_blocking(Message::Control(Control::Revoke { id }));
    }

    /// Signals end of stream.
    pub fn eof(&self) {
        self.send_blocking(Message::Control(Control::Eof));
    }

    /// Number of events pushed so far.
    pub fn pushed(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed)
    }
}

/// What a sink recorded about one event id.
#[derive(Debug, Clone)]
pub struct SinkRecord {
    /// Latest content received.
    pub event: Event,
    /// Sink-clock time of the first (possibly speculative) arrival.
    pub first_arrival_us: Timestamp,
    /// Sink-clock time at which the event became final (direct final
    /// arrival or a later finalize), if it did.
    pub final_at_us: Option<Timestamp>,
    /// Number of distinct versions observed.
    pub versions_seen: u32,
}

/// `SinkEntry::final_at_us` of a record that is not final yet.
const NOT_FINAL: Timestamp = Timestamp::MAX;

/// What the sink keeps per event: a [`SinkRecord`] without the part that
/// is derived (`speculative`: true until final) or rare (the trace
/// context, kept beside it by position). The payload is the arriving
/// event's `Arc`, never a copy.
struct SinkEntry {
    id: EventId,
    version: u32,
    /// `0` marks a revoked record (a tombstone): a live one saw a version.
    versions_seen: u32,
    timestamp: Timestamp,
    payload: Value,
    first_arrival_us: Timestamp,
    /// [`NOT_FINAL`] until the record is final; then it never changes.
    final_at_us: Timestamp,
}

const _: () = assert!(std::mem::size_of::<SinkEntry>() <= 72);

impl SinkEntry {
    fn is_final(&self) -> bool {
        self.final_at_us != NOT_FINAL
    }

    fn is_live(&self) -> bool {
        self.versions_seen > 0
    }
}

struct SinkState {
    /// Every record in first-arrival order; a revoked one stays as a
    /// tombstone, so positions never move.
    arena: Vec<SinkEntry>,
    /// Live id → position in `arena`. Hashed: output ids are
    /// `(serial << 16) | k`, far from dense.
    index: HashMap<EventId, u32>,
    /// Trace contexts of sampled records, by position.
    traces: HashMap<u32, TraceCtx>,
    /// Positions of final records, in finalization order.
    final_order: Vec<u32>,
    revoked: Vec<EventId>,
    /// Source-push → first (possibly speculative) arrival latency.
    first_arrival_us: Histogram,
    /// Source-push → final latency (direct final arrival or finalize).
    final_us: Histogram,
    /// Causal tracer for sampled events: first-arrival and final
    /// completion records plus critical-path attribution.
    tracer: Arc<Tracer>,
}

impl SinkState {
    fn new(first_arrival_us: Histogram, final_us: Histogram, tracer: Arc<Tracer>) -> SinkState {
        SinkState {
            arena: Vec::new(),
            index: HashMap::new(),
            traces: HashMap::new(),
            final_order: Vec::new(),
            revoked: Vec::new(),
            first_arrival_us,
            final_us,
            tracer,
        }
    }

    /// Records one data arrival (from a lone message or a batch frame);
    /// returns the record's position while it is not final. A final record
    /// is frozen: a later arrival for its id changes nothing.
    fn record_arrival(&mut self, event: Event, now: Timestamp) -> Option<u32> {
        let is_final = event.is_final();
        let pos = match self.index.entry(event.id) {
            Entry::Occupied(slot) => {
                let pos = *slot.get();
                let entry = &mut self.arena[pos as usize];
                if entry.is_final() {
                    return None;
                }
                if event.version >= entry.version {
                    if event.version > entry.version {
                        entry.versions_seen += 1;
                    }
                    entry.version = event.version;
                    entry.timestamp = event.timestamp;
                    entry.payload = event.payload;
                    match event.trace {
                        Some(ctx) => self.traces.insert(pos, ctx),
                        None => self.traces.remove(&pos),
                    };
                }
                pos
            }
            Entry::Vacant(slot) => {
                let pos = u32::try_from(self.arena.len()).expect("a sink holds < 2^32 records");
                slot.insert(pos);
                let latency = now.saturating_sub(event.timestamp);
                self.first_arrival_us.record(latency);
                if let Some(ctx) = event.trace {
                    self.tracer.sink_first_arrival(ctx.id, ctx.parent, latency);
                    self.traces.insert(pos, ctx);
                }
                self.arena.push(SinkEntry {
                    id: event.id,
                    version: event.version,
                    versions_seen: 1,
                    timestamp: event.timestamp,
                    payload: event.payload,
                    first_arrival_us: now,
                    final_at_us: NOT_FINAL,
                });
                pos
            }
        };
        if is_final {
            self.mark_final(pos, now);
            return None;
        }
        Some(pos)
    }

    /// Whether the record at `pos` waits for nothing more: final, or
    /// revoked.
    fn settled(&self, pos: u32) -> bool {
        let entry = &self.arena[pos as usize];
        entry.is_final() || !entry.is_live()
    }

    /// Applies a `Finalize`: the live record's current version turns final.
    fn finalize(&mut self, id: EventId, version: u32, now: Timestamp) {
        if let Some(&pos) = self.index.get(&id) {
            let entry = &self.arena[pos as usize];
            if entry.version == version && !entry.is_final() {
                self.mark_final(pos, now);
            }
        }
    }

    /// Applies a `Revoke`: a live record becomes a tombstone, its payload
    /// dropped. A final record is frozen, so revoking it changes nothing.
    fn revoke(&mut self, id: EventId) {
        if let Some(&pos) = self.index.get(&id) {
            let entry = &mut self.arena[pos as usize];
            if entry.is_final() {
                return;
            }
            entry.versions_seen = 0;
            entry.payload = Value::Null;
            self.index.remove(&id);
            self.traces.remove(&pos);
        }
        self.revoked.push(id);
    }

    fn mark_final(&mut self, pos: u32, now: Timestamp) {
        let entry = &mut self.arena[pos as usize];
        entry.final_at_us = now;
        let latency = now.saturating_sub(entry.timestamp);
        self.final_us.record(latency);
        if let Some(ctx) = self.traces.get(&pos) {
            self.tracer.sink_final(ctx.id, ctx.parent, latency);
        }
        self.final_order.push(pos);
    }

    /// The event a record holds, as the sink's readers see it.
    fn event(&self, pos: usize) -> Event {
        let entry = &self.arena[pos];
        Event {
            id: entry.id,
            version: entry.version,
            timestamp: entry.timestamp,
            speculative: !entry.is_final(),
            payload: entry.payload.clone(),
            trace: self.traces.get(&(pos as u32)).copied(),
        }
    }

    fn record(&self, pos: usize) -> SinkRecord {
        let entry = &self.arena[pos];
        SinkRecord {
            event: self.event(pos),
            first_arrival_us: entry.first_arrival_us,
            final_at_us: entry.is_final().then_some(entry.final_at_us),
            versions_seen: entry.versions_seen,
        }
    }

    /// Live records in first-arrival order.
    fn live(&self) -> impl Iterator<Item = (usize, &SinkEntry)> {
        self.arena.iter().enumerate().filter(|(_, entry)| entry.is_live())
    }
}

/// How many frames a sink's acknowledged position advances between acks
/// on its ring. Acks trim the upstream's replay-retention buffer, so the
/// interval bounds retained memory without an ack per frame.
const SINK_ACK_INTERVAL: u64 = 16;

/// Observes a graph edge, recording arrivals and finalizations.
pub struct SinkHandle {
    clock: SharedClock,
    state: Arc<Mutex<SinkState>>,
    cv: Arc<Condvar>,
    eof: Arc<AtomicU64>,
    /// Slow-consumer injection: the collector stops draining its link
    /// until this deadline, so the link's window stays full.
    stall_until: Arc<Mutex<Option<std::time::Instant>>>,
    _collector: Option<JoinHandle<()>>,
}

impl fmt::Debug for SinkHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.state.lock();
        f.debug_struct("SinkHandle")
            .field("events", &state.index.len())
            .field("final", &state.final_order.len())
            .finish()
    }
}

impl SinkHandle {
    pub(crate) fn new(
        rx: LinkReceiver<Message>,
        clock: SharedClock,
        obs: &Obs,
        from_op: u32,
        edge: u32,
    ) -> Self {
        let labels = Labels::op_port(from_op, edge);
        let state: Arc<Mutex<SinkState>> = Arc::new(Mutex::new(SinkState::new(
            obs.registry.histogram("sink.first_arrival_us", labels),
            obs.registry.histogram("sink.final_us", labels),
            obs.tracer.clone(),
        )));
        let cv = Arc::new(Condvar::new());
        let eof = Arc::new(AtomicU64::new(0));
        let stall_until: Arc<Mutex<Option<std::time::Instant>>> = Arc::new(Mutex::new(None));
        let collector = {
            let state = state.clone();
            let cv = cv.clone();
            let clock = clock.clone();
            let eof = eof.clone();
            let stall_until = stall_until.clone();
            std::thread::Builder::new()
                .name("sink-collector".into())
                .spawn(move || {
                    // The frames that brought a record not final yet. A
                    // sink acks below the first of them, as a node acks
                    // below its first open event: an ack at `q` says every
                    // event below `q` is final here.
                    let mut open: VecDeque<(u64, u32)> = VecDeque::new();
                    let mut acked = 0;
                    loop {
                        // Chaos hook: a stalled sink simply stops calling
                        // recv(), so the upstream link's window fills and
                        // the edge saturates.
                        let stall = stall_until.lock().take();
                        if let Some(until) = stall {
                            let now = std::time::Instant::now();
                            if now < until {
                                std::thread::sleep(until - now);
                            }
                        }
                        let Ok((seq, msg)) = rx.recv() else { break };
                        let now = clock.now_micros();
                        let mut s = state.lock();
                        let finals_before = s.final_order.len();
                        match msg {
                            Message::Data(event) => {
                                open.extend(s.record_arrival(event, now).map(|pos| (seq, pos)));
                            }
                            Message::DataBatch(events) => {
                                for event in events {
                                    let pos = s.record_arrival(event, now);
                                    open.extend(pos.map(|pos| (seq, pos)));
                                }
                            }
                            Message::Control(Control::Finalize { id, version }) => {
                                s.finalize(id, version, now)
                            }
                            Message::Control(Control::Revoke { id }) => s.revoke(id),
                            Message::Control(Control::Eof) => {
                                eof.fetch_add(1, Ordering::SeqCst);
                            }
                            Message::Control(_) => {}
                        }
                        // Waiters wait for finals: a speculative arrival
                        // is not worth waking them for.
                        let finals_grew = s.final_order.len() > finals_before;
                        while open.front().is_some_and(|&(_, pos)| s.settled(pos)) {
                            open.pop_front();
                        }
                        drop(s);
                        // Periodic cumulative ack on the ring read: trims
                        // upstream replay retention.
                        let ackable = open.front().map_or(seq + 1, |&(at, _)| at);
                        if ackable >= acked + SINK_ACK_INTERVAL {
                            acked = ackable;
                            rx.ack_upto(acked);
                        }
                        if finals_grew {
                            cv.notify_all();
                        }
                    }
                })
                .ok()
        };
        SinkHandle { clock, state, cv, eof, stall_until, _collector: collector }
    }

    /// Stalls the collector for `window` starting at its next loop
    /// iteration: the slow-consumer nemesis. While stalled the sink reads
    /// nothing, saturating the upstream edge and propagating backpressure
    /// into the graph. Delivery resumes (with
    /// every message intact) when the window expires.
    pub fn stall_for(&self, window: Duration) {
        *self.stall_until.lock() = Some(std::time::Instant::now() + window);
    }

    /// Number of events that reached final state.
    pub fn final_count(&self) -> usize {
        self.state.lock().final_order.len()
    }

    /// Number of events seen at all (speculative or final).
    pub fn seen_count(&self) -> usize {
        self.state.lock().index.len()
    }

    /// Ids revoked by the upstream.
    pub fn revoked(&self) -> Vec<EventId> {
        self.state.lock().revoked.clone()
    }

    /// Blocks until at least `n` events are final (or the timeout expires);
    /// returns whether the target was reached.
    pub fn wait_final(&self, n: usize, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let mut s = self.state.lock();
        while s.final_order.len() < n {
            let now = std::time::Instant::now();
            if now >= deadline {
                return false;
            }
            self.cv.wait_for(&mut s, deadline - now);
        }
        true
    }

    /// The final events in finalization order.
    pub fn final_events(&self) -> Vec<Event> {
        let s = self.state.lock();
        s.final_order.iter().map(|&pos| s.event(pos as usize)).collect()
    }

    /// The final events sorted by id (stable across arrival order), for
    /// output-equivalence assertions in recovery tests.
    pub fn final_events_by_id(&self) -> Vec<Event> {
        let mut events = self.final_events();
        events.sort_by_key(|e| (e.id, e.version));
        events
    }

    /// Latency from event timestamp (source push) to *final* arrival, per
    /// finalized event, in microseconds.
    pub fn final_latencies_us(&self) -> Vec<f64> {
        let s = self.state.lock();
        s.final_order
            .iter()
            .map(|&pos| &s.arena[pos as usize])
            .map(|entry| entry.final_at_us.saturating_sub(entry.timestamp) as f64)
            .collect()
    }

    /// Latency from event timestamp to *first* (speculative or final)
    /// arrival, in microseconds — the "permitted to output speculative
    /// results" scenario at the end of §4.
    pub fn first_arrival_latencies_us(&self) -> Vec<f64> {
        let s = self.state.lock();
        let mut v: Vec<f64> = s
            .live()
            .map(|(_, entry)| entry.first_arrival_us.saturating_sub(entry.timestamp) as f64)
            .collect();
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        v
    }

    /// One record per live (seen and not revoked) id, in first-arrival
    /// order. A revoked id that arrives again is a new record, placed by
    /// its new arrival.
    pub fn records(&self) -> Vec<SinkRecord> {
        let s = self.state.lock();
        s.live().map(|(pos, _)| s.record(pos)).collect()
    }

    /// Whether EOF arrived.
    pub fn saw_eof(&self) -> bool {
        self.eof.load(Ordering::SeqCst) > 0
    }

    /// The sink's clock (useful for computing rates).
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streammine_common::clock::{shared, SystemClock};
    use streammine_net::{link, LinkConfig};

    fn setup() -> (SourceHandle, SinkHandle) {
        setup_with(&Obs::new())
    }

    fn setup_with(obs: &Obs) -> (SourceHandle, SinkHandle) {
        let clock: SharedClock = shared(SystemClock::new());
        let (data_tx, data_rx) = link::<Message>(LinkConfig::instant());
        let source = SourceHandle::new(OperatorId::new(0), data_tx, clock.clone(), obs);
        let sink = SinkHandle::new(data_rx, clock, obs, 0, 0);
        (source, sink)
    }

    /// A sink acks below its first record that is not final, as a node
    /// acks below its first open event: a speculative first frame holds
    /// every ack back until its finalize, and then the ack covers all.
    #[test]
    fn a_sink_acks_below_its_first_record_not_final() {
        let (data_tx, data_rx) = link::<Message>(LinkConfig::instant());
        let clock: SharedClock = shared(SystemClock::new());
        let sink = SinkHandle::new(data_rx, clock, &Obs::new(), 0, 0);
        let event = |n: u64| Event::new(EventId::new(OperatorId::new(0), n), 0, Value::Int(0));
        let mut first = event(0);
        first.speculative = true;
        data_tx.send(Message::Data(first)).unwrap();
        for n in 1..=20 {
            data_tx.send(Message::Data(event(n))).unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while sink.seen_count() < 21 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(sink.seen_count(), 21, "the sink read every frame");
        assert_eq!(data_tx.acked(), 0, "the first ack must wait for frame 0's finalize");
        let id = event(0).id;
        data_tx.send(Message::Control(Control::Finalize { id, version: 0 })).unwrap();
        while data_tx.acked() == 0 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(data_tx.acked(), 22, "the ack covers every frame once all are final");
    }

    #[test]
    fn final_events_flow_through() {
        let (source, sink) = setup();
        source.push(Value::Int(1));
        source.push(Value::Int(2));
        assert!(sink.wait_final(2, Duration::from_secs(2)));
        let events = sink.final_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].payload, Value::Int(1));
        assert!(!sink.final_latencies_us().is_empty());
    }

    #[test]
    fn batch_push_delivers_every_event_with_shared_timestamp() {
        let (source, sink) = setup();
        let ids = source.push_batch(vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        assert_eq!(ids.len(), 3);
        assert_eq!(source.pushed(), 3);
        assert!(sink.wait_final(3, Duration::from_secs(2)));
        let events = sink.final_events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].timestamp, events[2].timestamp, "one batch, one push stamp");
        assert_eq!(
            events.iter().map(|e| e.payload.clone()).collect::<Vec<_>>(),
            vec![Value::Int(1), Value::Int(2), Value::Int(3)],
            "batch expansion preserves order"
        );
        assert!(source.push_batch(Vec::new()).is_empty());
    }

    #[test]
    fn speculative_event_finalizes_later() {
        let (source, sink) = setup();
        let id = source.push_speculative(Value::Int(7));
        // Arrives speculative: seen but not final.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while sink.seen_count() < 1 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(sink.seen_count(), 1);
        assert_eq!(sink.final_count(), 0);
        source.finalize(id, 0);
        assert!(sink.wait_final(1, Duration::from_secs(2)));
        assert_eq!(sink.final_events()[0].payload, Value::Int(7));
    }

    #[test]
    fn revision_updates_content_before_finalize() {
        let (source, sink) = setup();
        let id = source.push_speculative(Value::Int(1));
        source.revise(id, 1, Value::Int(2));
        source.finalize(id, 1);
        assert!(sink.wait_final(1, Duration::from_secs(2)));
        let ev = &sink.final_events()[0];
        assert_eq!(ev.payload, Value::Int(2));
        assert_eq!(ev.version, 1);
    }

    #[test]
    fn finalize_of_stale_version_is_ignored() {
        let (source, sink) = setup();
        let id = source.push_speculative(Value::Int(1));
        source.revise(id, 1, Value::Int(2));
        source.finalize(id, 0); // stale
        assert!(!sink.wait_final(1, Duration::from_millis(100)));
        source.finalize(id, 1);
        assert!(sink.wait_final(1, Duration::from_secs(2)));
    }

    #[test]
    fn revoke_removes_event() {
        let (source, sink) = setup();
        let id = source.push_speculative(Value::Int(1));
        source.revoke(id);
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while sink.revoked().is_empty() && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(sink.revoked(), vec![id]);
        assert_eq!(sink.seen_count(), 0);
    }

    /// Sends EOF and waits until the sink read it, so every message sent
    /// before has been applied.
    fn settle(source: &SourceHandle, sink: &SinkHandle) {
        source.eof();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while !sink.saw_eof() && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert!(sink.saw_eof());
    }

    #[test]
    fn a_final_record_is_frozen() {
        let (source, sink) = setup();
        let kept = source.push(Value::Int(1));
        let id = source.push(Value::Int(2));
        assert!(sink.wait_final(2, Duration::from_secs(2)));
        source.revise(id, 0, Value::Int(99));
        source.revise(id, 1, Value::Int(100));
        source.revoke(id);
        source.push(Value::Int(3));
        settle(&source, &sink);
        assert_eq!(sink.final_count(), 3);
        let finals = sink.final_events();
        assert_eq!(finals.len(), 3);
        assert_eq!(finals[1].id, id);
        assert_eq!((finals[1].version, &finals[1].payload), (0, &Value::Int(2)));
        assert!(finals[1].is_final());
        assert!(sink.revoked().is_empty(), "a revoke of a final id is not applied");
        let records = sink.records();
        assert_eq!(records.iter().map(|r| r.event.id).collect::<Vec<_>>()[..2], [kept, id]);
        assert_eq!(records[1].versions_seen, 1);
        assert_eq!(sink.seen_count(), 3);
    }

    #[test]
    fn records_are_live_ids_in_first_arrival_order() {
        let (source, sink) = setup();
        let a = source.push_speculative(Value::Int(1));
        let b = source.push_speculative(Value::Int(2));
        let c = source.push(Value::Int(3));
        source.revise(a, 1, Value::Int(10));
        source.revoke(b);
        source.finalize(a, 1);
        let d = source.push_speculative(Value::Int(4));
        settle(&source, &sink);
        let records = sink.records();
        assert_eq!(records.iter().map(|r| r.event.id).collect::<Vec<_>>(), vec![a, c, d]);
        assert_eq!(records[0].event.payload, Value::Int(10));
        assert!(records[0].event.is_final() && records[0].final_at_us.is_some());
        assert!(records[2].event.speculative && records[2].final_at_us.is_none());
        assert_eq!(sink.seen_count(), 3);
        assert_eq!(sink.revoked(), vec![b]);
        assert_eq!(sink.first_arrival_latencies_us().len(), 3);
        // Finalization order, not arrival order.
        let finals: Vec<EventId> = sink.final_events().iter().map(|e| e.id).collect();
        assert_eq!(finals, vec![c, a]);
    }

    #[test]
    fn a_revoked_id_that_arrives_again_gets_a_fresh_record() {
        let (source, sink) = setup();
        let a = source.push_speculative(Value::Int(1));
        source.revise(a, 1, Value::Int(2));
        let b = source.push_speculative(Value::Int(3));
        source.revoke(a);
        source.revise(a, 2, Value::Int(4));
        settle(&source, &sink);
        let records = sink.records();
        assert_eq!(records.iter().map(|r| r.event.id).collect::<Vec<_>>(), vec![b, a]);
        let again = &records[1];
        assert_eq!((again.event.version, &again.event.payload), (2, &Value::Int(4)));
        assert_eq!(again.versions_seen, 1, "the revoked record's versions are not carried over");
        assert!(again.first_arrival_us >= records[0].first_arrival_us);
        assert_eq!(sink.seen_count(), 2);
        source.finalize(a, 2);
        assert!(sink.wait_final(1, Duration::from_secs(2)));
        assert_eq!(sink.final_events()[0].payload, Value::Int(4));
    }

    #[test]
    fn versions_seen_counts_revisions() {
        let (source, sink) = setup();
        let id = source.push_speculative(Value::Int(0));
        source.revise(id, 1, Value::Int(1));
        source.revise(id, 2, Value::Int(2));
        source.revise(id, 1, Value::Int(1)); // stale: neither counted nor applied
        source.revise(id, 2, Value::Int(2)); // a duplicate of the current version
        settle(&source, &sink);
        let record = &sink.records()[0];
        assert_eq!(record.versions_seen, 3);
        assert_eq!((record.event.version, &record.event.payload), (2, &Value::Int(2)));
    }

    #[test]
    fn a_sampled_event_keeps_its_trace_context_through_finalization() {
        let obs = Obs::sampled(1);
        let (source, sink) = setup_with(&obs);
        let id = source.push_speculative(Value::Int(1));
        source.revise(id, 1, Value::Int(2));
        source.finalize(id, 1);
        assert!(sink.wait_final(1, Duration::from_secs(2)));
        let event = &sink.final_events()[0];
        let ctx = event.trace.expect("sampled at rate 1");
        assert_eq!(sink.records()[0].event.trace, Some(ctx));
        let summaries = obs.tracer.summaries();
        assert_eq!(summaries.len(), 1, "the sink attributed the final arrival");
        assert_eq!(summaries[0].trace_id, ctx.id);
        assert!(summaries[0].first_arrival_us.is_some());
    }

    #[test]
    fn eof_propagates() {
        let (source, sink) = setup();
        source.eof();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while !sink.saw_eof() && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert!(sink.saw_eof());
    }

    #[test]
    fn source_retains_what_it_pushed_until_acknowledged() {
        let clock: SharedClock = shared(SystemClock::new());
        let (data_tx, data_rx) = link::<Message>(LinkConfig::instant());
        let source = SourceHandle::new(OperatorId::new(0), data_tx, clock, &Obs::new());
        source.push(Value::Int(1));
        source.push(Value::Int(2));
        // Consume both, then read again from 0 like a recovering node.
        assert_eq!(data_rx.recv().unwrap().0, 0);
        assert_eq!(data_rx.recv().unwrap().0, 1);
        assert_eq!(data_rx.rewind_to(0), 0);
        assert_eq!(data_rx.recv().unwrap().0, 0, "re-read under its original link sequence");
        assert_eq!(source.pushed(), 2);
        // The reader acknowledges on the ring it reads: sequence 0 is gone.
        data_rx.ack_upto(1);
        assert_eq!(source.retained(), 1);
        assert_eq!(data_rx.rewind_to(0), 1);
    }
}
