use super::*;
use crate::config::{LoggingConfig, NodeConfig};
use streammine_common::clock::{shared, SystemClock};
use streammine_net::{link, LinkConfig, LinkReceiver, LinkSender};
use streammine_storage::disk::DiskSpec;

struct Relay;
impl Operator for Relay {
    fn process(&self, ctx: &mut OpCtx<'_, '_>, event: &Event) -> Result<(), StmAbort> {
        ctx.emit(event.payload.clone());
        Ok(())
    }
}

/// One relay node on hand-held rings: what a graph wires around a
/// coordinator, with every end in the test's hands.
struct Rig {
    /// Into the node's one input port; the node acks on it
    /// ([`LinkSender::acked`]).
    input: LinkSender<Message>,
    /// The node's one output, sender side (retention, window).
    out_tx: LinkSender<Message>,
    /// The node's one output, as its downstream reads — and acks — it.
    out_rx: LinkReceiver<Message>,
    inbox: Arc<Inbox>,
    obs: Obs,
    seed: Option<NodeSeed>,
    node: Option<std::thread::JoinHandle<()>>,
}

impl Rig {
    fn new(config: OperatorConfig, input_link: LinkConfig, output_link: LinkConfig) -> Rig {
        let (input, input_rx) = link::<Message>(input_link);
        let (out_tx, out_rx) = link::<Message>(output_link);
        let inbox = Inbox::new(vec![input_rx]);
        inbox.wake_on_room(&out_tx);
        let obs = Obs::tracing();
        let seed = NodeSeed {
            id: OperatorId::new(0),
            operator: Arc::new(Relay),
            log: config.logging.as_ref().map(|l| StableLog::new(l.disks.clone())),
            config,
            clock: shared(SystemClock::new()),
            inbox: inbox.clone(),
            down: vec![DownEdge { data_tx: out_tx.clone(), sent: Arc::default() }],
            obs: obs.clone(),
            exits: None,
            recovering: false,
        };
        Rig { input, out_tx, out_rx, inbox, obs, seed: Some(seed), node: None }
    }

    fn start(mut self) -> Rig {
        self.node = Some(Node::start(self.seed.take().expect("started once")));
        self
    }

    fn send(&self, n: u64, speculative: bool) -> EventId {
        let mut event = source_event(n);
        event.speculative = speculative;
        self.input.send(Message::Data(event)).expect("room in the input window");
        source_event(n).id
    }

    fn notify(&self, ctrl: Control) {
        self.input.send(Message::Control(ctrl)).expect("room in the input window");
    }

    /// The payloads of the data events the node emits next, until
    /// `count` arrived.
    fn outputs(&self, count: usize) -> Vec<Value> {
        let mut got = Vec::new();
        while got.len() < count {
            let (_, msg) = self.out_rx.recv_timeout(PATIENCE).expect("the node fell silent");
            match msg {
                Message::Data(event) => got.push(event.payload),
                Message::DataBatch(events) => got.extend(events.into_iter().map(|e| e.payload)),
                Message::Control(_) => {}
            }
        }
        got
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        self.inbox.post(Notice::Command(NodeCommand::Shutdown));
        if let Some(node) = self.node.take() {
            let _ = node.join();
        }
    }
}

const PATIENCE: Duration = Duration::from_secs(10);
/// Long enough for a node that wrongly reads, admits or sends to have
/// done so.
const SETTLE: Duration = Duration::from_millis(30);

fn source_event(n: u64) -> Event {
    Event::new(EventId::new(OperatorId::new(9), n), 0, Value::Int(n as i64))
}

/// A checkpoint of the relay's (empty) state that counts no outputs on
/// each of `outputs` edges.
fn image(outputs: usize) -> Checkpoint {
    let state = StateRegistry::new(StmRuntime::new()).snapshot();
    Checkpoint {
        outputs_sent: vec![0; outputs],
        finals_sent: vec![0; outputs],
        state,
        ..Checkpoint::default()
    }
}

/// A log on one free device holding `image` as its one stable record.
fn log_holding(image: Checkpoint) -> StableLog {
    let log = StableLog::new(vec![DiskSpec::simulated(Duration::ZERO)]);
    log.append(encode_to_vec(&LogRecord::Image(image))).wait();
    log
}

fn warned(obs: &Obs, code: &str) -> usize {
    obs.journal.count_matching(|e| matches!(e.kind, JournalKind::Warn { code: c, .. } if c == code))
}

fn wait_until(what: &str, done: impl Fn() -> bool) -> Duration {
    let start = Instant::now();
    while !done() {
        assert!(start.elapsed() < PATIENCE, "timed out waiting until {what}");
        std::thread::yield_now();
    }
    start.elapsed()
}

/// Control is served before data, and never gated: with a data frame and
/// a shutdown command both waiting when the coordinator first looks, the
/// command is served and the node stops without reading the frame.
#[test]
fn control_is_served_before_data() {
    let rig = Rig::new(OperatorConfig::plain(), LinkConfig::instant(), LinkConfig::instant());
    rig.send(0, false);
    rig.inbox.post(Notice::Command(NodeCommand::Shutdown));
    let mut rig = rig.start();
    rig.node.take().expect("started").join().expect("the coordinator panicked");
    assert_eq!(rig.inbox.inputs[0].try_recv(), Ok(Some((0, Message::Data(source_event(0))))));
    let ingested = rig.obs.journal.count_matching(|e| matches!(e.kind, JournalKind::Ingest { .. }));
    assert_eq!(ingested, 0, "data was admitted ahead of the shutdown");
    assert_eq!(rig.out_rx.try_recv(), Ok(None));
}

/// The coordinator never sleeps inside a read: while a data frame is in
/// flight on a 20 ms link, a command is served at once.
#[test]
fn control_is_served_while_a_data_frame_is_in_flight() {
    const DELAY: Duration = Duration::from_millis(20);
    const PROMPT: Duration = Duration::from_millis(5);
    // A loaded machine can delay any one wake-up; a coordinator asleep
    // in a read delays every one of them by most of the 20 ms.
    let mut best = Duration::MAX;
    for round in 0..5u64 {
        let mut rig =
            Rig::new(OperatorConfig::plain(), LinkConfig::with_delay(DELAY), LinkConfig::instant())
                .start();
        rig.send(round, false);
        assert_eq!(rig.outputs(1), vec![Value::Int(round as i64)]);
        // The next frame is in flight; the shutdown is served before it
        // is due, and the frame is never read.
        rig.send(round + 1, false);
        rig.inbox.post(Notice::Command(NodeCommand::Shutdown));
        let node = rig.node.take().expect("started");
        best = best.min(wait_until("the command is served", || node.is_finished()));
        node.join().expect("the coordinator panicked");
        assert_eq!(rig.out_rx.try_recv(), Ok(None), "the frame in flight was read");
    }
    assert!(best < PROMPT, "a command waited {best:?} behind a frame in flight");
}

/// A recovering node rewinds its input ring to its checkpoint's
/// position itself. A ring trimmed past that position cannot be
/// rewound that far, and the node says so — a pinned warning, and in a
/// debug build a failed frontier assertion — instead of waiting for
/// ever for frames nobody holds.
#[test]
fn rewind_that_cannot_reach_the_checkpoint_is_loud() {
    let mut rig = Rig::new(OperatorConfig::plain(), LinkConfig::instant(), LinkConfig::instant());
    // Five frames read, the first four acknowledged away; the
    // checkpoint claims the node needs them from the third on.
    for n in 0..5 {
        rig.send(n, false);
        rig.inbox.inputs[0].try_recv().unwrap().expect("just sent");
    }
    rig.input.ack_upto(4);
    let input = InputFrontier { position: 2, events: 2, finals: 2, covered_below: 2 };
    let seed = rig.seed.as_mut().expect("not started");
    seed.log =
        Some(log_holding(Checkpoint { events_processed: 2, inputs: vec![input], ..image(1) }));
    seed.recovering = true;
    let rig = rig.start();
    let short = |e: &streammine_obs::JournalEvent| {
        matches!(e.kind, JournalKind::Warn { code: "rewind-short", .. }) && e.kind.pinned()
    };
    wait_until("the short rewind is journaled", || rig.obs.journal.count_matching(short) == 1);
    let rewinds = rig.obs.journal.count_matching(|e| matches!(e.kind, JournalKind::Rewind { .. }));
    assert_eq!(rewinds, 1);
    assert_eq!(rig.obs.registry.counter_value("replay.requests", Labels::op(0)), Some(1));
    if cfg!(debug_assertions) {
        let node = rig.node.as_ref().expect("started");
        wait_until("the frontier assertion stops the node", || node.is_finished());
    }
}

/// An image is read from a file, so one of another shape can turn up. One
/// with three input ports, restored into the one-input relay, is refused
/// like any image that fails to restore: the relay rewinds its input to the
/// start and forwards all of it.
#[test]
fn an_image_of_another_shape_is_refused_and_the_input_replays_from_the_start() {
    let mut rig = Rig::new(OperatorConfig::plain(), LinkConfig::instant(), LinkConfig::instant());
    for n in 0..3 {
        rig.send(n, false);
    }
    let input = InputFrontier { position: 2, events: 2, finals: 2, covered_below: 2 };
    let misfit = Checkpoint { events_processed: 2, inputs: vec![input; 3], ..image(1) };
    let seed = rig.seed.as_mut().expect("not started");
    seed.log = Some(log_holding(misfit));
    seed.recovering = true;
    let rig = rig.start();
    assert_eq!(rig.outputs(3), (0..3).map(Value::Int).collect::<Vec<_>>());
    assert_eq!(warned(&rig.obs, "checkpoint-restore-failed"), 1);
    assert_eq!(warned(&rig.obs, "coordinator-panic"), 0);
    let from_the_start = |e: &streammine_obs::JournalEvent| {
        matches!(e.kind, JournalKind::Rewind { port: 0, from: 0 })
    };
    assert_eq!(rig.obs.journal.count_matching(from_the_start), 1);
}

/// A frontier admits an id once: not again once consumed, and not below
/// the prefix a fold covers, which reaches past the highest consumed id.
#[test]
fn a_frontier_admits_an_id_once_and_folds_past_the_highest_consumed() {
    let id = |n| source_event(n).id;
    let mut frontier = Frontier::default();
    frontier.read(0, &Message::DataBatch(vec![source_event(3), source_event(5)]));
    frontier.read(1, &Message::Control(Control::Finalize { id: id(3), version: 0 }));
    for n in [3, 5] {
        assert!(frontier.admits(id(n)));
        frontier.consume(id(n));
    }
    assert!(!frontier.admits(id(5)), "a duplicate of a consumed id was admitted");
    assert!(frontier.admits(id(4)));
    assert_eq!(
        frontier.fold(6, None),
        InputFrontier { position: 2, events: 2, finals: 3, covered_below: 6 }
    );
    assert_eq!(frontier.consumed_len(), 0, "the fold kept consumed ids it covers");
    assert!(!frontier.admits(id(4)), "a duplicate below the covered prefix was admitted");
    assert!(frontier.admits(id(6)));
    assert_eq!(frontier.fold(0, None).covered_below, 6, "an empty fold moved the prefix");
}

/// A committed-prefix fold records the port from the frame of its first
/// event left open, below the committed ones the frame also carries; the
/// live frontier reads on from where it stands and still admits the open
/// event.
#[test]
fn a_prefix_fold_records_the_frame_of_the_first_open_event() {
    let id = |n| source_event(n).id;
    let mut frontier = Frontier::default();
    frontier.read(0, &Message::Data(source_event(0)));
    let open = frontier.read(1, &Message::DataBatch(vec![source_event(1), source_event(2)]));
    for n in [0, 1] {
        frontier.consume(id(n));
    }
    let image = frontier.fold(2, Some(open));
    assert_eq!(image, InputFrontier { position: 1, events: 1, finals: 1, covered_below: 2 });
    assert_eq!(frontier.consumed_len(), 0, "the fold kept consumed ids it covers");
    assert!(frontier.admits(id(2)), "the open event is not consumed");
    assert!(!frontier.admits(id(1)), "a committed event in the open frame was admitted");
    frontier.read(2, &Message::Data(source_event(3)));
    assert_eq!(frontier.fold(0, None).position, 3);
}

/// Between rewinds a port reads consecutive link sequences; one that
/// skips is a broken ring, and a debug build says so.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "skipped or repeated")]
fn a_frontier_read_that_skips_a_sequence_fails_its_invariant() {
    Frontier::default().read(1, &Message::Control(Control::Eof));
}

/// What a stalled node does not read stays in the ring, the full
/// window blocks the producer, and draining downstream resumes both.
#[test]
fn stalled_node_leaves_its_input_unread_and_the_window_blocks_the_producer() {
    let rig = Rig::new(
        OperatorConfig::plain(),
        LinkConfig::instant().with_capacity(2),
        LinkConfig::instant().with_capacity(1),
    )
    .start();
    // One output fills the downstream window: the node stalls.
    rig.send(0, false);
    wait_until("the output window is full", || rig.out_tx.is_saturated());
    rig.send(1, false);
    rig.send(2, false);
    std::thread::sleep(SETTLE);
    assert_eq!(
        rig.input.send(Message::Data(source_event(3))),
        Err(streammine_net::LinkError::Saturated),
        "the stalled node read its input"
    );
    std::thread::scope(|s| {
        let producer = s.spawn(|| rig.input.send_blocking(Message::Data(source_event(3))));
        std::thread::sleep(SETTLE);
        assert!(!producer.is_finished(), "sent into a full window");
        // The downstream drains: the stall ends on the read, the node
        // reads on, and the producer's send goes through.
        let drained: Vec<Value> = (0..4).map(Value::Int).collect();
        assert_eq!(rig.outputs(4), drained);
        assert_eq!(producer.join().unwrap(), Ok(3));
    });
}

/// A speculative node stalled at its cap keeps reading for the notices
/// its open transaction awaits; a `Finalize` and a `Revoke` for events
/// it read on the way — still waiting, un-admitted — take effect.
#[test]
fn notices_find_events_a_stalled_speculative_node_read_ahead() {
    let caps = NodeConfig { max_open_speculations: 1, ..NodeConfig::default() };
    let log = LoggingConfig::simulated(Duration::from_millis(1));
    let rig = Rig::new(
        OperatorConfig::speculative(log).with_node(caps),
        LinkConfig::instant(),
        LinkConfig::instant(),
    )
    .start();
    let open = rig.send(0, true);
    let kept = rig.send(1, true);
    let dropped = rig.send(2, true);
    rig.send(3, false);
    assert_eq!(rig.outputs(1), vec![Value::Int(0)]);
    // Event 0 stays open until finalized, so 1, 2 and 3 wait.
    rig.notify(Control::Finalize { id: kept, version: 0 });
    rig.notify(Control::Revoke { id: dropped });
    std::thread::sleep(SETTLE);
    assert_eq!(rig.out_rx.try_recv(), Ok(None), "admitted past the cap");
    rig.notify(Control::Finalize { id: open, version: 0 });
    assert_eq!(rig.outputs(2), vec![Value::Int(1), Value::Int(3)]);
    // All three commit — event 1's finalize was not lost — and nothing
    // was ever emitted for the revoked event.
    let finalized = |count| {
        wait_until("the outputs are finalized", || {
            rig.obs.registry.counter_value("spec.finalized", Labels::op(0)) == Some(count)
        })
    };
    finalized(3);
    let journal = rig.obs.journal.events();
    let ingested = journal.iter().filter(|e| matches!(e.kind, JournalKind::Ingest { .. }));
    assert_eq!(ingested.count(), 3);
}

/// The same for a non-speculative node, which parks a speculative
/// input until its finalize: stalled on its output window with one
/// input parked, it keeps reading, and finalized events are processed
/// in the order of their finalizes — as if it had never stalled.
#[test]
fn notices_find_events_a_stalled_plain_node_read_ahead() {
    let rig = Rig::new(
        OperatorConfig::plain(),
        LinkConfig::instant(),
        LinkConfig::instant().with_capacity(1),
    )
    .start();
    let parked = rig.send(10, true);
    rig.send(0, false);
    wait_until("the output window is full", || rig.out_tx.is_saturated());
    let kept = rig.send(1, true);
    let dropped = rig.send(2, true);
    rig.notify(Control::Finalize { id: kept, version: 0 });
    rig.notify(Control::Revoke { id: dropped });
    rig.notify(Control::Finalize { id: parked, version: 0 });
    rig.send(3, false);
    let in_frame_order = [0, 1, 10, 3].map(Value::Int).to_vec();
    assert_eq!(rig.outputs(4), in_frame_order);
}

/// The speculative node of a new process swallows what the receiver's
/// cursor counted — events and finalizes each by their own count — and
/// sends the rest: for an event the receiver holds speculative, the
/// finalize alone.
#[test]
fn respawned_speculative_node_sends_only_what_the_receiver_lacks() {
    use crate::plumbing::Sent;
    let log = LoggingConfig::simulated(Duration::from_millis(1));
    let mut rig =
        Rig::new(OperatorConfig::speculative(log), LinkConfig::instant(), LinkConfig::instant());
    // The receiver holds the outputs of events 0 and 1, the second not
    // final yet.
    let sent =
        Arc::new(Sent { events: 2.into(), finals: 1.into(), by_receiver: true, ..Sent::default() });
    let seed = rig.seed.as_mut().expect("not started");
    seed.recovering = true;
    seed.down[0].sent = sent.clone();
    let rig = rig.start();
    for n in 0..3 {
        rig.send(n, false);
    }
    let output = |serial: u64| EventId::new(OperatorId::new(0), serial << 16);
    let frames: Vec<Message> =
        (0..3).map(|_| rig.out_rx.recv_timeout(PATIENCE).expect("a frame is owed").1).collect();
    let [Message::Data(event), finalizes @ ..] = &frames[..] else {
        panic!("expected the missing event first: {frames:?}")
    };
    assert_eq!((event.id, &event.payload, event.speculative), (output(2), &Value::Int(2), true));
    let finalize = |serial| Message::Control(Control::Finalize { id: output(serial), version: 0 });
    assert_eq!(finalizes, [finalize(1), finalize(2)]);
    std::thread::sleep(SETTLE);
    assert_eq!(rig.out_rx.try_recv(), Ok(None), "something the receiver holds was sent again");
    let counter = |name| rig.obs.registry.counter_value(name, Labels::op(0));
    assert_eq!(counter("resend.suppressed"), Some(2));
    assert_eq!(counter("spec.published"), Some(1));
    // What the edge carries now, whoever sent it.
    assert_eq!(sent.events.load(Ordering::Acquire), 3);
    assert_eq!(sent.finals.load(Ordering::Acquire), 3);
}

/// A speculative node whose receiver's cursor is all that outlives it (a
/// worker's out-edge) images its committed prefix with a transaction open.
/// The image counts what the covered serials put on the edge — serial 0's
/// revision too, published after serial 1 was admitted — and not what the
/// open serial 2 put there; it is saved once the receiver acknowledged the
/// covered serials' frames. A new process that resumes from it, told what
/// the receiver holds, sends exactly what the receiver lacks: the finalize
/// of serial 2's output.
#[test]
fn a_worker_images_its_committed_prefix_and_a_respawn_sends_what_the_receiver_lacks() {
    use crate::plumbing::Sent;
    let log = LoggingConfig::simulated(Duration::from_millis(1));
    let config = OperatorConfig::speculative(log).with_checkpoint_every(2);
    let mut rig = Rig::new(config, LinkConfig::instant(), LinkConfig::instant());
    let seed = rig.seed.as_mut().expect("not started");
    seed.down[0].sent = Arc::new(Sent { by_receiver: true, ..Sent::default() });
    let (config, log) = (seed.config.clone(), seed.log.clone().expect("logged"));
    let rig = rig.start();
    let output = |serial: u64| EventId::new(OperatorId::new(0), serial << 16);
    let e0 = rig.send(0, true);
    let e1 = rig.send(1, true);
    rig.send(2, true);
    assert_eq!(rig.outputs(3), (0..3).map(Value::Int).collect::<Vec<_>>());
    // Serial 0 re-publishes after serials 1 and 2 were admitted.
    let mut revised = source_event(0);
    (revised.version, revised.speculative, revised.payload) = (1, true, Value::Int(10));
    rig.input.send(Message::Data(revised)).unwrap();
    assert_eq!(rig.outputs(1), vec![Value::Int(10)]);
    rig.notify(Control::Finalize { id: e0, version: 1 });
    rig.notify(Control::Finalize { id: e1, version: 0 });
    let finalize =
        |serial, version| Message::Control(Control::Finalize { id: output(serial), version });
    let finals: Vec<Message> =
        (0..2).map(|_| rig.out_rx.recv_timeout(PATIENCE).expect("a finalize is owed").1).collect();
    assert_eq!(finals, [finalize(0, 1), finalize(1, 0)]);
    // Serials 0 and 1 committed, serial 2 is open: the prefix image waits
    // for the receiver's ack of serial 0's revision, at ring position 3.
    std::thread::sleep(SETTLE);
    assert_eq!(rig.input.acked(), 0, "an image was saved before its outputs were acked");
    rig.out_rx.ack_upto(4);
    wait_until("the prefix image acks its input ring", || rig.input.acked() > 0);
    assert_eq!(rig.input.acked(), 2, "replay re-reads from serial 2's frame");
    let image = read_back(log.stable_entries()).image.expect("the image is stable");
    assert_eq!(image.events_processed, 2);
    assert_eq!((image.outputs_sent, image.finals_sent), (vec![3], vec![2]));
    assert_eq!(
        image.inputs[0],
        InputFrontier { position: 2, events: 2, finals: 0, covered_below: 2 }
    );

    // A new process: the receiver holds all four events and two finals.
    rig.inbox.post(Notice::Command(NodeCommand::Crash));
    let mut rig = rig;
    rig.node.take().expect("started").join().expect("the coordinator panicked");
    let (data_tx, data_rx) = link::<Message>(LinkConfig::instant());
    data_tx.set_next_seq(rig.out_tx.sent());
    let sent =
        Arc::new(Sent { events: 4.into(), finals: 2.into(), by_receiver: true, ..Sent::default() });
    let respawn = Node::start(NodeSeed {
        id: OperatorId::new(0),
        operator: Arc::new(Relay),
        config,
        clock: shared(SystemClock::new()),
        inbox: rig.inbox.clone(),
        down: vec![DownEdge { data_tx, sent: sent.clone() }],
        log: Some(log),
        obs: rig.obs.clone(),
        exits: None,
        recovering: true,
    });
    rig.node = Some(respawn);
    rig.notify(Control::Finalize { id: source_event(2).id, version: 0 });
    let (_, owed) = data_rx.recv_timeout(PATIENCE).expect("serial 2's finalize is owed");
    assert_eq!(owed, finalize(2, 0));
    std::thread::sleep(SETTLE);
    assert_eq!(data_rx.try_recv(), Ok(None), "something the receiver holds was sent again");
    assert_eq!((sent.events.load(Ordering::Acquire), sent.finals.load(Ordering::Acquire)), (4, 3));
}

/// Cut at every serial on two STM threads under a window of 16 events: a
/// pool thread ends an attempt and then reads the held cut, while the
/// coordinator moves the cut and then reads the attempt count, once per
/// event. One of them must authorize the held serial each time, or every
/// later serial waits behind it: all 4 000 events commit.
#[test]
fn a_two_thread_node_cutting_at_every_serial_commits_every_event() {
    const EVENTS: u64 = 4_000;
    const IN_FLIGHT: u64 = 16;
    let log = LoggingConfig::simulated(Duration::from_micros(20));
    let config = OperatorConfig::speculative(log).with_threads(2).with_checkpoint_every(1);
    let rig = Rig::new(config, LinkConfig::instant(), LinkConfig::instant());
    let log = rig.seed.as_ref().and_then(|seed| seed.log.clone()).expect("logged");
    let rig = rig.start();
    let (mut sent, mut finals) = (0, 0);
    while finals < EVENTS {
        while sent < EVENTS && sent < finals + IN_FLIGHT {
            rig.send(sent, false);
            sent += 1;
        }
        let Ok((_, msg)) = rig.out_rx.recv_timeout(PATIENCE) else {
            panic!("stalled at {finals}/{EVENTS} final with {sent} sent");
        };
        finals += match msg {
            Message::Data(event) => u64::from(!event.speculative),
            Message::DataBatch(events) => events.iter().filter(|e| !e.speculative).count() as u64,
            Message::Control(Control::Finalize { .. }) => 1,
            Message::Control(_) => 0,
        };
    }
    let imaged = || read_back(log.stable_entries()).image.map_or(0, |i| i.events_processed);
    wait_until("the last serial is imaged", || imaged() == EVENTS);
}

#[test]
fn output_ids_are_deterministic_and_ordered() {
    let op = OperatorId::new(3);
    let payloads = vec![(None, Value::Int(1)), (Some(2), Value::Int(2))];
    let a = assign_output_ids(op, 5, 99, &payloads, true, None);
    let b = assign_output_ids(op, 5, 99, &payloads, true, None);
    assert_eq!(a, b);
    assert_eq!(a[0].0.id.seq, (5 << 16));
    assert_eq!(a[1].0.id.seq, (5 << 16) | 1);
    assert!(a[0].0.speculative);
    assert_eq!(a[0].0.timestamp, 99);
    assert_eq!(a[0].1, None);
    assert_eq!(a[1].1, Some(2));
}

#[test]
#[should_panic(expected = "too many outputs")]
fn too_many_outputs_panics() {
    let payloads = vec![(None, Value::Null); MAX_OUTPUTS_PER_EVENT as usize];
    let _ = assign_output_ids(OperatorId::new(0), 0, 0, &payloads, false, None);
}

#[test]
fn output_ids_carry_the_child_trace_context() {
    let ctx = TraceCtx { id: 77, parent: span_key(3, 5) };
    let outs =
        assign_output_ids(OperatorId::new(3), 5, 99, &[(None, Value::Int(1))], true, Some(ctx));
    assert_eq!(outs[0].0.trace, Some(ctx));
}

/// A worker acts on an image only once its log file holds it: one whose
/// write fails (here the file's directory is missing) is a failed device
/// attempt, retried and counted, and acks nothing; once the file can be
/// written the images ack their positions, and a log reopened from the
/// file reads the newest back.
#[test]
fn an_image_that_misses_its_file_acks_nothing() {
    let dir = std::env::temp_dir().join(format!("streammine-image-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let file = dir.join("worker0.log");
    let config = OperatorConfig::plain().with_checkpoint_every(2);
    let mut rig = Rig::new(config, LinkConfig::instant(), LinkConfig::instant());
    let log = StableLog::open(vec![DiskSpec::simulated(Duration::ZERO)], &file);
    rig.seed.as_mut().expect("not started").log = Some(log.clone());
    let rig = rig.start();
    for n in 0..3 {
        rig.send(n, false);
    }
    assert_eq!(rig.outputs(3), (0..3).map(Value::Int).collect::<Vec<_>>());
    wait_until("the failed file write is retried", || log.write_retries() > 0);
    std::thread::sleep(SETTLE);
    assert_eq!(rig.input.acked(), 0, "an image that missed its file acked");

    std::fs::create_dir_all(&dir).unwrap();
    wait_until("the retried image acks", || rig.input.acked() == 2);
    rig.send(3, false);
    assert_eq!(rig.outputs(1), vec![Value::Int(3)]);
    wait_until("the next image acks", || rig.input.acked() == 4);
    let reopened = StableLog::open(vec![DiskSpec::simulated(Duration::ZERO)], &file);
    let image = read_back(reopened.stable_entries()).image.expect("the file holds the image");
    assert_eq!(image.events_processed, 4);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A logged coordinator parks until its log's group ends, so it asks for
/// 1 ns of timer slack, and its STM pool inherits it. The application's
/// thread that builds, pushes, waits and shuts down keeps its own.
#[cfg(target_os = "linux")]
#[test]
fn engine_threads_wake_exactly_and_the_callers_thread_keeps_its_slack() {
    use crate::graph::GraphBuilder;
    use streammine_common::clock::timer_slack_ns;

    /// Each `process` call's thread name and timer slack.
    type Seen = Arc<Mutex<Vec<(String, Option<u64>)>>>;
    struct SlackProbe(Seen);
    impl Operator for SlackProbe {
        fn process(&self, ctx: &mut OpCtx<'_, '_>, event: &Event) -> Result<(), StmAbort> {
            let thread = std::thread::current().name().unwrap_or("<unnamed>").to_string();
            self.0.lock().push((thread, timer_slack_ns()));
            ctx.emit(event.payload.clone());
            Ok(())
        }
    }

    let mine = timer_slack_ns();
    assert!(mine.is_some_and(|ns| ns > 1), "the test's thread starts with a slack: {mine:?}");
    for (threads, runs_on) in [(1, "node-op0"), (2, "op0-worker-")] {
        let seen = Seen::default();
        let mut b = GraphBuilder::new();
        let cfg = OperatorConfig::speculative(LoggingConfig::simulated(Duration::from_millis(2)))
            .with_threads(threads);
        let op = b.add_operator(SlackProbe(seen.clone()), cfg);
        let src = b.source_into(op).unwrap();
        let sink = b.sink_from(op).unwrap();
        let running = b.build().unwrap().start();
        assert_eq!(timer_slack_ns(), mine, "build().start() changed the caller's slack");
        for i in 0..20 {
            running.source(src).push(Value::Int(i));
        }
        assert_eq!(timer_slack_ns(), mine, "push changed the caller's slack");
        assert!(running.sink(sink).wait_final(20, PATIENCE));
        assert_eq!(timer_slack_ns(), mine, "wait_final changed the caller's slack");
        running.shutdown();
        assert_eq!(timer_slack_ns(), mine, "shutdown changed the caller's slack");

        let seen = seen.lock();
        assert!(seen.len() >= 20, "{threads} thread(s): processed {} events", seen.len());
        for (thread, slack) in seen.iter() {
            assert!(thread.starts_with(runs_on), "{threads} thread(s): ran on {thread}");
            assert_eq!(*slack, Some(1), "{threads} thread(s): {thread}'s timer slack");
        }
    }
}

/// A relay that counts, each time it runs, the commits its node journaled
/// so far and the events its node put on its out ring; on the event
/// `gate_at` it first says so and then waits for the test's go-ahead.
struct CommitCounting {
    journal: Arc<Journal>,
    out: Arc<crate::plumbing::Sent>,
    gate_at: i64,
    entered: crossbeam_channel::Sender<()>,
    go: crossbeam_channel::Receiver<()>,
    seen: Arc<Mutex<Vec<(i64, usize, u64)>>>,
}

impl Operator for CommitCounting {
    fn process(&self, ctx: &mut OpCtx<'_, '_>, event: &Event) -> Result<(), StmAbort> {
        let n = event.payload.as_i64().expect("an int");
        if n == self.gate_at {
            self.entered.send(()).expect("the test listens");
            self.go.recv().expect("the test lets go");
        }
        let commits = self.journal.count_matching(|e| matches!(e.kind, JournalKind::Commit { .. }));
        self.seen.lock().push((n, commits, self.out.events.load(Ordering::Acquire)));
        ctx.emit(event.payload.clone());
        Ok(())
    }
}

/// A commit's finals go out before the operator runs again. A logged node
/// reads event 0 on port 0 and event 1 on port 1 in one pass, and logs
/// each one's input choice as it reads it. Both records are stable while
/// the operator still runs event 1, and event 2 arrives on port 0
/// meanwhile. The next pass completes the groups, which commits events 0
/// and 1 — each commit's notice comes back to the inbox — and reads event
/// 2. The commits are served to their end first, and their finals put on
/// the out ring: by then the operator has seen both commits, and the ring
/// holds both outputs.
#[test]
fn a_stable_groups_commit_is_served_before_the_next_read() {
    const LOG: Duration = Duration::from_millis(5);
    let (port0, rx0) = link::<Message>(LinkConfig::instant());
    let (port1, rx1) = link::<Message>(LinkConfig::instant());
    let (out_tx, out_rx) = link::<Message>(LinkConfig::instant());
    let inbox = Inbox::new(vec![rx0, rx1]);
    let obs = Obs::tracing();
    let (entered_tx, entered) = crossbeam_channel::unbounded();
    let (go, go_rx) = crossbeam_channel::unbounded();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let out = Arc::default();
    let operator = CommitCounting {
        journal: obs.journal.clone(),
        out: Arc::clone(&out),
        gate_at: 1,
        entered: entered_tx,
        go: go_rx,
        seen: seen.clone(),
    };
    let config = OperatorConfig::logged(LoggingConfig::simulated(LOG));
    let send = |port: &LinkSender<Message>, n| port.send(Message::Data(source_event(n))).unwrap();
    send(&port0, 0);
    send(&port1, 1);
    let node = Node::start(NodeSeed {
        id: OperatorId::new(0),
        operator: Arc::new(operator),
        log: config.logging.as_ref().map(|l| StableLog::new(l.disks.clone())),
        config,
        clock: shared(SystemClock::new()),
        inbox: inbox.clone(),
        down: vec![DownEdge { data_tx: out_tx, sent: out }],
        obs: obs.clone(),
        exits: None,
        recovering: false,
    });
    entered.recv_timeout(PATIENCE).expect("the operator never ran event 1");
    send(&port0, 2);
    // Each record's group ends at most two writes after event 1 was read.
    std::thread::sleep(LOG * 4);
    go.send(()).unwrap();
    let mut finals = 0;
    while finals < 3 {
        match out_rx.recv_timeout(PATIENCE).expect("the node fell silent").1 {
            Message::Data(_) => finals += 1,
            Message::DataBatch(events) => finals += events.len(),
            Message::Control(_) => {}
        }
    }
    inbox.post(Notice::Command(NodeCommand::Shutdown));
    node.join().expect("the coordinator panicked");
    let seen = seen.lock().clone();
    let render = obs.journal.render();
    assert_eq!(seen, [(0, 0, 0), (1, 0, 0), (2, 2, 2)], "event 2 ran too early\n{render}");
}
