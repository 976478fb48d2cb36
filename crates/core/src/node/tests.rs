use super::*;
use crate::config::{LoggingConfig, NodeConfig};
use streammine_common::clock::{shared, SystemClock};
use streammine_net::{link, LinkConfig, LinkReceiver};
use streammine_storage::checkpoint::instant_store;

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
    /// Into the node's one input port.
    input: LinkSender<Message>,
    /// The node's one output, sender side (retention, window).
    out_tx: LinkSender<Message>,
    /// The node's one output, as its downstream reads it.
    out_rx: LinkReceiver<Message>,
    /// The downstream's control back to the node.
    out_ctrl: LinkSender<Control>,
    inbox: Arc<Inbox>,
    obs: Obs,
    seed: Option<NodeSeed>,
    node: Option<std::thread::JoinHandle<()>>,
}

impl Rig {
    fn new(config: OperatorConfig, input_link: LinkConfig, output_link: LinkConfig) -> Rig {
        let (input, input_rx) = link::<Message>(input_link);
        let (up_ctrl, _) = link::<Control>(LinkConfig::instant());
        let (out_tx, out_rx) = link::<Message>(output_link);
        let (out_ctrl, out_ctrl_rx) = link::<Control>(LinkConfig::instant());
        let inbox = Inbox::new(vec![input_rx], vec![out_ctrl_rx]);
        inbox.wake_on_room(&out_tx);
        let obs = Obs::tracing();
        let seed = NodeSeed {
            id: OperatorId::new(0),
            operator: Arc::new(Relay),
            log: config.logging.as_ref().map(|l| StableLog::new(l.disks.clone())),
            config,
            clock: shared(SystemClock::new()),
            inbox: inbox.clone(),
            up: vec![up_ctrl],
            down: vec![DownEdge { data_tx: out_tx.clone(), sent: Arc::default() }],
            checkpoints: None,
            rng_seed: 1,
            obs: obs.clone(),
            exits: None,
            recovering: false,
        };
        Rig { input, out_tx, out_rx, out_ctrl, inbox, obs, seed: Some(seed), node: None }
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
    let state = StateRegistry::plain().snapshot();
    Checkpoint { outputs_sent: vec![0; outputs], state, ..Checkpoint::default() }
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

/// Control is served before data, and never gated: with a data frame, an
/// ack and a shutdown all waiting when the coordinator first looks, the
/// ack is applied and the node stops without admitting the event.
#[test]
fn control_is_served_before_data() {
    let rig = Rig::new(OperatorConfig::plain(), LinkConfig::instant(), LinkConfig::instant());
    rig.send(0, false);
    rig.out_ctrl.send(Control::Ack { upto: 1 }).unwrap();
    rig.inbox.post(Notice::Command(NodeCommand::Shutdown));
    let mut rig = rig.start();
    rig.node.take().expect("started").join().expect("the coordinator panicked");
    assert_eq!(rig.out_ctrl.retained_len(), 0, "the ack was not read");
    let ingested = rig.obs.journal.count_matching(|e| matches!(e.kind, JournalKind::Ingest { .. }));
    assert_eq!(ingested, 0, "data was admitted ahead of the shutdown");
    assert_eq!(rig.out_rx.try_recv(), Ok(None));
}

/// The coordinator never sleeps inside a read: while a data frame is in
/// flight on a 20 ms link, downstream control is served at once.
#[test]
fn control_is_served_while_a_data_frame_is_in_flight() {
    const DELAY: Duration = Duration::from_millis(20);
    const PROMPT: Duration = Duration::from_millis(5);
    let rig =
        Rig::new(OperatorConfig::plain(), LinkConfig::with_delay(DELAY), LinkConfig::instant())
            .start();
    rig.send(0, false);
    assert_eq!(rig.outputs(1), vec![Value::Int(0)]);
    // A loaded machine can delay any one wake-up; a coordinator asleep
    // in a read delays every one of them by most of the 20 ms.
    let mut best = Duration::MAX;
    for round in 1..=5u64 {
        // Outputs 0..round are read, the last one not yet acknowledged.
        let sent = Instant::now();
        rig.send(round, false);
        rig.out_ctrl.send(Control::Ack { upto: round }).unwrap();
        let ack = wait_until("the ack is applied", || rig.out_tx.retained_len() == 0);
        best = best.min(ack);
        assert_eq!(rig.outputs(1), vec![Value::Int(round as i64)]);
        assert!(sent.elapsed() >= DELAY, "the frame arrived before it was due");
    }
    assert!(best < PROMPT, "an ack waited {best:?} behind a frame in flight");
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
    let store = instant_store();
    let input = InputFrontier { position: 2, events: 2, covered_below: 2 };
    store.save(Checkpoint { events_processed: 2, inputs: vec![input], ..image(1) }).unwrap();
    let seed = rig.seed.as_mut().expect("not started");
    seed.checkpoints = Some(Arc::new(store));
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
    let store = instant_store();
    let input = InputFrontier { position: 2, events: 2, covered_below: 2 };
    store.save(Checkpoint { events_processed: 2, inputs: vec![input; 3], ..image(1) }).unwrap();
    let seed = rig.seed.as_mut().expect("not started");
    seed.checkpoints = Some(Arc::new(store));
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
    let top = frontier.consumed_top();
    assert_eq!(
        frontier.fold(top, None),
        InputFrontier { position: 2, events: 2, covered_below: 6 }
    );
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
    assert_eq!(image, InputFrontier { position: 1, events: 1, covered_below: 2 });
    assert!(frontier.admits(id(2)), "the open event is not consumed");
    assert!(!frontier.admits(id(1)), "a committed event in the open frame was admitted");
    frontier.read(2, &Message::Data(source_event(3)));
    let top = frontier.consumed_top();
    assert_eq!(top, 0, "the fold forgot the consumed ids it covers");
    assert_eq!(frontier.fold(top, None).position, 3);
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
    wait_until("the output window is full", || rig.out_tx.is_saturated_with(0));
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
    wait_until("the output window is full", || rig.out_tx.is_saturated_with(0));
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
    let sent = Arc::new(Sent { events: 2.into(), finals: 1.into(), by_receiver: true });
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
