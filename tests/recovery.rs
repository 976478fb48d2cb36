//! Precise-recovery integration tests: outputs with a crash + recovery must
//! equal the outputs of a failure-free run (the paper's definition of
//! precise recovery, §1 footnote 1).

use std::sync::OnceLock;
use std::time::Duration;

use streammine::common::event::{Event, Value};
use streammine::core::{
    GraphBuilder, LoggingConfig, OpCtx, Operator, OperatorConfig, Running, SetupCtx, SinkId,
    SourceId, StateHandle,
};
use streammine::operators::{
    busy_work, Classifier, MonteCarloPi, Split, StampedRelay, SystemTimeWindow, WindowAgg,
};
use streammine::stm::StmAbort;

const FAST_LOG: Duration = Duration::from_micros(200);

/// An operator whose output embeds a random draw — the strictest test of
/// determinant replay: outputs only match if the logged randomness is
/// reproduced bit-exactly.
struct RandomTagger;

impl Operator for RandomTagger {
    fn name(&self) -> &str {
        "random-tagger"
    }
    fn process(&self, ctx: &mut OpCtx<'_, '_>, event: &Event) -> Result<(), StmAbort> {
        let tag = ctx.random_u64();
        ctx.emit(Value::record(vec![event.payload.clone(), Value::Int(tag as i64)]));
        Ok(())
    }
}

fn payloads(events: &[Event]) -> Vec<Value> {
    events.iter().map(|e| e.payload.clone()).collect()
}

/// Builds src → RandomTagger(logged, non-spec) → sink; with `None` the
/// tagger never checkpoints and recovers by a full replay from position 0.
fn tagger_graph(checkpoint: Option<u64>) -> (Running, SourceId, SinkId) {
    let mut b = GraphBuilder::new();
    let cfg = OperatorConfig {
        checkpoint_every: checkpoint,
        ..OperatorConfig::logged(LoggingConfig::simulated(FAST_LOG))
    };
    let op = b.add_operator(RandomTagger, cfg);
    let src = b.source_into(op).unwrap();
    let sink = b.sink_from(op).unwrap();
    (b.build().unwrap().start(), src, sink)
}

#[test]
fn failure_free_run_tags_every_event() {
    let (running, src, sink) = tagger_graph(None);
    for i in 0..10 {
        running.source(src).push(Value::Int(i));
    }
    assert!(running.sink(sink).wait_final(10, Duration::from_secs(10)));
    let events = running.sink(sink).final_events_by_id();
    assert_eq!(events.len(), 10);
    for e in &events {
        assert!(e.payload.field(1).is_some(), "missing random tag");
    }
    running.shutdown();
}

#[test]
fn crash_and_recover_reproduces_identical_outputs() {
    // Reference run: no failure.
    let (reference, src, sink) = tagger_graph(None);
    // The tag is drawn from the operator's seeded RNG, so two *identical
    // histories* produce identical tags; we compare the recovered run
    // against its own pre-crash outputs instead of across runs.
    for i in 0..20 {
        reference.source(src).push(Value::Int(i));
    }
    assert!(reference.sink(sink).wait_final(20, Duration::from_secs(10)));
    reference.shutdown();

    // Crash run: push 20, wait for 10 final, crash, recover, push 20 more.
    let (running, src, sink) = tagger_graph(None);
    let op = streammine::common::ids::OperatorId::new(0);
    for i in 0..20 {
        running.source(src).push(Value::Int(i));
    }
    assert!(running.sink(sink).wait_final(10, Duration::from_secs(10)));
    let before_crash = running.sink(sink).final_events_by_id();
    running.crash(op);
    running.recover(op);
    for i in 20..40 {
        running.source(src).push(Value::Int(i));
    }
    assert!(
        running.sink(sink).wait_final(40, Duration::from_secs(20)),
        "only {} of 40 events final after recovery",
        running.sink(sink).final_count()
    );
    let after = running.sink(sink).final_events_by_id();
    assert_eq!(after.len(), 40);

    // Precise recovery: everything observed before the crash is unchanged.
    for pre in &before_crash {
        let post = after.iter().find(|e| e.id == pre.id).expect("pre-crash event vanished");
        assert_eq!(post.payload, pre.payload, "event {} changed content across recovery", pre.id);
    }
    // Inputs are intact: every input value appears exactly once.
    let mut inputs: Vec<i64> =
        after.iter().filter_map(|e| e.payload.field(0).and_then(Value::as_i64)).collect();
    inputs.sort_unstable();
    assert_eq!(inputs, (0..40).collect::<Vec<_>>());
    running.shutdown();
}

#[test]
fn recovery_with_checkpoint_truncates_replay() {
    let (running, src, sink) = tagger_graph(Some(5));
    let op = streammine::common::ids::OperatorId::new(0);
    for i in 0..17 {
        running.source(src).push(Value::Int(i));
    }
    assert!(running.sink(sink).wait_final(17, Duration::from_secs(10)));
    let before = running.sink(sink).final_events_by_id();
    running.crash(op);
    running.recover(op);
    for i in 17..25 {
        running.source(src).push(Value::Int(i));
    }
    assert!(
        running.sink(sink).wait_final(25, Duration::from_secs(20)),
        "only {} of 25 final after checkpointed recovery",
        running.sink(sink).final_count()
    );
    let after = running.sink(sink).final_events_by_id();
    for pre in &before {
        let post = after.iter().find(|e| e.id == pre.id).expect("pre-crash event vanished");
        assert_eq!(post.payload, pre.payload);
    }
    running.shutdown();
}

#[test]
fn split_routing_is_reproduced_after_crash() {
    // Split routes randomly; after recovery the same events must take the
    // same routes (logged decisions), so each sink sees no duplicates and
    // no migrations.
    let mut b = GraphBuilder::new();
    let s =
        b.add_operator(Split::new(2), OperatorConfig::logged(LoggingConfig::simulated(FAST_LOG)));
    let src = b.source_into(s).unwrap();
    let sink_a = b.sink_from(s).unwrap();
    let sink_b = b.sink_from(s).unwrap();
    let running = b.build().unwrap().start();
    let op = streammine::common::ids::OperatorId::new(0);

    for i in 0..30 {
        running.source(src).push(Value::Int(i));
    }
    let wait_total = |n: usize, t: Duration| -> bool {
        let deadline = std::time::Instant::now() + t;
        while running.sink(sink_a).final_count() + running.sink(sink_b).final_count() < n {
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::yield_now();
        }
        true
    };
    assert!(wait_total(30, Duration::from_secs(10)));
    let a_before = payloads(&running.sink(sink_a).final_events_by_id());
    let b_before = payloads(&running.sink(sink_b).final_events_by_id());

    running.crash(op);
    running.recover(op);
    for i in 30..50 {
        running.source(src).push(Value::Int(i));
    }
    assert!(wait_total(50, Duration::from_secs(20)), "routing lost events after recovery");

    let a_after = payloads(&running.sink(sink_a).final_events_by_id());
    let b_after = payloads(&running.sink(sink_b).final_events_by_id());
    // Old routes unchanged (prefix preserved).
    assert_eq!(&a_after[..a_before.len()], &a_before[..], "sink A prefix changed");
    assert_eq!(&b_after[..b_before.len()], &b_before[..], "sink B prefix changed");
    // No event routed twice.
    let mut all: Vec<i64> =
        a_after.iter().chain(b_after.iter()).filter_map(Value::as_i64).collect();
    all.sort_unstable();
    assert_eq!(all, (0..50).collect::<Vec<_>>());
    running.shutdown();
}

#[test]
fn union_order_is_reproduced_after_crash() {
    // Classifier after a two-source merge: counts depend on interleaving.
    // After recovery, replay must follow the logged input order, so the
    // (class, count) outputs keep their exact pre-crash values.
    let mut b = GraphBuilder::new();
    let c = b.add_operator(
        Classifier::new(3),
        OperatorConfig::logged(LoggingConfig::simulated(FAST_LOG)).with_checkpoint_every(8),
    );
    let s1 = b.source_into(c).unwrap();
    let s2 = b.source_into(c).unwrap();
    let sink = b.sink_from(c).unwrap();
    let running = b.build().unwrap().start();
    let op = streammine::common::ids::OperatorId::new(0);

    for i in 0..12 {
        running.source(s1).push(Value::Int(i * 2));
        running.source(s2).push(Value::Int(i * 2 + 1));
    }
    assert!(running.sink(sink).wait_final(24, Duration::from_secs(10)));
    let before = running.sink(sink).final_events_by_id();

    running.crash(op);
    running.recover(op);
    for i in 12..16 {
        running.source(s1).push(Value::Int(i * 2));
    }
    assert!(
        running.sink(sink).wait_final(28, Duration::from_secs(20)),
        "only {} of 28 after recovery",
        running.sink(sink).final_count()
    );
    let after = running.sink(sink).final_events_by_id();
    for pre in &before {
        let post = after.iter().find(|e| e.id == pre.id).expect("event vanished");
        assert_eq!(post.payload, pre.payload, "merge order diverged for {}", pre.id);
    }
    running.shutdown();
}

#[test]
fn system_time_window_replays_logged_arrival_times() {
    // The window an event lands in depends on ctx.now_micros() — logged.
    // After recovery, replay must reuse the logged times, keeping window
    // boundaries identical.
    let mut b = GraphBuilder::new();
    let w = b.add_operator(
        SystemTimeWindow::new(40_000, WindowAgg::Count),
        OperatorConfig::logged(LoggingConfig::simulated(FAST_LOG)),
    );
    let src = b.source_into(w).unwrap();
    let sink = b.sink_from(w).unwrap();
    let running = b.build().unwrap().start();
    let op = streammine::common::ids::OperatorId::new(0);

    running.source(src).push(Value::Int(1));
    running.source(src).push(Value::Int(1));
    std::thread::sleep(Duration::from_millis(90));
    running.source(src).push(Value::Int(1)); // closes window 1 (count=2)
    assert!(running.sink(sink).wait_final(1, Duration::from_secs(10)));
    let before = running.sink(sink).final_events_by_id();
    assert_eq!(before[0].payload, Value::Float(2.0));

    running.crash(op);
    running.recover(op);
    std::thread::sleep(Duration::from_millis(90));
    running.source(src).push(Value::Int(1)); // closes window 2 (count=1)
    assert!(running.sink(sink).wait_final(2, Duration::from_secs(20)));
    let after = running.sink(sink).final_events_by_id();
    assert_eq!(after[0].payload, Value::Float(2.0), "window boundary moved across recovery");
    assert_eq!(after[1].payload, Value::Float(1.0));
    running.shutdown();
}

#[test]
fn crash_of_middle_operator_in_pipeline() {
    // src → relay1 → relay2 → sink; crash relay2 (has an upstream that is
    // an operator, exercising operator-to-operator replay).
    let mut b = GraphBuilder::new();
    let r1 = b.add_operator(
        StampedRelay::new(),
        OperatorConfig::logged(LoggingConfig::simulated(FAST_LOG)),
    );
    let r2 =
        b.add_operator(RandomTagger, OperatorConfig::logged(LoggingConfig::simulated(FAST_LOG)));
    b.connect(r1, r2).unwrap();
    let src = b.source_into(r1).unwrap();
    let sink = b.sink_from(r2).unwrap();
    let running = b.build().unwrap().start();

    for i in 0..15 {
        running.source(src).push(Value::Int(i));
    }
    assert!(running.sink(sink).wait_final(15, Duration::from_secs(10)));
    let before = running.sink(sink).final_events_by_id();

    running.crash(r2);
    running.recover(r2);
    for i in 15..25 {
        running.source(src).push(Value::Int(i));
    }
    assert!(
        running.sink(sink).wait_final(25, Duration::from_secs(20)),
        "only {} of 25 after mid-pipeline recovery",
        running.sink(sink).final_count()
    );
    let after = running.sink(sink).final_events_by_id();
    for pre in &before {
        let post = after.iter().find(|e| e.id == pre.id).expect("event vanished");
        assert_eq!(post.payload, pre.payload);
    }
    running.shutdown();
}

/// Tags every event with a random draw and a count all events share: on
/// two STM threads every neighbouring pair of transactions conflicts on
/// the counter, and the loser re-executes.
struct TaggedCounter {
    count: OnceLock<StateHandle<i64>>,
}

impl Operator for TaggedCounter {
    fn name(&self) -> &str {
        "tagged-counter"
    }
    fn setup(&self, ctx: &mut SetupCtx<'_>) {
        let _ = self.count.set(ctx.state(0i64));
    }
    fn process(&self, ctx: &mut OpCtx<'_, '_>, event: &Event) -> Result<(), StmAbort> {
        let tag = ctx.random_u64();
        let count = *self.count.get().expect("setup ran");
        let seen = *ctx.get(count)?;
        // Keep the read and the write apart, so that the other thread's
        // transaction reads in between.
        busy_work(Duration::from_micros(200));
        ctx.set(count, seen + 1)?;
        ctx.emit(Value::record(vec![
            event.payload.clone(),
            Value::Int(seen + 1),
            Value::Int(tag as i64),
        ]));
        Ok(())
    }
}

#[test]
fn replayed_transaction_that_retries_keeps_its_logged_decisions() {
    // A transaction that reads its decisions back from the log and then
    // aborts on a conflict must read them back again, not take new ones:
    // what it published before the crash is final downstream.
    const ROUNDS: usize = 10;
    let mut b = GraphBuilder::new();
    let cfg = OperatorConfig::speculative(LoggingConfig::simulated(FAST_LOG)).with_threads(2);
    let op = b.add_operator(TaggedCounter { count: OnceLock::new() }, cfg);
    let src = b.source_into(op).unwrap();
    let sink = b.sink_from(op).unwrap();
    let running = b.build().unwrap().start();

    let mut pushed = 40;
    for i in 0..pushed {
        running.source(src).push(Value::Int(i));
    }
    // Final means committed: every decision record is stable.
    assert!(running.sink(sink).wait_final(40, Duration::from_secs(20)));
    // Two threads make a replayed transaction likely to conflict, not
    // certain to: crash and recover until an incarnation has retried, and
    // check the output after every round.
    for round in 1..=ROUNDS {
        let before = running.sink(sink).final_events_by_id();
        running.crash(op);
        running.recover(op);
        for i in pushed..pushed + 10 {
            running.source(src).push(Value::Int(i));
        }
        pushed += 10;
        assert!(
            running.sink(sink).wait_final(pushed as usize, Duration::from_secs(30)),
            "round {round}: only {} of {pushed} final after recovery",
            running.sink(sink).final_count()
        );
        // The sink keeps the latest copy of an event it is sent again, so
        // a re-derived output that differs shows here.
        let after = running.sink(sink).final_events_by_id();
        for pre in &before {
            let post = after.iter().find(|e| e.id == pre.id).expect("pre-crash event vanished");
            assert_eq!(post.payload, pre.payload, "round {round}: event {} changed", pre.id);
        }
        let mut counts: Vec<i64> =
            after.iter().filter_map(|e| e.payload.field(1).and_then(Value::as_i64)).collect();
        counts.sort_unstable();
        assert_eq!(counts, (1..=pushed).collect::<Vec<_>>());
        // The premise: the replay did conflict (the gauge is refreshed on
        // the way to every park; it counts this incarnation's retries
        // alone).
        std::thread::sleep(Duration::from_millis(100));
        let retries = running.metrics().gauge("stm.retries", streammine::obs::Labels::op(0));
        if retries > Some(0) {
            running.shutdown();
            return;
        }
    }
    panic!("no replayed transaction re-executed in {ROUNDS} rounds: nothing was tested");
}

#[test]
fn crash_between_two_decisions_of_one_event_recovers_identically() {
    // `MonteCarloPi::new(1)` takes two decisions per event and its output
    // depends on both. The log holds one record per decision; tearing the
    // last one off is a crash after the first decision of the last event
    // was stable and before the second was. Recovery reads the first back
    // and takes the second again — from where the random stream stood.
    let run = |cfg: OperatorConfig, crash_after: Option<u64>| -> Vec<Value> {
        let mut b = GraphBuilder::new();
        let op = b.add_operator(MonteCarloPi::new(1), cfg);
        let src = b.source_into(op).unwrap();
        let sink = b.sink_from(op).unwrap();
        let running = b.build().unwrap().start();
        let first = crash_after.unwrap_or(12);
        for i in 0..first {
            running.source(src).push(Value::Int(i as i64));
        }
        assert!(running.sink(sink).wait_final(first as usize, Duration::from_secs(20)));
        if crash_after.is_some() {
            running.crash(op);
            let log = running.operator_log(op).expect("the operator logs");
            assert_eq!(log.stable_entries().len() as u64, 2 * first, "one record per decision");
            assert!(log.corrupt_tail());
            running.recover(op);
            for i in first..12 {
                running.source(src).push(Value::Int(i as i64));
            }
            assert!(
                running.sink(sink).wait_final(12, Duration::from_secs(30)),
                "only {} of 12 final after recovery",
                running.sink(sink).final_count()
            );
            assert_eq!(log.corrupt_dropped(), 1, "exactly the last decision was torn off");
        }
        let out = payloads(&running.sink(sink).final_events_by_id());
        running.shutdown();
        out
    };
    let log = || LoggingConfig::simulated(FAST_LOG);
    for cfg in [OperatorConfig::logged(log()), OperatorConfig::speculative(log())] {
        let reference = run(cfg.clone(), None);
        assert_eq!(reference.len(), 12);
        assert_eq!(run(cfg, Some(8)), reference, "recovered run differs from the fault-free run");
    }
}

// ---------------------------------------------------------------------
// Recovery is rewind-to-a-frontier: a recovering node moves the cursors of
// its input rings back itself. Nothing is requested of the upstream, so
// nothing about recovery depends on the reverse (control) lane, on the
// upstream being alive, or on a timer.
// ---------------------------------------------------------------------

const BEFORE_CRASH: usize = 12;
const TOTAL: usize = 16;

/// src → op0 → op1 → sink, both random taggers on a fast log.
fn two_taggers(cfg0: OperatorConfig, cfg1: OperatorConfig) -> (Running, SourceId, SinkId) {
    let mut b = GraphBuilder::new();
    let op0 = b.add_operator(RandomTagger, cfg0);
    let op1 = b.add_operator(RandomTagger, cfg1);
    b.connect(op0, op1).unwrap();
    let src = b.source_into(op0).unwrap();
    let sink = b.sink_from(op1).unwrap();
    (b.build().unwrap().start(), src, sink)
}

fn logged() -> OperatorConfig {
    OperatorConfig::logged(LoggingConfig::simulated(FAST_LOG))
}

/// Pushes events `range` one at a time, each final at the sink before the
/// next is pushed.
fn push_paced(running: &Running, src: SourceId, sink: SinkId, range: std::ops::Range<usize>) {
    for i in range {
        running.source(src).push(Value::Int(i as i64));
        assert!(
            running.sink(sink).wait_final(i + 1, Duration::from_secs(10)),
            "event {i} never became final\n{}",
            running.journal_dump()
        );
    }
}

/// The sink's finals of a fault-free run of `TOTAL` events, in order.
fn fault_free(make: impl Fn() -> (Running, SourceId, SinkId)) -> Vec<Value> {
    let (running, src, sink) = make();
    push_paced(&running, src, sink, 0..TOTAL);
    let out = payloads(&running.sink(sink).final_events());
    running.shutdown();
    out
}

fn op(i: u32) -> streammine::common::ids::OperatorId {
    streammine::common::ids::OperatorId::new(i)
}

fn rewinds(running: &Running, op: u32) -> u64 {
    running.metrics().counter("replay.requests", streammine::obs::Labels::op(op)).unwrap_or(0)
}

/// The downstream crashes and recovers, then its speculative upstream
/// does. In process a speculative sender re-sends what it re-derives,
/// under fresh link sequences, and counts on the receiver to drop by event
/// id — but the receiver's memory of the ids it consumed died with it. The
/// checkpoint's per-port id frontier is what still knows them.
#[test]
fn downstream_then_speculative_upstream_crash_stays_exactly_once() {
    let make = || {
        two_taggers(
            OperatorConfig::speculative(LoggingConfig::simulated(FAST_LOG))
                .with_checkpoint_every(8),
            logged().with_checkpoint_every(2),
        )
    };
    let expected = fault_free(make);
    let (running, src, sink) = make();
    // op0's last checkpoint lands at 8, op1's at 12.
    push_paced(&running, src, sink, 0..BEFORE_CRASH);
    std::thread::sleep(Duration::from_millis(50));
    running.crash(op(1));
    running.recover(op(1));
    running.crash(op(0));
    running.recover(op(0));
    push_paced(&running, src, sink, BEFORE_CRASH..TOTAL);
    // Anything op0 re-sent has had its time to come through.
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(
        running.sink(sink).final_count(),
        TOTAL,
        "re-sent events were processed a second time\n{}",
        running.journal_dump()
    );
    assert_eq!(payloads(&running.sink(sink).final_events()), expected);
    running.shutdown();
}

/// The reverse lane of the recovering node's input edge stays severed
/// across crash, recovery and the rest of the stream: the node rewinds its
/// input ring itself and the output is that of the fault-free run.
#[test]
fn recovery_does_not_wait_for_the_control_lane() {
    let make = || two_taggers(logged(), logged());
    let expected = fault_free(make);
    let (running, src, sink) = make();
    push_paced(&running, src, sink, 0..BEFORE_CRASH);
    running.sever_edge_ctrl(0);
    running.crash(op(1));
    running.recover(op(1));
    for i in BEFORE_CRASH..TOTAL {
        running.source(src).push(Value::Int(i as i64));
    }
    assert!(
        running.sink(sink).wait_final(TOTAL, Duration::from_secs(3)),
        "recovery stuck at {}/{TOTAL} behind a severed control lane\n{}",
        running.sink(sink).final_count(),
        running.journal_dump()
    );
    assert_eq!(payloads(&running.sink(sink).final_events()), expected);
    running.heal_edge_ctrl(0);
    running.shutdown();
}

/// Two faults on one edge, the first at the stream tail: op1's checkpoint
/// covers everything op0 ever sent, so the first rewind re-reads nothing,
/// and the second, two events later, re-reads those two. Both are the same
/// three steps and neither leaves anything armed behind.
#[test]
fn two_faults_on_one_edge_the_first_at_the_tail_recover_alike() {
    let make = || two_taggers(logged(), logged().with_checkpoint_every(4));
    let expected = fault_free(make);
    let (running, src, sink) = make();
    push_paced(&running, src, sink, 0..BEFORE_CRASH);
    // The checkpoint at 12 follows the twelfth final by a moment.
    std::thread::sleep(Duration::from_millis(100));
    running.crash(op(1));
    running.recover(op(1));
    push_paced(&running, src, sink, BEFORE_CRASH..BEFORE_CRASH + 2);
    running.crash(op(1));
    running.recover(op(1));
    push_paced(&running, src, sink, BEFORE_CRASH + 2..TOTAL);
    assert_eq!(payloads(&running.sink(sink).final_events()), expected);
    assert_eq!(rewinds(&running, 1), 2, "one rewind per port per recovery");
    let journal = running.journal_dump();
    assert!(!journal.contains("rewind-short"), "a checkpoint position was out of reach\n{journal}");
    running.shutdown();
}

/// A node recovered at the stream tail has nothing to re-read and nothing
/// to say: one rewind per port, and — the lane is severed, so anything
/// sent would still sit in it — not one control frame towards its upstream
/// in a second of idling.
#[test]
fn an_idle_recovered_node_sends_nothing() {
    let (running, src, sink) = two_taggers(logged(), logged().with_checkpoint_every(4));
    push_paced(&running, src, sink, 0..BEFORE_CRASH);
    // The checkpoint at 12 and its ack upstream follow the twelfth final.
    std::thread::sleep(Duration::from_millis(100));
    running.sever_edge_ctrl(0);
    running.crash(op(1));
    running.recover(op(1));
    std::thread::sleep(Duration::from_secs(1));
    assert_eq!(rewinds(&running, 1), 1, "one input port, one recovery");
    // Source → op0, op0 → op1, op1 → sink.
    let retained = running.control_links_retained();
    assert_eq!(retained[1], 0, "the idle node sent control upstream: {retained:?}");
    running.heal_edge_ctrl(0);
    running.shutdown();
}
