//! Engine edge cases: multi-threaded speculative nodes, parked speculative
//! inputs at non-speculative operators, EOF propagation, link-delay graphs,
//! and checkpoint-driven log truncation.

use std::time::{Duration, Instant};

use streammine::common::event::{Event, Value};
use streammine::common::ids::OperatorId;
use streammine::core::{GraphBuilder, LoggingConfig, OpCtx, Operator, OperatorConfig};
use streammine::net::LinkConfig;
use streammine::operators::{Classifier, CountWindow, StampedRelay, WindowAgg};
use streammine::stm::StmAbort;

#[test]
fn multithreaded_speculative_node_preserves_order_sensitive_state() {
    // CountWindow sums depend on processing order; timestamp-ordered
    // commits must keep them correct even with 4 worker threads.
    let mut b = GraphBuilder::new();
    let w = b.add_operator(
        CountWindow::new(4, WindowAgg::Sum),
        OperatorConfig::speculative_unlogged().with_threads(4),
    );
    let src = b.source_into(w).unwrap();
    let sink = b.sink_from(w).unwrap();
    let running = b.build().unwrap().start();
    for i in 1..=32i64 {
        running.source(src).push(Value::Int(i));
    }
    assert!(running.sink(sink).wait_final(8, Duration::from_secs(15)));
    let sums: Vec<f64> =
        running.sink(sink).final_events_by_id().iter().filter_map(|e| e.payload.as_f64()).collect();
    let expected: Vec<f64> = (0..8).map(|w| (1..=4).map(|k| (w * 4 + k) as f64).sum()).collect();
    assert_eq!(
        sums,
        expected,
        "windows must aggregate in arrival order (final_count={}, revoked={:?}, records={:?})",
        running.sink(sink).final_count(),
        running.sink(sink).revoked(),
        running
            .sink(sink)
            .records()
            .iter()
            .map(|r| (r.event.id, r.event.version, r.final_at_us.is_some()))
            .collect::<Vec<_>>()
    );
    running.shutdown();
}

#[test]
fn nonspec_operator_parks_speculative_inputs_until_finalized() {
    let mut b = GraphBuilder::new();
    let c = b.add_operator(Classifier::new(4), OperatorConfig::plain());
    let src = b.source_into(c).unwrap();
    let sink = b.sink_from(c).unwrap();
    let running = b.build().unwrap().start();

    let spec_id = running.source(src).push_speculative(Value::Int(7));
    running.source(src).push(Value::Int(8)); // final, processed immediately
    assert!(running.sink(sink).wait_final(1, Duration::from_secs(5)));
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(running.sink(sink).final_count(), 1, "speculative input must be parked");

    running.source(src).finalize(spec_id, 0);
    assert!(running.sink(sink).wait_final(2, Duration::from_secs(5)));
    running.shutdown();
}

#[test]
fn nonspec_operator_drops_parked_input_on_revoke() {
    let mut b = GraphBuilder::new();
    let c = b.add_operator(Classifier::new(4), OperatorConfig::plain());
    let src = b.source_into(c).unwrap();
    let sink = b.sink_from(c).unwrap();
    let running = b.build().unwrap().start();

    let spec_id = running.source(src).push_speculative(Value::Int(7));
    std::thread::sleep(Duration::from_millis(30));
    running.source(src).revoke(spec_id);
    running.source(src).push(Value::Int(8));
    assert!(running.sink(sink).wait_final(1, Duration::from_secs(5)));
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(running.sink(sink).final_count(), 1, "revoked input must never process");
    running.shutdown();
}

#[test]
fn eof_propagates_through_a_chain() {
    struct Fwd;
    impl Operator for Fwd {
        fn process(&self, ctx: &mut OpCtx<'_, '_>, ev: &Event) -> Result<(), StmAbort> {
            ctx.emit(ev.payload.clone());
            Ok(())
        }
    }
    let mut b = GraphBuilder::new();
    let a = b.add_operator(Fwd, OperatorConfig::plain());
    let c = b.add_operator(Fwd, OperatorConfig::plain());
    b.connect(a, c).unwrap();
    let src = b.source_into(a).unwrap();
    let sink = b.sink_from(c).unwrap();
    let running = b.build().unwrap().start();
    running.source(src).push(Value::Int(1));
    running.source(src).eof();
    let deadline = Instant::now() + Duration::from_secs(5);
    while !running.sink(sink).saw_eof() {
        assert!(Instant::now() < deadline, "eof never reached the sink");
        std::thread::yield_now();
    }
    assert_eq!(running.sink(sink).final_count(), 1);
    running.shutdown();
}

#[test]
fn lan_links_add_constant_latency_but_keep_speculation_benefit() {
    // The paper's Figure 3 discussion: network hops add a roughly constant
    // term; speculation's advantage (parallel logs) is preserved.
    let measure = |speculative: bool| -> f64 {
        let mut b = GraphBuilder::new().with_links(LinkConfig::lan());
        let log = || LoggingConfig::simulated(Duration::from_millis(8));
        let cfg = |spec: bool| {
            if spec {
                OperatorConfig::speculative(log())
            } else {
                OperatorConfig::logged(log())
            }
        };
        let r1 = b.add_operator(StampedRelay::new(), cfg(speculative));
        let r2 = b.add_operator(StampedRelay::new(), cfg(speculative));
        let r3 = b.add_operator(StampedRelay::new(), cfg(speculative));
        b.connect(r1, r2).unwrap();
        b.connect(r2, r3).unwrap();
        let src = b.source_into(r1).unwrap();
        let sink = b.sink_from(r3).unwrap();
        let running = b.build().unwrap().start();
        for i in 0..6 {
            running.source(src).push(Value::Int(i));
            std::thread::sleep(Duration::from_millis(30));
        }
        assert!(running.sink(sink).wait_final(6, Duration::from_secs(20)));
        let lat = running.sink(sink).final_latencies_us();
        running.shutdown();
        lat.iter().sum::<f64>() / lat.len() as f64
    };
    let nonspec = measure(false);
    let spec = measure(true);
    assert!(
        spec < nonspec * 0.75,
        "speculation benefit must survive LAN delays: spec={spec:.0}us nonspec={nonspec:.0}us"
    );
}

#[test]
fn checkpointing_truncates_the_decision_log() {
    let mut b = GraphBuilder::new();
    let op = b.add_operator(
        StampedRelay::new(),
        OperatorConfig::logged(LoggingConfig::simulated(Duration::from_micros(200)))
            .with_checkpoint_every(5),
    );
    let src = b.source_into(op).unwrap();
    let sink = b.sink_from(op).unwrap();
    let running = b.build().unwrap().start();
    for i in 0..20 {
        running.source(src).push(Value::Int(i));
    }
    assert!(running.sink(sink).wait_final(20, Duration::from_secs(10)));
    std::thread::sleep(Duration::from_millis(100));
    let log = running.operator_log(OperatorId::new(0)).expect("operator logs");
    assert_eq!(log.appended(), 20, "one decision record per event");
    assert!(
        log.stable_entries().len() <= 6,
        "checkpoints must prune the log, {} records remain",
        log.stable_entries().len()
    );
    running.shutdown();
}

#[test]
fn double_crash_recovery_still_precise() {
    // Crash the same operator twice; outputs must stay identical.
    let mut b = GraphBuilder::new();
    let op = b.add_operator(
        StampedRelay::new(),
        OperatorConfig::logged(LoggingConfig::simulated(Duration::from_micros(200)))
            .with_checkpoint_every(6),
    );
    let src = b.source_into(op).unwrap();
    let sink = b.sink_from(op).unwrap();
    let running = b.build().unwrap().start();
    let opid = OperatorId::new(0);

    for i in 0..10 {
        running.source(src).push(Value::Int(i));
    }
    assert!(running.sink(sink).wait_final(10, Duration::from_secs(10)));
    let snapshot1 = running.sink(sink).final_events_by_id();

    running.crash(opid);
    running.recover(opid);
    for i in 10..16 {
        running.source(src).push(Value::Int(i));
    }
    assert!(running.sink(sink).wait_final(16, Duration::from_secs(20)));
    let snapshot2 = running.sink(sink).final_events_by_id();

    running.crash(opid);
    running.recover(opid);
    for i in 16..22 {
        running.source(src).push(Value::Int(i));
    }
    assert!(
        running.sink(sink).wait_final(22, Duration::from_secs(20)),
        "stalled at {} after second recovery",
        running.sink(sink).final_count()
    );
    let final_snapshot = running.sink(sink).final_events_by_id();
    for pre in snapshot1.iter().chain(snapshot2.iter()) {
        let post = final_snapshot.iter().find(|e| e.id == pre.id).expect("event vanished");
        assert_eq!(post.payload, pre.payload, "{} diverged across double recovery", pre.id);
    }
    running.shutdown();
}

/// Control links are consumed, not replayed: every consumer acknowledges
/// what it has forwarded, so however long the graph runs no `Ack` stays
/// behind in a link.
#[test]
fn control_links_retain_nothing_over_a_long_run() {
    const EVENTS: usize = 50_000;
    let mut b = GraphBuilder::new();
    // Checkpoints make both operators ack their upstreams; the sink acks
    // every 16 frames on its own.
    let cfg = || OperatorConfig::plain().with_checkpoint_every(64);
    let a = b.add_operator(StampedRelay::new(), cfg());
    let c = b.add_operator(StampedRelay::new(), cfg());
    b.connect(a, c).unwrap();
    let src = b.source_into(a).unwrap();
    let sink = b.sink_from(c).unwrap();
    let running = b.build().unwrap().start();
    for i in 0..EVENTS {
        running.source(src).push(Value::Int(i as i64));
    }
    assert!(running.sink(sink).wait_final(EVENTS, Duration::from_secs(120)));
    // Let the last acks in flight reach their pumps.
    std::thread::sleep(Duration::from_millis(100));
    let retained = running.control_links_retained();
    assert_eq!(retained.len(), 3, "source, operator and sink control links");
    assert!(retained.iter().all(|&n| n <= 4), "control links leak: {retained:?} retained");
    running.shutdown();
}
