//! Overload robustness: window-based backpressure, bounded speculation,
//! and the deadlock-freedom of replay under flow control.
//!
//! These tests run a pipeline with deliberately *tight* flow-control
//! knobs — small link windows, small intakes — so that a stalled consumer
//! saturates every hop. The claims:
//!
//! * backpressure only ever *delays* outputs, never changes a byte;
//! * every queue stays within its configured bound while saturated;
//! * stall episodes are journaled symmetrically (stall ⇔ resume) and
//!   metered;
//! * crash recovery *while saturated* completes, because a replay is a
//!   cursor rewind that needs no room in the window and control-plane
//!   work is never gated by the overload stall (the deadlock-freedom
//!   argument);
//! * speculation admission caps pace a speculative operator down to
//!   log-stable progress instead of aborting or growing memory.

use std::time::Duration;

use streammine::common::event::{Event, Value};
use streammine::common::ids::OperatorId;
use streammine::core::{
    GraphBuilder, LoggingConfig, NodeConfig, OpCtx, Operator, OperatorConfig, Running, SinkId,
    SourceId,
};
use streammine::net::LinkConfig;
use streammine::obs::{JournalKind, Labels};
use streammine::stm::StmAbort;

const FAST_LOG: Duration = Duration::from_micros(200);
const EVENTS: u64 = 48;

// Tight overload knobs: small enough that a stalled sink saturates the
// whole chain within a handful of events, large enough that the pipeline
// still makes progress between stall episodes.
const LINK_CAPACITY: usize = 8;
const INTAKE_CAPACITY: usize = 16;
// The window is a soft cap for a coordinator (an in-flight event's outputs
// may land after the gate check), so the hard bound on what an edge holds
// past its window is a small per-event overshoot.
const PENDING_OVERSHOOT: i64 = 4;

/// Non-deterministic relay (same shape as the chaos suite): byte-identical
/// outputs require bit-exact determinant replay, so backpressure-induced
/// reprocessing or recovery cannot hide behind deterministic operators.
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

/// src → tagger → tagger → tagger → sink with tight flow-control knobs on
/// every layer: link windows and intake lanes.
fn tight_pipeline() -> (Running, SourceId, SinkId) {
    tight_pipeline_with(INTAKE_CAPACITY)
}

/// [`tight_pipeline`] with the middle operator's intake lane holding
/// `op1_intake` messages.
fn tight_pipeline_with(op1_intake: usize) -> (Running, SourceId, SinkId) {
    let mut b = GraphBuilder::new().with_links(LinkConfig::instant().with_capacity(LINK_CAPACITY));
    let cfg = |intake_capacity| {
        OperatorConfig::logged(LoggingConfig::simulated(FAST_LOG))
            .with_checkpoint_every(7)
            .with_node(NodeConfig { intake_capacity, ..NodeConfig::default() })
    };
    let op0 = b.add_operator(RandomTagger, cfg(INTAKE_CAPACITY));
    let op1 = b.add_operator(RandomTagger, cfg(op1_intake));
    let op2 = b.add_operator(RandomTagger, cfg(INTAKE_CAPACITY));
    b.connect(op0, op1).unwrap();
    b.connect(op1, op2).unwrap();
    let src = b.source_into(op0).unwrap();
    let sink = b.sink_from(op2).unwrap();
    (b.build().unwrap().start(), src, sink)
}

fn payloads(events: &[Event]) -> Vec<Value> {
    events.iter().map(|e| e.payload.clone()).collect()
}

fn run_reference() -> Vec<Value> {
    run_reference_of(EVENTS)
}

fn run_reference_of(events: u64) -> Vec<Value> {
    let (running, src, sink) = tight_pipeline();
    for i in 0..events {
        running.source(src).push(Value::Int(i as i64));
    }
    assert!(running.sink(sink).wait_final(events as usize, Duration::from_secs(30)));
    let out = payloads(&running.sink(sink).final_events_by_id());
    running.shutdown();
    out
}

/// Per-op journal reconciliation: every stall entry (edge stall or spec
/// cap hit) has a matching resume once the run has quiesced, and the
/// `backpressure.stalls` counter agrees with the journal.
fn assert_stalls_reconcile(running: &Running) {
    let journal = running.obs().journal.events();
    for op in 0..running.operator_count() as u32 {
        let stalls = journal
            .iter()
            .filter(|e| e.op == Some(op))
            .filter(|e| {
                matches!(
                    e.kind,
                    JournalKind::BackpressureStall { .. } | JournalKind::SpecCapHit { .. }
                )
            })
            .count() as u64;
        let resumes = journal
            .iter()
            .filter(|e| e.op == Some(op))
            .filter(|e| matches!(e.kind, JournalKind::BackpressureResume { .. }))
            .count() as u64;
        assert_eq!(
            stalls,
            resumes,
            "op{op}: {stalls} stall entries but {resumes} resumes after quiesce\n{}",
            running.journal_dump()
        );
        let counted = running
            .obs()
            .registry
            .counter_value("backpressure.stalls", Labels::op(op))
            .unwrap_or(0);
        assert_eq!(
            counted, stalls,
            "op{op}: backpressure.stalls counter disagrees with the journal"
        );
    }
    streammine::chaos::verify_recovery_counters(&running.metrics(), &[], &journal)
        .unwrap_or_else(|e| panic!("{e}\n{}", running.journal_dump()));
}

/// Every edge stayed within its configured bound: nothing beyond the
/// window but the per-event overshoot.
fn assert_queues_bounded(running: &Running) {
    let reg = &running.obs().registry;
    for op in 0..running.operator_count() as u32 {
        let hwm = reg.gauge_value("edge.pending_hwm", Labels::op_port(op, 0)).unwrap_or(0);
        assert!(
            hwm <= PENDING_OVERSHOOT,
            "op{op} edge 0: {hwm} messages past the {LINK_CAPACITY}-message window"
        );
        let depth = reg.gauge_value("node.intake_depth", Labels::op(op)).unwrap_or(0);
        assert!(
            depth <= INTAKE_CAPACITY as i64,
            "op{op}: intake depth {depth} exceeds its bounded lane capacity"
        );
    }
}

/// A sink stalled for many drain intervals saturates every hop; all queues
/// stay within bounds, stall episodes reconcile, and once the stall ends
/// the outputs are byte-identical to an unstalled run.
#[test]
fn stalled_sink_backpressure_is_bounded_and_precise() {
    let reference = run_reference();
    let (running, src, sink) = tight_pipeline();

    // Stall the sink for far longer than it takes the tight windows to
    // fill (8-message links drain in microseconds; 300ms ≫ 10× that).
    running.sink(sink).stall_for(Duration::from_millis(300));
    for i in 0..EVENTS {
        // Push straight into the stall: once every window is full this
        // call blocks on the source link's window — the source is the
        // last hop of the backpressure chain. Paced pushes keep the
        // micro-batching transport from coalescing the whole workload
        // into a handful of jumbo frames that never consume the window.
        running.source(src).push(Value::Int(i as i64));
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        running.sink(sink).wait_final(EVENTS as usize, Duration::from_secs(30)),
        "stalled at {}/{EVENTS}\n{}",
        running.sink(sink).final_count(),
        running.journal_dump()
    );
    // Let stalled nodes notice the drained queues and journal resumes.
    std::thread::sleep(Duration::from_millis(100));

    let out = payloads(&running.sink(sink).final_events_by_id());
    assert_eq!(out, reference, "backpressure changed output bytes");

    let total_stalls = running.obs().registry.counter_total("backpressure.stalls");
    assert!(total_stalls >= 1, "a 300ms sink stall must trigger at least one stall episode");
    assert_queues_bounded(&running);
    assert_stalls_reconcile(&running);

    // Stall latency is attributed: the stall histogram recorded the
    // episode(s) the journal describes.
    let stall_us: u64 = (0..running.operator_count() as u32)
        .filter_map(|op| {
            running
                .obs()
                .registry
                .histogram_snapshot("backpressure.stall_us", Labels::op(op))
                .map(|h| h.count())
        })
        .sum();
    assert_eq!(stall_us, total_stalls, "every stall episode must record its duration");
    running.shutdown();
}

/// The deadlock-freedom property, exercised rather than argued: a node
/// crashes *while the whole chain is saturated* and recovery still
/// completes, because (a) replay requests ride the ungated control lane
/// and (b) a replay rewinds the link's cursor, which needs no room in the
/// (full) window, so replay never waits on the traffic it re-delivers.
#[test]
fn crash_while_saturated_recovers_without_deadlock() {
    let reference = run_reference();
    let (running, src, sink) = tight_pipeline();

    // Saturate: stall the sink, then push the full workload from a helper
    // thread (the source blocks once the chain is full).
    running.sink(sink).stall_for(Duration::from_millis(500));
    std::thread::scope(|s| {
        let pusher = s.spawn(|| {
            for i in 0..EVENTS {
                running.source(src).push(Value::Int(i as i64));
            }
        });
        // Give the chain time to wedge solid, then kill the middle
        // operator mid-stall and recover it while everything around it is
        // saturated.
        std::thread::sleep(Duration::from_millis(150));
        let op1 = OperatorId::new(1);
        running.crash(op1);
        running.recover(op1);
        pusher.join().unwrap();
    });
    assert!(
        running.sink(sink).wait_final(EVENTS as usize, Duration::from_secs(60)),
        "recovery deadlocked at {}/{EVENTS} under saturation\n{}",
        running.sink(sink).final_count(),
        running.journal_dump()
    );
    let out = payloads(&running.sink(sink).final_events_by_id());
    assert_eq!(out, reference, "crash-while-saturated recovery changed output bytes");
    assert_queues_bounded(&running);
    running.shutdown();
}

/// The stale-pump race the in-order cursor relies on. With a one-message
/// intake lane and a saturated chain, the middle operator's data pump is
/// parked inside its push, holding a frame it read from the link before
/// the crash. The crash empties the lane, so the pump delivers that frame
/// — and whatever it reads next — to the *recovered* node ahead of the
/// replay the node is about to request. The cursor drops those
/// stragglers (they are past the checkpoint position it expects) and the
/// rewind hands them over again in order: same bytes, nothing lost.
#[test]
fn crash_with_a_pump_blocked_mid_push_recovers_precisely() {
    // More than every window and lane of the chain holds together, so the
    // source itself ends up blocked.
    const EVENTS: u64 = 160;
    let reference = run_reference_of(EVENTS);
    let (running, src, sink) = tight_pipeline_with(1);

    running.sink(sink).stall_for(Duration::from_millis(600));
    std::thread::scope(|s| {
        let pusher = s.spawn(|| {
            for i in 0..EVENTS {
                // Paced: one event per frame, so the windows fill.
                running.source(src).push(Value::Int(i as i64));
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        // The source only stops making progress once every hop behind it
        // is full — which, for op1, means a full lane and a pump blocked
        // on it with the next frame in hand.
        let mut pushed = running.source(src).pushed();
        loop {
            std::thread::sleep(Duration::from_millis(30));
            let now = running.source(src).pushed();
            if now == pushed {
                break;
            }
            pushed = now;
        }
        assert!(pushed < EVENTS, "the chain never saturated");
        let op1 = OperatorId::new(1);
        running.crash(op1);
        running.recover(op1);
        pusher.join().unwrap();
    });
    assert!(
        running.sink(sink).wait_final(EVENTS as usize, Duration::from_secs(60)),
        "recovery stuck at {}/{EVENTS}\n{}",
        running.sink(sink).final_count(),
        running.journal_dump()
    );
    let out = payloads(&running.sink(sink).final_events_by_id());
    assert_eq!(out, reference, "recovery behind a blocked pump changed output bytes");
    running.shutdown();
}

/// Speculation admission control: with a tiny open-transaction cap, a
/// speculative operator hits the cap, stalls speculative intake, and
/// paces itself by log stability — it never aborts and the outputs are
/// byte-identical to an uncapped run.
#[test]
fn speculation_cap_paces_without_aborting() {
    const SPEC_EVENTS: u64 = 24;
    // Slow log: speculation runs ahead of stability, so open transactions
    // pile up against the cap.
    let slow_log = Duration::from_millis(2);
    let build = |caps: NodeConfig| {
        let mut b = GraphBuilder::new();
        let cfg = OperatorConfig::speculative(LoggingConfig::simulated(slow_log)).with_node(caps);
        let op0 = b.add_operator(RandomTagger, cfg);
        let src = b.source_into(op0).unwrap();
        let sink = b.sink_from(op0).unwrap();
        (b.build().unwrap().start(), src, sink)
    };

    let reference = {
        let (running, src, sink) = build(NodeConfig::default());
        for i in 0..SPEC_EVENTS {
            running.source(src).push(Value::Int(i as i64));
        }
        assert!(running.sink(sink).wait_final(SPEC_EVENTS as usize, Duration::from_secs(30)));
        let out = payloads(&running.sink(sink).final_events_by_id());
        running.shutdown();
        out
    };

    let (running, src, sink) =
        build(NodeConfig { max_open_speculations: 2, ..NodeConfig::default() });
    for i in 0..SPEC_EVENTS {
        running.source(src).push(Value::Int(i as i64));
    }
    assert!(
        running.sink(sink).wait_final(SPEC_EVENTS as usize, Duration::from_secs(30)),
        "capped speculation stalled at {}/{SPEC_EVENTS}\n{}",
        running.sink(sink).final_count(),
        running.journal_dump()
    );
    std::thread::sleep(Duration::from_millis(100));

    let out = payloads(&running.sink(sink).final_events_by_id());
    assert_eq!(out, reference, "speculation cap changed output bytes");

    let cap_hits = running.obs().registry.counter_total("spec.cap_hits");
    assert!(
        cap_hits >= 1,
        "24 events against a 2-transaction window on a 2ms log must hit the cap\n{}",
        running.journal_dump()
    );
    let journal = running.obs().journal.events();
    assert!(
        journal.iter().any(|e| matches!(e.kind, JournalKind::SpecCapHit { .. })),
        "cap hits must be journaled"
    );
    assert_stalls_reconcile(&running);
    running.shutdown();
}
