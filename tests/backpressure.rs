//! Overload robustness: window-based backpressure, bounded speculation,
//! and the deadlock-freedom of replay under flow control.
//!
//! These tests run a pipeline with deliberately *tight* link windows, so
//! that a stalled consumer saturates every hop. The claims:
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
//!   log-stable progress instead of aborting or growing memory — and a
//!   chain of capped operators still drains, because a stalled node keeps
//!   reading the finalizes its open transactions wait for.

use std::time::Duration;

use streammine::common::event::{Event, Value};
use streammine::common::ids::OperatorId;
use streammine::core::{
    GraphBuilder, LoggingConfig, NodeConfig, OpCtx, Operator, OperatorConfig, Running, SinkId,
    SourceId,
};
use streammine::net::LinkConfig;
use streammine::obs::{JournalKind, Labels};
use streammine::operators::StampedRelay;
use streammine::stm::StmAbort;

const FAST_LOG: Duration = Duration::from_micros(200);
const EVENTS: u64 = 48;

// A tight link window: small enough that a stalled sink saturates the
// whole chain within a handful of events, large enough that the pipeline
// still makes progress between stall episodes.
const LINK_CAPACITY: usize = 8;
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

/// src → tagger → tagger → tagger → sink with a tight window on every
/// link.
fn tight_pipeline() -> (Running, SourceId, SinkId) {
    let mut b = GraphBuilder::new().with_links(LinkConfig::instant().with_capacity(LINK_CAPACITY));
    let cfg =
        || OperatorConfig::logged(LoggingConfig::simulated(FAST_LOG)).with_checkpoint_every(7);
    let op0 = b.add_operator(RandomTagger, cfg());
    let op1 = b.add_operator(RandomTagger, cfg());
    let op2 = b.add_operator(RandomTagger, cfg());
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

/// Every edge stayed within its configured bound — nothing beyond the
/// window but the per-event overshoot — and no node holds more events
/// read but not admitted than its upstream's speculation cap lets it read
/// ahead (these upstreams emit final events: it should hold next to none).
fn assert_queues_bounded(running: &Running) {
    let reg = &running.obs().registry;
    let read_ahead_cap = NodeConfig::default().max_open_speculations as i64;
    for op in 0..running.operator_count() as u32 {
        let hwm = reg.gauge_value("edge.pending_hwm", Labels::op_port(op, 0)).unwrap_or(0);
        assert!(
            hwm <= PENDING_OVERSHOOT,
            "op{op} edge 0: {hwm} messages past the {LINK_CAPACITY}-message window"
        );
        let depth = reg.gauge_value("node.intake_depth", Labels::op(op)).unwrap_or(0);
        assert!(
            depth <= read_ahead_cap,
            "op{op}: {depth} events read but not admitted, past the upstream's speculation cap"
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
/// completes, because (a) the recovering node rewinds its input rings
/// itself, asking nobody, and (b) a rewind moves the ring's cursor, which
/// needs no room in the (full) window, so replay never waits on the
/// traffic it re-delivers.
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

/// A node crashes while its input ring's window is full — read up to
/// its cursor, stalled, the upstream saturated behind it — and recovers.
/// The ring and its cursor survive the crash; the recovered node expects
/// its checkpoint position, drops what it reads past it, and the rewind it
/// requests needs no room in the full window: same bytes, nothing lost.
#[test]
fn crash_with_a_full_input_window_recovers_precisely() {
    // More than every window of the chain holds together, so the source
    // itself ends up blocked.
    const EVENTS: u64 = 160;
    let reference = run_reference_of(EVENTS);
    let (running, src, sink) = tight_pipeline();

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
        // is full.
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
        let credits = running.obs().registry.gauge_value("edge.credits", Labels::op_port(0, 0));
        assert_eq!(credits, Some(0), "op1's input window is not full");
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
    assert_eq!(out, reference, "recovery behind a full window changed output bytes");
    assert_queues_bounded(&running);
    running.shutdown();
}

/// Speculation admission control: with a tiny open-transaction cap, a
/// speculative operator hits the cap, stops admitting, and paces itself
/// by log stability — it never aborts and the outputs are byte-identical
/// to an uncapped run.
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

/// Two speculative operators in a row, both capped: the downstream one
/// stalls at its cap on transactions whose inputs the upstream has not
/// finalized yet, and those finalizes travel on the ring it stalls on. It
/// must keep reading them (and only them: what data it reads on the way
/// waits, un-admitted) or the pair wedges for ever with nothing final.
#[test]
fn capped_speculative_chain_drains_and_keeps_its_bytes() {
    const SPEC_EVENTS: u64 = 24;
    let run = |caps: [usize; 2], log: [Duration; 2]| {
        let mut b = GraphBuilder::new();
        let ops: Vec<_> = (0..2)
            .map(|i| {
                let node = NodeConfig { max_open_speculations: caps[i], ..NodeConfig::default() };
                let cfg = OperatorConfig::speculative(LoggingConfig::simulated(log[i]));
                b.add_operator(RandomTagger, cfg.with_node(node))
            })
            .collect();
        b.connect(ops[0], ops[1]).unwrap();
        let src = b.source_into(ops[0]).unwrap();
        let sink = b.sink_from(ops[1]).unwrap();
        let running = b.build().unwrap().start();
        for i in 0..SPEC_EVENTS {
            running.source(src).push(Value::Int(i as i64));
        }
        assert!(
            running.sink(sink).wait_final(SPEC_EVENTS as usize, Duration::from_secs(10)),
            "caps {caps:?} wedged at {}/{SPEC_EVENTS} final\n{}",
            running.sink(sink).final_count(),
            running.journal_dump()
        );
        std::thread::sleep(Duration::from_millis(50));
        let out = payloads(&running.sink(sink).final_events_by_id());
        // What a stalled node read ahead is bounded by its upstream's cap.
        let depth =
            running.obs().registry.gauge_value("node.intake_depth", Labels::op(1)).unwrap_or(0);
        assert!(depth <= caps[0] as i64, "op1 holds {depth} un-admitted events, cap {}", caps[0]);
        assert_stalls_reconcile(&running);
        running.shutdown();
        out
    };
    let ms = Duration::from_millis;
    let uncapped = NodeConfig::default().max_open_speculations;
    let reference = run([uncapped; 2], [ms(2); 2]);
    assert_eq!(run([2, 2], [ms(2); 2]), reference, "caps 2/2 changed output bytes");
    assert_eq!(run([8, 2], [ms(2); 2]), reference, "caps 8/2 changed output bytes");
    // A slow downstream log keeps the downstream stalled while the upstream
    // runs its whole cap ahead: finalizes then arrive for events that still
    // wait, read but not admitted, and must take effect there.
    assert_eq!(run([8, 2], [ms(2), ms(6)]), reference, "slow downstream log changed bytes");
}

/// The benchmark's `chain4` graph (four speculative relays, one 2 ms log
/// each) in a closed loop holding as many events in flight as the
/// speculation cap (256) and four times as many: every node runs at its
/// cap for the whole run, and the loop still completes.
#[test]
fn closed_loop_at_and_past_the_speculation_cap_completes() {
    const EVENTS: usize = 8_000;
    for in_flight in [256, 1_024] {
        let mut b = GraphBuilder::new();
        let cfg =
            || OperatorConfig::speculative(LoggingConfig::simulated(Duration::from_millis(2)));
        let ops: Vec<_> = (0..4).map(|_| b.add_operator(StampedRelay::new(), cfg())).collect();
        for pair in ops.windows(2) {
            b.connect(pair[0], pair[1]).unwrap();
        }
        let src = b.source_into(ops[0]).unwrap();
        let sink = b.sink_from(ops[3]).unwrap();
        let running = b.build().unwrap().start();
        for pushed in 0..EVENTS {
            if pushed >= in_flight {
                assert!(
                    running.sink(sink).wait_final(pushed + 1 - in_flight, Duration::from_secs(20)),
                    "{in_flight} in flight: no slot came free after {pushed} pushed, {} final",
                    running.sink(sink).final_count()
                );
            }
            running.source(src).push(Value::Int(pushed as i64));
        }
        assert!(
            running.sink(sink).wait_final(EVENTS, Duration::from_secs(20)),
            "{in_flight} in flight: stuck at {}/{EVENTS} final",
            running.sink(sink).final_count()
        );
        let out = payloads(&running.sink(sink).final_events_by_id());
        let expected: Vec<Value> = (0..EVENTS).map(|i| Value::Int(i as i64)).collect();
        assert_eq!(out, expected, "{in_flight} in flight: the loop changed or lost events");
        running.shutdown();
    }
}
