//! Deterministic chaos: randomized fault schedules (crashes, link severs,
//! delayed acks, disk faults, disk stalls) against a multi-hop pipeline of
//! non-deterministic operators must leave the outputs byte-identical to a
//! failure-free run — the paper's precise-recovery guarantee, now checked
//! under supervised (automatic) recovery instead of scripted `recover()`
//! calls.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use streammine::chaos::{verify_recovery_counters, ChaosTarget, FaultPlan, FaultScheduler};
use streammine::common::event::{Event, Value};
use streammine::common::ids::OperatorId;
use streammine::core::{
    GraphBuilder, LoggingConfig, OpCtx, Operator, OperatorConfig, Running, SinkId, SourceId,
};
use streammine::obs::JournalKind;
use streammine::operators::RandomTagger;
use streammine::stm::StmAbort;

const FAST_LOG: Duration = Duration::from_micros(200);
const SEEDS: u64 = 16;
const STEPS: u64 = 36;

/// src → tagger → tagger → tagger → sink: three hops, all logged
/// non-speculative with checkpoints (so chaos exercises checkpoint restore,
/// log replay, and input-ring rewind at every depth).
fn pipeline() -> (Running, SourceId, SinkId) {
    let mut b = GraphBuilder::new();
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

/// `op`'s `Restart` records in the journal, in order: the attempt and the
/// backoff of each supervised restart.
fn restart_records(running: &Running, op: u32) -> Vec<(u32, Duration)> {
    let journal = running.obs().journal.events();
    journal
        .iter()
        .filter(|e| e.op == Some(op))
        .filter_map(|e| match e.kind {
            JournalKind::Restart { attempt, backoff_us } => {
                Some((attempt, Duration::from_micros(backoff_us)))
            }
            _ => None,
        })
        .collect()
}

/// Runs the pipeline without faults and returns its outputs (ordered by
/// event id). Operator RNG seeds are a deterministic function of the graph,
/// so this is *the* failure-free answer for every chaos run below.
fn failure_free_reference() -> Vec<Value> {
    let (running, src, sink) = pipeline();
    for i in 0..STEPS {
        running.source(src).push(Value::Int(i as i64));
    }
    assert!(running.sink(sink).wait_final(STEPS as usize, Duration::from_secs(20)));
    let out = payloads(&running.sink(sink).final_events_by_id());
    running.shutdown();
    out
}

/// The headline property: for a grid of seeds, a random fault schedule
/// (with supervised auto-restart — no manual `recover()` anywhere) produces
/// outputs byte-identical to the failure-free run, and the fault timeline
/// itself is reproducible from `(seed, steps, topology)`.
#[test]
fn chaos_grid_preserves_precise_outputs() {
    let reference = failure_free_reference();
    for seed in 0..SEEDS {
        let (running, src, sink) = pipeline();
        running.supervise();
        let topo = running.topology();
        let plan = FaultPlan::random(seed, STEPS, &topo);
        // Reproducible fault timeline: same (seed, steps, topology) — same
        // plan, always.
        assert_eq!(plan, FaultPlan::random(seed, STEPS, &topo));
        let crashes = plan.crash_count();
        let mut sched = FaultScheduler::new(plan);

        for step in 0..STEPS {
            sched.advance(step, &running);
            running.source(src).push(Value::Int(step as i64));
            // Pace the workload so faults interleave with processing
            // instead of all landing after the stream has drained.
            std::thread::sleep(Duration::from_millis(2));
        }
        sched.finish(&running);

        assert!(
            running.sink(sink).wait_final(STEPS as usize, Duration::from_secs(60)),
            "seed {seed}: stalled at {}/{} under plan {}",
            running.sink(sink).final_count(),
            STEPS,
            sched.plan()
        );
        let out = payloads(&running.sink(sink).final_events_by_id());
        assert_eq!(
            out,
            reference,
            "seed {seed}: outputs diverged from the failure-free run under plan {}",
            sched.plan()
        );

        // Every injected crash was recovered by the supervisor. A crash
        // restarts its operator once, so the accounts are now final.
        assert!(
            running.restarts() >= crashes as u64,
            "seed {seed}: {} supervised restarts for {crashes} crashes",
            running.restarts()
        );
        // Each restart's timeline is monotone, its journal record's backoff
        // follows the one restart policy (a first crash at once, a re-crash
        // after 4 ms doubling to 40 ms), and the timeline spans at least
        // that backoff from the exit to the restart.
        let timelines = running.recovery_timelines();
        for t in &timelines {
            assert!(t.monotonic(), "seed {seed}: non-monotonic timeline {}", t.to_json());
            let (attempt, backoff) =
                restart_records(&running, t.worker)[t.incarnation as usize - 1];
            let policy = match attempt {
                1 => Duration::ZERO,
                k => Duration::from_millis(4 << (k - 2).min(4)).min(Duration::from_millis(40)),
            };
            assert_eq!(backoff, policy, "seed {seed}: attempt {attempt}");
            assert!(
                Duration::from_micros(t.respawn_us - t.detect_us) >= backoff,
                "seed {seed}: restarted inside its {backoff:?} backoff: {}",
                t.to_json()
            );
        }
        // The metrics registry's account of recovery must agree with the
        // timelines: same restart counts per operator, and at least one
        // input ring rewound per supervised restart.
        verify_recovery_counters(
            sched.plan(),
            &timelines,
            &running.metrics(),
            &running.obs().journal.events(),
        )
        .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{}", running.journal_dump()));
        running.shutdown();
    }
}

/// The network nemesis: a grid of seeded link-layer fault schedules —
/// slow-consumer sink stalls, congestion delay spikes, asymmetric data
/// partitions, and ack starvation — against the same pipeline. None of it
/// may change a single output byte: flow control and retransmission must
/// only ever *delay* delivery. The journal's backpressure episodes must
/// also reconcile with the metrics registry.
#[test]
fn network_nemesis_grid_preserves_precise_outputs() {
    let reference = failure_free_reference();
    for seed in 0..SEEDS {
        let (running, src, sink) = pipeline();
        let topo = running.topology();
        assert_eq!(topo.sinks, 1, "probe must see the sink");
        let plan = FaultPlan::random_network(seed, STEPS, &topo);
        assert_eq!(plan, FaultPlan::random_network(seed, STEPS, &topo));
        let mut sched = FaultScheduler::new(plan);

        for step in 0..STEPS {
            sched.advance(step, &running);
            running.source(src).push(Value::Int(step as i64));
            std::thread::sleep(Duration::from_millis(2));
        }
        sched.finish(&running);

        assert!(
            running.sink(sink).wait_final(STEPS as usize, Duration::from_secs(60)),
            "seed {seed}: stalled at {}/{} under plan {}\n{}",
            running.sink(sink).final_count(),
            STEPS,
            sched.plan(),
            running.journal_dump()
        );
        let out = payloads(&running.sink(sink).final_events_by_id());
        assert_eq!(
            out,
            reference,
            "seed {seed}: outputs diverged under network plan {}",
            sched.plan()
        );
        verify_recovery_counters(
            sched.plan(),
            &[],
            &running.metrics(),
            &running.obs().journal.events(),
        )
        .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{}", running.journal_dump()));
        running.shutdown();
    }
}

/// The supervisor learns of a crash from the coordinator thread's exit
/// and restarts the node — the test never calls `recover()`.
#[test]
fn supervisor_restarts_crashed_node_without_manual_recover() {
    let (running, src, sink) = pipeline();
    running.supervise();
    let op1 = OperatorId::new(1);

    for i in 0..10 {
        running.source(src).push(Value::Int(i));
    }
    assert!(running.sink(sink).wait_final(10, Duration::from_secs(20)));
    let before = payloads(&running.sink(sink).final_events_by_id());

    running.crash(op1);
    // First supervised restart.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while running.restarts() < 1 {
        assert!(std::time::Instant::now() < deadline, "supervisor never restarted op1");
        std::thread::sleep(Duration::from_millis(1));
    }
    // Crash again inside the stability window: the attempt counter grows
    // and the restart waits.
    running.crash(op1);
    while running.restarts() < 2 {
        assert!(std::time::Instant::now() < deadline, "no second supervised restart");
        std::thread::sleep(Duration::from_millis(1));
    }

    for i in 10..20 {
        running.source(src).push(Value::Int(i));
    }
    assert!(
        running.sink(sink).wait_final(20, Duration::from_secs(30)),
        "stalled at {}/20 after supervised recovery",
        running.sink(sink).final_count()
    );
    let after = payloads(&running.sink(sink).final_events_by_id());
    assert_eq!(&after[..before.len()], &before[..], "pre-crash outputs changed");

    let timelines = running.recovery_timelines();
    assert!(timelines.len() >= 2);
    assert_eq!((timelines[0].worker, timelines[0].incarnation), (op1.index(), 1));
    let restarts = restart_records(&running, op1.index());
    assert_eq!(restarts[0], (1, Duration::ZERO), "a first crash restarts at once");
    assert_eq!(restarts[1].0, 2, "rapid re-crash should escalate the attempt counter");
    assert!(restarts[1].1 > restarts[0].1, "backoff should grow across rapid crashes");
    running.shutdown();
}

/// A [`RandomTagger`] that panics the first time it sees input `at`: a
/// bug in the operator, on the coordinator thread.
struct PanicsOnce {
    at: Option<i64>,
}

static PANICKED: AtomicBool = AtomicBool::new(false);

impl Operator for PanicsOnce {
    fn process(&self, ctx: &mut OpCtx<'_, '_>, event: &Event) -> Result<(), StmAbort> {
        let input = event.payload.field(0).and_then(Value::as_i64);
        if input.is_some() && input == self.at && !PANICKED.swap(true, Ordering::SeqCst) {
            panic!("operator bug on input {input:?}");
        }
        RandomTagger.process(ctx, event)
    }
}

/// A coordinator that panics is a crash like any other: its thread exits,
/// the supervisor restarts it, and recovery replays the input it died on.
#[test]
fn supervisor_restarts_a_panicking_coordinator() {
    let build = |at| {
        let mut b = GraphBuilder::new();
        let cfg =
            || OperatorConfig::logged(LoggingConfig::simulated(FAST_LOG)).with_checkpoint_every(7);
        let op0 = b.add_operator(RandomTagger, cfg());
        let op1 = b.add_operator(PanicsOnce { at }, cfg());
        let op2 = b.add_operator(RandomTagger, cfg());
        b.connect(op0, op1).unwrap();
        b.connect(op1, op2).unwrap();
        let src = b.source_into(op0).unwrap();
        let sink = b.sink_from(op2).unwrap();
        (b.build().unwrap().start(), src, sink)
    };
    let run = |running: &Running, src, sink| {
        for i in 0..STEPS {
            running.source(src).push(Value::Int(i as i64));
        }
        assert!(
            running.sink(sink).wait_final(STEPS as usize, Duration::from_secs(30)),
            "stalled at {}/{STEPS}\n{}",
            running.sink(sink).final_count(),
            running.journal_dump()
        );
        payloads(&running.sink(sink).final_events_by_id())
    };
    let (reference, src, sink) = build(None);
    let expected = run(&reference, src, sink);
    reference.shutdown();

    let (running, src, sink) = build(Some(11));
    running.supervise();
    assert_eq!(run(&running, src, sink), expected);
    assert!(PANICKED.load(Ordering::SeqCst), "the operator never panicked");
    let journal = &running.obs().journal;
    let panics = journal.count_matching(|e| {
        matches!(e.kind, JournalKind::Warn { code: "coordinator-panic", .. }) && e.op == Some(1)
    });
    let restarts = journal.count_matching(|e| matches!(e.kind, JournalKind::Restart { .. }));
    assert_eq!((panics, restarts), (1, 1), "{}", running.journal_dump());
    assert_eq!(running.recovery_timelines().len(), 1);
    running.shutdown();
}

/// A torn decision-log tail (partial write at crash time) must not panic
/// recovery: the corrupt record is dropped, its determinants are re-created
/// by re-execution, and outputs stay precise.
#[test]
fn torn_log_tail_recovers_without_panic() {
    // No checkpoints: a quiescent checkpoint would truncate the log and
    // leave no tail record to corrupt.
    let mut b = GraphBuilder::new();
    let cfg = || OperatorConfig::logged(LoggingConfig::simulated(FAST_LOG));
    let op0 = b.add_operator(RandomTagger, cfg());
    let op1 = b.add_operator(RandomTagger, cfg());
    let op2 = b.add_operator(RandomTagger, cfg());
    b.connect(op0, op1).unwrap();
    b.connect(op1, op2).unwrap();
    let src = b.source_into(op0).unwrap();
    let sink = b.sink_from(op2).unwrap();
    let running = b.build().unwrap().start();
    let op2 = OperatorId::new(2);
    for i in 0..12 {
        running.source(src).push(Value::Int(i));
    }
    assert!(running.sink(sink).wait_final(12, Duration::from_secs(20)));
    let before = payloads(&running.sink(sink).final_events_by_id());

    running.crash(op2);
    let log = running.operator_log(op2).expect("op2 is logged");
    assert!(log.corrupt_tail(), "log has a tail record to corrupt");
    running.recover(op2);

    for i in 12..18 {
        running.source(src).push(Value::Int(i));
    }
    assert!(
        running.sink(sink).wait_final(18, Duration::from_secs(30)),
        "stalled at {}/18 after torn-tail recovery",
        running.sink(sink).final_count()
    );
    assert!(log.corrupt_dropped() > 0, "the corrupted record should have been detected");
    let after = payloads(&running.sink(sink).final_events_by_id());
    assert_eq!(&after[..before.len()], &before[..], "torn tail broke precise recovery");
    running.shutdown();
}

/// An upstream crash must not park duplicate copies of re-executed outputs
/// on the link: a checkpointless upstream replays its whole input stream on
/// recovery, and before resend suppression those re-sent outputs landed at
/// fresh link sequences — invisible while the downstream was alive, but
/// re-processed as *new* events (duplicated outputs) once a later
/// downstream crash replayed them from its pre-duplicate checkpoint.
#[test]
fn upstream_replay_does_not_duplicate_outputs_after_downstream_crash() {
    let build = || {
        let mut b = GraphBuilder::new();
        // op0 never checkpoints: its recovery replays from the beginning,
        // maximizing the re-sent window. op1 checkpoints, so its own
        // recovery replays from a position *before* any duplicates.
        let op0 = b
            .add_operator(RandomTagger, OperatorConfig::logged(LoggingConfig::simulated(FAST_LOG)));
        let op1 = b.add_operator(
            RandomTagger,
            OperatorConfig::logged(LoggingConfig::simulated(FAST_LOG)).with_checkpoint_every(7),
        );
        b.connect(op0, op1).unwrap();
        let src = b.source_into(op0).unwrap();
        let sink = b.sink_from(op1).unwrap();
        (b.build().unwrap().start(), src, sink)
    };

    let (reference, src, sink) = build();
    for i in 0..24 {
        reference.source(src).push(Value::Int(i));
    }
    assert!(reference.sink(sink).wait_final(24, Duration::from_secs(20)));
    let expected = payloads(&reference.sink(sink).final_events_by_id());
    reference.shutdown();

    let (running, src, sink) = build();
    let (op0, op1) = (OperatorId::new(0), OperatorId::new(1));
    for i in 0..8 {
        running.source(src).push(Value::Int(i));
    }
    assert!(running.sink(sink).wait_final(8, Duration::from_secs(20)));
    // op0 replays all 8 inputs and re-emits their outputs.
    running.crash(op0);
    running.recover(op0);
    for i in 8..12 {
        running.source(src).push(Value::Int(i));
    }
    assert!(running.sink(sink).wait_final(12, Duration::from_secs(20)));
    // op1's latest checkpoint covers 7 events — any duplicate copies op0
    // parked on the link sit inside the replayed range.
    running.crash(op1);
    running.recover(op1);
    for i in 12..24 {
        running.source(src).push(Value::Int(i));
    }
    assert!(
        running.sink(sink).wait_final(24, Duration::from_secs(30)),
        "stalled at {}/24",
        running.sink(sink).final_count()
    );
    // Let any late duplicates land before counting.
    std::thread::sleep(Duration::from_millis(50));
    let out = payloads(&running.sink(sink).final_events_by_id());
    assert_eq!(out.len(), expected.len(), "duplicated outputs after downstream crash");
    assert_eq!(out, expected);
    running.shutdown();
}

/// Tracing at sample-rate 1 must not perturb precise recovery — and must
/// itself *be* precise. Comparing `(id, payload, trace)` between a traced
/// failure-free run and traced faulted runs proves trace ids, span parents,
/// and sampling decisions are all reproduced bit-exactly by recovery.
/// (Timestamps are wall-clock and excluded, as in the untraced grid.)
#[test]
fn traced_chaos_grid_reproduces_trace_contexts_exactly() {
    use streammine::obs::{validate_chrome_trace, Obs};
    let traced_pipeline = || {
        let mut b = GraphBuilder::new().with_obs(Obs::traced(1));
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
    };

    let traced_outputs = |events: Vec<Event>| {
        assert!(events.iter().all(|e| e.trace.is_some()), "rate-1 sampling must stamp every event");
        events.into_iter().map(|e| (e.id, e.payload, e.trace)).collect::<Vec<_>>()
    };
    let reference = {
        let (running, src, sink) = traced_pipeline();
        for i in 0..STEPS {
            running.source(src).push(Value::Int(i as i64));
        }
        assert!(running.sink(sink).wait_final(STEPS as usize, Duration::from_secs(20)));
        let out = traced_outputs(running.sink(sink).final_events_by_id());
        running.shutdown();
        out
    };

    for seed in 0..4 {
        let (running, src, sink) = traced_pipeline();
        running.supervise();
        let topo = running.topology();
        let mut sched = FaultScheduler::new(FaultPlan::random(seed, STEPS, &topo));
        for step in 0..STEPS {
            sched.advance(step, &running);
            running.source(src).push(Value::Int(step as i64));
            std::thread::sleep(Duration::from_millis(2));
        }
        sched.finish(&running);
        assert!(
            running.sink(sink).wait_final(STEPS as usize, Duration::from_secs(60)),
            "seed {seed}: stalled at {}/{STEPS} under plan {}",
            running.sink(sink).final_count(),
            sched.plan()
        );
        let out = traced_outputs(running.sink(sink).final_events_by_id());
        assert_eq!(out.len(), reference.len(), "seed {seed}: traced output count diverged");
        for (i, (o, r)) in out.iter().zip(reference.iter()).enumerate() {
            assert_eq!(o, r, "seed {seed}: traced output {i} diverged (trace context included)");
        }
        // The tracer's books must stay internally consistent under faults,
        // and the chrome export must remain loadable.
        streammine::chaos::verify_rollback_traces(&running.obs().tracer)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(!running.obs().tracer.spans().is_empty(), "seed {seed}: no spans retained");
        validate_chrome_trace(&running.chrome_trace())
            .unwrap_or_else(|e| panic!("seed {seed}: chrome trace invalid: {e}"));
        running.shutdown();
    }
}

/// Rollback attribution under chaos: a traced speculative pipeline takes a
/// scripted disk stall while a speculative input is revised mid-flight.
/// Every rolled-back output must carry a trace naming the originating
/// determinant and the full set of spans the cascade invalidated.
#[test]
fn traced_rollback_under_chaos_names_determinant_and_blast_radius() {
    use streammine::chaos::{FaultEvent, FaultKind};
    use streammine::obs::Obs;
    let mut b = GraphBuilder::new().with_obs(Obs::traced(1));
    let cfg = || OperatorConfig::speculative(LoggingConfig::simulated(FAST_LOG));
    let op0 = b.add_operator(RandomTagger, cfg());
    let op1 = b.add_operator(RandomTagger, cfg());
    b.connect(op0, op1).unwrap();
    let src = b.source_into(op0).unwrap();
    let sink = b.sink_from(op1).unwrap();
    let running = b.build().unwrap().start();

    let mut sched = FaultScheduler::new(FaultPlan::scripted(vec![FaultEvent {
        step: 1,
        kind: FaultKind::DiskStall { op: 1, millis: 5 },
    }]));
    sched.advance(0, &running);
    let id = running.source(src).push_speculative(Value::Int(1));
    // Wait until the speculative version has propagated to the sink so the
    // revision genuinely rolls back in-flight work at both hops.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while running.sink(sink).seen_count() == 0 {
        assert!(std::time::Instant::now() < deadline, "speculative emission never arrived");
        std::thread::yield_now();
    }
    sched.advance(1, &running);
    running.source(src).revise(id, 1, Value::Int(2));
    running.source(src).finalize(id, 1);
    sched.finish(&running);
    assert!(running.sink(sink).wait_final(1, Duration::from_secs(20)));

    let tracer = &running.obs().tracer;
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while tracer.rollbacks().is_empty() && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    let rollbacks = tracer.rollbacks();
    assert!(!rollbacks.is_empty(), "the revision must roll back at least one span");
    streammine::chaos::verify_rollback_traces(tracer)
        .unwrap_or_else(|e| panic!("{e}\n{}", running.journal_dump()));
    for rb in &rollbacks {
        assert_ne!(rb.determinant, 0, "rollback must name its originating determinant");
        assert!(!rb.invalidated.is_empty(), "rollback must list its invalidated spans");
    }
    // The cascade is queryable as blast radius per determinant.
    let blast = tracer.blast_radius();
    assert!(
        blast.values().any(|spans| !spans.is_empty()),
        "blast radius must attribute invalidated spans to a determinant"
    );
    running.shutdown();
}

/// Scripted plans drive the same injection surface: a sever/heal window on
/// the middle edge plus a disk stall must only delay, never corrupt.
#[test]
fn scripted_sever_and_stall_only_delay_outputs() {
    use streammine::chaos::{FaultEvent, FaultKind};
    let reference = failure_free_reference();
    let (running, src, sink) = pipeline();
    let plan = FaultPlan::scripted(vec![
        FaultEvent { step: 4, kind: FaultKind::SeverData { edge: 1 } },
        FaultEvent { step: 6, kind: FaultKind::DiskStall { op: 0, millis: 5 } },
        FaultEvent { step: 10, kind: FaultKind::HealData { edge: 1 } },
        FaultEvent { step: 12, kind: FaultKind::DelayAcks { edge: 0 } },
        FaultEvent { step: 20, kind: FaultKind::RestoreAcks { edge: 0 } },
    ]);
    assert!(plan.windows_closed());
    let mut sched = FaultScheduler::new(plan);
    for step in 0..STEPS {
        sched.advance(step, &running);
        running.source(src).push(Value::Int(step as i64));
        std::thread::sleep(Duration::from_millis(1));
    }
    sched.finish(&running);
    assert!(sched.exhausted());
    assert!(
        running.sink(sink).wait_final(STEPS as usize, Duration::from_secs(60)),
        "stalled at {}/{STEPS}",
        running.sink(sink).final_count()
    );
    let out = payloads(&running.sink(sink).final_events_by_id());
    assert_eq!(out, reference);
    running.shutdown();
}

/// A fault plan draws disk faults among the operators with storage: those
/// that log, and those that checkpoint without logging, whose images go to
/// a log of their own. An operator that does neither has no device to
/// fault. The set decides every pinned plan's draws, so it must not move.
#[test]
fn storage_faults_target_the_operators_that_log_or_checkpoint() {
    let mut b = GraphBuilder::new();
    let logged =
        b.add_operator(RandomTagger, OperatorConfig::logged(LoggingConfig::simulated(FAST_LOG)));
    let imaging = b.add_operator(RandomTagger, OperatorConfig::plain());
    let bare = b.add_operator(
        RandomTagger,
        OperatorConfig { checkpoint_every: None, ..OperatorConfig::plain() },
    );
    b.connect(logged, imaging).unwrap();
    b.connect(imaging, bare).unwrap();
    b.source_into(logged).unwrap();
    b.sink_from(bare).unwrap();
    let running = b.build().unwrap().start();
    assert_eq!(running.topology().storage_ops, vec![logged.index(), imaging.index()]);
    running.shutdown();
}
