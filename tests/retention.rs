//! Retention under load: a single-threaded speculative node checkpoints its
//! committed prefix while later transactions stay open, so a chain that is
//! never settled still acks its upstreams and what its edges retain stays
//! bounded by the checkpoint interval. A crash with transactions open
//! restores that prefix and recovers precisely.

use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use streammine::common::event::{Event, Value};
use streammine::common::ids::OperatorId;
use streammine::core::{
    GraphBuilder, LoggingConfig, OpCtx, Operator, OperatorConfig, Running, SinkId, SourceId,
};
use streammine::obs::{
    Journal, JournalKind, Labels, Obs, Registry, SampleValue, Tracer, Verbosity,
};
use streammine::operators::StampedRelay;
use streammine::stm::StmAbort;

const FAST_LOG: Duration = Duration::from_micros(200);
const SLOW_LOG: Duration = Duration::from_millis(5);
/// Past a `FAST_LOG` write, well short of a `SLOW_LOG` one.
const STABLE_NOT_FINAL: Duration = Duration::from_millis(2);
/// Events in flight in the closed loop, as in the benchmark's `chain4_sat`.
const IN_FLIGHT: usize = 32;
const PATIENCE: Duration = Duration::from_secs(30);

/// An operator whose output embeds a random draw: outputs match across a
/// crash only if every draw is reproduced.
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

fn speculative(log: Duration) -> OperatorConfig {
    OperatorConfig::speculative(LoggingConfig::simulated(log))
}

/// src → `hops` operators, the i-th added by `add(i, ..)` → sink.
fn chain(
    hops: usize,
    obs: Obs,
    add: impl Fn(usize, &mut GraphBuilder) -> OperatorId,
) -> (Running, SourceId, SinkId) {
    let mut b = GraphBuilder::new().with_obs(obs);
    let ops: Vec<OperatorId> = (0..hops).map(|i| add(i, &mut b)).collect();
    for pair in ops.windows(2) {
        b.connect(pair[0], pair[1]).unwrap();
    }
    let src = b.source_into(ops[0]).unwrap();
    let sink = b.sink_from(ops[hops - 1]).unwrap();
    (b.build().unwrap().start(), src, sink)
}

/// Pushes events `range` with at most [`IN_FLIGHT`] not final at the sink.
fn closed_loop(running: &Running, src: SourceId, sink: SinkId, range: std::ops::Range<usize>) {
    for pushed in range {
        if pushed >= IN_FLIGHT {
            assert!(
                running.sink(sink).wait_final(pushed + 1 - IN_FLIGHT, PATIENCE),
                "no slot came free after {pushed} pushed, {} final",
                running.sink(sink).final_count(),
            );
        }
        running.source(src).push(Value::Int(pushed as i64));
    }
}

fn payloads(events: &[Event]) -> Vec<Value> {
    events.iter().map(|e| e.payload.clone()).collect()
}

/// Four speculative relays under a closed loop of 32 are never settled.
/// Each still saves images — with transactions open at the save — and each
/// save acks its upstream, so no edge retains more than a few intervals of
/// frames over 5 000 events.
#[test]
fn a_loaded_speculative_chain_checkpoints_with_transactions_open() {
    const EVENTS: usize = 5_000;
    const HOPS: usize = 4;
    const RETAINED_BOUND: i64 = 512;
    // Every admission and commit is journaled, in a ring that keeps them
    // all, so the number of open transactions at each save can be read
    // back in journal order (the saves' own pinned region keeps the last
    // 256).
    let obs = Obs {
        registry: Arc::new(Registry::new()),
        journal: Arc::new(Journal::with_level(1 << 20, Verbosity::Trace)),
        tracer: Arc::new(Tracer::new()),
    };
    let relay =
        |_, b: &mut GraphBuilder| b.add_operator(StampedRelay::new(), speculative(FAST_LOG));
    let (running, src, sink) = chain(HOPS, obs.clone(), relay);
    let retained_max = AtomicI64::new(0);
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::Acquire) {
                let snap = running.metrics();
                let retained = snap.samples.iter().filter(|s| s.name == "edge.retained");
                let now = retained.filter_map(|s| match s.value {
                    SampleValue::Gauge(v) => Some(v),
                    _ => None,
                });
                retained_max.fetch_max(now.max().unwrap_or(0), Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        closed_loop(&running, src, sink, 0..EVENTS);
        assert!(running.sink(sink).wait_final(EVENTS, PATIENCE), "the loop did not drain");
        done.store(true, Ordering::Release);
    });
    let expected: Vec<Value> = (0..EVENTS).map(|i| Value::Int(i as i64)).collect();
    assert_eq!(payloads(&running.sink(sink).final_events_by_id()), expected);

    let mut journal = obs.journal.events();
    journal.sort_by_key(|e| e.seq);
    let mut open = [0i64; HOPS];
    let mut saved_open = [0usize; HOPS];
    for e in &journal {
        let Some(op) = e.op.map(|op| op as usize) else { continue };
        match e.kind {
            JournalKind::Ingest { .. } => open[op] += 1,
            JournalKind::Commit { .. } => open[op] -= 1,
            JournalKind::CheckpointSaved { .. } if open[op] > 0 => saved_open[op] += 1,
            _ => {}
        }
    }
    for (op, saves) in saved_open.iter().enumerate() {
        assert!(*saves > 0, "op{op} never saved an image with transactions open: {saved_open:?}");
    }
    let retained = retained_max.load(Ordering::Relaxed);
    assert!(retained <= RETAINED_BOUND, "an edge retained {retained} frames");
    running.shutdown();
}

/// Three speculative random taggers under the closed loop; the middle one
/// crashes with transactions open, at a seeded point past its last image.
/// It restores the committed prefix — below the serial it had reached —
/// reads the open transactions' decisions back from the log, and the sink's
/// finals are those of the fault-free run, byte for byte, on 16 seeds.
#[test]
fn a_crash_with_transactions_open_restores_the_committed_prefix_precisely() {
    const EVENTS: usize = 600;
    const SEEDS: usize = 16;
    // The middle tagger's slower log keeps what it admitted open for a
    // while, so a crash soon after an admission finds transactions open.
    let tagger = |i, b: &mut GraphBuilder| {
        let log = if i == 1 { SLOW_LOG } else { FAST_LOG };
        b.add_operator(RandomTagger, speculative(log))
    };
    let middle = OperatorId::new(1);
    let admitted = |running: &Running| {
        let labels = Labels::op_port(middle.index(), 0);
        running.metrics().counter("events.in", labels).unwrap_or(0)
    };
    let reference = {
        let (running, src, sink) = chain(3, Obs::new(), tagger);
        closed_loop(&running, src, sink, 0..EVENTS);
        assert!(running.sink(sink).wait_final(EVENTS, PATIENCE));
        let out = payloads(&running.sink(sink).final_events());
        running.shutdown();
        out
    };
    for seed in 0..SEEDS {
        let crash_at = 150 + (seed * 97) % 400;
        let (running, src, sink) = chain(3, Obs::new(), tagger);
        closed_loop(&running, src, sink, 0..crash_at);
        let covered = || running.operator_image(middle).map_or(0, |image| image.events_processed);
        let deadline = std::time::Instant::now() + PATIENCE;
        while admitted(&running) <= covered() {
            assert!(std::time::Instant::now() < deadline, "seed {seed}: nothing admitted");
            std::thread::yield_now();
        }
        running.crash(middle);
        let serial = admitted(&running);
        let image = running.operator_image(middle).expect("an image precedes the crash");
        assert!(
            image.events_processed < serial,
            "seed {seed}: the image covers {} of {serial} serials",
            image.events_processed
        );
        running.recover(middle);
        closed_loop(&running, src, sink, crash_at..EVENTS);
        assert!(
            running.sink(sink).wait_final(EVENTS, PATIENCE),
            "seed {seed}: stuck at {}/{EVENTS} final\n{}",
            running.sink(sink).final_count(),
            running.journal_dump()
        );
        let out = payloads(&running.sink(sink).final_events());
        assert_eq!(out, reference, "seed {seed}: crash at {crash_at} changed the output");
        running.shutdown();
    }
}

/// Tags every event with a physical-time read, which only the log can
/// reproduce.
struct TimeTagger;

impl Operator for TimeTagger {
    fn name(&self) -> &str {
        "time-tagger"
    }
    fn process(&self, ctx: &mut OpCtx<'_, '_>, event: &Event) -> Result<(), StmAbort> {
        let now = ctx.now_micros();
        ctx.emit(Value::record(vec![event.payload.clone(), Value::Int(now as i64)]));
        Ok(())
    }
}

/// Two crashes of a time tagger whose upstream's slower log keeps its
/// inputs speculative. The first leaves transactions open whose time reads
/// are stable; the next incarnation reads them back (and appends nothing
/// for them), takes an image while it replays, and commits on past it; the
/// second crash comes as soon as that image is saved. Every output final at
/// the sink before the second crash keeps the time it was read with, which
/// only the records the image left in the log still know. The crash point
/// varies with the round.
#[test]
fn an_image_taken_while_replaying_keeps_the_records_read_back() {
    const EVENTS: usize = 700;
    let add = |i, b: &mut GraphBuilder| match i {
        0 => b.add_operator(StampedRelay::new(), speculative(SLOW_LOG)),
        // An interval below the transactions it holds open, so that an image
        // taken while it replays leaves some it read back to replay.
        _ => b.add_operator(TimeTagger, speculative(FAST_LOG).with_checkpoint_every(16)),
    };
    let tagger = OperatorId::new(1);
    for round in 0..6 {
        let (running, src, sink) = chain(2, Obs::new(), add);
        let saved = || running.operator_image(tagger).map_or(0, |image| image.id);
        let crash_at = 300 + 23 * round;
        closed_loop(&running, src, sink, 0..crash_at);
        // Long enough for the last pushed events' time reads to be stable,
        // not for the upstream to finalize them: they crash open.
        std::thread::sleep(STABLE_NOT_FINAL);
        running.crash(tagger);
        let first_life = saved();
        running.recover(tagger);
        // Pushed on one at a time until the second incarnation saves; it
        // commits on past that image until the crash.
        let mut pushed = crash_at;
        while saved() == first_life {
            closed_loop(&running, src, sink, pushed..pushed + 1);
            pushed += 1;
        }
        let before = running.sink(sink).final_events_by_id();
        running.crash(tagger);
        running.recover(tagger);
        closed_loop(&running, src, sink, pushed..EVENTS);
        assert!(
            running.sink(sink).wait_final(EVENTS, PATIENCE),
            "round {round}: stuck at {}/{EVENTS} final",
            running.sink(sink).final_count()
        );
        let after = running.sink(sink).final_events_by_id();
        assert_eq!(after.len(), EVENTS);
        for pre in &before {
            let post = after.iter().find(|e| e.id == pre.id).expect("a final output vanished");
            assert_eq!(post.payload, pre.payload, "round {round}: {} took another time", pre.id);
        }
        running.shutdown();
    }
}
