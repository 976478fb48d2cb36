//! Retention under load: a node in process checkpoints its committed
//! prefix while later transactions stay open — speculative or not, on one
//! STM thread or on several — so a chain that is never settled still acks
//! its upstreams, and what its edges retain stays bounded by the checkpoint
//! interval. A crash with transactions open restores that prefix and
//! recovers precisely, on one thread and on two.

use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use streammine::common::event::{Event, Value};
use streammine::common::ids::OperatorId;
use streammine::core::config::CHECKPOINT_EVERY;
use streammine::core::{
    GraphBuilder, LoggingConfig, OpCtx, Operator, OperatorConfig, Running, SetupCtx, SinkId,
    SourceId, StateHandle,
};
use streammine::obs::{
    Journal, JournalKind, Labels, Obs, Registry, SampleValue, Tracer, Verbosity,
};
use streammine::operators::{SketchOp, StampedRelay, Union};
use streammine::stm::StmAbort;

const FAST_LOG: Duration = Duration::from_micros(200);
const SLOW_LOG: Duration = Duration::from_millis(5);
/// The log of the non-speculative inputs: the benchmark's device.
const NONSPEC_LOG: Duration = Duration::from_millis(2);
/// Events a second of the open loop into non-speculative relays: four per
/// [`NONSPEC_LOG`] write, so a relay always has events waiting for it.
const NONSPEC_RATE: f64 = 2_000.0;
/// Past a `FAST_LOG` write, well short of a `SLOW_LOG` one.
const STABLE_NOT_FINAL: Duration = Duration::from_millis(2);
/// Events in flight in the closed loop, as in the benchmark's `chain4_sat`.
const IN_FLIGHT: usize = 32;
const PATIENCE: Duration = Duration::from_secs(30);
/// Events the loaded tests push, and the frames any edge may retain then.
const LOADED_EVENTS: usize = 5_000;
const RETAINED_BOUND: i64 = 512;

/// The slow device of the node that acks a dead upstream's ring.
const STALLED_LOG: Duration = Duration::from_millis(20);

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

/// A relay that takes one logged decision per event and forwards the
/// event unchanged: a non-speculative one sends each output only once
/// that decision is stable.
struct DrawingRelay;

impl Operator for DrawingRelay {
    fn name(&self) -> &str {
        "drawing-relay"
    }
    fn process(&self, ctx: &mut OpCtx<'_, '_>, event: &Event) -> Result<(), StmAbort> {
        ctx.random_u64();
        ctx.emit(event.payload.clone());
        Ok(())
    }
}

fn speculative(log: Duration) -> OperatorConfig {
    OperatorConfig::speculative(LoggingConfig::simulated(log))
}

/// A non-speculative operator that logs its decisions on [`NONSPEC_LOG`].
fn nonspec() -> OperatorConfig {
    OperatorConfig::logged(LoggingConfig::simulated(NONSPEC_LOG))
}

/// Adds the i-th operator of a [`chain`].
type AddOp<'a> = &'a dyn Fn(usize, &mut GraphBuilder) -> OperatorId;

/// Pushes a run's events into a chain's source.
type Drive<'a> = &'a dyn Fn(&Running, SourceId, SinkId);

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

/// Pushes events `range` at `rate` events a second, whatever the sink
/// took in.
fn open_loop(running: &Running, src: SourceId, range: std::ops::Range<usize>, rate: f64) {
    let start = Instant::now();
    for (k, pushed) in range.enumerate() {
        let due = start + Duration::from_secs_f64(k as f64 / rate);
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        running.source(src).push(Value::Int(pushed as i64));
    }
}

fn payloads(events: &[Event]) -> Vec<Value> {
    events.iter().map(|e| e.payload.clone()).collect()
}

/// A count-sketch narrow enough that neighbouring events share counters,
/// with a per-event cost that keeps two threads' transactions overlapping.
fn sketch() -> SketchOp {
    SketchOp::new(32, 3, 7, Duration::from_micros(20)).stamped()
}

/// src → union → [`sketch`] on two STM threads → sink: the paper's fig 6/7
/// application. A second, idle source makes the union's merge a logged
/// decision.
fn union_sketch(obs: Obs, sketch_log: Duration) -> (Running, SourceId, SinkId) {
    let mut b = GraphBuilder::new().with_obs(obs);
    let union = b.add_operator(Union::new(), speculative(FAST_LOG));
    let sketch = b.add_operator(sketch(), speculative(sketch_log).with_threads(2));
    b.connect(union, sketch).unwrap();
    let src = b.source_into(union).unwrap();
    let _idle = b.source_into(union).unwrap();
    let sink = b.sink_from(sketch).unwrap();
    (b.build().unwrap().start(), src, sink)
}

/// What a sequential count-sketch emits for the inputs `0..events`: one
/// plain node taking one event at a time.
fn sequential_sketch(events: usize) -> Vec<Value> {
    let (running, src, sink) =
        chain(1, Obs::new(), |_, b| b.add_operator(sketch(), OperatorConfig::plain()));
    for i in 0..events {
        running.source(src).push(Value::Int(i as i64));
    }
    assert!(running.sink(sink).wait_final(events, PATIENCE));
    let out = payloads(&running.sink(sink).final_events_by_id());
    running.shutdown();
    out
}

/// A journal that keeps every admission and commit, so the transactions
/// open at each save can be counted in journal order (the saves' own
/// pinned region keeps the last 256).
fn journaled() -> Obs {
    Obs {
        registry: Arc::new(Registry::new()),
        journal: Arc::new(Journal::with_level(1 << 20, Verbosity::Trace)),
        tracer: Arc::new(Tracer::new()),
    }
}

/// Per operator below `ops`: how many of its images were saved with
/// transactions open.
fn saves_with_transactions_open(obs: &Obs, ops: usize) -> Vec<usize> {
    let mut journal = obs.journal.events();
    journal.sort_by_key(|e| e.seq);
    let mut open = vec![0i64; ops];
    let mut saved_open = vec![0usize; ops];
    for e in &journal {
        let Some(op) = e.op.map(|op| op as usize).filter(|op| *op < ops) else { continue };
        match e.kind {
            JournalKind::Ingest { .. } => open[op] += 1,
            JournalKind::Commit { .. } => open[op] -= 1,
            JournalKind::CheckpointSaved { .. } if open[op] > 0 => saved_open[op] += 1,
            _ => {}
        }
    }
    saved_open
}

/// Runs `work` while reading every `edge.retained` gauge each 2 ms, and
/// returns the highest reading.
fn retained_max_during(running: &Running, work: impl FnOnce()) -> i64 {
    /// Stops the reader however `work` ends.
    struct Done<'a>(&'a AtomicBool);
    impl Drop for Done<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Release);
        }
    }
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
        let _done = Done(&done);
        work();
    });
    retained_max.into_inner()
}

/// Four relays under load are never settled: speculative ones under a
/// closed loop of 32 keep transactions open, and non-speculative ones —
/// each event takes a 2 ms log write — fed by an open loop of four events
/// per write always have events waiting for their log. Each relay still
/// saves images with transactions open — a non-speculative one at least
/// every other interval — and each save acks its upstream, so no edge
/// retains more than a few intervals of frames over 5 000 events.
#[test]
fn a_loaded_speculative_chain_checkpoints_with_transactions_open() {
    const HOPS: usize = 4;
    let speculative_relays =
        |_, b: &mut GraphBuilder| b.add_operator(StampedRelay::new(), speculative(FAST_LOG));
    let nonspec_relays = |_, b: &mut GraphBuilder| b.add_operator(DrawingRelay, nonspec());
    let closed: Drive = &|running, src, sink| closed_loop(running, src, sink, 0..LOADED_EVENTS);
    let open: Drive = &|running, src, _| open_loop(running, src, 0..LOADED_EVENTS, NONSPEC_RATE);
    let every_other_interval = LOADED_EVENTS / CHECKPOINT_EVERY as usize / 2;
    let inputs: [(&str, AddOp, Drive, usize); 2] = [
        ("speculative", &speculative_relays, closed, 1),
        ("non-speculative", &nonspec_relays, open, every_other_interval),
    ];
    for (name, relay, drive, min_saves) in inputs {
        let obs = journaled();
        let (running, src, sink) = chain(HOPS, obs.clone(), relay);
        let retained = retained_max_during(&running, || {
            drive(&running, src, sink);
            assert!(
                running.sink(sink).wait_final(LOADED_EVENTS, PATIENCE),
                "{name}: the loop did not drain"
            );
        });
        let expected: Vec<Value> = (0..LOADED_EVENTS).map(|i| Value::Int(i as i64)).collect();
        assert_eq!(payloads(&running.sink(sink).final_events_by_id()), expected, "{name}");
        let saved_open = saves_with_transactions_open(&obs, HOPS);
        eprintln!(
            "{name}: images saved with transactions open {saved_open:?}, retained {retained}"
        );
        for (op, saves) in saved_open.iter().enumerate() {
            assert!(
                *saves >= min_saves,
                "{name}: op{op} saved {saves} images with transactions open, not {min_saves}: \
                 {saved_open:?}"
            );
        }
        assert!(retained <= RETAINED_BOUND, "{name}: an edge retained {retained} frames");
        running.shutdown();
    }
}

/// The paper's fig 6/7 application under the closed loop: a union feeding
/// a count-sketch on two STM threads, whose transactions race on shared
/// counters and commit in serial order. The sketch is never settled, yet
/// it saves images with transactions open, so the union's ring to it stays
/// bounded over 5 000 events, and its outputs are a sequential sketch's.
#[test]
fn a_loaded_two_thread_sketch_checkpoints_with_transactions_open() {
    let obs = journaled();
    let (running, src, sink) = union_sketch(obs.clone(), FAST_LOG);
    let retained = retained_max_during(&running, || {
        closed_loop(&running, src, sink, 0..LOADED_EVENTS);
        assert!(running.sink(sink).wait_final(LOADED_EVENTS, PATIENCE), "the loop did not drain");
    });
    assert!(
        payloads(&running.sink(sink).final_events_by_id()) == sequential_sketch(LOADED_EVENTS),
        "the two-thread sketch's outputs are not a sequential sketch's"
    );
    let saved_open = saves_with_transactions_open(&obs, 2);
    assert!(saved_open[1] > 0, "the sketch never saved an image with transactions open");
    assert!(retained <= RETAINED_BOUND, "an edge retained {retained} frames");
    running.shutdown();
}

/// Relays each event after spinning for a cost that varies with it, so
/// two STM threads finish — and send — their events out of id order.
struct UnevenRelay;

impl Operator for UnevenRelay {
    fn name(&self) -> &str {
        "uneven-relay"
    }
    fn process(&self, ctx: &mut OpCtx<'_, '_>, event: &Event) -> Result<(), StmAbort> {
        let n = event.payload.as_i64().unwrap_or(0) as u64;
        let cost = Duration::from_micros(n * 7 % 40);
        let start = Instant::now();
        while start.elapsed() < cost {
            std::hint::spin_loop();
        }
        ctx.emit(event.payload.clone());
        Ok(())
    }
}

/// A speculative relay fed by a two-thread relay under the closed loop
/// reads ids out of order, so a cut can find an open id below a covered
/// one and be refused. It is tried again as the next serials commit, not
/// a whole interval later: the relay saves about one image per interval
/// of its 5 000 events, and the ring into it stays bounded.
#[test]
fn a_speculative_node_fed_out_of_id_order_checkpoints_under_load() {
    let obs = journaled();
    let add = |hop, b: &mut GraphBuilder| match hop {
        0 => b.add_operator(UnevenRelay, speculative(FAST_LOG).with_threads(2)),
        _ => b.add_operator(StampedRelay::new(), speculative(FAST_LOG)),
    };
    let (running, src, sink) = chain(2, obs.clone(), add);
    let retained = retained_max_during(&running, || {
        closed_loop(&running, src, sink, 0..LOADED_EVENTS);
        assert!(running.sink(sink).wait_final(LOADED_EVENTS, PATIENCE), "the loop did not drain");
    });
    // The second relay forwards in the order it read.
    let mut got: Vec<i64> = (running.sink(sink).final_events_by_id().iter())
        .map(|e| e.payload.as_i64().expect("an int"))
        .collect();
    got.sort_unstable();
    assert_eq!(got, (0..LOADED_EVENTS as i64).collect::<Vec<_>>());
    let saved = |op: u32| {
        obs.journal.count_matching(|e| {
            e.op == Some(op) && matches!(e.kind, JournalKind::CheckpointSaved { .. })
        })
    };
    let (upstream, relay) = (saved(0), saved(1));
    eprintln!("images saved: the two-thread relay {upstream}, the relay it feeds {relay}");
    assert!(
        (upstream as u64 + 1) * CHECKPOINT_EVERY > LOADED_EVENTS as u64,
        "the two-thread relay, fed in id order, saved only {upstream} images"
    );
    assert!(relay + 2 >= upstream, "the relay saved {relay} images, its upstream {upstream}");
    assert!(retained <= RETAINED_BOUND, "an edge retained {retained} frames");
    running.shutdown();
}

/// Crashes `op` once it has admitted past its newest image. `Err` when
/// the crash came too late to find a transaction open — the image covers
/// every serial it admitted — or there is no image.
fn crash_past_its_image(running: &Running, op: OperatorId) -> Result<(), String> {
    let admitted = || {
        let labels = Labels::op_port(op.index(), 0);
        running.metrics().counter("events.in", labels).unwrap_or(0)
    };
    let covered = || running.operator_image(op).map_or(0, |image| image.events_processed);
    let deadline = std::time::Instant::now() + PATIENCE;
    while admitted() <= covered() {
        assert!(std::time::Instant::now() < deadline, "nothing admitted");
        std::thread::yield_now();
    }
    running.crash(op);
    let serial = admitted();
    let Some(image) = running.operator_image(op) else {
        return Err(format!("no image precedes the crash at {serial} serials"));
    };
    if image.events_processed < serial {
        Ok(())
    } else {
        Err(format!("the image covers {} of {serial} serials", image.events_processed))
    }
}

/// Crashes `op` with transactions open, `pushed` events into the closed
/// loop of `events`: its image covers fewer serials than it admitted. A
/// crash that lands after everything admitted was committed and imaged —
/// a loaded machine can get there first — is recovered from, and the
/// crash is tried again a few events on, a bounded number of times.
/// Returns the events pushed by the crash that held; `op` is down then.
fn crash_with_transactions_open(
    running: &Running,
    (src, sink): (SourceId, SinkId),
    op: OperatorId,
    mut pushed: usize,
    events: usize,
) -> Result<usize, String> {
    const ATTEMPTS: usize = 8;
    const STEP: usize = 8;
    for attempt in 1.. {
        match crash_past_its_image(running, op) {
            Ok(()) => return Ok(pushed),
            Err(miss) if attempt == ATTEMPTS || pushed == events => {
                return Err(format!("{miss} on crash {attempt} of at most {ATTEMPTS}"));
            }
            Err(_) => {
                running.recover(op);
                let next = (pushed + STEP).min(events);
                closed_loop(running, src, sink, pushed..next);
                pushed = next;
            }
        }
    }
    unreachable!("the loop returns by its last attempt")
}

/// Three random taggers under the closed loop; the middle one crashes with
/// transactions open, at a seeded point past its last image. It restores
/// the committed prefix — below the serial it had reached — reads the open
/// transactions' decisions back from the log, and the sink's finals are
/// those of the fault-free run, byte for byte, on 16 seeds. Speculative
/// taggers, whose transactions are open while their inputs are, and
/// non-speculative ones on 2 ms logs, whose events wait for their log.
#[test]
fn a_crash_with_transactions_open_restores_the_committed_prefix_precisely() {
    const EVENTS: usize = 600;
    const SEEDS: usize = 16;
    // The middle speculative tagger's slower log keeps what it admitted
    // open for a while, so a crash soon after an admission finds
    // transactions open.
    let speculative_taggers = |i, b: &mut GraphBuilder| {
        let log = if i == 1 { SLOW_LOG } else { FAST_LOG };
        b.add_operator(RandomTagger, speculative(log))
    };
    let nonspec_taggers = |_, b: &mut GraphBuilder| b.add_operator(RandomTagger, nonspec());
    let inputs: [(&str, AddOp); 2] =
        [("speculative", &speculative_taggers), ("non-speculative", &nonspec_taggers)];
    let middle = OperatorId::new(1);
    for (name, tagger) in inputs {
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
            let pushed =
                crash_with_transactions_open(&running, (src, sink), middle, crash_at, EVENTS)
                    .unwrap_or_else(|miss| panic!("{name}, seed {seed}: {miss}"));
            running.recover(middle);
            closed_loop(&running, src, sink, pushed..EVENTS);
            assert!(
                running.sink(sink).wait_final(EVENTS, PATIENCE),
                "{name}, seed {seed}: stuck at {}/{EVENTS} final\n{}",
                running.sink(sink).final_count(),
                running.journal_dump()
            );
            let out = payloads(&running.sink(sink).final_events());
            assert_eq!(
                out, reference,
                "{name}, seed {seed}: crash at {crash_at} changed the output"
            );
            running.shutdown();
        }
    }
}

/// The two-thread sketch of [`union_sketch`] crashes with transactions
/// open, at a seeded point past its last image. It restores the committed
/// prefix, reads back what the open transactions' stable tapes hold, and
/// the sink's finals are a sequential sketch's, byte for byte, on 16 seeds.
#[test]
fn a_two_thread_sketch_crashed_with_transactions_open_recovers_precisely() {
    const EVENTS: usize = 600;
    const SEEDS: usize = 16;
    let sketch = OperatorId::new(1);
    let reference = sequential_sketch(EVENTS);
    for seed in 0..SEEDS {
        let crash_at = 150 + (seed * 97) % 400;
        // The sketch's slower log keeps what it admitted open for a while.
        let (running, src, sink) = union_sketch(Obs::new(), SLOW_LOG);
        closed_loop(&running, src, sink, 0..crash_at);
        let pushed = crash_with_transactions_open(&running, (src, sink), sketch, crash_at, EVENTS)
            .unwrap_or_else(|miss| panic!("seed {seed}: {miss}"));
        running.recover(sketch);
        closed_loop(&running, src, sink, pushed..EVENTS);
        assert!(
            running.sink(sink).wait_final(EVENTS, PATIENCE),
            "seed {seed}: stuck at {}/{EVENTS} final\n{}",
            running.sink(sink).final_count(),
            running.journal_dump()
        );
        let out = payloads(&running.sink(sink).final_events_by_id());
        assert_eq!(out, reference, "seed {seed}: crash at {crash_at} changed the output");
        running.shutdown();
    }
}

/// Counts the events it sees in one state cell every transaction reads and
/// writes: on two STM threads neighbouring transactions conflict, and all
/// commit in serial order. A ballast cell registered ahead of the count,
/// and never written, makes every snapshot take a while before it reads
/// the count, so that a commit can land inside one.
#[derive(Default)]
struct Counter {
    count: OnceLock<StateHandle<i64>>,
}

const BALLAST_BYTES: usize = 1 << 15;

impl Operator for Counter {
    fn name(&self) -> &str {
        "counter"
    }
    fn setup(&self, ctx: &mut SetupCtx<'_>) {
        let _ballast = ctx.state(vec![0u8; BALLAST_BYTES]);
        let _ = self.count.set(ctx.state(0i64));
    }
    fn process(&self, ctx: &mut OpCtx<'_, '_>, event: &Event) -> Result<(), StmAbort> {
        let count = *self.count.get().expect("setup ran");
        let seen = *ctx.get(count)?;
        ctx.set(count, seen + 1)?;
        ctx.emit(Value::record(vec![event.payload.clone(), Value::Int(seen + 1)]));
        Ok(())
    }
}

/// A two-thread counter images its committed prefix at every commit while
/// its pool threads commit on, and is crashed and recovered 20 times with
/// transactions open. An image whose snapshot took in the commit of a
/// serial it leaves open would count that event twice after the crash:
/// every count stays exact.
#[test]
fn a_two_thread_counter_imaging_every_commit_counts_exactly_across_crashes() {
    const ROUNDS: usize = 20;
    const PER_ROUND: usize = 50;
    let config = speculative(FAST_LOG).with_threads(2).with_checkpoint_every(1);
    let add = |_, b: &mut GraphBuilder| b.add_operator(Counter::default(), config.clone());
    let counter = OperatorId::new(0);
    let (running, src, sink) = chain(1, Obs::new(), add);
    for round in 0..ROUNDS {
        closed_loop(&running, src, sink, round * PER_ROUND..(round + 1) * PER_ROUND);
        running.crash(counter);
        running.recover(counter);
    }
    let events = ROUNDS * PER_ROUND;
    assert!(
        running.sink(sink).wait_final(events, PATIENCE),
        "stuck at {}/{events} final\n{}",
        running.sink(sink).final_count(),
        running.journal_dump()
    );
    let counted = |i: usize| Value::record(vec![Value::Int(i as i64), Value::Int(i as i64 + 1)]);
    let expected: Vec<Value> = (0..events).map(counted).collect();
    assert_eq!(payloads(&running.sink(sink).final_events_by_id()), expected);
    running.shutdown();
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

/// A reader acks the ring it reads, so it needs nothing of the ring's
/// producer: op0 (plain) feeds op1 (non-speculative, its decisions on a
/// slow device, an image every 4 events), op0 crashes once its burst is in
/// their ring, and nobody restarts it. op1 drains the ring and images it,
/// and the ring keeps only what op1's last stable image does not cover.
#[test]
fn a_dead_upstreams_ring_is_trimmed_by_its_reader() {
    const BURST: usize = 40;
    let mut b = GraphBuilder::new();
    let op0 = b.add_operator(DrawingRelay, OperatorConfig::plain());
    let logged = OperatorConfig::logged(LoggingConfig::simulated(STALLED_LOG));
    let op1 = b.add_operator(DrawingRelay, logged.with_checkpoint_every(4));
    b.connect(op0, op1).unwrap();
    let src = b.source_into(op0).unwrap();
    let sink = b.sink_from(op1).unwrap();
    let running = b.build().unwrap().start();
    for i in 0..BURST {
        running.source(src).push(Value::Int(i as i64));
    }
    // op1 admits each event as it reads it, and its first log write is
    // not over yet: the burst is in the ring, and no image is.
    let registry = &running.obs().registry;
    let read = || registry.counter_value("events.in", Labels::op_port(1, 0)).unwrap_or(0);
    let deadline = Instant::now() + PATIENCE;
    while read() < BURST as u64 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(read(), BURST as u64, "op1 did not read the burst");
    running.crash(op0);
    assert!(running.sink(sink).wait_final(BURST, PATIENCE), "op1 did not drain the ring");
    let edge = Labels::op_port(0, 0);
    let trimmed = || {
        let position = running.operator_image(op1).map_or(0, |image| image.inputs[0].position);
        let sent = registry.counter_value("edge.sent", edge).unwrap_or(0);
        let retained = registry.gauge_value("edge.retained", edge).unwrap_or(-1);
        (position, sent, retained)
    };
    let deadline = Instant::now() + PATIENCE;
    let imaged_and_acked = |(position, sent, retained): (u64, u64, i64)| {
        running.operator_image(op1).is_some_and(|image| image.events_processed == BURST as u64)
            && retained == (sent - position) as i64
    };
    while !imaged_and_acked(trimmed()) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let (position, sent, retained) = trimmed();
    assert_eq!(
        running.operator_image(op1).map(|image| image.events_processed),
        Some(BURST as u64),
        "op1's last image does not cover the burst"
    );
    assert_eq!(
        retained,
        (sent - position) as i64,
        "the ring of {sent} frames is not trimmed to op1's image at {position}"
    );
    assert_eq!(running.edge_acked(0), position, "the ring's watermark is op1's image");
    running.shutdown();
}
