//! Observability integration tests: the metrics registry, the
//! speculation-lifecycle journal, and the latency-decomposition profile
//! observed end-to-end through a running graph.

use std::time::Duration;

use streammine::common::event::Value;
use streammine::core::{GraphBuilder, LoggingConfig, OperatorConfig, Running, SinkId, SourceId};
use streammine::obs::{validate_prometheus, JournalKind, Labels, Obs};
use streammine::operators::{SketchOp, StampedRelay, Union};

const EVENTS: u64 = 20;

fn pipeline(
    speculative: bool,
    log_latency: Duration,
    obs: Option<Obs>,
) -> (Running, SourceId, SinkId) {
    let mut b = GraphBuilder::new();
    if let Some(obs) = obs {
        b = b.with_obs(obs);
    }
    let cfg = |spec: bool| {
        if spec {
            OperatorConfig::speculative(LoggingConfig::simulated(log_latency))
        } else {
            OperatorConfig::logged(LoggingConfig::simulated(log_latency))
        }
    };
    let a = b.add_operator(StampedRelay::new(), cfg(speculative));
    let z = b.add_operator(StampedRelay::new(), cfg(speculative));
    b.connect(a, z).unwrap();
    let src = b.source_into(a).unwrap();
    let sink = b.sink_from(z).unwrap();
    (b.build().unwrap().start(), src, sink)
}

fn drive(running: &Running, src: SourceId, sink: SinkId) {
    for i in 0..EVENTS {
        running.source(src).push(Value::Int(i as i64));
    }
    assert!(running.sink(sink).wait_final(EVENTS as usize, Duration::from_secs(20)));
    // The sink observes the last Finalize slightly before the committing
    // node's coordinator meters it; give the counters a moment to converge.
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while std::time::Instant::now() < deadline {
        let snap = running.metrics();
        let settled = (0..2u32).all(|op| {
            snap.counter("spec.finalized", Labels::op(op)).unwrap_or(0) >= EVENTS
                || snap.counter("spec.published", Labels::op(op)).unwrap_or(0) == 0
        });
        if settled {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn registry_meters_every_stage_of_a_speculative_pipeline() {
    let (running, src, sink) = pipeline(true, Duration::from_millis(1), None);
    drive(&running, src, sink);
    let snap = running.metrics();
    for op in 0..2u32 {
        assert_eq!(
            snap.counter("events.in", Labels::op_port(op, 0)),
            Some(EVENTS),
            "op{op} ingress count"
        );
        assert!(
            snap.counter("spec.published", Labels::op(op)).unwrap_or(0) >= EVENTS,
            "op{op} published speculative outputs"
        );
        assert_eq!(
            snap.counter("spec.finalized", Labels::op(op)),
            Some(EVENTS),
            "op{op} finalized every txn"
        );
        for h in
            ["stage.queue_wait_us", "stage.process_us", "stage.log_wait_us", "stage.commit_gate_us"]
        {
            let hist = snap.histogram(h, Labels::op(op)).unwrap_or_else(|| panic!("{h} op{op}"));
            assert_eq!(hist.count(), EVENTS, "{h} op{op} sample count");
        }
    }
    // Sink-side decomposition histograms saw every event.
    let sink_final: u64 = snap
        .samples
        .iter()
        .filter(|s| s.name == "sink.final_us")
        .filter_map(|s| snap.histogram("sink.final_us", s.labels))
        .map(|h| h.count())
        .sum();
    assert_eq!(sink_final, EVENTS, "sink.final_us sample count");
    running.shutdown();
}

#[test]
fn prometheus_exposition_is_lint_clean() {
    let (running, src, sink) = pipeline(true, Duration::from_millis(1), None);
    drive(&running, src, sink);
    let prom = running.prometheus();
    let samples = validate_prometheus(&prom).expect("exposition must be well-formed");
    assert!(samples > 20, "expected a substantive exposition, got {samples} samples");
    assert!(prom.contains("# TYPE events_in counter"), "missing counter TYPE line:\n{prom}");
    assert!(
        prom.contains("# TYPE stage_process_us histogram"),
        "missing histogram TYPE line:\n{prom}"
    );
    let json = running.metrics_json();
    assert!(json.contains("\"events.in\""), "JSON export missing metric: {json}");
    running.shutdown();
}

#[test]
fn tracing_journal_captures_speculation_lifecycle() {
    let (running, src, sink) = pipeline(true, Duration::from_millis(1), Some(Obs::tracing()));
    drive(&running, src, sink);
    let journal = &running.obs().journal;
    let count = |pred: &dyn Fn(&JournalKind) -> bool| journal.count_matching(|e| pred(&e.kind));
    assert!(count(&|k| matches!(k, JournalKind::Ingest { .. })) >= EVENTS as usize);
    assert!(count(&|k| matches!(k, JournalKind::SpecPublish { .. })) >= EVENTS as usize);
    assert!(count(&|k| matches!(k, JournalKind::LogStable { .. })) >= EVENTS as usize);
    assert!(count(&|k| matches!(k, JournalKind::Commit { .. })) >= EVENTS as usize);
    let dump = running.journal_dump();
    assert!(dump.contains("spec-publish"), "render should show lifecycle events:\n{dump}");
    running.shutdown();
}

#[test]
fn journal_is_silent_by_default() {
    let (running, src, sink) = pipeline(true, Duration::from_millis(1), None);
    drive(&running, src, sink);
    // Default verbosity keeps the trace ring empty: zero journal overhead
    // on the hot path unless tracing is requested.
    assert!(running.obs().journal.is_empty(), "default journal must stay empty");
    running.shutdown();
}

#[test]
fn concurrent_registration_is_idempotent_and_lint_clean_under_scrape() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use streammine::obs::{json, prometheus_text, Registry};

    const THREADS: u32 = 8;
    const ROUNDS: u64 = 200;
    let registry = Arc::new(Registry::new());
    let done = Arc::new(AtomicBool::new(false));

    // A scraper hammers the exporters while registration races below; every
    // intermediate exposition must already be lint-clean.
    let scraper = {
        let registry = Arc::clone(&registry);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut scrapes = 0u64;
            while !done.load(Ordering::Relaxed) {
                let snap = registry.snapshot();
                validate_prometheus(&prometheus_text(&snap))
                    .unwrap_or_else(|e| panic!("mid-race exposition invalid: {e}"));
                let _ = json(&snap);
                scrapes += 1;
            }
            scrapes
        })
    };

    // Every thread registers the *same* (name, op, port) cells, every round:
    // registration must be idempotent, so all increments land on one cell.
    let workers: Vec<_> = (0..THREADS)
        .map(|_| {
            let registry = Arc::clone(&registry);
            std::thread::spawn(move || {
                for i in 0..ROUNDS {
                    for op in 0..3u32 {
                        registry.counter("race.events", Labels::op_port(op, 0)).incr();
                        registry.histogram("race.latency_us", Labels::op(op)).record(i);
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    done.store(true, Ordering::Relaxed);
    let scrapes = scraper.join().unwrap();
    assert!(scrapes > 0, "scraper never ran");

    let snap = registry.snapshot();
    for op in 0..3u32 {
        assert_eq!(
            snap.counter("race.events", Labels::op_port(op, 0)),
            Some(THREADS as u64 * ROUNDS),
            "op{op}: racing registrations must converge on a single counter cell"
        );
        assert_eq!(
            snap.histogram("race.latency_us", Labels::op(op)).map(|h| h.count()),
            Some(THREADS as u64 * ROUNDS),
            "op{op}: racing registrations must converge on a single histogram cell"
        );
    }
    // No duplicate (name, labels) samples survived the race.
    for (i, a) in snap.samples.iter().enumerate() {
        for b in &snap.samples[i + 1..] {
            assert!(
                !(a.name == b.name && a.labels == b.labels),
                "duplicate sample {}{:?} after concurrent registration",
                a.name,
                a.labels
            );
        }
    }
    validate_prometheus(&prometheus_text(&snap)).expect("final exposition must be lint-clean");
}

#[test]
fn decomposition_shows_spec_arrival_independent_of_log_latency() {
    // With a 40 ms decision log, a speculative relay's first output must
    // reach the sink well before the log is stable; the non-speculative
    // pipeline pays both log writes before anything arrives. Bounds are
    // generous (half / one log latency) to stay robust on slow CI.
    let log = Duration::from_millis(40);
    let log_us = log.as_micros() as u64;
    let first_arrival_p50 = |speculative: bool| -> u64 {
        let (running, src, sink) = pipeline(speculative, log, None);
        drive(&running, src, sink);
        let snap = running.metrics();
        let p50 = snap
            .samples
            .iter()
            .filter(|s| s.name == "sink.first_arrival_us")
            .filter_map(|s| snap.histogram("sink.first_arrival_us", s.labels))
            .find(|h| h.count() > 0)
            .expect("sink.first_arrival_us recorded")
            .quantile(0.5);
        running.shutdown();
        p50
    };
    let spec = first_arrival_p50(true);
    let nonspec = first_arrival_p50(false);
    assert!(
        spec < log_us / 2,
        "speculative first arrival {spec} us should hide the {log_us} us log"
    );
    assert!(
        nonspec >= log_us,
        "non-spec first arrival {nonspec} us should pay the {log_us} us log"
    );
}

#[test]
fn two_thread_sketch_reads_through_the_stm_fastpath() {
    // The Figure 6/7 application: a speculative union feeding a stamped
    // count-sketch on two STM threads, both logging on three 2 ms devices.
    // Reads of cells no writer holds take the lock-free fast path, so the
    // sketch's exported hit count is live.
    let mut b = GraphBuilder::new();
    let log = || LoggingConfig::simulated_n(3, Duration::from_millis(2));
    let union = b.add_operator(Union::new(), OperatorConfig::speculative(log()));
    let sketch = b.add_operator(
        SketchOp::new(256, 3, 17, Duration::from_micros(300)).stamped(),
        OperatorConfig::speculative(log()).with_threads(2),
    );
    b.connect(union, sketch).unwrap();
    let src = b.source_into(union).unwrap();
    // An idle second input makes the union's merge order a logged decision.
    let _idle = b.source_into(union).unwrap();
    let sink = b.sink_from(sketch).unwrap();
    let running = b.build().unwrap().start();
    let events = 200;
    for i in 0..events {
        running.source(src).push(Value::Int(i));
        std::thread::sleep(Duration::from_micros(500));
    }
    assert!(running.sink(sink).wait_final(events as usize, Duration::from_secs(20)));
    // The gauges are refreshed before the node parks; wait for one park.
    let hits = || running.metrics().gauge("stm.fastpath.hits", Labels::op(1)).unwrap_or(0);
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while hits() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(hits() > 0, "the sketch exported no stm.fastpath.hits over {events} events");
    running.shutdown();
}
