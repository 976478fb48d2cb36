//! Top-k under chaos: a two-operator pipeline (stamped relay → count
//! sketch) is driven through a *seeded random fault schedule* — node
//! crashes, link severs, delayed acks, disk faults and stalls — and its
//! outputs are verified byte-identical to a failure-free run. Each crashed
//! node's thread exits, and the supervisor restarts it on that exit and
//! records the restart as a recovery timeline, printed as JSON. The fault
//! timeline is reproducible: re-run with the same seed and the exact same
//! faults fire at the exact same steps.
//!
//! Run with: `cargo run --example chaos_topk` (optionally `SEED=n`)

use std::time::Duration;

use streammine::chaos::{ChaosTarget, FaultPlan, FaultScheduler};
use streammine::common::event::Value;
use streammine::common::rng::DetRng;
use streammine::core::{GraphBuilder, LoggingConfig, OperatorConfig, Running, SinkId, SourceId};
use streammine::obs::timelines_json;
use streammine::operators::{SketchOp, StampedRelay};

const EVENTS: u64 = 120;

fn topk_graph() -> (Running, SourceId, SinkId) {
    let mut b = GraphBuilder::new();
    let relay = b.add_operator(
        StampedRelay::new(),
        OperatorConfig::logged(LoggingConfig::simulated(Duration::from_micros(300))),
    );
    let sketch = b.add_operator(
        SketchOp::new(256, 5, 7, Duration::from_micros(50)).stamped(),
        OperatorConfig::logged(LoggingConfig::simulated(Duration::from_micros(300)))
            .with_checkpoint_every(25),
    );
    b.connect(relay, sketch).expect("connect");
    let src = b.source_into(relay).expect("source");
    let sink = b.sink_from(sketch).expect("sink");
    (b.build().expect("valid graph").start(), src, sink)
}

fn drive(running: &Running, src: SourceId, mut inject: impl FnMut(u64, &Running)) {
    // The same zipf-ish key stream both runs see.
    let mut rng = DetRng::seed_from(99);
    for step in 0..EVENTS {
        inject(step, running);
        running.source(src).push(Value::Int(rng.next_zipf(50, 1.2) as i64));
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn main() {
    let seed: u64 = std::env::var("SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(42);

    // ---- Reference: the failure-free run ------------------------------
    let (reference, src, sink) = topk_graph();
    drive(&reference, src, |_, _| {});
    assert!(reference.sink(sink).wait_final(EVENTS as usize, Duration::from_secs(30)));
    let expected = reference.sink(sink).final_events_by_id();
    reference.shutdown();
    println!("reference run: {} outputs", expected.len());

    // ---- Chaos run: same workload under a random fault schedule -------
    let (running, src, sink) = topk_graph();
    // A crashed coordinator thread reports its exit; the supervisor
    // restarts it after a 4 ms backoff that doubles per rapid re-crash.
    let supervisor = running.supervise();
    let topo = running.topology();
    let plan = FaultPlan::random(seed, EVENTS, &topo);
    println!("fault {plan}");
    let mut sched = FaultScheduler::new(plan);
    drive(&running, src, |step, target| {
        sched.advance(step, target);
    });
    sched.finish(&running);

    assert!(
        running.sink(sink).wait_final(EVENTS as usize, Duration::from_secs(60)),
        "stalled at {}/{EVENTS}",
        running.sink(sink).final_count()
    );
    let got = running.sink(sink).final_events_by_id();

    println!("supervised recovery timelines ({} restarts):", supervisor.restarts());
    println!("  {}", timelines_json(&supervisor.recovery_timelines()));

    // ---- Equivalence: chaos must be invisible in the outputs ----------
    assert_eq!(got.len(), expected.len());
    let mut checked = 0;
    for (a, b) in got.iter().zip(&expected) {
        assert_eq!(a.id, b.id, "output ids diverged under chaos");
        assert_eq!(a.payload, b.payload, "output {} diverged under chaos", a.id);
        checked += 1;
    }
    println!("precise recovery verified: {checked}/{EVENTS} outputs byte-identical");

    // Show the heaviest estimates seen at the end.
    let mut best = std::collections::BTreeMap::new();
    for e in &got {
        if let (Some(k), Some(est)) =
            (e.payload.field(0).and_then(Value::as_i64), e.payload.field(1).and_then(Value::as_i64))
        {
            let slot = best.entry(k).or_insert(est);
            *slot = (*slot).max(est);
        }
    }
    let mut estimates: Vec<(i64, i64)> = best.into_iter().collect();
    estimates.sort_by_key(|&(_, est)| -est);
    println!("top-5 heaviest keys by final sketch estimate:");
    for (k, est) in estimates.iter().take(5) {
        println!("  key {k}: ~{est}");
    }
    running.shutdown();
}
