//! Stateless operators: map, enrich, union, split, stamped relay.

use std::sync::Mutex as StdMutex;
use std::time::{Duration, Instant};

use streammine_common::event::{Event, Value};
use streammine_core::{OpCtx, Operator};
use streammine_stm::StmAbort;

/// Burns CPU for approximately `d` — simulates real per-event processing
/// cost (the paper's "costly operations", §4). Spin-based so it occupies a
/// worker thread the way real computation would, unlike `sleep`.
pub fn busy_work(d: Duration) {
    if d.is_zero() {
        return;
    }
    let end = Instant::now() + d;
    while Instant::now() < end {
        std::hint::spin_loop();
    }
}

type Transform = dyn Fn(&Value) -> Value + Send + Sync;

/// Stateless deterministic transformation.
pub struct Map {
    f: Box<Transform>,
}

impl Map {
    /// Creates a map from a payload transformation.
    pub fn new(f: impl Fn(&Value) -> Value + Send + Sync + 'static) -> Self {
        Map { f: Box::new(f) }
    }
}

impl Operator for Map {
    fn name(&self) -> &str {
        "map"
    }

    fn process(&self, ctx: &mut OpCtx<'_, '_>, event: &Event) -> Result<(), StmAbort> {
        ctx.emit((self.f)(&event.payload));
        Ok(())
    }
}

/// Enrichment (§2.1 step 3): adds offline information to each event,
/// modeling the external lookup with a fixed CPU cost. Stateless and
/// order-insensitive, so it "can be parallelized by simply replicating the
/// component" — or speculatively, which is what we benchmark.
pub struct Enrich {
    cost: Duration,
    f: Box<Transform>,
}

impl Enrich {
    /// Creates an enricher with a per-event lookup cost.
    pub fn new(cost: Duration, f: impl Fn(&Value) -> Value + Send + Sync + 'static) -> Self {
        Enrich { cost, f: Box::new(f) }
    }
}

impl Operator for Enrich {
    fn name(&self) -> &str {
        "enrich"
    }

    fn process(&self, ctx: &mut OpCtx<'_, '_>, event: &Event) -> Result<(), StmAbort> {
        busy_work(self.cost);
        ctx.emit((self.f)(&event.payload));
        Ok(())
    }
}

/// Union (§1): merges all input streams into one. The operator itself just
/// forwards; the *order* in which the engine interleaved the inputs is the
/// non-deterministic decision, and the engine logs it (`InputChoice`)
/// whenever the operator has more than one input.
#[derive(Debug, Default)]
pub struct Union;

impl Union {
    /// Creates a union operator.
    pub fn new() -> Self {
        Union
    }
}

impl Operator for Union {
    fn name(&self) -> &str {
        "union"
    }

    fn process(&self, ctx: &mut OpCtx<'_, '_>, event: &Event) -> Result<(), StmAbort> {
        ctx.emit(event.payload.clone());
        Ok(())
    }
}

/// Split (§2.1 step 4, §2.2): balances load by routing each event to one
/// downstream output, chosen at random. The random choice is a logged
/// determinant, making the routing replayable — exactly the paper's
/// stateless-but-non-deterministic example.
#[derive(Debug)]
pub struct Split {
    outputs: u32,
}

impl Split {
    /// Creates a splitter over `outputs` downstream connections.
    ///
    /// # Panics
    ///
    /// Panics if `outputs == 0`.
    pub fn new(outputs: u32) -> Self {
        assert!(outputs > 0, "split needs at least one output");
        Split { outputs }
    }
}

impl Operator for Split {
    fn name(&self) -> &str {
        "split"
    }

    fn process(&self, ctx: &mut OpCtx<'_, '_>, event: &Event) -> Result<(), StmAbort> {
        let target = ctx.random_below(u64::from(self.outputs)) as u32;
        ctx.emit_to(target, event.payload.clone());
        Ok(())
    }
}

/// The per-hop workload of Figures 2 and 3: consumes one event, draws one
/// 64-bit non-deterministic decision (which the engine must force to
/// stable storage), optionally burns some processing cost, and forwards
/// the event. Chains of these are the paper's "N components that need to
/// log their decisions".
pub struct StampedRelay {
    cost: Duration,
    /// Keeps the last drawn stamp for tests.
    last_stamp: StdMutex<u64>,
}

impl StampedRelay {
    /// Creates a relay with zero processing cost.
    pub fn new() -> Self {
        Self::with_cost(Duration::ZERO)
    }

    /// Creates a relay with the given per-event CPU cost.
    pub fn with_cost(cost: Duration) -> Self {
        StampedRelay { cost, last_stamp: StdMutex::new(0) }
    }
}

impl Default for StampedRelay {
    fn default() -> Self {
        Self::new()
    }
}

impl Operator for StampedRelay {
    fn name(&self) -> &str {
        "stamped-relay"
    }

    fn process(&self, ctx: &mut OpCtx<'_, '_>, event: &Event) -> Result<(), StmAbort> {
        // One 64-bit decision per event, as in §2.4's experiment.
        let stamp = ctx.random_u64();
        *self.last_stamp.lock().expect("poisoned") = stamp;
        busy_work(self.cost);
        ctx.emit(event.payload.clone());
        Ok(())
    }
}

/// Non-deterministic relay emitting `[input, random-tag]`: like
/// [`StampedRelay`] but the drawn decision is *visible in the output*, so
/// chains of these make sink bytes depend on every hop's RNG stream.
/// Byte-identical recovery then requires bit-exact determinant replay and
/// RNG continuity across every crash — the chaos suites' workhorse.
#[derive(Debug, Default, Clone, Copy)]
pub struct RandomTagger;

impl RandomTagger {
    /// The registry name used by distributed worker binaries.
    pub const NAME: &'static str = "random-tagger";
}

impl Operator for RandomTagger {
    fn name(&self) -> &str {
        Self::NAME
    }

    fn process(&self, ctx: &mut OpCtx<'_, '_>, event: &Event) -> Result<(), StmAbort> {
        let tag = ctx.random_u64();
        ctx.emit(Value::record(vec![event.payload.clone(), Value::Int(tag as i64)]));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use streammine_core::{GraphBuilder, OperatorConfig};

    fn run_simple(op: impl Operator, inputs: Vec<Value>) -> Vec<Value> {
        let mut b = GraphBuilder::new();
        let id = b.add_operator(op, OperatorConfig::plain());
        let src = b.source_into(id).unwrap();
        let sink = b.sink_from(id).unwrap();
        let running = b.build().unwrap().start();
        let n = inputs.len();
        for v in inputs {
            running.source(src).push(v);
        }
        assert!(running.sink(sink).wait_final(n, Duration::from_secs(5)));
        let out = running.sink(sink).final_events().into_iter().map(|e| e.payload).collect();
        running.shutdown();
        out
    }

    #[test]
    fn map_transforms() {
        let out = run_simple(
            Map::new(|v| Value::Int(v.as_i64().unwrap_or(0) * 10)),
            vec![Value::Int(1), Value::Int(2)],
        );
        assert_eq!(out, vec![Value::Int(10), Value::Int(20)]);
    }

    #[test]
    fn enrich_adds_information() {
        let out = run_simple(
            Enrich::new(Duration::from_micros(50), |v| {
                Value::record(vec![v.clone(), Value::Str("enriched".into())])
            }),
            vec![Value::Int(5)],
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].field(1).and_then(Value::as_str), Some("enriched"));
    }

    #[test]
    fn union_merges_two_streams() {
        let mut b = GraphBuilder::new();
        let u = b.add_operator(Union::new(), OperatorConfig::plain());
        let s1 = b.source_into(u).unwrap();
        let s2 = b.source_into(u).unwrap();
        let sink = b.sink_from(u).unwrap();
        let running = b.build().unwrap().start();
        running.source(s1).push(Value::Int(1));
        running.source(s2).push(Value::Int(2));
        assert!(running.sink(sink).wait_final(2, Duration::from_secs(5)));
        let mut out: Vec<i64> =
            running.sink(sink).final_events().iter().filter_map(|e| e.payload.as_i64()).collect();
        out.sort_unstable();
        assert_eq!(out, vec![1, 2]);
        running.shutdown();
    }

    #[test]
    fn split_routes_each_event_to_exactly_one_output() {
        let mut b = GraphBuilder::new();
        let s = b.add_operator(Split::new(2), OperatorConfig::plain());
        let src = b.source_into(s).unwrap();
        let sink_a = b.sink_from(s).unwrap();
        let sink_b = b.sink_from(s).unwrap();
        let running = b.build().unwrap().start();
        let n = 60;
        for i in 0..n {
            running.source(src).push(Value::Int(i));
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let total = running.sink(sink_a).final_count() + running.sink(sink_b).final_count();
            if total as i64 >= n {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "timed out: {total}/{n}");
            std::thread::yield_now();
        }
        let a = running.sink(sink_a).final_count() as i64;
        let b_count = running.sink(sink_b).final_count() as i64;
        assert_eq!(a + b_count, n);
        assert!(a > 0 && b_count > 0, "random routing should hit both ({a}/{b_count})");
        running.shutdown();
    }

    #[test]
    fn stamped_relay_forwards_and_draws() {
        let out = run_simple(StampedRelay::new(), vec![Value::Int(9)]);
        assert_eq!(out, vec![Value::Int(9)]);
    }

    #[test]
    fn busy_work_takes_roughly_requested_time() {
        let start = Instant::now();
        busy_work(Duration::from_millis(2));
        assert!(start.elapsed() >= Duration::from_millis(2));
    }

    #[test]
    #[should_panic(expected = "at least one output")]
    fn zero_output_split_panics() {
        let _ = Split::new(0);
    }
}
