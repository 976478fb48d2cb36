//! Count-sketch operator — the paper's reference *expensive, stateful,
//! optimistically parallelizable* operator (§4, Figures 4, 6, 7).
//!
//! Every counter is its own state cell, so an update touches exactly
//! `depth` cells chosen by runtime hashing: events hitting different
//! counters can be processed in parallel without conflicts, which static
//! analysis cannot prove but optimistic execution exploits.

use std::sync::OnceLock;
use std::time::Duration;

use streammine_common::event::{Event, Value};
use streammine_common::rng::DetRng;
use streammine_core::{OpCtx, Operator, SetupCtx, StateHandle};
use streammine_sketch::hashing::PairwiseHash;
use streammine_stm::StmAbort;

use crate::basic::busy_work;

/// The `n` counters of a sketch, resolved once and read without a lock on
/// the per-event path (both STM threads share the operator).
type Cells = OnceLock<Box<[StateHandle<i64>]>>;

/// Registers `n` zeroed counters. Every start of a node runs `setup` on a
/// fresh registry and registers the same cells in the same order, so a
/// restart's handles equal the first start's and `cells` keeps those.
fn register_counters(ctx: &mut SetupCtx<'_>, n: usize, cells: &Cells) {
    let handles = (0..n).map(|_| ctx.state(0i64)).collect();
    let _ = cells.set(handles);
}

/// Count-sketch update + estimate operator: for each input event (keyed by
/// its integer payload or stable hash), updates the sketch and emits
/// `Record[key, estimate]`.
pub struct SketchOp {
    width: usize,
    depth: usize,
    bucket_hashes: Vec<PairwiseHash>,
    sign_hashes: Vec<PairwiseHash>,
    cost: Duration,
    stamped: bool,
    cells: Cells,
}

impl SketchOp {
    /// Creates a sketch operator with `width × depth` counters and a fixed
    /// per-event processing cost (simulating the expensive analysis the
    /// paper attaches to sketch operators).
    ///
    /// # Panics
    ///
    /// Panics if `width` or `depth` is zero.
    pub fn new(width: usize, depth: usize, seed: u64, cost: Duration) -> Self {
        assert!(width > 0 && depth > 0, "width and depth must be positive");
        let mut rng = DetRng::seed_from(seed);
        let bucket_hashes = (0..depth).map(|_| PairwiseHash::sample(&mut rng)).collect();
        let sign_hashes = (0..depth).map(|_| PairwiseHash::sample(&mut rng)).collect();
        SketchOp {
            width,
            depth,
            bucket_hashes,
            sign_hashes,
            cost,
            stamped: false,
            cells: OnceLock::new(),
        }
    }

    /// Makes the operator draw one logged random decision per event, like
    /// the paper's Figure 6(b)/7 configuration where "both components do
    /// logging".
    #[must_use]
    pub fn stamped(mut self) -> Self {
        self.stamped = true;
        self
    }

    fn key_of(event: &Event) -> u64 {
        event.payload.as_i64().map(|v| v as u64).unwrap_or_else(|| event.payload.stable_hash())
    }
}

impl Operator for SketchOp {
    fn name(&self) -> &str {
        "count-sketch"
    }

    fn setup(&self, ctx: &mut SetupCtx<'_>) {
        register_counters(ctx, self.width * self.depth, &self.cells);
    }

    fn process(&self, ctx: &mut OpCtx<'_, '_>, event: &Event) -> Result<(), StmAbort> {
        if self.stamped {
            let _decision = ctx.random_u64();
        }
        busy_work(self.cost);
        let key = Self::key_of(event);
        let cells = self.cells.get().expect("setup ran");
        let mut samples = Vec::with_capacity(self.depth);
        for (r, (bh, sh)) in self.bucket_hashes.iter().zip(&self.sign_hashes).enumerate() {
            let b = bh.bucket(key, self.width);
            let s = sh.sign(key);
            let cell = cells[r * self.width + b];
            ctx.update(cell, |v| v + s)?;
            samples.push(s * *ctx.get(cell)?);
        }
        samples.sort_unstable();
        let est = samples[samples.len() / 2];
        ctx.emit(Value::record(vec![Value::Int(key as i64), Value::Int(est)]));
        Ok(())
    }
}

/// Count-min update + estimate operator — the approximate-recovery
/// reference workload.
///
/// Each input event (keyed by its integer payload or stable hash)
/// increments one non-negative counter per row and emits
/// `Record[key, estimate]` with the count-min estimate (the row
/// minimum). Counters only ever grow, so dropping `L` updates — the
/// loss a stale-snapshot resume charges to its error budget — lowers
/// any later estimate by at most `L` and never raises one. That
/// monotone-deficit invariant is exactly what the divergence-bounded
/// chaos grid verifies against the declared `ε·N` allowance.
pub struct CountMinOp {
    width: usize,
    depth: usize,
    hashes: Vec<PairwiseHash>,
    cost: Duration,
    stamped: bool,
    cells: Cells,
}

impl CountMinOp {
    /// Creates a count-min operator with `width × depth` counters and a
    /// fixed per-event processing cost.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `depth` is zero.
    pub fn new(width: usize, depth: usize, seed: u64, cost: Duration) -> Self {
        assert!(width > 0 && depth > 0, "width and depth must be positive");
        let mut rng = DetRng::seed_from(seed);
        let hashes = (0..depth).map(|_| PairwiseHash::sample(&mut rng)).collect();
        CountMinOp { width, depth, hashes, cost, stamped: false, cells: OnceLock::new() }
    }

    /// Makes the operator draw one logged random decision per event, so
    /// precise mode pays the determinant-log wait that approximate mode
    /// trades away for the error budget.
    #[must_use]
    pub fn stamped(mut self) -> Self {
        self.stamped = true;
        self
    }

    fn key_of(event: &Event) -> u64 {
        event.payload.as_i64().map(|v| v as u64).unwrap_or_else(|| event.payload.stable_hash())
    }
}

impl Operator for CountMinOp {
    fn name(&self) -> &str {
        "count-min"
    }

    fn setup(&self, ctx: &mut SetupCtx<'_>) {
        register_counters(ctx, self.width * self.depth, &self.cells);
    }

    fn process(&self, ctx: &mut OpCtx<'_, '_>, event: &Event) -> Result<(), StmAbort> {
        if self.stamped {
            let _decision = ctx.random_u64();
        }
        busy_work(self.cost);
        let key = Self::key_of(event);
        let cells = self.cells.get().expect("setup ran");
        let mut est = i64::MAX;
        for (r, h) in self.hashes.iter().enumerate() {
            let cell = cells[r * self.width + h.bucket(key, self.width)];
            ctx.update(cell, |v| v + 1)?;
            est = est.min(*ctx.get(cell)?);
        }
        ctx.emit(Value::record(vec![Value::Int(key as i64), Value::Int(est)]));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streammine_core::{GraphBuilder, OperatorConfig};

    #[test]
    fn estimates_track_counts_for_single_key() {
        let mut b = GraphBuilder::new();
        let s = b.add_operator(SketchOp::new(64, 3, 7, Duration::ZERO), OperatorConfig::plain());
        let src = b.source_into(s).unwrap();
        let sink = b.sink_from(s).unwrap();
        let running = b.build().unwrap().start();
        for _ in 0..5 {
            running.source(src).push(Value::Int(42));
        }
        assert!(running.sink(sink).wait_final(5, Duration::from_secs(5)));
        let estimates: Vec<i64> = running
            .sink(sink)
            .final_events()
            .iter()
            .filter_map(|e| e.payload.field(1).and_then(Value::as_i64))
            .collect();
        assert_eq!(estimates, vec![1, 2, 3, 4, 5], "single key has no collisions to distort");
        running.shutdown();
    }

    #[test]
    fn parallel_speculative_sketch_matches_sequential() {
        let run = |config: OperatorConfig| -> i64 {
            let mut b = GraphBuilder::new();
            let s = b.add_operator(SketchOp::new(128, 3, 9, Duration::ZERO), config);
            let src = b.source_into(s).unwrap();
            let sink = b.sink_from(s).unwrap();
            let running = b.build().unwrap().start();
            for i in 0..40 {
                running.source(src).push(Value::Int(i % 10));
            }
            assert!(running.sink(sink).wait_final(40, Duration::from_secs(10)));
            // Sum of final estimates is a stable summary of the final state.
            let sum = running
                .sink(sink)
                .final_events_by_id()
                .iter()
                .filter_map(|e| e.payload.field(1).and_then(Value::as_i64))
                .sum();
            running.shutdown();
            sum
        };
        let sequential = run(OperatorConfig::plain());
        let parallel = run(OperatorConfig::speculative_unlogged().with_threads(4));
        assert_eq!(sequential, parallel);
    }

    #[test]
    #[should_panic(expected = "width and depth must be positive")]
    fn zero_dims_panic() {
        let _ = SketchOp::new(0, 3, 1, Duration::ZERO);
    }

    #[test]
    fn countmin_estimates_are_exact_without_collisions() {
        let mut b = GraphBuilder::new();
        let s =
            b.add_operator(CountMinOp::new(256, 4, 11, Duration::ZERO), OperatorConfig::plain());
        let src = b.source_into(s).unwrap();
        let sink = b.sink_from(s).unwrap();
        let running = b.build().unwrap().start();
        for _ in 0..6 {
            running.source(src).push(Value::Int(5));
        }
        assert!(running.sink(sink).wait_final(6, Duration::from_secs(5)));
        let estimates: Vec<i64> = running
            .sink(sink)
            .final_events()
            .iter()
            .filter_map(|e| e.payload.field(1).and_then(Value::as_i64))
            .collect();
        assert_eq!(estimates, vec![1, 2, 3, 4, 5, 6]);
        running.shutdown();
    }

    #[test]
    fn countmin_never_underestimates() {
        let mut b = GraphBuilder::new();
        // A deliberately tiny sketch forces collisions: estimates may
        // exceed the true count but must never fall below it.
        let s = b.add_operator(CountMinOp::new(4, 2, 3, Duration::ZERO), OperatorConfig::plain());
        let src = b.source_into(s).unwrap();
        let sink = b.sink_from(s).unwrap();
        let running = b.build().unwrap().start();
        let n = 60;
        for i in 0..n {
            running.source(src).push(Value::Int(i % 9));
        }
        assert!(running.sink(sink).wait_final(n as usize, Duration::from_secs(5)));
        let mut true_counts = std::collections::HashMap::new();
        for e in running.sink(sink).final_events_by_id() {
            let key = e.payload.field(0).and_then(Value::as_i64).unwrap();
            let est = e.payload.field(1).and_then(Value::as_i64).unwrap();
            let seen = true_counts.entry(key).or_insert(0i64);
            *seen += 1;
            assert!(est >= *seen, "key {key}: estimate {est} below true count {seen}");
        }
        running.shutdown();
    }
}
