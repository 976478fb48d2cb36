//! Property-based recovery: for randomized workloads and crash points,
//! precise recovery reproduces the failure-free outputs exactly, and
//! approximate (stale-snapshot) recovery keeps count-min estimates
//! within the declared `ε·N` allowance — escalating to a precise
//! checkpoint+replay cycle when the error budget refuses the loss.

use std::time::Duration;

use proptest::prelude::*;
use streammine::chaos::verify_bounded_divergence;
use streammine::common::event::{Event, Value};
use streammine::common::ids::OperatorId;
use streammine::core::{GraphBuilder, LoggingConfig, OpCtx, Operator, OperatorConfig};
use streammine::obs::Labels;
use streammine::operators::CountMinOp;
use streammine::sketch::ErrorBound;
use streammine::stm::StmAbort;

/// Stateful + non-deterministic: running sum plus a logged random draw.
#[derive(Default)]
struct SumTagger {
    sum: parking_lot::Mutex<Option<streammine::core::StateHandle<i64>>>,
}

impl Operator for SumTagger {
    fn name(&self) -> &str {
        "sum-tagger"
    }
    fn setup(&self, ctx: &mut streammine::core::SetupCtx<'_>) {
        *self.sum.lock() = Some(ctx.state(0i64));
    }
    fn process(&self, ctx: &mut OpCtx<'_, '_>, event: &Event) -> Result<(), StmAbort> {
        let handle = self.sum.lock().expect("setup ran");
        let v = event.payload.as_i64().unwrap_or(0);
        ctx.update(handle, |s| s + v)?;
        let sum = *ctx.get(handle)?;
        let tag = ctx.random_u64();
        ctx.emit(Value::record(vec![Value::Int(sum), Value::Int(tag as i64)]));
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    #[test]
    fn precise_recovery_for_random_crash_points(
        values in proptest::collection::vec(-50i64..50, 8..30),
        crash_frac in 0.2f64..0.9,
        checkpoint in prop_oneof![Just(None), Just(Some(4u64)), Just(Some(7u64))],
    ) {
        let mut b = GraphBuilder::new();
        // `None`: no checkpoint, recovery replays from the start.
        let cfg = OperatorConfig {
            checkpoint_every: checkpoint,
            ..OperatorConfig::logged(LoggingConfig::simulated(Duration::from_micros(200)))
        };
        let op = b.add_operator(SumTagger::default(), cfg);
        let src = b.source_into(op).unwrap();
        let sink = b.sink_from(op).unwrap();
        let running = b.build().unwrap().start();
        let opid = OperatorId::new(0);

        let crash_at = ((values.len() as f64) * crash_frac) as usize;
        for v in &values[..crash_at] {
            running.source(src).push(Value::Int(*v));
        }
        prop_assert!(running.sink(sink).wait_final(crash_at, Duration::from_secs(15)));
        let before = running.sink(sink).final_events_by_id();

        running.crash(opid);
        running.recover(opid);
        for v in &values[crash_at..] {
            running.source(src).push(Value::Int(*v));
        }
        prop_assert!(
            running.sink(sink).wait_final(values.len(), Duration::from_secs(30)),
            "stalled at {}/{}", running.sink(sink).final_count(), values.len()
        );
        let after = running.sink(sink).final_events_by_id();

        // Precise: all pre-crash outputs unchanged (both the deterministic
        // running sum and the logged random tag).
        for pre in &before {
            let post = after.iter().find(|e| e.id == pre.id).expect("event vanished");
            prop_assert_eq!(&post.payload, &pre.payload);
        }
        // Continuity: the running sums across the crash form one sequence.
        let sums: Vec<i64> = after
            .iter()
            .filter_map(|e| e.payload.field(0).and_then(Value::as_i64))
            .collect();
        let mut expect = 0i64;
        for (i, v) in values.iter().enumerate() {
            expect += v;
            prop_assert_eq!(sums[i], expect, "running sum diverged at {}", i);
        }
        running.shutdown();
    }

    /// Mid-batch crash: the operator dies while a pushed batch is still in
    /// flight — some of the batch's events processed, the rest queued or
    /// lost with the process. Recovery must replay the interrupted batch
    /// (a batch frame shares one link sequence across its events) and keep
    /// both the pre-crash outputs and the running-sum continuity intact.
    #[test]
    fn precise_recovery_for_mid_batch_crashes(
        warmup in proptest::collection::vec(-50i64..50, 4..12),
        batch in proptest::collection::vec(-50i64..50, 6..20),
        tail in proptest::collection::vec(-50i64..50, 2..10),
        checkpoint in prop_oneof![Just(None), Just(Some(3u64)), Just(Some(5u64))],
    ) {
        let mut b = GraphBuilder::new();
        // `None`: no checkpoint, recovery replays from the start.
        let cfg = OperatorConfig {
            checkpoint_every: checkpoint,
            ..OperatorConfig::logged(LoggingConfig::simulated(Duration::from_micros(200)))
        };
        let op = b.add_operator(SumTagger::default(), cfg);
        let src = b.source_into(op).unwrap();
        let sink = b.sink_from(op).unwrap();
        let running = b.build().unwrap().start();
        let opid = OperatorId::new(0);

        for v in &warmup {
            running.source(src).push(Value::Int(*v));
        }
        prop_assert!(running.sink(sink).wait_final(warmup.len(), Duration::from_secs(15)));
        let before = running.sink(sink).final_events_by_id();

        // Push the batch and crash immediately: the coordinator is caught
        // mid-frame, with unprocessed batch events dying in its queues.
        running.source(src).push_batch(batch.iter().map(|v| Value::Int(*v)).collect());
        running.crash(opid);
        running.recover(opid);
        for v in &tail {
            running.source(src).push(Value::Int(*v));
        }
        let total = warmup.len() + batch.len() + tail.len();
        prop_assert!(
            running.sink(sink).wait_final(total, Duration::from_secs(30)),
            "stalled at {}/{}", running.sink(sink).final_count(), total
        );
        let after = running.sink(sink).final_events_by_id();

        for pre in &before {
            let post = after.iter().find(|e| e.id == pre.id).expect("event vanished");
            prop_assert_eq!(&post.payload, &pre.payload);
        }
        let sums: Vec<i64> = after
            .iter()
            .filter_map(|e| e.payload.field(0).and_then(Value::as_i64))
            .collect();
        prop_assert_eq!(sums.len(), total, "duplicate or missing outputs");
        let mut expect = 0i64;
        for (i, v) in warmup.iter().chain(&batch).chain(&tail).enumerate() {
            expect += v;
            prop_assert_eq!(sums[i], expect, "running sum diverged at {}", i);
        }
        running.shutdown();
    }
}

/// One checkpointed count-min operator in approximate mode, crashed after
/// `crash_at` events (`None` = fault-free). Returns the estimates in
/// event-id order plus the `recovery.escalations` counter.
fn countmin_run(
    keys: &[i64],
    crash_at: Option<usize>,
    every: u64,
    bound: ErrorBound,
) -> (Vec<u64>, u64) {
    let mut b = GraphBuilder::new();
    let cfg = OperatorConfig::logged(LoggingConfig::simulated(Duration::from_micros(200)))
        .with_checkpoint_every(every)
        .with_approximate_recovery(bound);
    // Fixed hash seed: the faulty run and its baseline must agree on
    // counter placement for estimates to be comparable.
    let op = b.add_operator(CountMinOp::new(32, 4, 7, Duration::ZERO).stamped(), cfg);
    let src = b.source_into(op).unwrap();
    let sink = b.sink_from(op).unwrap();
    let running = b.build().unwrap().start();

    let crash = crash_at.unwrap_or(keys.len());
    for k in &keys[..crash] {
        running.source(src).push(Value::Int(*k));
    }
    assert!(running.sink(sink).wait_final(crash, Duration::from_secs(15)));
    if crash_at.is_some() {
        let opid = OperatorId::new(0);
        running.crash(opid);
        running.recover(opid);
        for k in &keys[crash..] {
            running.source(src).push(Value::Int(*k));
        }
        assert!(
            running.sink(sink).wait_final(keys.len(), Duration::from_secs(30)),
            "stalled at {}/{}\n{}",
            running.sink(sink).final_count(),
            keys.len(),
            running.journal_dump()
        );
    }
    let finals = running.sink(sink).final_events_by_id();
    assert_eq!(finals.len(), keys.len(), "duplicate or missing outputs");
    let estimates = finals
        .iter()
        .map(|e| e.payload.field(1).and_then(Value::as_i64).expect("Record[key, est]") as u64)
        .collect();
    let escalations = running.metrics().counter("recovery.escalations", Labels::op(0)).unwrap_or(0);
    running.shutdown();
    (estimates, escalations)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Stale-snapshot resume: for an arbitrary checkpoint lag and crash
    /// point, recovered count-min estimates never exceed the fault-free
    /// run's and fall below it by at most `ε·N` — whether the budget
    /// admitted the loss or escalated to a precise cycle.
    #[test]
    fn approximate_recovery_stays_within_declared_bound(
        keys in proptest::collection::vec(0i64..12, 30..70),
        crash_frac in 0.3f64..0.9,
        every in 2u64..8,
    ) {
        let bound = ErrorBound::new(0.25, 0.05);
        let crash_at = ((keys.len() as f64) * crash_frac) as usize;
        let (baseline, _) = countmin_run(&keys, None, every, bound);
        let (recovered, _) = countmin_run(&keys, Some(crash_at), every, bound);
        let report = verify_bounded_divergence(bound, keys.len() as u64, &baseline, &recovered);
        prop_assert!(
            report.is_ok(),
            "crash at {} (checkpoint every {}): {}", crash_at, every, report.unwrap_err()
        );
    }
}

/// A bound too tight to absorb any loss (ε = 1 ppm allows zero lost
/// updates below a million deliveries) must refuse the stale-snapshot
/// resume and escalate: the `recovery.escalations` counter fires and the
/// precise cycle reproduces the fault-free estimates exactly.
#[test]
fn exhausted_budget_escalates_to_precise_recovery() {
    let keys: Vec<i64> = (0..20).map(|i| i % 5).collect();
    let bound = ErrorBound::new(0.000_001, 0.05);
    let (baseline, _) = countmin_run(&keys, None, 6, bound);
    let (recovered, escalations) = countmin_run(&keys, Some(10), 6, bound);
    assert!(escalations >= 1, "zero-allowance budget admitted a stale-snapshot resume");
    assert_eq!(recovered, baseline, "escalated (precise) recovery changed the estimates");
}
