//! Cross-checks between a chaos run's fault plan, its recovery timelines
//! and the metrics registry.
//!
//! Both runtimes record every supervised restart twice, from the one
//! place that records restarts: as a [`RecoveryTimeline`] and as
//! `recovery.restarts{op=slot}` in a metrics registry. A chaos run
//! that trusts its own assertions should verify that the two accounts
//! agree with each other and with the plan — a mismatch means a restart
//! went unmetered, or a counter was bumped for a restart that never
//! happened, and either would silently skew any dashboard built on the
//! registry.

use std::collections::HashMap;

use streammine_obs::FaultKind as TimelineFaultKind;
use streammine_obs::{
    JournalEvent, JournalKind, Labels, RecoveryTimeline, RegistrySnapshot, Tracer,
};
use streammine_sketch::ErrorBound;

use crate::plan::FaultPlan;

/// The check every recovery record passes, in either runtime: its phases
/// are monotone (detect ≤ fence ≤ respawn ≤ handshake ≤ first output ≤
/// drain); there are no more crash timelines than the plan injected
/// crashes (fewer is tolerated: a crash injected in a cluster's quiesce
/// tail can land after the monitor stopped watching, so the victim dies
/// unobserved); and the registry's `recovery.restarts{op}` equals, per
/// slot, the number of timelines of that slot — no more, no fewer — and
/// counts no slot without one. Worker-labeled series are telemetry,
/// checked apart. Returns the timelines per slot.
fn check_restarts(
    plan: &FaultPlan,
    timelines: &[RecoveryTimeline],
    snap: &RegistrySnapshot,
) -> Result<HashMap<u32, u64>, String> {
    if let Some(t) = timelines.iter().find(|t| !t.monotonic()) {
        return Err(format!(
            "slot {}#{}: non-monotonic recovery timeline: {}",
            t.worker,
            t.incarnation,
            t.to_json()
        ));
    }
    let crashes = timelines.iter().filter(|t| t.kind == TimelineFaultKind::Crash).count();
    if crashes > plan.crash_count() {
        return Err(format!(
            "plan injected {} crashes but {crashes} crash timelines were recorded",
            plan.crash_count()
        ));
    }
    let mut per_slot: HashMap<u32, u64> = HashMap::new();
    for t in timelines {
        *per_slot.entry(t.worker).or_insert(0) += 1;
    }
    for (&op, &expected) in &per_slot {
        let counted = snap.counter("recovery.restarts", Labels::op(op)).unwrap_or(0);
        if counted != expected {
            return Err(format!(
                "op{op}: registry counted {counted} recovery.restarts, \
                 supervisor recorded {expected} timelines"
            ));
        }
    }
    let counted = snap.samples.iter().filter(|s| s.labels.worker.is_none());
    for sample in counted.filter(|s| s.name == "recovery.restarts") {
        let op = sample.labels.op.unwrap_or(u32::MAX);
        if !per_slot.contains_key(&op) {
            return Err(format!("registry has recovery.restarts for op{op} with no timeline"));
        }
    }
    Ok(per_slot)
}

/// Checks an in-process chaos run: its supervisor's timelines against the
/// plan and the registry, and the journal's backpressure episodes against
/// the registry:
///
/// * the timelines pass the checks both runtimes share (monotone phases,
///   no more crash timelines than planned crashes, and
///   `recovery.restarts{op}` equal to the timelines per operator);
/// * every restarted operator counted at least one `replay.requests{op}`
///   per restart — the counter keeps the paper's name for the step and
///   counts the input rings a recovering node rewound (a restart without
///   one would mean recovery skipped the rewind);
/// * per operator, journal `BackpressureResume` records never outnumber
///   stall entries (`BackpressureStall` + `SpecCapHit`) — a resume
///   without a stall is impossible;
/// * per operator, the `backpressure.stalls{op}` counter is at least the
///   journal's stall-entry count (the counter is bumped exactly when a
///   stall record is written; the ring journal may have evicted old
///   records, but can never hold *more* stalls than were metered).
///
/// Strict stall == resume equality is deliberately not enforced here: a
/// node crashed mid-stall loses its volatile stall state and never writes
/// the matching resume, which is correct behavior under chaos.
///
/// # Errors
///
/// Returns a description of the first mismatch found.
pub fn verify_recovery_counters(
    plan: &FaultPlan,
    timelines: &[RecoveryTimeline],
    snap: &RegistrySnapshot,
    journal: &[JournalEvent],
) -> Result<(), String> {
    for (op, expected) in check_restarts(plan, timelines, snap)? {
        let replays = snap.counter("replay.requests", Labels::op(op)).unwrap_or(0);
        if replays < expected {
            return Err(format!(
                "op{op}: only {replays} replay.requests (input rings rewound) for \
                 {expected} supervised restarts"
            ));
        }
    }
    // Backpressure reconciliation: stall entries vs resumes vs counters.
    let mut stalls: HashMap<u32, u64> = HashMap::new();
    let mut resumes: HashMap<u32, u64> = HashMap::new();
    for ev in journal {
        let Some(op) = ev.op else { continue };
        match ev.kind {
            JournalKind::BackpressureStall { .. } | JournalKind::SpecCapHit { .. } => {
                *stalls.entry(op).or_insert(0) += 1;
            }
            JournalKind::BackpressureResume { .. } => {
                *resumes.entry(op).or_insert(0) += 1;
            }
            _ => {}
        }
    }
    for (&op, &resumed) in &resumes {
        let stalled = stalls.get(&op).copied().unwrap_or(0);
        if resumed > stalled {
            return Err(format!(
                "op{op}: journal has {resumed} backpressure resumes but only {stalled} stall \
                 entries"
            ));
        }
    }
    for (&op, &stalled) in &stalls {
        let counted = snap.counter("backpressure.stalls", Labels::op(op)).unwrap_or(0);
        if counted < stalled {
            return Err(format!(
                "op{op}: journal has {stalled} stall entries but backpressure.stalls counted \
                 only {counted}"
            ));
        }
    }
    Ok(())
}

/// Reconciles a distributed chaos run's recovery timelines with the
/// fault plan that produced them and with the cluster-level metrics the
/// telemetry plane aggregated:
///
/// * the timelines pass the checks both runtimes share (monotone phases,
///   no more crash timelines than planned kills, and the launcher's
///   `recovery.restarts{op=slot}` equal to the timelines per slot);
/// * the worker-labeled `recovery.restarts{worker=w}` series synthesized
///   from telemetry incarnations sum to the restart total — a worker
///   restart that never reported telemetry would undercount here.
///
/// # Errors
///
/// Returns a description of the first mismatch found.
pub fn verify_cluster_recovery(
    plan: &FaultPlan,
    timelines: &[RecoveryTimeline],
    cluster: &RegistrySnapshot,
) -> Result<(), String> {
    check_restarts(plan, timelines, cluster)?;
    let restarts = timelines.len() as u64;
    let telemetry_restarts: u64 = cluster
        .samples
        .iter()
        .filter(|s| s.name == "recovery.restarts" && s.labels.worker.is_some())
        .filter_map(|s| cluster.counter("recovery.restarts", s.labels))
        .sum();
    if telemetry_restarts != restarts {
        return Err(format!(
            "worker-labeled recovery.restarts sum to {telemetry_restarts}, launcher saw \
             {restarts} — a restarted incarnation never reported telemetry"
        ));
    }
    Ok(())
}

/// Outcome of a bounded-divergence check: the measured worst-case
/// deviation of an approximate run from its fault-free baseline, and how
/// much of the `ε·N` allowance that run left unspent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DivergenceReport {
    /// Largest per-key estimate deviation observed.
    pub max_deviation: u64,
    /// The allowance `⌊ε·delivered⌋` the bound granted.
    pub allowed: u64,
    /// `allowed - max_deviation` — the error budget left over.
    pub remaining: u64,
}

/// Verifies an approximate-recovery run against its fault-free baseline
/// under the declared [`ErrorBound`]: the acceptance bar of the
/// divergence-bounded chaos grid.
///
/// `baseline[i]` and `recovered[i]` are the two runs' count-min
/// estimates for the same key; `delivered` is the fault-free run's
/// delivered-event count (the `N` of the `ε·N` allowance). Two
/// invariants are enforced:
///
/// * recovered estimates never *exceed* the baseline — losing updates
///   can only lower a count-min estimate, so an excess means the runs
///   diverged for a reason the budget does not cover;
/// * the worst per-key deficit stays within `⌊ε·delivered⌋`.
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn verify_bounded_divergence(
    bound: ErrorBound,
    delivered: u64,
    baseline: &[u64],
    recovered: &[u64],
) -> Result<DivergenceReport, String> {
    if baseline.len() != recovered.len() {
        return Err(format!(
            "estimate vectors disagree: {} baseline keys vs {} recovered",
            baseline.len(),
            recovered.len()
        ));
    }
    let allowed = bound.allowed_loss(delivered);
    let mut max_deviation = 0u64;
    for (key, (&b, &r)) in baseline.iter().zip(recovered).enumerate() {
        if r > b {
            return Err(format!(
                "key {key}: recovered estimate {r} exceeds baseline {b} — update loss can only \
                 lower a count-min estimate"
            ));
        }
        max_deviation = max_deviation.max(b - r);
    }
    if max_deviation > allowed {
        return Err(format!(
            "measured deviation {max_deviation} exceeds the declared allowance {allowed} \
             (ε·N with N={delivered})"
        ));
    }
    Ok(DivergenceReport { max_deviation, allowed, remaining: allowed - max_deviation })
}

/// Checks the tracer's rollback attribution is complete and internally
/// consistent — the acceptance bar for a traced chaos run:
///
/// * every rollback record names an originating determinant that is a
///   retained span (the tracer never attributes a cascade to a span it
///   dropped or invented);
/// * the determinant is the rolled-back span itself or one of its
///   transitive dependencies (attribution never points sideways);
/// * the invalidated set is non-empty and contains the rolled-back span
///   (a rollback always invalidates at least its own work);
/// * every invalidated span is retained and belongs to the same trace.
///
/// # Errors
///
/// Returns a description of the first inconsistency found.
pub fn verify_rollback_traces(tracer: &Tracer) -> Result<(), String> {
    let spans: HashMap<u64, _> = tracer.spans().into_iter().map(|s| (s.span_id, s)).collect();
    for (i, rb) in tracer.rollbacks().iter().enumerate() {
        let span = spans
            .get(&rb.span_id)
            .ok_or_else(|| format!("rollback {i}: rolled-back span {} not retained", rb.span_id))?;
        let det = spans.get(&rb.determinant).ok_or_else(|| {
            format!("rollback {i}: determinant span {} not retained", rb.determinant)
        })?;
        if rb.determinant != rb.span_id && !span.deps.contains(&rb.determinant) {
            return Err(format!(
                "rollback {i}: determinant op{}#{} is not among the dependencies of op{}#{}",
                det.op, det.serial, span.op, span.serial
            ));
        }
        if rb.invalidated.is_empty() {
            return Err(format!("rollback {i}: empty invalidated set"));
        }
        if !rb.invalidated.contains(&rb.span_id) {
            return Err(format!("rollback {i}: invalidated set omits the rolled-back span itself"));
        }
        for inv in &rb.invalidated {
            let s = spans
                .get(inv)
                .ok_or_else(|| format!("rollback {i}: invalidated span {inv} not retained"))?;
            if s.trace_id != rb.trace_id {
                return Err(format!(
                    "rollback {i}: invalidated span op{}#{} belongs to trace {} not {}",
                    s.op, s.serial, s.trace_id, rb.trace_id
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FaultEvent, FaultKind};
    use streammine_obs::Registry;

    fn timeline(worker: u32, kind: TimelineFaultKind) -> RecoveryTimeline {
        RecoveryTimeline {
            worker,
            incarnation: 1,
            kind,
            mode: streammine_obs::RecoveryModeTag::Precise,
            detect_us: 100,
            fence_us: 150,
            respawn_us: 400,
            handshake_us: Some(900),
            first_output_us: Some(1_500),
            drain_us: Some(9_000),
        }
    }

    fn crash(op: u32) -> RecoveryTimeline {
        timeline(op, TimelineFaultKind::Crash)
    }

    /// `kills` crashes of worker `i` at step `20 i`.
    fn kill_plan(kills: usize) -> FaultPlan {
        FaultPlan::scripted(
            (0..kills)
                .map(|i| FaultEvent {
                    step: i as u64 * 20,
                    kind: FaultKind::CrashNode { op: i as u32 },
                })
                .collect(),
        )
    }

    fn no_faults() -> FaultPlan {
        FaultPlan::scripted(Vec::new())
    }

    #[test]
    fn matching_counters_pass() {
        let r = Registry::new();
        r.counter("recovery.restarts", Labels::op(1)).add(2);
        r.counter("replay.requests", Labels::op(1)).add(2);
        let timelines = vec![crash(1), crash(1)];
        assert!(verify_recovery_counters(&kill_plan(2), &timelines, &r.snapshot(), &[]).is_ok());
    }

    #[test]
    fn undercounted_restarts_fail() {
        let r = Registry::new();
        r.counter("recovery.restarts", Labels::op(1)).incr();
        r.counter("replay.requests", Labels::op(1)).incr();
        let timelines = vec![crash(1), crash(1)];
        let err =
            verify_recovery_counters(&kill_plan(2), &timelines, &r.snapshot(), &[]).unwrap_err();
        assert!(err.contains("registry counted 1"), "{err}");
    }

    #[test]
    fn missing_replay_requests_fail() {
        let r = Registry::new();
        r.counter("recovery.restarts", Labels::op(0)).incr();
        let err =
            verify_recovery_counters(&kill_plan(1), &[crash(0)], &r.snapshot(), &[]).unwrap_err();
        assert!(err.contains("replay.requests"), "{err}");
    }

    #[test]
    fn phantom_registry_restarts_fail() {
        let r = Registry::new();
        r.counter("recovery.restarts", Labels::op(3)).incr();
        let err = verify_recovery_counters(&no_faults(), &[], &r.snapshot(), &[]).unwrap_err();
        assert!(err.contains("no timeline"), "{err}");
    }

    #[test]
    fn an_in_process_timeline_goes_through_the_shared_check() {
        let r = Registry::new();
        r.counter("recovery.restarts", Labels::op(0)).incr();
        r.counter("replay.requests", Labels::op(0)).incr();
        let mut t = crash(0);
        t.respawn_us = 120; // before fence
        let err = verify_recovery_counters(&kill_plan(1), &[t], &r.snapshot(), &[]).unwrap_err();
        assert!(err.contains("non-monotonic"), "{err}");
        let err =
            verify_recovery_counters(&no_faults(), &[crash(0)], &r.snapshot(), &[]).unwrap_err();
        assert!(err.contains("plan injected 0 crashes"), "{err}");
    }

    fn journal_events(op: u32, kinds: Vec<JournalKind>) -> Vec<JournalEvent> {
        let j = streammine_obs::Journal::new();
        for kind in kinds {
            j.record(Some(op), kind);
        }
        j.events()
    }

    #[test]
    fn reconciled_backpressure_episodes_pass() {
        let r = Registry::new();
        r.counter("backpressure.stalls", Labels::op(2)).add(2);
        let journal = journal_events(
            2,
            vec![
                JournalKind::BackpressureStall { edge: 0 },
                JournalKind::BackpressureResume { stall_us: 17 },
                JournalKind::SpecCapHit { open: 8, retained: 64 },
            ],
        );
        assert!(verify_recovery_counters(&no_faults(), &[], &r.snapshot(), &journal).is_ok());
    }

    #[test]
    fn resume_without_stall_fails() {
        let r = Registry::new();
        let journal = journal_events(1, vec![JournalKind::BackpressureResume { stall_us: 5 }]);
        let err = verify_recovery_counters(&no_faults(), &[], &r.snapshot(), &journal).unwrap_err();
        assert!(err.contains("1 backpressure resumes"), "{err}");
    }

    #[test]
    fn unmetered_stall_records_fail() {
        let r = Registry::new();
        // Journal says a stall happened but the counter never moved.
        let journal = journal_events(0, vec![JournalKind::BackpressureStall { edge: 1 }]);
        let err = verify_recovery_counters(&no_faults(), &[], &r.snapshot(), &journal).unwrap_err();
        assert!(err.contains("counted only 0"), "{err}");
    }

    /// The launcher's `recovery.restarts{op=slot}` per slot in `slots`,
    /// and the telemetry's `recovery.restarts{worker=w}` per `per_worker`.
    fn cluster_snapshot(slots: &[(u32, u64)], per_worker: &[(u32, u64)]) -> RegistrySnapshot {
        let r = Registry::new();
        for &(op, n) in slots {
            r.counter("recovery.restarts", Labels::op(op)).add(n);
        }
        for &(w, n) in per_worker {
            r.counter("recovery.restarts", Labels::NONE.with_worker(w)).add(n);
        }
        r.snapshot()
    }

    #[test]
    fn reconciled_cluster_recovery_passes() {
        let plan = kill_plan(2);
        let timelines = vec![
            timeline(0, TimelineFaultKind::Crash),
            timeline(1, TimelineFaultKind::Crash),
            timeline(2, TimelineFaultKind::LeaseExpiry),
        ];
        let snap = cluster_snapshot(&[(0, 1), (1, 1), (2, 1)], &[(0, 1), (1, 1), (2, 1)]);
        assert!(verify_cluster_recovery(&plan, &timelines, &snap).is_ok());
    }

    #[test]
    fn non_monotonic_timeline_fails() {
        let mut t = timeline(0, TimelineFaultKind::Crash);
        t.fence_us = 50; // before detect
        let snap = cluster_snapshot(&[(0, 1)], &[(0, 1)]);
        let err = verify_cluster_recovery(&kill_plan(1), &[t], &snap).unwrap_err();
        assert!(err.contains("non-monotonic"), "{err}");
    }

    #[test]
    fn missing_crash_timeline_fails() {
        // The launcher counted two restarts but only one timeline
        // survived: an observed recovery went unrecorded, which tolerance
        // for *unobserved* quiesce-tail kills must not excuse.
        let snap = cluster_snapshot(&[(0, 2)], &[(0, 2)]);
        let t = vec![timeline(0, TimelineFaultKind::Crash)];
        let err = verify_cluster_recovery(&kill_plan(2), &t, &snap).unwrap_err();
        assert!(err.contains("registry counted 2"), "{err}");
    }

    #[test]
    fn quiesce_tail_kill_without_timeline_is_tolerated() {
        // Two kills injected, but the second landed during the quiesce
        // tail: the monitor had stopped watching, so nothing detected or
        // restarted the victim. One coherent timeline + counters at 1
        // must reconcile against the 2-kill plan.
        let plan = kill_plan(2);
        let t = vec![timeline(0, TimelineFaultKind::Crash)];
        let snap = cluster_snapshot(&[(0, 1)], &[(0, 1)]);
        assert!(verify_cluster_recovery(&plan, &t, &snap).is_ok());
    }

    #[test]
    fn excess_crash_timelines_fail() {
        let plan = kill_plan(1);
        let t = vec![timeline(0, TimelineFaultKind::Crash), timeline(1, TimelineFaultKind::Crash)];
        let snap = cluster_snapshot(&[(0, 1), (1, 1)], &[(0, 1), (1, 1)]);
        let err = verify_cluster_recovery(&plan, &t, &snap).unwrap_err();
        assert!(err.contains("injected 1 crashes"), "{err}");
    }

    #[test]
    fn divergence_within_bound_passes_with_report() {
        let bound = ErrorBound::new(0.01, 0.05);
        // N = 1000 → allowance 10. Worst deficit below is 7.
        let baseline = vec![40, 55, 60];
        let recovered = vec![40, 48, 57];
        let rep = verify_bounded_divergence(bound, 1000, &baseline, &recovered).unwrap();
        assert_eq!(rep, DivergenceReport { max_deviation: 7, allowed: 10, remaining: 3 });
    }

    #[test]
    fn divergence_beyond_bound_fails() {
        let bound = ErrorBound::new(0.01, 0.05);
        let err = verify_bounded_divergence(bound, 1000, &[50], &[39]).unwrap_err();
        assert!(err.contains("exceeds the declared allowance 10"), "{err}");
    }

    #[test]
    fn raised_estimate_fails_regardless_of_budget() {
        let bound = ErrorBound::new(0.5, 0.05);
        let err = verify_bounded_divergence(bound, 1000, &[50], &[51]).unwrap_err();
        assert!(err.contains("can only lower"), "{err}");
    }

    #[test]
    fn mismatched_key_sets_fail() {
        let bound = ErrorBound::new(0.1, 0.05);
        let err = verify_bounded_divergence(bound, 100, &[1, 2], &[1]).unwrap_err();
        assert!(err.contains("disagree"), "{err}");
    }

    #[test]
    fn undercounted_worker_telemetry_fails() {
        let plan = kill_plan(2);
        let timelines =
            vec![timeline(0, TimelineFaultKind::Crash), timeline(1, TimelineFaultKind::Crash)];
        // Worker 1's replacement incarnation never reported telemetry.
        let snap = cluster_snapshot(&[(0, 1), (1, 1)], &[(0, 1)]);
        let err = verify_cluster_recovery(&plan, &timelines, &snap).unwrap_err();
        assert!(err.contains("never reported telemetry"), "{err}");
    }

    #[test]
    fn consistent_rollback_traces_pass() {
        let t = Tracer::sampling(1);
        let trace = t.sample(9, 0).unwrap();
        let s0 = t.begin_span(trace, 0, 0, 1, 0);
        let _s1 = t.begin_span(trace, s0, 1, 1, 0);
        t.record_rollback(1, 1);
        assert!(verify_rollback_traces(&t).is_ok());
    }

    #[test]
    fn empty_tracer_passes_vacuously() {
        assert!(verify_rollback_traces(&Tracer::sampling(1)).is_ok());
    }
}
