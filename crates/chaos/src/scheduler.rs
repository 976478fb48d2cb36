//! Step-driven fault injection.

use crate::plan::{FaultEvent, FaultPlan};
use crate::target::ChaosTarget;

/// Walks a [`FaultPlan`] and injects each event into a [`ChaosTarget`]
/// as the driving loop advances through plan steps.
///
/// The scheduler is pull-based: the test (or example) driving the workload
/// calls [`advance`](FaultScheduler::advance) with its current step — e.g.
/// once per input batch — and every not-yet-injected event at or before
/// that step fires, in plan order. [`finish`](FaultScheduler::finish)
/// flushes the remainder (closing heal events live at `steps`, past the
/// last driven step). The injected timeline is recorded for reporting and
/// for asserting reproducibility across runs.
pub struct FaultScheduler {
    plan: FaultPlan,
    next: usize,
    injected: Vec<FaultEvent>,
}

impl FaultScheduler {
    /// Builds a scheduler over `plan`. Events fire in order of `step`.
    pub fn new(plan: FaultPlan) -> FaultScheduler {
        FaultScheduler { plan, next: 0, injected: Vec::new() }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Injects every pending event with `event.step <= step` into `target`.
    /// Returns how many events fired.
    ///
    /// # Panics
    ///
    /// Panics on a fault the target cannot inject.
    pub fn advance(&mut self, step: u64, target: &impl ChaosTarget) -> usize {
        let mut fired = 0;
        while self.next < self.plan.events.len() && self.plan.events[self.next].step <= step {
            let ev = self.plan.events[self.next];
            self.next += 1;
            assert!(target.inject(ev.kind), "the target cannot inject {ev}");
            self.injected.push(ev);
            fired += 1;
        }
        fired
    }

    /// Injects every remaining event (heal/close events scheduled at the
    /// end of the plan). Returns how many events fired.
    pub fn finish(&mut self, target: &impl ChaosTarget) -> usize {
        self.advance(u64::MAX, target)
    }

    /// The events injected so far, in firing order.
    pub fn injected(&self) -> &[FaultEvent] {
        &self.injected
    }

    /// Whether every plan event has been injected.
    pub fn exhausted(&self) -> bool {
        self.next == self.plan.events.len()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use super::*;
    use crate::plan::{FaultKind, Topology};

    /// Records what it is asked to inject; has no beats to pause.
    #[derive(Default)]
    struct MockTarget {
        calls: Mutex<Vec<String>>,
    }

    impl ChaosTarget for MockTarget {
        fn topology(&self) -> Topology {
            Topology { operators: 3, edges: 2, storage_ops: vec![0, 1, 2], sinks: 1 }
        }

        fn inject(&self, fault: FaultKind) -> bool {
            self.calls.lock().unwrap().push(fault.to_string());
            !matches!(fault, FaultKind::PauseBeats { .. })
        }
    }

    #[test]
    fn advance_fires_events_up_to_step() {
        let plan = FaultPlan::scripted(vec![
            FaultEvent { step: 2, kind: FaultKind::SeverData { edge: 0 } },
            FaultEvent { step: 5, kind: FaultKind::HealData { edge: 0 } },
            FaultEvent { step: 8, kind: FaultKind::CrashNode { op: 1 } },
        ]);
        let target = MockTarget::default();
        let mut sched = FaultScheduler::new(plan);
        assert_eq!(sched.advance(1, &target), 0);
        assert_eq!(sched.advance(5, &target), 2);
        assert!(!sched.exhausted());
        assert_eq!(sched.finish(&target), 1);
        assert!(sched.exhausted());
        let calls = target.calls.lock().unwrap();
        assert_eq!(*calls, vec!["sever-data(e0)", "heal-data(e0)", "crash(op1)"]);
    }

    #[test]
    #[should_panic(expected = "the target cannot inject @3 pause-beats(op0, 400ms)")]
    fn a_fault_the_target_cannot_inject_fails_loudly() {
        let plan = FaultPlan::scripted(vec![FaultEvent {
            step: 3,
            kind: FaultKind::PauseBeats { op: 0, millis: 400 },
        }]);
        FaultScheduler::new(plan).finish(&MockTarget::default());
    }

    #[test]
    fn injected_timeline_matches_plan_for_random_plans() {
        let topo = Topology { operators: 3, edges: 2, storage_ops: vec![0, 2], sinks: 1 };
        for seed in 0..16u64 {
            let plan = FaultPlan::random(seed, 30, &topo);
            let target = MockTarget::default();
            let mut sched = FaultScheduler::new(plan.clone());
            for step in 0..30 {
                sched.advance(step, &target);
            }
            sched.finish(&target);
            assert_eq!(sched.injected(), plan.events.as_slice());
        }
    }
}
