//! Deterministic chaos harness.
//!
//! Fault-tolerance claims are only as good as the fault schedules they were
//! tested under. This crate turns fault injection into a *reproducible*
//! experiment: a [`FaultPlan`] is a pure value — scripted by hand or drawn
//! from a seeded RNG — and a [`FaultScheduler`] injects its events step by
//! step into any [`ChaosTarget`]. The same `(seed, topology, steps)` triple
//! always produces the same fault timeline, so a failing run can be
//! replayed exactly.
//!
//! One plan serves both runtimes; what differs is the unit of failure.
//! [`ChaosTarget`] is implemented for the engine's
//! [`Running`](streammine_core::Running) graph, where a crash ends a
//! coordinator thread, and for a
//! [`Cluster`](streammine_core::dist::Cluster), where it SIGKILLs a worker
//! process. [`FaultPlan::random`] draws in-process faults: crashes,
//! data-link and control-link sever/heal windows, transient storage write
//! faults and storage stalls, every window closed before the end, so a run
//! quiesces once the plan is exhausted. [`FaultPlan::random_network`] draws
//! link faults only. [`FaultPlan::random_cluster`] draws a cluster's real
//! faults: kills, dropped listeners, one-way inbound partitions and
//! heartbeat pauses. A fault the target has no hook for panics the
//! scheduler; it is never skipped.
//!
//! Both runtimes record a restart as one
//! [`RecoveryTimeline`](streammine_obs::RecoveryTimeline), and the two
//! verifiers ([`verify_recovery_counters`], [`verify_cluster_recovery`])
//! check the timelines against the plan with one shared check before
//! reconciling them with their registries.

#![warn(missing_docs)]

pub mod plan;
pub mod scheduler;
mod target;
pub mod verify;

pub use plan::{FaultEvent, FaultKind, FaultPlan, Topology};
pub use scheduler::FaultScheduler;
pub use target::ChaosTarget;
pub use verify::{
    verify_bounded_divergence, verify_cluster_recovery, verify_recovery_counters,
    verify_rollback_traces, DivergenceReport,
};
