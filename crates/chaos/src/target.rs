//! The injection surface a chaos scheduler drives.

use std::time::Duration;

use streammine_common::ids::OperatorId;
use streammine_core::dist::Cluster;
use streammine_core::Running;

use crate::plan::{FaultKind, Topology};

/// Anything faults can be injected into: an in-process graph, whose unit
/// of failure is a coordinator thread, or a cluster, whose unit is a
/// worker process.
///
/// Operators are addressed by index (`0..operators`), edges by index
/// (`0..edges`). An out-of-range index is the implementor's contract (the
/// [`Running`] impl panics on unknown operators, mirroring its own API).
pub trait ChaosTarget {
    /// The target's shape, for drawing random plans against it.
    fn topology(&self) -> Topology;
    /// Injects `fault`. Returns `false` when the target has no such fault
    /// (a link sever in a cluster, a beat pause in process); the scheduler
    /// then panics, so a plan never loses a fault silently.
    fn inject(&self, fault: FaultKind) -> bool;
}

impl ChaosTarget for Running {
    fn topology(&self) -> Topology {
        let operators = self.operator_count() as u32;
        let has_storage = |op: u32| {
            let id = OperatorId::new(op);
            self.operator_log(id).is_some() || self.operator_checkpoints(id).is_some()
        };
        Topology {
            operators,
            edges: self.edge_count(),
            storage_ops: (0..operators).filter(|&op| has_storage(op)).collect(),
            sinks: self.sink_count(),
        }
    }

    fn inject(&self, fault: FaultKind) -> bool {
        let Some(hook) = Hook::of(fault) else { return false };
        match hook {
            Hook::Crash(op) => self.crash(op),
            Hook::SeverData(edge) => self.sever_edge_data(edge),
            Hook::HealData(edge) => self.heal_edge_data(edge),
            Hook::SeverCtrl(edge) => self.sever_edge_ctrl(edge),
            Hook::HealCtrl(edge) => self.heal_edge_ctrl(edge),
            Hook::FaultRate(op, rate) => self.set_storage_fault_rate(op, rate),
            Hook::StallStorage(op, window) => self.stall_storage(op, window),
            Hook::StallSink(sink, window) => self.stall_sink(sink, window),
            Hook::DelaySpike(edge, extra, window) => self.delay_spike_edge(edge, extra, window),
        }
        true
    }
}

/// The [`Running`] method an in-process fault calls, with its arguments:
/// the fault-to-call mapping as a value, so it is tested without a graph.
#[derive(Debug, PartialEq)]
enum Hook {
    Crash(OperatorId),
    SeverData(usize),
    HealData(usize),
    SeverCtrl(usize),
    HealCtrl(usize),
    FaultRate(OperatorId, f64),
    StallStorage(OperatorId, Duration),
    StallSink(usize, Duration),
    DelaySpike(usize, Duration, Duration),
}

impl Hook {
    /// The call `fault` makes in process; `None` for a process-only kind.
    fn of(fault: FaultKind) -> Option<Hook> {
        let (ms, op) = (Duration::from_millis, OperatorId::new);
        Some(match fault {
            FaultKind::CrashNode { op: o } => Hook::Crash(op(o)),
            FaultKind::SeverData { edge } => Hook::SeverData(edge),
            FaultKind::HealData { edge } => Hook::HealData(edge),
            FaultKind::DelayAcks { edge } => Hook::SeverCtrl(edge),
            FaultKind::RestoreAcks { edge } => Hook::HealCtrl(edge),
            FaultKind::DiskFault { op: o, permille } => {
                Hook::FaultRate(op(o), f64::from(permille) / 1000.0)
            }
            FaultKind::DiskHeal { op: o } => Hook::FaultRate(op(o), 0.0),
            FaultKind::DiskStall { op: o, millis } => Hook::StallStorage(op(o), ms(millis)),
            FaultKind::StallSink { sink, millis } => Hook::StallSink(sink, ms(millis)),
            FaultKind::DelaySpike { edge, extra_ms, window_ms } => {
                Hook::DelaySpike(edge, ms(extra_ms), ms(window_ms))
            }
            FaultKind::ListenerDrop { .. }
            | FaultKind::PartitionInbound { .. }
            | FaultKind::PauseBeats { .. } => return None,
        })
    }
}

/// A cluster's operators are its worker processes; its faults are real:
/// a SIGKILL, a dropped listener, a one-way partition, silenced beats.
impl ChaosTarget for Cluster {
    fn topology(&self) -> Topology {
        Topology { operators: self.workers() as u32, ..Topology::default() }
    }

    fn inject(&self, fault: FaultKind) -> bool {
        let ms = Duration::from_millis;
        match fault {
            FaultKind::CrashNode { op } => self.kill_worker(op as usize),
            FaultKind::ListenerDrop { op, millis } => self.drop_listener(op as usize, ms(millis)),
            FaultKind::PartitionInbound { op, millis } => {
                self.partition_inbound(op as usize, ms(millis))
            }
            FaultKind::PauseBeats { op, millis } => self.pause_beats(op as usize, ms(millis)),
            _ => return false,
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_process_kinds_map_to_their_running_calls() {
        let (ms, op) = (Duration::from_millis, OperatorId::new(2));
        let cases = [
            (FaultKind::CrashNode { op: 2 }, Hook::Crash(op)),
            (FaultKind::SeverData { edge: 1 }, Hook::SeverData(1)),
            (FaultKind::HealData { edge: 1 }, Hook::HealData(1)),
            (FaultKind::DelayAcks { edge: 1 }, Hook::SeverCtrl(1)),
            (FaultKind::RestoreAcks { edge: 1 }, Hook::HealCtrl(1)),
            (FaultKind::DiskFault { op: 2, permille: 250 }, Hook::FaultRate(op, 0.25)),
            (FaultKind::DiskHeal { op: 2 }, Hook::FaultRate(op, 0.0)),
            (FaultKind::DiskStall { op: 2, millis: 7 }, Hook::StallStorage(op, ms(7))),
            (FaultKind::StallSink { sink: 0, millis: 3 }, Hook::StallSink(0, ms(3))),
            (
                FaultKind::DelaySpike { edge: 1, extra_ms: 2, window_ms: 5 },
                Hook::DelaySpike(1, ms(2), ms(5)),
            ),
        ];
        for (fault, hook) in cases {
            assert_eq!(Hook::of(fault), Some(hook), "{fault}");
        }
        for fault in [
            FaultKind::ListenerDrop { op: 0, millis: 1 },
            FaultKind::PartitionInbound { op: 0, millis: 1 },
            FaultKind::PauseBeats { op: 0, millis: 1 },
        ] {
            assert_eq!(Hook::of(fault), None, "{fault}");
        }
    }
}
