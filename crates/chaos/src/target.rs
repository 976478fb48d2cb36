//! The injection surface a chaos scheduler drives.

use std::time::Duration;

use streammine_common::ids::OperatorId;
use streammine_core::Running;

/// Anything faults can be injected into.
///
/// Operators are addressed by index (`0..operator_count`), edges by index
/// (`0..edge_count`). All hooks are best-effort: out-of-range operator
/// indices on storage hooks and crash requests are the implementor's
/// contract (the [`Running`] impl panics on unknown operators, mirroring
/// its own API).
pub trait ChaosTarget {
    /// Number of crashable operators.
    fn operator_count(&self) -> usize;
    /// Number of severable operator-to-operator edges.
    fn edge_count(&self) -> usize;
    /// Whether operator `op` has durable storage (log or checkpoints) that
    /// disk faults can target.
    fn has_storage(&self, op: u32) -> bool;
    /// Kills operator `op` (volatile state lost; recovery applies).
    fn crash_node(&self, op: u32);
    /// Severs the data link of edge `edge`.
    fn sever_data(&self, edge: usize);
    /// Heals the data link of edge `edge`.
    fn heal_data(&self, edge: usize);
    /// Severs the control (ack/replay) link of edge `edge`.
    fn sever_ctrl(&self, edge: usize);
    /// Heals the control link of edge `edge`.
    fn heal_ctrl(&self, edge: usize);
    /// Sets the transient write-fault probability of `op`'s storage.
    fn set_storage_fault_rate(&self, op: u32, rate: f64);
    /// Stalls `op`'s storage writes for the next `window`.
    fn stall_storage(&self, op: u32, window: Duration);
    /// Number of stallable sinks (slow-consumer targets). Defaults to 0
    /// for targets without sinks.
    fn sink_count(&self) -> usize {
        0
    }
    /// Stalls sink `sink`'s consumer for `window`: it stops draining its
    /// link, so the upstream edge's window fills. Default no-op.
    fn stall_sink(&self, sink: usize, window: Duration) {
        let _ = (sink, window);
    }
    /// Adds `extra` propagation delay to data deliveries on edge `edge`
    /// for the next `window` (congestion spike). Default no-op.
    fn delay_spike(&self, edge: usize, extra: Duration, window: Duration) {
        let _ = (edge, extra, window);
    }
}

impl ChaosTarget for Running {
    fn operator_count(&self) -> usize {
        Running::operator_count(self)
    }

    fn edge_count(&self) -> usize {
        Running::edge_count(self)
    }

    fn has_storage(&self, op: u32) -> bool {
        let id = OperatorId::new(op);
        self.operator_log(id).is_some() || self.operator_checkpoints(id).is_some()
    }

    fn crash_node(&self, op: u32) {
        self.crash(OperatorId::new(op));
    }

    fn sever_data(&self, edge: usize) {
        self.sever_edge_data(edge);
    }

    fn heal_data(&self, edge: usize) {
        self.heal_edge_data(edge);
    }

    fn sever_ctrl(&self, edge: usize) {
        self.sever_edge_ctrl(edge);
    }

    fn heal_ctrl(&self, edge: usize) {
        self.heal_edge_ctrl(edge);
    }

    fn set_storage_fault_rate(&self, op: u32, rate: f64) {
        Running::set_storage_fault_rate(self, OperatorId::new(op), rate);
    }

    fn stall_storage(&self, op: u32, window: Duration) {
        Running::stall_storage(self, OperatorId::new(op), window);
    }

    fn sink_count(&self) -> usize {
        Running::sink_count(self)
    }

    fn stall_sink(&self, sink: usize, window: Duration) {
        Running::stall_sink(self, sink, window);
    }

    fn delay_spike(&self, edge: usize, extra: Duration, window: Duration) {
        Running::delay_spike_edge(self, edge, extra, window);
    }
}
