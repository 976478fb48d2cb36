//! Fault plans: scripted or seeded-random fault schedules.

use std::fmt;

use streammine_common::rng::DetRng;

/// One kind of injectable fault.
///
/// Probabilities are carried in permille (0–999) so plans stay `Eq` and
/// hashable — a fault plan is a *value* that can be compared, printed, and
/// replayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Kill operator `op`: its coordinator thread in process, its worker
    /// process (SIGKILL) in a cluster. The supervisor restarts it from its
    /// checkpoint and decision log.
    CrashNode {
        /// Operator index.
        op: u32,
    },
    /// Sever the data link of edge `edge` (senders buffer + back off).
    SeverData {
        /// Edge index.
        edge: usize,
    },
    /// Heal the data link of edge `edge`.
    HealData {
        /// Edge index.
        edge: usize,
    },
    /// Hold the acknowledgments on edge `edge`'s ring: its watermark stays
    /// put until restored, and the highest ack taken meanwhile applies
    /// then.
    DelayAcks {
        /// Edge index.
        edge: usize,
    },
    /// Release the acknowledgments held on edge `edge`'s ring.
    RestoreAcks {
        /// Edge index.
        edge: usize,
    },
    /// Make a fraction of `op`'s storage writes fail transiently.
    DiskFault {
        /// Operator index.
        op: u32,
        /// Failure probability in permille (0–999).
        permille: u16,
    },
    /// Clear `op`'s storage fault rate.
    DiskHeal {
        /// Operator index.
        op: u32,
    },
    /// Stall `op`'s storage writes for `millis` milliseconds.
    DiskStall {
        /// Operator index.
        op: u32,
        /// Stall window length in milliseconds.
        millis: u64,
    },
    /// Stall sink `sink`'s collector for `millis` milliseconds — the
    /// slow-consumer nemesis. The sink stops draining its link, the
    /// link's window fills, and backpressure propagates upstream.
    StallSink {
        /// Sink index.
        sink: usize,
        /// Stall window length in milliseconds.
        millis: u64,
    },
    /// Add `extra_ms` of propagation delay to every data delivery on
    /// edge `edge` for the next `window_ms` milliseconds (a congestion
    /// spike; FIFO order preserved).
    DelaySpike {
        /// Edge index.
        edge: usize,
        /// Extra per-message delay in milliseconds.
        extra_ms: u64,
        /// Spike window length in milliseconds.
        window_ms: u64,
    },
    /// Drop `op`'s data listener for `millis` ms: new connections are
    /// refused and open ones severed, so its upstream redials and resends
    /// from its ack. A cluster fault.
    ListenerDrop {
        /// Operator (worker) index.
        op: u32,
        /// Window length in milliseconds.
        millis: u64,
    },
    /// One-way partition: `op` stops delivering the frames arriving on its
    /// inbound edge for `millis` ms, while its own output and heartbeats
    /// keep flowing. A cluster fault.
    PartitionInbound {
        /// Operator (worker) index.
        op: u32,
        /// Window length in milliseconds.
        millis: u64,
    },
    /// Suppress `op`'s heartbeats for `millis` ms. A window longer than the
    /// lease makes the control plane fence the live worker and restart it.
    /// A cluster fault.
    PauseBeats {
        /// Operator (worker) index.
        op: u32,
        /// Window length in milliseconds.
        millis: u64,
    },
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::CrashNode { op } => write!(f, "crash(op{op})"),
            FaultKind::SeverData { edge } => write!(f, "sever-data(e{edge})"),
            FaultKind::HealData { edge } => write!(f, "heal-data(e{edge})"),
            FaultKind::DelayAcks { edge } => write!(f, "delay-acks(e{edge})"),
            FaultKind::RestoreAcks { edge } => write!(f, "restore-acks(e{edge})"),
            FaultKind::DiskFault { op, permille } => {
                write!(f, "disk-fault(op{op}, {permille}‰)")
            }
            FaultKind::DiskHeal { op } => write!(f, "disk-heal(op{op})"),
            FaultKind::DiskStall { op, millis } => write!(f, "disk-stall(op{op}, {millis}ms)"),
            FaultKind::StallSink { sink, millis } => write!(f, "stall-sink(s{sink}, {millis}ms)"),
            FaultKind::DelaySpike { edge, extra_ms, window_ms } => {
                write!(f, "delay-spike(e{edge}, +{extra_ms}ms/{window_ms}ms)")
            }
            FaultKind::ListenerDrop { op, millis } => {
                write!(f, "listener-drop(op{op}, {millis}ms)")
            }
            FaultKind::PartitionInbound { op, millis } => {
                write!(f, "partition-in(op{op}, {millis}ms)")
            }
            FaultKind::PauseBeats { op, millis } => write!(f, "pause-beats(op{op}, {millis}ms)"),
        }
    }
}

/// A fault scheduled at a plan step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultEvent {
    /// The step at (or after) which the fault fires.
    pub step: u64,
    /// What to inject.
    pub kind: FaultKind,
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{} {}", self.step, self.kind)
    }
}

/// The shape of a target graph, for random plan generation
/// ([`ChaosTarget::topology`](crate::ChaosTarget::topology) probes a live
/// one).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Topology {
    /// Number of operators (crash candidates).
    pub operators: u32,
    /// Number of operator-to-operator edges (sever candidates).
    pub edges: usize,
    /// Operators with durable storage (disk-fault candidates).
    pub storage_ops: Vec<u32>,
    /// Number of sinks (slow-consumer stall candidates).
    pub sinks: usize,
}

/// A reproducible fault schedule.
///
/// Equality of plans means equality of fault timelines; a plan generated
/// from a seed can always be regenerated from the same seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// The generating seed (0 for scripted plans).
    pub seed: u64,
    /// The schedule, sorted by step.
    pub events: Vec<FaultEvent>,
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "plan(seed={})", self.seed)?;
        for ev in &self.events {
            write!(f, " {ev}")?;
        }
        Ok(())
    }
}

/// Steps that must pass after a crash before the next crash may fire
/// (gives the supervisor room to restart and replay to catch up).
const CRASH_COOLDOWN: u64 = 8;

/// Maximum length (in steps) a random sever / disk-fault window stays open.
const MAX_WINDOW: u64 = 6;

/// Steps that must pass after a cluster kill or beat pause before the next
/// one may fire: a respawned process needs time to re-handshake and replay
/// before the plan knocks the chain over again (one recovery at a time).
const DISRUPTION_COOLDOWN: u64 = 10;

/// Longest window (ms) a random listener drop or inbound partition stays
/// open. Short against the lease, so a network fault does not pass for a
/// dead process.
const MAX_NET_WINDOW_MS: u64 = 120;

impl FaultPlan {
    /// A hand-scripted plan. Events are sorted by step.
    pub fn scripted(mut events: Vec<FaultEvent>) -> FaultPlan {
        events.sort_by_key(|e| e.step);
        FaultPlan { seed: 0, events }
    }

    /// Draws a random plan over `steps` steps from `seed`.
    ///
    /// The same `(seed, steps, topology)` always yields the same plan.
    /// Invariants: consecutive crashes are separated by a cooldown, every
    /// sever / delay-acks / disk-fault window is closed by `steps` at the
    /// latest, and faults never target indices outside the topology.
    pub fn random(seed: u64, steps: u64, topo: &Topology) -> FaultPlan {
        let mut rng = DetRng::seed_from(seed ^ 0xC4A0_5EED);
        let mut events = Vec::new();
        let mut severed_data: Vec<Option<u64>> = vec![None; topo.edges];
        let mut severed_ctrl: Vec<Option<u64>> = vec![None; topo.edges];
        let mut disk_faulted: Vec<bool> = vec![false; topo.operators as usize];
        let mut next_crash_ok = 0u64;
        for step in 0..steps {
            // Close expired windows first so flapping links actually flap.
            for (edge, open) in severed_data.iter_mut().enumerate() {
                if open.map(|until| step >= until).unwrap_or(false) {
                    events.push(FaultEvent { step, kind: FaultKind::HealData { edge } });
                    *open = None;
                }
            }
            for (edge, open) in severed_ctrl.iter_mut().enumerate() {
                if open.map(|until| step >= until).unwrap_or(false) {
                    events.push(FaultEvent { step, kind: FaultKind::RestoreAcks { edge } });
                    *open = None;
                }
            }
            // Roughly one fault every four steps.
            if !rng.next_bool(0.25) {
                continue;
            }
            match rng.next_below(6) {
                0 if step >= next_crash_ok && topo.operators > 0 => {
                    let op = rng.next_below(u64::from(topo.operators)) as u32;
                    events.push(FaultEvent { step, kind: FaultKind::CrashNode { op } });
                    next_crash_ok = step + CRASH_COOLDOWN;
                }
                1 if topo.edges > 0 => {
                    let edge = rng.next_below(topo.edges as u64) as usize;
                    if severed_data[edge].is_none() {
                        let window = 1 + rng.next_below(MAX_WINDOW);
                        events.push(FaultEvent { step, kind: FaultKind::SeverData { edge } });
                        severed_data[edge] = Some((step + window).min(steps.saturating_sub(1)));
                    }
                }
                2 if topo.edges > 0 => {
                    let edge = rng.next_below(topo.edges as u64) as usize;
                    if severed_ctrl[edge].is_none() {
                        let window = 1 + rng.next_below(MAX_WINDOW);
                        events.push(FaultEvent { step, kind: FaultKind::DelayAcks { edge } });
                        severed_ctrl[edge] = Some((step + window).min(steps.saturating_sub(1)));
                    }
                }
                3 if !topo.storage_ops.is_empty() => {
                    let op =
                        topo.storage_ops[rng.next_below(topo.storage_ops.len() as u64) as usize];
                    if !disk_faulted[op as usize] {
                        let permille = 200 + rng.next_below(500) as u16;
                        events
                            .push(FaultEvent { step, kind: FaultKind::DiskFault { op, permille } });
                        disk_faulted[op as usize] = true;
                    }
                }
                4 if !topo.storage_ops.is_empty() => {
                    let op =
                        topo.storage_ops[rng.next_below(topo.storage_ops.len() as u64) as usize];
                    if disk_faulted[op as usize] {
                        events.push(FaultEvent { step, kind: FaultKind::DiskHeal { op } });
                        disk_faulted[op as usize] = false;
                    }
                }
                5 if !topo.storage_ops.is_empty() => {
                    let op =
                        topo.storage_ops[rng.next_below(topo.storage_ops.len() as u64) as usize];
                    let millis = 1 + rng.next_below(10);
                    events.push(FaultEvent { step, kind: FaultKind::DiskStall { op, millis } });
                }
                _ => {}
            }
        }
        // Close every window still open at the end of the plan.
        for (edge, open) in severed_data.iter().enumerate() {
            if open.is_some() {
                events.push(FaultEvent { step: steps, kind: FaultKind::HealData { edge } });
            }
        }
        for (edge, open) in severed_ctrl.iter().enumerate() {
            if open.is_some() {
                events.push(FaultEvent { step: steps, kind: FaultKind::RestoreAcks { edge } });
            }
        }
        for (op, faulted) in disk_faulted.iter().enumerate() {
            if *faulted {
                events
                    .push(FaultEvent { step: steps, kind: FaultKind::DiskHeal { op: op as u32 } });
            }
        }
        events.sort_by_key(|e| e.step);
        FaultPlan { seed, events }
    }

    /// Draws a random *network-nemesis* plan over `steps` steps: only
    /// link-layer faults — slow-consumer sink stalls, congestion delay
    /// spikes, asymmetric partitions (data severed while acks flow), and
    /// ack starvation (acks severed while data flows). No crashes and no
    /// storage faults, so the plan exercises the flow-control and
    /// retransmission machinery in isolation.
    ///
    /// The same `(seed, steps, topology)` always yields the same plan,
    /// and every sever window is closed by `steps` at the latest.
    pub fn random_network(seed: u64, steps: u64, topo: &Topology) -> FaultPlan {
        let mut rng = DetRng::seed_from(seed ^ 0x4E7E_514B);
        let mut events = Vec::new();
        let mut severed_data: Vec<Option<u64>> = vec![None; topo.edges];
        let mut severed_ctrl: Vec<Option<u64>> = vec![None; topo.edges];
        for step in 0..steps {
            for (edge, open) in severed_data.iter_mut().enumerate() {
                if open.map(|until| step >= until).unwrap_or(false) {
                    events.push(FaultEvent { step, kind: FaultKind::HealData { edge } });
                    *open = None;
                }
            }
            for (edge, open) in severed_ctrl.iter_mut().enumerate() {
                if open.map(|until| step >= until).unwrap_or(false) {
                    events.push(FaultEvent { step, kind: FaultKind::RestoreAcks { edge } });
                    *open = None;
                }
            }
            // Network turbulence is denser than the mixed plan's faults:
            // roughly one event every three steps.
            if !rng.next_bool(0.35) {
                continue;
            }
            match rng.next_below(4) {
                0 if topo.sinks > 0 => {
                    let sink = rng.next_below(topo.sinks as u64) as usize;
                    let millis = 1 + rng.next_below(8);
                    events.push(FaultEvent { step, kind: FaultKind::StallSink { sink, millis } });
                }
                1 if topo.edges > 0 => {
                    let edge = rng.next_below(topo.edges as u64) as usize;
                    let extra_ms = 1 + rng.next_below(5);
                    let window_ms = 1 + rng.next_below(8);
                    events.push(FaultEvent {
                        step,
                        kind: FaultKind::DelaySpike { edge, extra_ms, window_ms },
                    });
                }
                // Asymmetric partition: data path cut, control path alive.
                2 if topo.edges > 0 => {
                    let edge = rng.next_below(topo.edges as u64) as usize;
                    if severed_data[edge].is_none() {
                        let window = 1 + rng.next_below(MAX_WINDOW);
                        events.push(FaultEvent { step, kind: FaultKind::SeverData { edge } });
                        severed_data[edge] = Some((step + window).min(steps.saturating_sub(1)));
                    }
                }
                // Ack starvation: control path cut, data path alive.
                3 if topo.edges > 0 => {
                    let edge = rng.next_below(topo.edges as u64) as usize;
                    if severed_ctrl[edge].is_none() {
                        let window = 1 + rng.next_below(MAX_WINDOW);
                        events.push(FaultEvent { step, kind: FaultKind::DelayAcks { edge } });
                        severed_ctrl[edge] = Some((step + window).min(steps.saturating_sub(1)));
                    }
                }
                _ => {}
            }
        }
        for (edge, open) in severed_data.iter().enumerate() {
            if open.is_some() {
                events.push(FaultEvent { step: steps, kind: FaultKind::HealData { edge } });
            }
        }
        for (edge, open) in severed_ctrl.iter().enumerate() {
            if open.is_some() {
                events.push(FaultEvent { step: steps, kind: FaultKind::RestoreAcks { edge } });
            }
        }
        events.sort_by_key(|e| e.step);
        FaultPlan { seed, events }
    }

    /// Draws a random plan of cluster faults over `steps` steps against
    /// `workers` worker processes: kills, listener drops, inbound partitions
    /// and beat pauses, roughly one every five steps (a process recovers
    /// more slowly than a thread, so plans are sparser).
    ///
    /// The same `(seed, steps, workers)` always yields the same plan.
    /// Invariants: kills and beat pauses share one cooldown (one recovery
    /// in flight at a time), network windows are at most
    /// [`MAX_NET_WINDOW_MS`], and nothing fires in the last
    /// `DISRUPTION_COOLDOWN` steps, so the run can quiesce.
    pub fn random_cluster(seed: u64, steps: u64, workers: u32) -> FaultPlan {
        let mut rng = DetRng::seed_from(seed ^ 0xD157_C4A5);
        let mut events = Vec::new();
        let mut next_disruption_ok = 2u64; // let the cluster boot first
        for step in 0..steps.saturating_sub(DISRUPTION_COOLDOWN) {
            if !rng.next_bool(0.2) || workers == 0 {
                continue;
            }
            let op = rng.next_below(u64::from(workers)) as u32;
            let kind = match rng.next_below(4) {
                0 if step >= next_disruption_ok => {
                    next_disruption_ok = step + DISRUPTION_COOLDOWN;
                    FaultKind::CrashNode { op }
                }
                1 => FaultKind::ListenerDrop {
                    op,
                    millis: 20 + rng.next_below(MAX_NET_WINDOW_MS - 20),
                },
                2 => FaultKind::PartitionInbound {
                    op,
                    millis: 20 + rng.next_below(MAX_NET_WINDOW_MS - 20),
                },
                3 if step >= next_disruption_ok => {
                    next_disruption_ok = step + DISRUPTION_COOLDOWN;
                    // Long enough to overrun a 250 ms lease: the pause must
                    // resolve as an expiry.
                    FaultKind::PauseBeats { op, millis: 300 + rng.next_below(200) }
                }
                _ => continue,
            };
            events.push(FaultEvent { step, kind });
        }
        FaultPlan { seed, events }
    }

    /// Whether the plan leaves every sever / disk-fault window closed.
    pub fn windows_closed(&self) -> bool {
        let mut data = std::collections::HashSet::new();
        let mut ctrl = std::collections::HashSet::new();
        let mut disk = std::collections::HashSet::new();
        for ev in &self.events {
            match ev.kind {
                FaultKind::SeverData { edge } => {
                    data.insert(edge);
                }
                FaultKind::HealData { edge } => {
                    data.remove(&edge);
                }
                FaultKind::DelayAcks { edge } => {
                    ctrl.insert(edge);
                }
                FaultKind::RestoreAcks { edge } => {
                    ctrl.remove(&edge);
                }
                FaultKind::DiskFault { op, .. } => {
                    disk.insert(op);
                }
                FaultKind::DiskHeal { op } => {
                    disk.remove(&op);
                }
                _ => {}
            }
        }
        data.is_empty() && ctrl.is_empty() && disk.is_empty()
    }

    /// Number of crash events in the plan.
    pub fn crash_count(&self) -> usize {
        self.events.iter().filter(|e| matches!(e.kind, FaultKind::CrashNode { .. })).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology { operators: 3, edges: 2, storage_ops: vec![0, 1, 2], sinks: 1 }
    }

    #[test]
    fn random_plans_are_reproducible() {
        for seed in 0..32u64 {
            let a = FaultPlan::random(seed, 40, &topo());
            let b = FaultPlan::random(seed, 40, &topo());
            assert_eq!(a, b, "seed {seed} not reproducible");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::random(1, 40, &topo());
        let b = FaultPlan::random(2, 40, &topo());
        assert_ne!(a, b);
    }

    #[test]
    fn random_plans_close_all_windows() {
        for seed in 0..64u64 {
            let plan = FaultPlan::random(seed, 40, &topo());
            assert!(plan.windows_closed(), "seed {seed} leaves a window open: {plan}");
        }
    }

    #[test]
    fn crashes_respect_cooldown() {
        for seed in 0..64u64 {
            let plan = FaultPlan::random(seed, 60, &topo());
            let crashes: Vec<u64> = plan
                .events
                .iter()
                .filter(|e| matches!(e.kind, FaultKind::CrashNode { .. }))
                .map(|e| e.step)
                .collect();
            for pair in crashes.windows(2) {
                assert!(
                    pair[1] - pair[0] >= CRASH_COOLDOWN,
                    "seed {seed}: crashes at {} and {} too close",
                    pair[0],
                    pair[1]
                );
            }
        }
    }

    #[test]
    fn events_are_sorted_and_in_range() {
        for seed in 0..32u64 {
            let t = topo();
            let plan = FaultPlan::random(seed, 40, &t);
            let mut last = 0;
            for ev in &plan.events {
                assert!(ev.step >= last);
                last = ev.step;
                match ev.kind {
                    FaultKind::CrashNode { op }
                    | FaultKind::DiskHeal { op }
                    | FaultKind::DiskStall { op, .. }
                    | FaultKind::DiskFault { op, .. }
                    | FaultKind::ListenerDrop { op, .. }
                    | FaultKind::PartitionInbound { op, .. }
                    | FaultKind::PauseBeats { op, .. } => assert!(op < t.operators),
                    FaultKind::SeverData { edge }
                    | FaultKind::HealData { edge }
                    | FaultKind::DelayAcks { edge }
                    | FaultKind::RestoreAcks { edge }
                    | FaultKind::DelaySpike { edge, .. } => assert!(edge < t.edges),
                    FaultKind::StallSink { sink, .. } => assert!(sink < t.sinks),
                }
            }
        }
    }

    #[test]
    fn network_plans_are_reproducible_and_network_only() {
        for seed in 0..32u64 {
            let a = FaultPlan::random_network(seed, 40, &topo());
            let b = FaultPlan::random_network(seed, 40, &topo());
            assert_eq!(a, b, "seed {seed} not reproducible");
            assert!(a.windows_closed(), "seed {seed} leaves a window open: {a}");
            for ev in &a.events {
                assert!(
                    matches!(
                        ev.kind,
                        FaultKind::StallSink { .. }
                            | FaultKind::DelaySpike { .. }
                            | FaultKind::SeverData { .. }
                            | FaultKind::HealData { .. }
                            | FaultKind::DelayAcks { .. }
                            | FaultKind::RestoreAcks { .. }
                    ),
                    "seed {seed}: non-network fault {ev}"
                );
            }
        }
    }

    #[test]
    fn network_plans_hit_every_network_fault_kind_across_seeds() {
        let (mut stalls, mut spikes, mut partitions, mut starvations) = (0, 0, 0, 0);
        for seed in 0..16u64 {
            for ev in &FaultPlan::random_network(seed, 40, &topo()).events {
                match ev.kind {
                    FaultKind::StallSink { .. } => stalls += 1,
                    FaultKind::DelaySpike { .. } => spikes += 1,
                    FaultKind::SeverData { .. } => partitions += 1,
                    FaultKind::DelayAcks { .. } => starvations += 1,
                    _ => {}
                }
            }
        }
        assert!(stalls > 0, "no sink stalls across 16 seeds");
        assert!(spikes > 0, "no delay spikes across 16 seeds");
        assert!(partitions > 0, "no data partitions across 16 seeds");
        assert!(starvations > 0, "no ack starvation across 16 seeds");
    }

    #[test]
    fn cluster_plans_are_reproducible_and_keep_one_disruption_at_a_time() {
        assert_ne!(FaultPlan::random_cluster(1, 40, 3), FaultPlan::random_cluster(2, 40, 3));
        for seed in 0..64u64 {
            let plan = FaultPlan::random_cluster(seed, 80, 3);
            assert_eq!(plan, FaultPlan::random_cluster(seed, 80, 3), "seed {seed}");
            let disruptions: Vec<u64> = plan
                .events
                .iter()
                .filter(|e| {
                    matches!(e.kind, FaultKind::CrashNode { .. } | FaultKind::PauseBeats { .. })
                })
                .map(|e| e.step)
                .collect();
            for pair in disruptions.windows(2) {
                assert!(
                    pair[1] - pair[0] >= DISRUPTION_COOLDOWN,
                    "seed {seed}: disruptions at {} and {} too close",
                    pair[0],
                    pair[1]
                );
            }
        }
    }

    #[test]
    fn cluster_plans_target_valid_workers_and_leave_quiesce_room() {
        let steps = 40;
        for seed in 0..32u64 {
            let plan = FaultPlan::random_cluster(seed, steps, 3);
            let mut last = 0;
            for ev in &plan.events {
                assert!(ev.step >= last, "seed {seed}: events not sorted");
                last = ev.step;
                assert!(ev.step < steps - DISRUPTION_COOLDOWN, "seed {seed}: no quiet tail ({ev})");
                let (op, window) = match ev.kind {
                    FaultKind::CrashNode { op } | FaultKind::PauseBeats { op, .. } => (op, None),
                    FaultKind::ListenerDrop { op, millis }
                    | FaultKind::PartitionInbound { op, millis } => (op, Some(millis)),
                    other => panic!("seed {seed}: {other} is no cluster fault"),
                };
                assert!(op < 3, "seed {seed}: worker out of range ({ev})");
                assert!(window.is_none_or(|ms| ms <= MAX_NET_WINDOW_MS), "seed {seed}: {ev}");
            }
        }
    }

    #[test]
    fn cluster_plans_hit_every_cluster_fault_kind_across_seeds() {
        let (mut kills, mut drops, mut partitions, mut pauses) = (0, 0, 0, 0);
        for seed in 0..24u64 {
            for ev in &FaultPlan::random_cluster(seed, 60, 3).events {
                match ev.kind {
                    FaultKind::CrashNode { .. } => kills += 1,
                    FaultKind::ListenerDrop { .. } => drops += 1,
                    FaultKind::PartitionInbound { .. } => partitions += 1,
                    FaultKind::PauseBeats { .. } => pauses += 1,
                    _ => {}
                }
            }
        }
        assert!(kills > 0 && drops > 0 && partitions > 0 && pauses > 0);
    }

    /// The distributed grid's 16 schedules (24 steps, 3 workers), as the
    /// cluster generator drew them when it was a plan type of its own:
    /// `(step, fault, worker, window ms)`, fault `k`ill, listener `d`rop,
    /// inbound `p`artition or beat `s`ilence. The generator reproduces
    /// them draw for draw, so the grid covers what it covered.
    #[test]
    fn cluster_plans_reproduce_the_pinned_distributed_grid() {
        #[rustfmt::skip]
        const GRID: [&[(u64, char, u32, u64)]; 16] = [
            &[(2, 'd', 2, 51), (3, 'p', 1, 61), (4, 'p', 1, 34), (6, 's', 0, 374)],
            &[(0, 'p', 2, 78), (2, 'd', 1, 32), (7, 'p', 2, 37), (11, 'd', 2, 88)],
            &[(7, 'd', 0, 107), (10, 'p', 0, 95), (11, 'k', 1, 0), (13, 'p', 2, 36)],
            &[(11, 'd', 0, 37)],
            &[(2, 'p', 1, 66), (4, 'k', 0, 0)],
            &[(2, 'k', 1, 0), (7, 'p', 0, 67)],
            &[(2, 's', 2, 368), (10, 'p', 0, 67), (12, 'd', 1, 62)],
            &[(2, 's', 0, 431), (12, 'd', 1, 90)],
            &[(0, 'p', 2, 90), (6, 'd', 2, 98), (8, 'p', 2, 118)],
            &[(2, 'p', 1, 90), (5, 'p', 0, 21)],
            &[(7, 's', 0, 350)],
            &[(4, 's', 1, 476)],
            &[(0, 'p', 2, 93), (4, 'p', 2, 31), (8, 'p', 0, 116)],
            &[(2, 's', 2, 327), (7, 'p', 0, 58)],
            &[(9, 'p', 0, 105), (10, 'p', 0, 83), (12, 'p', 0, 92)],
            &[(6, 'k', 1, 0), (8, 'd', 0, 103), (9, 'p', 1, 78)],
        ];
        for (seed, pinned) in GRID.iter().enumerate() {
            let pinned: Vec<FaultEvent> = pinned
                .iter()
                .map(|&(step, fault, op, millis)| FaultEvent {
                    step,
                    kind: match fault {
                        'k' => FaultKind::CrashNode { op },
                        'd' => FaultKind::ListenerDrop { op, millis },
                        'p' => FaultKind::PartitionInbound { op, millis },
                        's' => FaultKind::PauseBeats { op, millis },
                        other => panic!("no fault '{other}'"),
                    },
                })
                .collect();
            let plan = FaultPlan::random_cluster(seed as u64, 24, 3);
            assert_eq!(plan.events, pinned, "seed {seed}: {plan}");
        }
    }

    #[test]
    fn scripted_plans_sort_by_step() {
        let plan = FaultPlan::scripted(vec![
            FaultEvent { step: 9, kind: FaultKind::HealData { edge: 0 } },
            FaultEvent { step: 3, kind: FaultKind::SeverData { edge: 0 } },
        ]);
        assert_eq!(plan.events[0].step, 3);
        assert!(plan.windows_closed());
    }
}
