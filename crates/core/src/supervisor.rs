//! Supervised crash recovery.
//!
//! The paper's recovery procedure (§2.2) is *mechanism*; this module adds
//! the *policy*: a [`Supervisor`] monitors every node of a running graph
//! through heartbeats, detects crashes (explicit crash state from the
//! coordinator, or a stale heartbeat combined with a finished thread), and
//! restarts the node from its latest checkpoint plus decision-log replay —
//! with capped exponential backoff between consecutive restart attempts so
//! a crash-looping operator cannot busy-spin the host.
//!
//! Every restart is recorded as a [`RecoveryEvent`], giving tests and chaos
//! harnesses an observable, assertable recovery timeline.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use streammine_common::ids::OperatorId;
use streammine_net::BackoffConfig;
use streammine_obs::{JournalKind, Labels, Obs};

use crate::graph::NodePersist;

/// How often an idle coordinator wakes up to beat its heartbeat and run
/// the replay watchdog.
pub(crate) const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(10);

/// Lifecycle state of one node, as seen by the supervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// The coordinator loop is (believed to be) running.
    Running,
    /// The coordinator stopped after a clean shutdown.
    CleanExit,
    /// The coordinator stopped because of a crash (simulated crash command
    /// or a panic in the coordinator thread).
    Crashed,
}

/// Shared health record of one node: a heartbeat counter the coordinator
/// bumps and a lifecycle state it publishes on exit. Lives outside the node
/// thread, so it survives crashes.
#[derive(Debug)]
pub struct NodeHealth {
    beat: AtomicU64,
    state: AtomicU8,
}

impl NodeHealth {
    pub(crate) fn new() -> Self {
        NodeHealth { beat: AtomicU64::new(0), state: AtomicU8::new(0) }
    }

    /// Bumps the heartbeat counter (called by the coordinator loop).
    pub(crate) fn beat(&self) {
        self.beat.fetch_add(1, Ordering::Relaxed);
    }

    /// Heartbeats observed so far.
    pub fn beats(&self) -> u64 {
        self.beat.load(Ordering::Relaxed)
    }

    pub(crate) fn set_state(&self, state: NodeState) {
        self.state.store(state as u8, Ordering::Release);
    }

    /// The node's current lifecycle state.
    pub fn state(&self) -> NodeState {
        match self.state.load(Ordering::Acquire) {
            1 => NodeState::CleanExit,
            2 => NodeState::Crashed,
            _ => NodeState::Running,
        }
    }

    /// Resets to `Running` before a restart.
    pub(crate) fn reset(&self) {
        self.state.store(0, Ordering::Release);
    }
}

/// Tuning knobs of the supervisor.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// How often the monitor thread scans node health.
    pub poll_interval: Duration,
    /// A node whose heartbeat has not moved for this long — and whose
    /// thread has exited — is declared crashed even if it never published a
    /// crash state (backstop for hard kills).
    pub crash_timeout: Duration,
    /// Backoff between consecutive restarts of the same node:
    /// `base * 2^(attempt-1)`, capped.
    pub backoff: BackoffConfig,
    /// After a restarted node stays `Running` for this long, its attempt
    /// counter resets (the next crash starts from the base delay again).
    pub stability_window: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            poll_interval: Duration::from_millis(5),
            crash_timeout: Duration::from_millis(100),
            backoff: BackoffConfig {
                base: Duration::from_millis(10),
                cap: Duration::from_millis(200),
            },
            stability_window: Duration::from_secs(1),
        }
    }
}

impl SupervisorConfig {
    /// A fast-reacting configuration for tests and chaos harnesses.
    pub fn aggressive() -> Self {
        SupervisorConfig {
            poll_interval: Duration::from_millis(2),
            crash_timeout: Duration::from_millis(40),
            backoff: BackoffConfig {
                base: Duration::from_millis(4),
                cap: Duration::from_millis(40),
            },
            stability_window: Duration::from_millis(200),
        }
    }
}

/// One supervised restart, as observed by the monitor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryEvent {
    /// The restarted operator.
    pub op: OperatorId,
    /// 1-based consecutive attempt number (resets after a stability
    /// window).
    pub attempt: u32,
    /// The backoff delay applied before this restart.
    pub backoff: Duration,
}

impl fmt::Display for RecoveryEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "restart {} attempt={} backoff={:?}", self.op, self.attempt, self.backoff)
    }
}

#[derive(Debug)]
struct NodeTrack {
    attempts: u32,
    last_beats: u64,
    last_change: Instant,
    restart_at: Option<(Instant, RecoveryEvent)>,
    restarted_at: Option<Instant>,
}

/// Handle to a running supervisor thread. Dropping it stops monitoring.
pub struct Supervisor {
    events: Arc<Mutex<Vec<RecoveryEvent>>>,
    stop: Arc<AtomicBool>,
    join: Mutex<Option<JoinHandle<()>>>,
}

impl fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Supervisor").field("restarts", &self.events.lock().len()).finish()
    }
}

impl Supervisor {
    pub(crate) fn spawn(
        nodes: Arc<Vec<NodePersist>>,
        stopping: Arc<AtomicBool>,
        config: SupervisorConfig,
        obs: Obs,
    ) -> Supervisor {
        let events: Arc<Mutex<Vec<RecoveryEvent>>> = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let join = {
            let events = events.clone();
            let stop = stop.clone();
            std::thread::Builder::new()
                .name("supervisor".into())
                .spawn(move || {
                    monitor(&nodes, &stopping, &stop, &config, &events, &obs);
                })
                .ok()
        };
        Supervisor { events, stop, join: Mutex::new(join) }
    }

    /// The recovery timeline so far, in detection order.
    pub fn events(&self) -> Vec<RecoveryEvent> {
        self.events.lock().clone()
    }

    /// Number of supervised restarts performed.
    pub fn restarts(&self) -> usize {
        self.events.lock().len()
    }

    /// Stops monitoring and waits for the monitor thread.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
        if let Some(join) = self.join.lock().take() {
            let _ = join.join();
        }
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.stop();
    }
}

fn monitor(
    nodes: &Arc<Vec<NodePersist>>,
    stopping: &AtomicBool,
    stop: &AtomicBool,
    config: &SupervisorConfig,
    events: &Mutex<Vec<RecoveryEvent>>,
    obs: &Obs,
) {
    let now = Instant::now();
    let mut track: Vec<NodeTrack> = nodes
        .iter()
        .map(|node| NodeTrack {
            attempts: 0,
            last_beats: node.health().beats(),
            last_change: now,
            restart_at: None,
            restarted_at: None,
        })
        .collect();
    while !stop.load(Ordering::Acquire) && !stopping.load(Ordering::Acquire) {
        let now = Instant::now();
        for (node, t) in nodes.iter().zip(track.iter_mut()) {
            // A restart already scheduled: perform it once the backoff
            // elapses; ignore the node until then. The event is recorded
            // only when the restart actually happens, so `restarts()`
            // observes completed recoveries, not intentions.
            if let Some((at, ref ev)) = t.restart_at {
                if now >= at {
                    node.restart();
                    events.lock().push(ev.clone());
                    // Mirror the event into the registry + journal so the
                    // recovery timeline is assertable from metrics alone.
                    let op = node.id().index();
                    obs.registry.counter("recovery.restarts", Labels::op(op)).incr();
                    obs.journal.record(
                        Some(op),
                        JournalKind::Restart {
                            attempt: ev.attempt,
                            backoff_us: ev.backoff.as_micros() as u64,
                        },
                    );
                    t.restart_at = None;
                    t.restarted_at = Some(now);
                    t.last_beats = node.health().beats();
                    t.last_change = now;
                }
                continue;
            }
            let state = node.health().state();
            // Stable for a full window: forgive past crashes.
            if state == NodeState::Running {
                if let Some(r) = t.restarted_at {
                    if now.duration_since(r) >= config.stability_window {
                        t.attempts = 0;
                        t.restarted_at = None;
                    }
                }
            }
            let crashed = match state {
                NodeState::Crashed => true,
                NodeState::CleanExit => false,
                NodeState::Running => {
                    // Heartbeat backstop: a silent thread that also exited
                    // is a crash even without a published crash state.
                    let beats = node.health().beats();
                    if beats != t.last_beats {
                        t.last_beats = beats;
                        t.last_change = now;
                        false
                    } else {
                        now.duration_since(t.last_change) >= config.crash_timeout
                            && node.thread_finished()
                    }
                }
            };
            if crashed {
                t.attempts += 1;
                let backoff = config.backoff.delay(t.attempts);
                let ev = RecoveryEvent { op: node.id(), attempt: t.attempts, backoff };
                t.restart_at = Some((now + backoff, ev));
            }
        }
        std::thread::sleep(config.poll_interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_health_transitions() {
        let h = NodeHealth::new();
        assert_eq!(h.state(), NodeState::Running);
        h.beat();
        h.beat();
        assert_eq!(h.beats(), 2);
        h.set_state(NodeState::Crashed);
        assert_eq!(h.state(), NodeState::Crashed);
        h.reset();
        assert_eq!(h.state(), NodeState::Running);
        h.set_state(NodeState::CleanExit);
        assert_eq!(h.state(), NodeState::CleanExit);
    }

    #[test]
    fn aggressive_config_is_faster_than_default() {
        let fast = SupervisorConfig::aggressive();
        let slow = SupervisorConfig::default();
        assert!(fast.poll_interval < slow.poll_interval);
        assert!(fast.crash_timeout < slow.crash_timeout);
        assert!(fast.backoff.base < slow.backoff.base);
    }
}
