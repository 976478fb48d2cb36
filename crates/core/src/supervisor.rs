//! Supervised crash recovery.
//!
//! The paper's recovery procedure (§2.2) is *mechanism*; this module adds
//! the *policy*. Inside one process a crash is a certainty, not a
//! suspicion: the coordinator thread exits — a simulated crash, or a panic
//! — and reports so on its way out. A [`Supervisor`] blocks on those
//! reports and restarts a crashed node from its latest checkpoint plus
//! decision-log replay, with capped exponential backoff between
//! consecutive restarts so a crash-looping operator cannot busy-spin the
//! host. Nothing is polled: it sleeps until the next exit, or until a
//! restart it scheduled falls due.
//!
//! Every restart is recorded as a [`RecoveryTimeline`], the shape a
//! cluster's monitor records for a worker process: the slot is the
//! operator, the incarnation its restart count. The thread's exit is both
//! detection and fence (nothing of the old coordinator survives it), the
//! restart is the respawn, and the later phases belong to processes. The
//! attempt and the backoff are in the journal's `Restart` record.

use std::fmt;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam_channel::{Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use streammine_common::ids::OperatorId;
use streammine_net::BackoffConfig;
use streammine_obs::{FaultKind, JournalKind, Labels, Obs, RecoveryTimeline};

use crate::graph::NodePersist;

/// After a node's previous restart is this old, its next crash starts
/// from the base delay again.
const STABILITY_WINDOW: Duration = Duration::from_millis(200);

/// What the supervisor's channel carries.
#[derive(Debug)]
pub(crate) enum Signal {
    /// A coordinator thread ended; `crashed` unless it shut down cleanly.
    Exited { op: OperatorId, crashed: bool },
    /// The supervisor stops, or the graph shuts down.
    Stop,
}

/// Handle to a running supervisor thread. Dropping it stops monitoring.
/// A graph has one supervisor at a time.
pub struct Supervisor {
    timelines: Arc<Mutex<Vec<RecoveryTimeline>>>,
    signals: Sender<Signal>,
    join: Mutex<Option<JoinHandle<()>>>,
}

impl fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Supervisor").field("restarts", &self.restarts()).finish()
    }
}

impl Supervisor {
    /// Backoff between consecutive restarts of one node:
    /// `4 ms * 2^(attempt-1)`, capped at 40 ms.
    pub const BACKOFF: BackoffConfig = BackoffConfig::millis(4, 40);

    pub(crate) fn spawn(
        nodes: Arc<Vec<NodePersist>>,
        stopping: Arc<AtomicBool>,
        signals: Sender<Signal>,
        exits: Receiver<Signal>,
        obs: Obs,
    ) -> Supervisor {
        // Exits from before this supervisor are not its to restart.
        while exits.try_recv().is_ok() {}
        let timelines = Arc::new(Mutex::new(Vec::new()));
        let join = {
            let timelines = timelines.clone();
            std::thread::Builder::new()
                .name("supervisor".into())
                .spawn(move || monitor(&nodes, &stopping, &exits, &timelines, &obs))
                .ok()
        };
        Supervisor { timelines, signals, join: Mutex::new(join) }
    }

    /// The recovery timelines so far, in restart order. Stamps are
    /// microseconds since the supervisor started.
    pub fn recovery_timelines(&self) -> Vec<RecoveryTimeline> {
        self.timelines.lock().clone()
    }

    /// Number of supervised restarts performed.
    pub fn restarts(&self) -> usize {
        self.timelines.lock().len()
    }

    /// Stops monitoring and waits for the monitor thread.
    pub fn stop(&self) {
        if let Some(join) = self.join.lock().take() {
            let _ = self.signals.send(Signal::Stop);
            let _ = join.join();
        }
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A restart scheduled and not yet done.
struct Due {
    at: Instant,
    op: u32,
    attempt: u32,
    backoff: Duration,
    detect_us: u64,
}

fn monitor(
    nodes: &[NodePersist],
    stopping: &AtomicBool,
    exits: &Receiver<Signal>,
    timelines: &Mutex<Vec<RecoveryTimeline>>,
    obs: &Obs,
) {
    let epoch = Instant::now();
    let now_us = || epoch.elapsed().as_micros() as u64;
    let mut attempts = vec![0u32; nodes.len()];
    let mut restarts = vec![0u64; nodes.len()];
    let mut restarted_at: Vec<Option<Instant>> = vec![None; nodes.len()];
    let mut due: Vec<Due> = Vec::new();
    loop {
        let signal = match due.iter().map(|d| d.at).min() {
            Some(at) => exits.recv_timeout(at.saturating_duration_since(Instant::now())),
            None => exits.recv().map_err(|_| RecvTimeoutError::Disconnected),
        };
        match signal {
            Ok(Signal::Exited { op, crashed: true }) => {
                let i = op.index() as usize;
                let now = Instant::now();
                // Stable for a full window since its last restart: forgive
                // past crashes.
                if restarted_at[i].is_some_and(|at| now - at >= STABILITY_WINDOW) {
                    attempts[i] = 0;
                }
                attempts[i] += 1;
                let backoff = Supervisor::BACKOFF.delay(attempts[i]);
                // Stamped from the instant the backoff counts from, so the
                // timeline shows at least the whole backoff.
                let detect_us = now.duration_since(epoch).as_micros() as u64;
                let attempt = attempts[i];
                due.push(Due { at: now + backoff, op: op.index(), attempt, backoff, detect_us });
            }
            Ok(Signal::Exited { crashed: false, .. }) | Err(RecvTimeoutError::Timeout) => {}
            Ok(Signal::Stop) | Err(RecvTimeoutError::Disconnected) => return,
        }
        // The timeline is recorded only when the restart happens, so
        // `restarts()` observes completed recoveries, not intentions.
        while let Some(next) = due.iter().position(|d| d.at <= Instant::now()) {
            let d = due.swap_remove(next);
            let i = d.op as usize;
            if !nodes[i].restart(stopping) {
                return;
            }
            restarted_at[i] = Some(Instant::now());
            restarts[i] += 1;
            // Mirror the restart into the registry + journal so the
            // recovery is assertable from metrics alone.
            obs.registry.counter("recovery.restarts", Labels::op(d.op)).incr();
            obs.journal.record(
                Some(d.op),
                JournalKind::Restart {
                    attempt: d.attempt,
                    backoff_us: d.backoff.as_micros() as u64,
                },
            );
            timelines.lock().push(RecoveryTimeline {
                worker: d.op,
                incarnation: restarts[i],
                kind: FaultKind::Crash,
                mode: nodes[i].mode(),
                detect_us: d.detect_us,
                fence_us: d.detect_us,
                respawn_us: now_us(),
                handshake_us: None,
                first_output_us: None,
                drain_us: None,
            });
        }
    }
}
