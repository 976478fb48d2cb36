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
//! Every restart is recorded as a [`RecoveryEvent`], giving tests and chaos
//! harnesses an observable, assertable recovery timeline.

use std::fmt;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam_channel::{Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use streammine_common::ids::OperatorId;
use streammine_net::BackoffConfig;
use streammine_obs::{JournalKind, Labels, Obs};

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

/// Handle to a running supervisor thread. Dropping it stops monitoring.
/// A graph has one supervisor at a time.
pub struct Supervisor {
    events: Arc<Mutex<Vec<RecoveryEvent>>>,
    signals: Sender<Signal>,
    join: Mutex<Option<JoinHandle<()>>>,
}

impl fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Supervisor").field("restarts", &self.events.lock().len()).finish()
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
        let events: Arc<Mutex<Vec<RecoveryEvent>>> = Arc::new(Mutex::new(Vec::new()));
        let join = {
            let events = events.clone();
            std::thread::Builder::new()
                .name("supervisor".into())
                .spawn(move || monitor(&nodes, &stopping, &exits, &events, &obs))
                .ok()
        };
        Supervisor { events, signals, join: Mutex::new(join) }
    }

    /// The recovery timeline so far, in restart order.
    pub fn events(&self) -> Vec<RecoveryEvent> {
        self.events.lock().clone()
    }

    /// Number of supervised restarts performed.
    pub fn restarts(&self) -> usize {
        self.events.lock().len()
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

fn monitor(
    nodes: &[NodePersist],
    stopping: &AtomicBool,
    exits: &Receiver<Signal>,
    events: &Mutex<Vec<RecoveryEvent>>,
    obs: &Obs,
) {
    let mut attempts = vec![0u32; nodes.len()];
    let mut restarted_at: Vec<Option<Instant>> = vec![None; nodes.len()];
    // Restarts scheduled and the instant each falls due.
    let mut due: Vec<(Instant, RecoveryEvent)> = Vec::new();
    loop {
        let signal = match due.iter().map(|(at, _)| *at).min() {
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
                due.push((now + backoff, RecoveryEvent { op, attempt: attempts[i], backoff }));
            }
            Ok(Signal::Exited { crashed: false, .. }) | Err(RecvTimeoutError::Timeout) => {}
            Ok(Signal::Stop) | Err(RecvTimeoutError::Disconnected) => return,
        }
        // The event is recorded only when the restart happens, so
        // `restarts()` observes completed recoveries, not intentions.
        while let Some(next) = due.iter().position(|(at, _)| *at <= Instant::now()) {
            let (_, ev) = due.swap_remove(next);
            let op = ev.op.index();
            if !nodes[op as usize].restart(stopping) {
                return;
            }
            restarted_at[op as usize] = Some(Instant::now());
            // Mirror the event into the registry + journal so the recovery
            // timeline is assertable from metrics alone.
            obs.registry.counter("recovery.restarts", Labels::op(op)).incr();
            obs.journal.record(
                Some(op),
                JournalKind::Restart {
                    attempt: ev.attempt,
                    backoff_us: ev.backoff.as_micros() as u64,
                },
            );
            events.lock().push(ev);
        }
    }
}
