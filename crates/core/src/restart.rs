//! When a failed slot restarts, and the one record of each restart.
//!
//! A slot is an operator's coordinator thread in process and a worker
//! process in a cluster; both recover the same way (§2.2), and each
//! runtime keeps only its respawn step. [`Restarts`] owns no thread: its
//! owner reports a failure ([`Restarts::failed`]), parks until
//! [`Restarts::next_due`], respawns what [`Restarts::take_due`] hands it
//! and reports [`Restarts::restarted`] — or [`Restarts::respawn_failed`],
//! which is the slot's next crash.
//!
//! The one policy: a slot's first crash restarts at once. A crash within
//! [`STABILITY_WINDOW`] of the slot's last restart is a re-crash, and the
//! k-th in a row waits `4 ms · 2^(k-2)`, capped at 40 ms, so a slot that
//! cannot boot is respawned a few dozen times a second, not hundreds.
//! Each restart is a [`RecoveryTimeline`] in the book, a tick of
//! `recovery.restarts{op=slot}` and a `Restart` record in the journal.

use std::time::{Duration, Instant};

use parking_lot::Mutex;
use streammine_common::BackoffConfig;
use streammine_obs::{FaultKind, JournalKind, Labels, Obs, RecoveryModeTag, RecoveryTimeline};

/// After a slot's last restart is this old, its next crash is a first
/// one again.
const STABILITY_WINDOW: Duration = Duration::from_millis(200);

/// The wait before a re-crash's restart: 4 ms doubling to 40 ms.
const BACKOFF: BackoffConfig = BackoffConfig::millis(4, 40);

/// One restart: scheduled, then done.
pub(crate) struct Restart {
    /// The slot to respawn.
    pub slot: u32,
    at: Instant,
    attempt: u32,
    backoff: Duration,
    timeline: RecoveryTimeline,
    /// Finals the sink had counted at detection: one beyond this proves
    /// the replacement's output reached the end of the chain.
    cursor_at_detect: u64,
}

/// One slot's standing with the policy.
#[derive(Default)]
struct Slot {
    /// Crashes in a row, each within the window of the restart before.
    attempts: u32,
    /// The last restart, done or tried.
    last_restart: Option<Instant>,
    restarts: u64,
}

impl Slot {
    /// Counts a crash at `now`: its attempt and the wait before its restart.
    fn crash(&mut self, now: Instant) -> (u32, Duration) {
        if self.last_restart.is_none_or(|at| now.saturating_duration_since(at) >= STABILITY_WINDOW)
        {
            self.attempts = 0;
        }
        self.attempts += 1;
        (self.attempts, BACKOFF.delay(self.attempts - 1))
    }
}

#[derive(Default)]
struct Book {
    slots: Vec<Slot>,
    due: Vec<Restart>,
    done: Vec<Restart>,
    last_cursor: u64,
    last_advance_us: u64,
}

/// The restart state machine of one graph or one cluster.
pub(crate) struct Restarts {
    modes: Vec<RecoveryModeTag>,
    obs: Obs,
    /// Zero of every timeline stamp.
    epoch: Instant,
    book: Mutex<Book>,
}

impl Restarts {
    /// The book of slots recovering under `modes`, reporting into `obs`.
    pub(crate) fn new(obs: &Obs, modes: Vec<RecoveryModeTag>) -> Restarts {
        let slots = modes.iter().map(|_| Slot::default()).collect();
        let book = Mutex::new(Book { slots, ..Book::default() });
        Restarts { modes, obs: obs.clone(), epoch: Instant::now(), book }
    }

    /// Microseconds since the book was opened: the timelines' clock.
    pub(crate) fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// `slot` failed: stamps the detection, runs `fence` (whatever stops
    /// the old incarnation from acting) and schedules the restart.
    pub(crate) fn failed(&self, slot: u32, kind: FaultKind, fence: impl FnOnce()) {
        let detect_us = self.now_us();
        let cursor_at_detect = self.book.lock().last_cursor;
        fence();
        let timeline = RecoveryTimeline {
            worker: slot,
            incarnation: 0,
            kind,
            mode: self.modes[slot as usize],
            detect_us,
            fence_us: self.now_us(),
            respawn_us: 0,
            handshake_us: None,
            first_output_us: None,
            drain_us: None,
        };
        let (at, backoff) = (Instant::now(), Duration::ZERO);
        self.schedule(Restart { slot, at, attempt: 0, backoff, timeline, cursor_at_detect }, false);
    }

    /// Puts `due` on the policy as the slot's next crash, `tried` when a
    /// respawn just failed.
    fn schedule(&self, mut due: Restart, tried: bool) {
        let now = Instant::now();
        let mut book = self.book.lock();
        let slot = &mut book.slots[due.slot as usize];
        if tried {
            slot.last_restart = Some(now);
        }
        (due.attempt, due.backoff) = slot.crash(now);
        due.at = now + due.backoff;
        book.due.push(due);
    }

    /// When the earliest scheduled restart falls due.
    pub(crate) fn next_due(&self) -> Option<Instant> {
        self.book.lock().due.iter().map(|d| d.at).min()
    }

    /// A restart due at `now`, taken off the queue.
    pub(crate) fn take_due(&self, now: Instant) -> Option<Restart> {
        let mut book = self.book.lock();
        let next = book.due.iter().position(|d| d.at <= now)?;
        Some(book.due.swap_remove(next))
    }

    /// The respawn of `due` did not start: that is the slot's next crash,
    /// and it waits its backoff like one.
    pub(crate) fn respawn_failed(&self, due: Restart, why: String) {
        self.obs.journal.warn(Some(due.slot), "respawn-failed", why);
        self.schedule(due, true);
    }

    /// The respawn of `due` started: records the restart.
    pub(crate) fn restarted(&self, mut due: Restart) {
        due.timeline.respawn_us = self.now_us();
        self.obs.registry.counter("recovery.restarts", Labels::op(due.slot)).incr();
        let backoff_us = due.backoff.as_micros() as u64;
        let restart = JournalKind::Restart { attempt: due.attempt, backoff_us };
        self.obs.journal.record(Some(due.slot), restart);
        let mut book = self.book.lock();
        let slot = &mut book.slots[due.slot as usize];
        slot.last_restart = Some(Instant::now());
        slot.restarts += 1;
        due.timeline.incarnation = slot.restarts;
        book.done.push(due);
    }

    /// Stamps `handshake` on the restart whose replacement is `slot` at
    /// `incarnation`.
    pub(crate) fn stamp_handshake(&self, slot: u32, incarnation: u64) {
        let now = self.now_us();
        for r in self.book.lock().done.iter_mut() {
            let t = &mut r.timeline;
            if (t.worker, t.incarnation) == (slot, incarnation) && t.handshake_us.is_none() {
                t.handshake_us = Some(now);
            }
        }
    }

    /// The sink's advance hook: tracks how many events it has counted
    /// *final* — a speculative arrival is not output anybody may act on —
    /// and stamps `first_output` on the restarts whose replacement has
    /// handshaked and whose backlog that count has now passed. Without a
    /// restart on record it reads no clock.
    pub(crate) fn observe_cursor(&self, finals: u64) {
        let mut book = self.book.lock();
        if finals <= book.last_cursor {
            return;
        }
        book.last_cursor = finals;
        if book.done.is_empty() {
            return;
        }
        let now = self.now_us();
        book.last_advance_us = now;
        for r in book.done.iter_mut().filter(|r| finals > r.cursor_at_detect) {
            let t = &mut r.timeline;
            if t.handshake_us.is_some() && t.first_output_us.is_none() {
                t.first_output_us = Some(now);
            }
        }
    }

    /// How many restarts so far were of `kind` (all of them for `None`).
    pub(crate) fn count(&self, kind: Option<FaultKind>) -> u64 {
        let book = self.book.lock();
        book.done.iter().filter(|r| kind.is_none_or(|k| r.timeline.kind == k)).count() as u64
    }

    /// The restarts so far, in order. `drain` resolves lazily to the
    /// sink's last advance, so it settles once the run has drained.
    pub(crate) fn timelines(&self) -> Vec<RecoveryTimeline> {
        let book = self.book.lock();
        let drained = |mut t: RecoveryTimeline| {
            if t.drain_us.is_none() {
                t.drain_us = t.first_output_us.map(|first| book.last_advance_us.max(first));
            }
            t
        };
        book.done.iter().map(|r| drained(r.timeline.clone())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn a_first_crash_restarts_at_once_and_a_crash_loop_backs_off() {
        let t0 = Instant::now();
        let mut slot = Slot::default();
        assert_eq!(slot.crash(t0), (1, Duration::ZERO));
        // Each re-crash comes right after the restart before it.
        let mut at = t0;
        let mut waits = Vec::new();
        for _ in 0..6 {
            slot.last_restart = Some(at);
            at += MS;
            waits.push(slot.crash(at).1.as_millis());
        }
        assert_eq!(waits, [4, 8, 16, 32, 40, 40]);
        // A full window after its last restart, a slot is forgiven.
        slot.last_restart = Some(at);
        assert_eq!(slot.crash(at + STABILITY_WINDOW), (1, Duration::ZERO));
    }

    #[test]
    fn a_failed_respawn_is_the_slots_next_crash() {
        let book = Restarts::new(&Obs::new(), vec![RecoveryModeTag::Precise]);
        book.failed(0, FaultKind::Crash, || {});
        let due = book.take_due(Instant::now()).expect("a first crash is due at once");
        book.respawn_failed(due, "no binary".into());
        assert!(book.take_due(Instant::now()).is_none(), "a failed respawn retried at once");
        let at = book.next_due().expect("the retry is scheduled");
        let due = book.take_due(at).expect("due at its deadline");
        book.restarted(due);
        let timelines = book.timelines();
        assert_eq!(timelines.len(), 1, "a failed respawn is no restart");
        assert_eq!((timelines[0].worker, timelines[0].incarnation), (0, 1));
        let journal = book.obs.journal.events();
        let restart = journal.iter().find_map(|e| match e.kind {
            JournalKind::Restart { attempt, backoff_us } => Some((attempt, backoff_us)),
            _ => None,
        });
        assert_eq!(restart, Some((2, 4_000)));
        assert_eq!(book.obs.snapshot().counter("recovery.restarts", Labels::op(0)), Some(1));
    }
}
