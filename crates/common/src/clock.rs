//! Clock abstraction.
//!
//! Operators obtain physical time only through a [`Clock`], for two reasons:
//!
//! 1. time reads are one of the *non-deterministic decisions* the paper
//!    requires logging for precise recovery, so they must be interceptable;
//! 2. tests want a [`ManualClock`] they can advance deterministically.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::event::Timestamp;

/// A source of monotonic time in microseconds.
///
/// Implementations must be cheap to clone (use `Arc` internally) and safe to
/// share across threads.
pub trait Clock: Send + Sync + fmt::Debug {
    /// Current time in microseconds since the clock's epoch.
    fn now_micros(&self) -> Timestamp;

    /// Blocks the calling thread for `d` (may be a no-op for manual clocks).
    fn sleep(&self, d: Duration);
}

/// Real monotonic clock based on [`Instant`].
///
/// ```
/// use streammine_common::clock::{Clock, SystemClock};
/// let clock = SystemClock::new();
/// let a = clock.now_micros();
/// let b = clock.now_micros();
/// assert!(b >= a);
/// ```
#[derive(Debug, Clone)]
pub struct SystemClock {
    epoch: Instant,
}

impl SystemClock {
    /// Creates a clock whose epoch is "now".
    pub fn new() -> Self {
        SystemClock { epoch: Instant::now() }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for SystemClock {
    fn now_micros(&self) -> Timestamp {
        self.epoch.elapsed().as_micros() as u64
    }

    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// A manually advanced clock for deterministic tests.
///
/// `sleep` advances the clock instead of blocking, so code under test that
/// "waits" makes logical progress instantly.
///
/// ```
/// use std::time::Duration;
/// use streammine_common::clock::{Clock, ManualClock};
/// let clock = ManualClock::new();
/// clock.advance(Duration::from_millis(5));
/// assert_eq!(clock.now_micros(), 5_000);
/// clock.sleep(Duration::from_millis(1));
/// assert_eq!(clock.now_micros(), 6_000);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ManualClock {
    micros: Arc<AtomicU64>,
}

impl ManualClock {
    /// Creates a manual clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `d`.
    pub fn advance(&self, d: Duration) {
        self.micros.fetch_add(d.as_micros() as u64, Ordering::SeqCst);
    }

    /// Sets the clock to an absolute time in microseconds.
    pub fn set_micros(&self, t: Timestamp) {
        self.micros.store(t, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now_micros(&self) -> Timestamp {
        self.micros.load(Ordering::SeqCst)
    }

    fn sleep(&self, d: Duration) {
        self.advance(d);
    }
}

/// Shared handle to a clock; what runtime components actually hold.
pub type SharedClock = Arc<dyn Clock>;

/// Wraps a concrete clock into a [`SharedClock`].
pub fn shared<C: Clock + 'static>(clock: C) -> SharedClock {
    Arc::new(clock)
}

#[cfg(target_os = "linux")]
mod slack {
    use std::ffi::{c_int, c_ulong};

    // `<linux/prctl.h>`; std links libc, so `prctl` needs no crate.
    const PR_SET_TIMERSLACK: c_int = 29;
    const PR_GET_TIMERSLACK: c_int = 30;

    extern "C" {
        fn prctl(option: c_int, ...) -> c_int;
    }

    pub fn exact() {
        // 1 ns is the least slack there is; 0 would restore the default.
        let ns: c_ulong = 1;
        // SAFETY: this option reads one integer argument and sets only the
        // calling thread's timer slack.
        unsafe { prctl(PR_SET_TIMERSLACK, ns) };
    }

    pub fn read() -> Option<u64> {
        // SAFETY: this option takes no argument and returns the slack.
        let ns = unsafe { prctl(PR_GET_TIMERSLACK) };
        u64::try_from(ns).ok()
    }
}

#[cfg(not(target_os = "linux"))]
mod slack {
    pub fn exact() {}

    pub fn read() -> Option<u64> {
        None
    }
}

/// Makes the calling thread's timed waits end at their deadline, not up to
/// the kernel's default timer slack (50 µs on Linux) after it, and so every
/// thread it spawns from now on. Only engine-owned threads that park until a
/// deadline on the critical path call it (a node's coordinator, before it
/// spawns its STM pool): a caller's own threads keep their slack. Elsewhere
/// than Linux it does nothing.
pub fn exact_wakes() {
    slack::exact();
}

/// The calling thread's timer slack in nanoseconds (`None` where it cannot
/// be read: not Linux).
pub fn timer_slack_ns() -> Option<u64> {
    slack::read()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_clock_is_monotonic() {
        let c = SystemClock::new();
        let a = c.now_micros();
        std::thread::sleep(Duration::from_millis(2));
        let b = c.now_micros();
        assert!(b > a, "expected monotonic progress, got {a} then {b}");
    }

    #[test]
    fn manual_clock_advances_only_when_told() {
        let c = ManualClock::new();
        assert_eq!(c.now_micros(), 0);
        c.advance(Duration::from_micros(17));
        assert_eq!(c.now_micros(), 17);
        c.set_micros(1000);
        assert_eq!(c.now_micros(), 1000);
    }

    #[test]
    fn manual_clock_sleep_advances() {
        let c = ManualClock::new();
        c.sleep(Duration::from_millis(3));
        assert_eq!(c.now_micros(), 3000);
    }

    #[test]
    fn manual_clock_clones_share_state() {
        let c = ManualClock::new();
        let c2 = c.clone();
        c.advance(Duration::from_micros(5));
        assert_eq!(c2.now_micros(), 5);
    }

    #[test]
    fn shared_erases_type() {
        let c: SharedClock = shared(ManualClock::new());
        assert_eq!(c.now_micros(), 0);
    }
}
