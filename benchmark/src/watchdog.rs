//! The run's watchdog: a thread that ends a run which has stopped making
//! progress, with a result line instead of a hang.
//!
//! The generator cannot guard itself. `SourceHandle::push` blocks without
//! a time limit when the engine withholds credit (the seed wedges there,
//! see `wedge.rs`), and so may a shutdown; every wait the benchmark makes
//! itself (`wait_final`, `wait_connected`) is bounded by [`STALL`] and
//! returns to code that reports the missing events as failed. This thread
//! covers the rest: the generator calls [`beat`] wherever it gets
//! somewhere, and when no beat has arrived for [`PATIENCE`] — or a single
//! run is older than [`DRIVER_LIMIT`] — the watchdog prints the result line
//! (operations not known delivered count as failed, metrics unmeasured),
//! kills the worker processes and exits non-zero.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::procfs;
use crate::report::{self, Metric};

/// Longest the benchmark waits for one step of a healthy system: an event
/// at an in-flight cap becoming final, a drain, a cluster wiring up. The
/// slowest of these takes about 0.1 s.
pub const STALL: Duration = Duration::from_secs(10);
/// Silence after which the watchdog ends the run: longer than [`STALL`],
/// so the generator's own bounded waits report first.
const PATIENCE: Duration = Duration::from_secs(2 * STALL.as_secs());
/// The driver allows one run 180 s.
pub const DRIVER_LIMIT: Duration = Duration::from_secs(170);

static LAST_BEAT_MS: AtomicU64 = AtomicU64::new(0);
static ATTEMPTED: AtomicU64 = AtomicU64::new(0);
static UNMEASURED: AtomicU64 = AtomicU64::new(0);
static FINALS: AtomicU64 = AtomicU64::new(0);
/// Where the generator last was, and when the process started.
static PHASE: Mutex<&'static str> = Mutex::new("start");
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn now_ms() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_millis() as u64
}

/// The generator got somewhere.
pub fn beat() {
    LAST_BEAT_MS.store(now_ms(), Ordering::Relaxed);
}

/// The generator enters `phase` (named in the watchdog's message).
pub fn phase(phase: &'static str) {
    *PHASE.lock().expect("watchdog phase") = phase;
    beat();
}

/// A pass over a workload begins: `unmeasured` warm-up events, then
/// `attempted` measured ones, none final yet.
pub fn pass(attempted: u64, unmeasured: u64) {
    ATTEMPTED.store(attempted, Ordering::Relaxed);
    UNMEASURED.store(unmeasured, Ordering::Relaxed);
    FINALS.store(0, Ordering::Relaxed);
    phase("set-up");
}

/// `finals` events of the pass, warm-up included, are known to be final.
pub fn progress(finals: u64) {
    FINALS.store(finals, Ordering::Relaxed);
    beat();
}

/// What the result line of this run would carry; a run that is given up
/// reports each metric as unmeasured.
static METRICS: OnceLock<Vec<Metric>> = OnceLock::new();

/// Ends the run here and now: the result line with every operation not
/// known delivered counted as failed, the worker processes killed and
/// reaped, exit code 1.
pub fn give_up(why: &str) -> ! {
    let attempted = ATTEMPTED.load(Ordering::Relaxed).max(1);
    let delivered =
        FINALS.load(Ordering::Relaxed).saturating_sub(UNMEASURED.load(Ordering::Relaxed));
    let failed = attempted.saturating_sub(delivered).max(1);
    eprintln!(
        "benchmark: {why} (in {:?}); {failed} of {attempted} operations undelivered",
        *PHASE.lock().expect("watchdog phase"),
    );
    let metrics = METRICS.get().map_or(&[][..], |m| &m[..]);
    println!("{}", report::result_line(false, attempted, failed, metrics));
    procfs::kill_children();
    std::process::exit(1);
}

/// Starts the watchdog for this process; `metrics` names what its result
/// line carries, `limit` is how old the process may get.
pub fn start(metrics: Vec<Metric>, limit: Option<Duration>) {
    let _ = METRICS.set(metrics);
    beat();
    std::thread::spawn(move || loop {
        std::thread::sleep(Duration::from_millis(500));
        let now = now_ms();
        let silent =
            Duration::from_millis(now.saturating_sub(LAST_BEAT_MS.load(Ordering::Relaxed)));
        if silent >= PATIENCE {
            give_up(&format!("watchdog: no progress for {silent:.0?}"));
        }
        if limit.is_some_and(|limit| Duration::from_millis(now) >= limit) {
            give_up(&format!("watchdog: still running after {:.0?}", Duration::from_millis(now)));
        }
    });
}
