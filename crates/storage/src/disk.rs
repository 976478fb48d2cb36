//! Parameterized disk models.
//!
//! The experiments do not depend on disk physics, only on how long a
//! synchronous write takes to become stable. A [`DiskSpec`] captures the
//! three knobs the paper varies: base write latency (seek + rotational +
//! controller), optional jitter, and bandwidth (which matters only for
//! large checkpoints, not 64-bit decision records).
//!
//! For fault injection a device can additionally fail a fraction of its
//! writes ([`DiskSpec::with_fault_rate`], [`StorageDevice::set_fault_rate`])
//! and stall for bounded windows ([`StorageDevice::stall_for`]); callers
//! retry transient [`DiskError`]s.
//!
//! A device is priced, not waited on: [`StorageDevice::write`] says when a
//! write started at a given instant ends, and its caller keeps the
//! device's timeline (the log's group commit, `crate::log`).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use streammine_common::rng::DetRng;

/// A transient storage write failure (fault injection).
///
/// Models a failed/aborted write on a real controller: nothing from the
/// batch was persisted and the caller should retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskError;

impl fmt::Display for DiskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "transient disk write failure")
    }
}

impl std::error::Error for DiskError {}

/// Latency/bandwidth model of one storage point.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskSpec {
    /// Fixed cost of one stable write, independent of size.
    pub write_latency: Duration,
    /// Uniform jitter applied to `write_latency`: the actual latency is
    /// drawn from `write_latency * [1 - jitter, 1 + jitter]`.
    pub jitter: f64,
    /// Sustained throughput; `None` means size-independent writes.
    pub bytes_per_sec: Option<u64>,
    /// Probability in `[0, 1)` that a write fails transiently.
    pub fault_rate: f64,
    /// Human-readable name for reports (e.g. `"Sim 10"`).
    pub name: String,
}

impl DiskSpec {
    /// The paper's "simulated disk": a fixed stable-write latency, no
    /// jitter, infinite bandwidth (`Sim 10` = 10 ms, `Sim 5` = 5 ms).
    pub fn simulated(write_latency: Duration) -> Self {
        DiskSpec {
            write_latency,
            jitter: 0.0,
            bytes_per_sec: None,
            fault_rate: 0.0,
            name: format!("Sim {}", write_latency.as_millis()),
        }
    }

    /// A model of a commodity local hard drive: ~8 ms stable write with
    /// ±25 % jitter and 60 MB/s sustained bandwidth.
    pub fn local_hdd() -> Self {
        DiskSpec {
            write_latency: Duration::from_millis(8),
            jitter: 0.25,
            bytes_per_sec: Some(60 * 1024 * 1024),
            fault_rate: 0.0,
            name: "local hdd".to_string(),
        }
    }

    /// Sets the transient write-failure probability (fault injection).
    #[must_use]
    pub fn with_fault_rate(mut self, rate: f64) -> Self {
        self.fault_rate = rate.clamp(0.0, 0.999);
        self
    }

    /// Computes the latency of one stable write of `bytes` bytes, using
    /// `rng` for jitter.
    pub fn write_duration(&self, bytes: usize, rng: &mut DetRng) -> Duration {
        let base = self.write_latency.as_secs_f64();
        let jittered = if self.jitter > 0.0 {
            let f = 1.0 + self.jitter * (2.0 * rng.next_f64() - 1.0);
            base * f
        } else {
            base
        };
        let transfer = match self.bytes_per_sec {
            Some(bps) if bps > 0 => bytes as f64 / bps as f64,
            _ => 0.0,
        };
        Duration::from_secs_f64((jittered + transfer).max(0.0))
    }
}

/// A simulated storage device: prices each write on a timeline and injects
/// its faults. It neither sleeps nor keeps bytes — whoever writes keeps
/// the device's timeline and holds the one copy (the log's readable set).
pub struct StorageDevice {
    spec: DiskSpec,
    rng: Mutex<DetRng>,
    writes: AtomicU64,
    /// Live fault probability, f64 bit-pattern (runtime-adjustable).
    fault_bits: AtomicU64,
    faults: AtomicU64,
    /// The stall window, `[from, until)`.
    stall: Mutex<Option<(Instant, Instant)>>,
}

impl fmt::Debug for StorageDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StorageDevice")
            .field("spec", &self.spec.name)
            .field("writes", &self.writes.load(Ordering::Relaxed))
            .field("faults", &self.faults.load(Ordering::Relaxed))
            .finish()
    }
}

impl StorageDevice {
    /// Creates a device from a spec with a derived jitter seed.
    pub fn new(spec: DiskSpec, seed: u64) -> Self {
        let fault_bits = AtomicU64::new(spec.fault_rate.to_bits());
        StorageDevice {
            spec,
            rng: Mutex::new(DetRng::seed_from(seed)),
            writes: AtomicU64::new(0),
            fault_bits,
            faults: AtomicU64::new(0),
            stall: Mutex::new(None),
        }
    }

    /// One stable write of `total` bytes — a whole batch of records under
    /// group commit — that the device starts at `at`, or when a stall
    /// window holding `at` ends. Returns the instant the write ends; it
    /// blocks nobody.
    ///
    /// # Errors
    ///
    /// [`DiskError`], with the end of the failed attempt, at the
    /// configured fault probability: nothing counts as persisted and the
    /// caller should retry the whole write.
    pub fn write(&self, at: Instant, total: usize) -> Result<Instant, (Instant, DiskError)> {
        let start = match *self.stall.lock() {
            Some((from, until)) if (from..until).contains(&at) => until,
            _ => at,
        };
        let (d, faulted) = {
            let mut rng = self.rng.lock();
            let d = self.spec.write_duration(total, &mut rng);
            let rate = f64::from_bits(self.fault_bits.load(Ordering::Acquire));
            let faulted = rate > 0.0 && rng.next_f64() < rate;
            (d, faulted)
        };
        if faulted {
            self.faults.fetch_add(1, Ordering::Relaxed);
            return Err((start + d, DiskError));
        }
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(start + d)
    }

    /// Changes the transient-fault probability at runtime (chaos hook).
    pub fn set_fault_rate(&self, rate: f64) {
        self.fault_bits.store(rate.clamp(0.0, 0.999).to_bits(), Ordering::Release);
    }

    /// Stalls every write starting within the next `window` (chaos hook:
    /// a controller hiccup / queue saturation). Windows do not stack; the
    /// later deadline wins.
    pub fn stall_for(&self, window: Duration) {
        let now = Instant::now();
        let mut stall = self.stall.lock();
        *stall = Some(match *stall {
            Some((from, until)) if until > now => (from, until.max(now + window)),
            _ => (now, now + window),
        });
    }

    /// Number of physical (batched) writes performed.
    pub fn write_count(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Number of injected transient write failures.
    pub fn fault_count(&self) -> u64 {
        self.faults.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulated_disk_has_fixed_latency() {
        let spec = DiskSpec::simulated(Duration::from_millis(10));
        let mut rng = DetRng::seed_from(1);
        let d = spec.write_duration(8, &mut rng);
        assert_eq!(d, Duration::from_millis(10));
        assert_eq!(spec.name, "Sim 10");
    }

    #[test]
    fn jitter_stays_within_bounds() {
        let spec = DiskSpec { jitter: 0.25, ..DiskSpec::simulated(Duration::from_millis(8)) };
        let mut rng = DetRng::seed_from(2);
        for _ in 0..200 {
            let d = spec.write_duration(8, &mut rng).as_secs_f64();
            assert!((0.006..=0.010).contains(&d), "latency {d} out of ±25% band");
        }
    }

    #[test]
    fn bandwidth_adds_transfer_time() {
        let spec =
            DiskSpec { bytes_per_sec: Some(1024), ..DiskSpec::simulated(Duration::from_millis(1)) };
        let mut rng = DetRng::seed_from(3);
        let d = spec.write_duration(1024, &mut rng);
        assert!(d >= Duration::from_millis(1001 - 2), "expected ~1.001s, got {d:?}");
    }

    #[test]
    fn device_counts_writes() {
        let dev = StorageDevice::new(DiskSpec::simulated(Duration::ZERO), 7);
        let now = Instant::now();
        assert_eq!(dev.write(now, 2), Ok(now));
        dev.write(now, 1).unwrap();
        assert_eq!(dev.write_count(), 2);
    }

    #[test]
    fn fault_rate_injects_transient_failures() {
        let spec = DiskSpec::simulated(Duration::ZERO).with_fault_rate(0.5);
        let dev = StorageDevice::new(spec, 11);
        let mut ok = 0;
        let mut failed = 0;
        for _ in 0..200 {
            match dev.write(Instant::now(), 1) {
                Ok(_) => ok += 1,
                Err((_, DiskError)) => failed += 1,
            }
        }
        assert!(ok > 0 && failed > 0, "expected a mix, got ok={ok} failed={failed}");
        assert_eq!(dev.fault_count(), failed);
        // Failed writes persist nothing.
        assert_eq!(dev.write_count(), ok);
    }

    #[test]
    fn fault_rate_can_be_changed_at_runtime() {
        let dev = StorageDevice::new(DiskSpec::simulated(Duration::ZERO), 12);
        dev.set_fault_rate(0.999);
        let mut failed = 0;
        for _ in 0..50 {
            if dev.write(Instant::now(), 1).is_err() {
                failed += 1;
            }
        }
        assert!(failed > 0);
        dev.set_fault_rate(0.0);
        assert!(dev.write(Instant::now(), 1).is_ok());
    }

    #[test]
    fn stall_window_delays_writes_that_start_in_it() {
        let dev = StorageDevice::new(DiskSpec::simulated(Duration::from_millis(2)), 13);
        let before = Instant::now();
        dev.stall_for(Duration::from_millis(20));
        let start = Instant::now();
        let end = dev.write(start, 1).unwrap();
        assert!(end >= start + Duration::from_millis(20), "write did not stall");
        // A write that started before the window, or after it, is not held.
        assert_eq!(dev.write(before, 1), Ok(before + Duration::from_millis(2)));
        let after = start + Duration::from_millis(30);
        assert_eq!(dev.write(after, 1), Ok(after + Duration::from_millis(2)));
    }
}
