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

    /// Renames the spec (for reports).
    #[must_use]
    pub fn named(mut self, name: &str) -> Self {
        self.name = name.to_string();
        self
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

/// A simulated storage device: charges the model's latency for each write
/// and injects its faults. It keeps no bytes — whoever writes holds the one
/// copy (the log's readable set, the checkpoint store's images).
pub struct StorageDevice {
    spec: DiskSpec,
    rng: Mutex<DetRng>,
    writes: AtomicU64,
    bytes: AtomicU64,
    /// Live fault probability, f64 bit-pattern (runtime-adjustable).
    fault_bits: AtomicU64,
    faults: AtomicU64,
    stall_until: Mutex<Option<Instant>>,
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
            bytes: AtomicU64::new(0),
            fault_bits,
            faults: AtomicU64::new(0),
            stall_until: Mutex::new(None),
        }
    }

    /// The device's spec.
    pub fn spec(&self) -> &DiskSpec {
        &self.spec
    }

    /// One synchronous stable write of `total` bytes — a whole batch of
    /// records under group commit: blocks for the modeled duration.
    ///
    /// # Errors
    ///
    /// [`DiskError`] with the configured fault probability; nothing counts
    /// as persisted and the caller should retry the whole write.
    pub fn write(&self, total: usize) -> Result<(), DiskError> {
        let stall = *self.stall_until.lock();
        if let Some(until) = stall {
            let now = Instant::now();
            if until > now {
                std::thread::sleep(until - now);
            }
        }
        let (d, faulted) = {
            let mut rng = self.rng.lock();
            let d = self.spec.write_duration(total, &mut rng);
            let rate = f64::from_bits(self.fault_bits.load(Ordering::Acquire));
            let faulted = rate > 0.0 && rng.next_f64() < rate;
            (d, faulted)
        };
        if !d.is_zero() {
            std::thread::sleep(d);
        }
        if faulted {
            self.faults.fetch_add(1, Ordering::Relaxed);
            return Err(DiskError);
        }
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(total as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Changes the transient-fault probability at runtime (chaos hook).
    pub fn set_fault_rate(&self, rate: f64) {
        self.fault_bits.store(rate.clamp(0.0, 0.999).to_bits(), Ordering::Release);
    }

    /// The current transient-fault probability.
    pub fn fault_rate(&self) -> f64 {
        f64::from_bits(self.fault_bits.load(Ordering::Acquire))
    }

    /// Stalls every write starting within the next `window` (chaos hook:
    /// a controller hiccup / queue saturation). Windows do not stack; the
    /// later deadline wins.
    pub fn stall_for(&self, window: Duration) {
        let until = Instant::now() + window;
        let mut stall = self.stall_until.lock();
        *stall = Some(stall.map_or(until, |cur| cur.max(until)));
    }

    /// Number of physical (batched) writes performed.
    pub fn write_count(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Number of injected transient write failures.
    pub fn fault_count(&self) -> u64 {
        self.faults.load(Ordering::Relaxed)
    }

    /// Total bytes written.
    pub fn bytes_written(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
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
    fn device_counts_writes_and_bytes() {
        let dev = StorageDevice::new(DiskSpec::simulated(Duration::ZERO), 7);
        dev.write(2).unwrap();
        dev.write(1).unwrap();
        assert_eq!(dev.write_count(), 2);
        assert_eq!(dev.bytes_written(), 3);
    }

    #[test]
    fn named_overrides_report_name() {
        let spec = DiskSpec::simulated(Duration::from_millis(5)).named("disk A");
        assert_eq!(spec.name, "disk A");
    }

    #[test]
    fn fault_rate_injects_transient_failures() {
        let spec = DiskSpec::simulated(Duration::ZERO).with_fault_rate(0.5);
        let dev = StorageDevice::new(spec, 11);
        let mut ok = 0;
        let mut failed = 0;
        for _ in 0..200 {
            match dev.write(1) {
                Ok(()) => ok += 1,
                Err(DiskError) => failed += 1,
            }
        }
        assert!(ok > 0 && failed > 0, "expected a mix, got ok={ok} failed={failed}");
        assert_eq!(dev.fault_count(), failed);
        // Failed writes persist nothing.
        assert_eq!(dev.write_count(), ok);
        assert_eq!(dev.bytes_written(), ok);
    }

    #[test]
    fn fault_rate_can_be_changed_at_runtime() {
        let dev = StorageDevice::new(DiskSpec::simulated(Duration::ZERO), 12);
        dev.set_fault_rate(0.999);
        assert!(dev.fault_rate() > 0.99);
        let mut failed = 0;
        for _ in 0..50 {
            if dev.write(1).is_err() {
                failed += 1;
            }
        }
        assert!(failed > 0);
        dev.set_fault_rate(0.0);
        assert!(dev.write(1).is_ok());
    }

    #[test]
    fn stall_window_delays_writes() {
        let dev = StorageDevice::new(DiskSpec::simulated(Duration::ZERO), 13);
        dev.stall_for(Duration::from_millis(20));
        let start = Instant::now();
        dev.write(1).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(18), "write did not stall");
        // Window over: writes are fast again.
        let start = Instant::now();
        dev.write(1).unwrap();
        assert!(start.elapsed() < Duration::from_millis(10));
    }
}
