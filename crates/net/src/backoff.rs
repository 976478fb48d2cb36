//! The one capped exponential backoff: restart supervision and redialing
//! both space their retries with it.

use std::time::Duration;

/// Backoff policy: `base * 2^(failures-1)`, capped at `cap`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackoffConfig {
    /// Delay after the first failed attempt.
    pub base: Duration,
    /// Upper bound on the delay between attempts.
    pub cap: Duration,
}

impl BackoffConfig {
    /// A policy starting at `base_ms` and capped at `cap_ms` milliseconds.
    pub const fn millis(base_ms: u64, cap_ms: u64) -> BackoffConfig {
        BackoffConfig { base: Duration::from_millis(base_ms), cap: Duration::from_millis(cap_ms) }
    }

    /// Delay before the next attempt after `failures` consecutive failures.
    pub fn delay(&self, failures: u32) -> Duration {
        if failures == 0 {
            return Duration::ZERO;
        }
        let shift = (failures - 1).min(16);
        self.base.saturating_mul(1u32 << shift).min(self.cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_caps() {
        let cfg = BackoffConfig::millis(2, 10);
        assert_eq!(cfg.delay(0), Duration::ZERO);
        assert_eq!(cfg.delay(1), Duration::from_millis(2));
        assert_eq!(cfg.delay(2), Duration::from_millis(4));
        assert_eq!(cfg.delay(3), Duration::from_millis(8));
        assert_eq!(cfg.delay(4), Duration::from_millis(10));
        assert_eq!(cfg.delay(60), Duration::from_millis(10));
    }
}
