//! Per-operator configuration.

use std::time::Duration;

use streammine_common::error::{Error, Result};
use streammine_obs::RecoveryModeTag;
use streammine_sketch::ErrorBound;
use streammine_stm::StmConfig;
use streammine_storage::disk::DiskSpec;

/// Determinant-logging configuration of one operator.
#[derive(Debug, Clone)]
pub struct LoggingConfig {
    /// One storage point per spec (the paper's `N` disks / `Sim X`
    /// configurations); the log runs one writer thread per point plus the
    /// shared collector queue (§2.4).
    pub disks: Vec<DiskSpec>,
}

impl LoggingConfig {
    /// A single simulated disk with the given stable-write latency.
    pub fn simulated(write_latency: Duration) -> Self {
        LoggingConfig { disks: vec![DiskSpec::simulated(write_latency)] }
    }

    /// `n` simulated disks with the given latency each.
    pub fn simulated_n(n: usize, write_latency: Duration) -> Self {
        LoggingConfig { disks: vec![DiskSpec::simulated(write_latency); n] }
    }
}

/// Overload-robustness knobs of one node: speculation admission control
/// (the in-memory analogue of the paper's bounded-optimism discussion).
/// What a node may hold unread is not a knob of its own — it is the
/// window of the link it reads ([`streammine_net::LinkConfig::capacity`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeConfig {
    /// Maximum concurrently open speculative transactions. At the cap the
    /// node stops admitting new speculative work and paces itself by log
    /// stability instead (paper §2 semantics) — it never aborts.
    pub max_open_speculations: usize,
    /// Maximum speculative output events retained (published but not yet
    /// finalized) before the node stalls further speculative publication.
    pub max_retained_spec_outputs: usize,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig { max_open_speculations: 256, max_retained_spec_outputs: 4096 }
    }
}

/// How an operator's state is brought back after a crash.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum RecoveryMode {
    /// Byte-identical recovery: determinant logging (when configured)
    /// plus full deterministic re-execution from the last checkpoint.
    /// This is the paper's protocol and the default.
    #[default]
    Precise,
    /// Bounded-error recovery for operators whose state is a mergeable
    /// sketch: per-event determinant logging is skipped for bound-covered
    /// state, checkpoints are taken lazily, and recovery resumes from the
    /// *stale* snapshot, dropping the lost delta instead of re-executing
    /// it. The dropped updates are charged against an error budget
    /// derived from the declared [`ErrorBound`]; when a recovery would
    /// exceed the budget the node escalates to a precise replay cycle.
    Approximate(ErrorBound),
}

impl RecoveryMode {
    /// The mode as a recovery timeline records it.
    pub(crate) fn tag(&self) -> RecoveryModeTag {
        match self {
            RecoveryMode::Precise => RecoveryModeTag::Precise,
            RecoveryMode::Approximate(_) => RecoveryModeTag::Approximate,
        }
    }
}

/// The default checkpoint interval, in events, of an operator in process
/// and of a cluster slot. Each save acks the upstream's ring up to the
/// checkpoint's positions, so what an edge retains, the decision log and
/// the ids a node remembers are bounded by about two intervals instead of
/// growing for the whole run. It costs one state snapshot per interval,
/// and in a cluster it stays above the 48 events the benchmark's
/// `tcp_kill` delivers before its kill, so that recovery is still the full
/// replay.
pub const CHECKPOINT_EVERY: u64 = 64;

/// Configuration of one operator instance (§2.3: "each operator can be
/// configured as being speculative or not").
#[derive(Debug, Clone)]
pub struct OperatorConfig {
    /// Speculative mode: events are emitted before logs stabilize, tagged
    /// speculative, and finalized later; processing runs under STM control.
    pub speculative: bool,
    /// Worker threads for optimistic parallelization (only meaningful in
    /// speculative mode; `1` = process events one at a time).
    pub threads: usize,
    /// Determinant logging; `None` for fully deterministic operators that
    /// need no log (§1: stateless/stateful deterministic cases).
    pub logging: Option<LoggingConfig>,
    /// Checkpoint the operator state every this many consumed events
    /// (default [`CHECKPOINT_EVERY`]). A single-threaded speculative
    /// operator checkpoints its committed prefix while later transactions
    /// stay open; every other one waits until it is settled. `None`
    /// disables checkpointing: nothing is acked, so the upstream rings
    /// keep every frame, the decision log every record and the node every
    /// consumed id for the whole run, and recovery replays from the start.
    pub checkpoint_every: Option<u64>,
    /// STM tuning (speculative mode).
    pub stm: StmConfig,
    /// Overload robustness: speculation admission caps.
    pub node: NodeConfig,
    /// Crash-recovery contract: precise (byte-identical, the default) or
    /// approximate (bounded error, sketch state only).
    pub recovery: RecoveryMode,
}

impl Default for OperatorConfig {
    fn default() -> Self {
        OperatorConfig {
            speculative: false,
            threads: 1,
            logging: None,
            checkpoint_every: Some(CHECKPOINT_EVERY),
            stm: StmConfig::default(),
            node: NodeConfig::default(),
            recovery: RecoveryMode::Precise,
        }
    }
}

impl OperatorConfig {
    /// Non-speculative operator without logging (deterministic).
    pub fn plain() -> Self {
        Self::default()
    }

    /// Non-speculative operator that logs determinants on `disks` and only
    /// forwards events once the log is stable (the classic approach whose
    /// latency the paper attacks).
    pub fn logged(logging: LoggingConfig) -> Self {
        OperatorConfig { logging: Some(logging), ..Self::default() }
    }

    /// Speculative operator: emits speculative events immediately and
    /// finalizes them when logs stabilize and dependencies commit.
    pub fn speculative(logging: LoggingConfig) -> Self {
        OperatorConfig { speculative: true, logging: Some(logging), ..Self::default() }
    }

    /// Speculative operator without determinant logging (deterministic but
    /// consuming speculative inputs).
    pub fn speculative_unlogged() -> Self {
        OperatorConfig { speculative: true, ..Self::default() }
    }

    /// Sets the optimistic-parallelization worker count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the checkpoint interval (events).
    #[must_use]
    pub fn with_checkpoint_every(mut self, events: u64) -> Self {
        self.checkpoint_every = Some(events);
        self
    }

    /// Switches the operator to approximate recovery under the given
    /// declared bound. Approximate mode skips determinant logging for
    /// bound-covered sketch state and requires a checkpoint interval
    /// (set via [`with_checkpoint_every`](Self::with_checkpoint_every)).
    #[must_use]
    pub fn with_approximate_recovery(mut self, bound: ErrorBound) -> Self {
        self.recovery = RecoveryMode::Approximate(bound);
        self
    }

    /// Sets the STM configuration.
    #[must_use]
    pub fn with_stm(mut self, stm: StmConfig) -> Self {
        self.stm = stm;
        self
    }

    /// Sets the overload-robustness knobs (speculation admission caps).
    #[must_use]
    pub fn with_node(mut self, node: NodeConfig) -> Self {
        self.node = node;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] when thread counts or logging setups are invalid.
    pub fn validate(&self) -> Result<()> {
        if self.threads == 0 {
            return Err(Error::Config("threads must be at least 1".into()));
        }
        if self.threads > 1 && !self.speculative {
            return Err(Error::Config(
                "optimistic parallelization (threads > 1) requires speculative mode".into(),
            ));
        }
        if let Some(log) = &self.logging {
            if log.disks.is_empty() {
                return Err(Error::Config("logging configured with zero storage points".into()));
            }
        }
        if self.checkpoint_every == Some(0) {
            return Err(Error::Config("checkpoint interval must be positive".into()));
        }
        if self.node.max_open_speculations == 0 {
            return Err(Error::Config("max open speculations must be at least 1".into()));
        }
        if self.node.max_retained_spec_outputs == 0 {
            return Err(Error::Config(
                "max retained speculative outputs must be at least 1".into(),
            ));
        }
        if matches!(self.recovery, RecoveryMode::Approximate(_)) {
            if self.speculative {
                return Err(Error::Config(
                    "approximate recovery requires non-speculative mode".into(),
                ));
            }
            if self.checkpoint_every.is_none() {
                return Err(Error::Config(
                    "approximate recovery requires a checkpoint interval".into(),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        OperatorConfig::plain().validate().unwrap();
        OperatorConfig::logged(LoggingConfig::simulated(Duration::from_millis(5)))
            .validate()
            .unwrap();
        OperatorConfig::speculative(LoggingConfig::simulated_n(3, Duration::from_millis(10)))
            .with_threads(4)
            .with_checkpoint_every(100)
            .validate()
            .unwrap();
        OperatorConfig::speculative_unlogged().validate().unwrap();
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let c = OperatorConfig { threads: 0, ..OperatorConfig::plain() };
        assert!(matches!(c.validate(), Err(Error::Config(_))));

        let c = OperatorConfig { threads: 4, ..OperatorConfig::plain() };
        assert!(matches!(c.validate(), Err(Error::Config(_))));

        let c = OperatorConfig::logged(LoggingConfig { disks: vec![] });
        assert!(matches!(c.validate(), Err(Error::Config(_))));

        let c = OperatorConfig::plain().with_checkpoint_every(0);
        assert!(matches!(c.validate(), Err(Error::Config(_))));

        let c = OperatorConfig::plain()
            .with_node(NodeConfig { max_open_speculations: 0, ..NodeConfig::default() });
        assert!(matches!(c.validate(), Err(Error::Config(_))));

        let c = OperatorConfig::plain()
            .with_node(NodeConfig { max_retained_spec_outputs: 0, ..NodeConfig::default() });
        assert!(matches!(c.validate(), Err(Error::Config(_))));
    }

    #[test]
    fn approximate_recovery_validation() {
        let bound = ErrorBound::new(0.01, 0.05);
        OperatorConfig::plain()
            .with_approximate_recovery(bound)
            .with_checkpoint_every(64)
            .validate()
            .unwrap();

        // No checkpoint interval: the stale-snapshot resume has nothing
        // to resume from.
        let c = OperatorConfig { checkpoint_every: None, ..OperatorConfig::plain() }
            .with_approximate_recovery(bound);
        assert!(matches!(c.validate(), Err(Error::Config(_))));

        // Speculative operators keep the precise protocol.
        let c = OperatorConfig::speculative_unlogged()
            .with_approximate_recovery(bound)
            .with_checkpoint_every(64);
        assert!(matches!(c.validate(), Err(Error::Config(_))));
    }

    #[test]
    fn simulated_n_builds_n_disks() {
        let lc = LoggingConfig::simulated_n(3, Duration::from_millis(5));
        assert_eq!(lc.disks.len(), 3);
        assert_eq!(lc.disks[0].write_latency, Duration::from_millis(5));
    }
}
