//! The four Borealis-style baselines plus their common harness contract.

use std::collections::VecDeque;
use std::fmt;
use std::time::{Duration, Instant};

use streammine_common::codec::{decode_from_slice, encode_to_vec};
use streammine_storage::checkpoint::{Checkpoint, CheckpointStore, InputFrontier};
use streammine_storage::disk::DiskSpec;

use crate::reference::{RefEvent, RefOperator};

/// What a strategy reports after a crash + takeover + full reprocessing.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Outputs emitted more than once (same seq).
    pub duplicates: usize,
    /// Inputs whose output was never emitted.
    pub lost: usize,
    /// Outputs whose content differs from the failure-free run.
    pub divergent: usize,
}

impl RecoveryReport {
    /// Precise recovery: nothing lost, nothing divergent (duplicates are
    /// allowed if byte-identical — they can be "silently dropped").
    pub fn is_precise(&self) -> bool {
        self.lost == 0 && self.divergent == 0
    }
}

/// A high-availability strategy protecting one [`RefOperator`].
///
/// The harness drives: `process` for each input (measuring how long the
/// call blocks before the output may be released downstream), one
/// mid-stream `crash_and_takeover`, then more `process` calls; finally the
/// emitted outputs are compared against a failure-free reference.
pub trait HaStrategy: fmt::Debug {
    /// Protocol name for reports.
    fn name(&self) -> &str;

    /// Processes one input event; returns the outputs *released
    /// downstream* by this call (some protocols release earlier inputs'
    /// outputs late). Blocking time inside this call is the protocol's
    /// latency cost.
    fn process(&mut self, seq: u64, value: i64) -> Vec<RefEvent>;

    /// Kills the primary and fails over / recovers. Returns outputs
    /// re-emitted during recovery (possible duplicates).
    fn crash_and_takeover(&mut self) -> Vec<RefEvent>;
}

// ---------------------------------------------------------------------
// Amnesia
// ---------------------------------------------------------------------

/// Amnesia: no redundancy at all. Outputs release immediately; a crash
/// loses the operator state and everything in flight ("gap recovery").
#[derive(Debug)]
pub struct Amnesia {
    op: RefOperator,
    seed: u64,
}

impl Amnesia {
    /// Creates the strategy.
    pub fn new(seed: u64) -> Self {
        Amnesia { op: RefOperator::new(seed), seed }
    }
}

impl HaStrategy for Amnesia {
    fn name(&self) -> &str {
        "amnesia"
    }

    fn process(&mut self, seq: u64, value: i64) -> Vec<RefEvent> {
        vec![self.op.process(seq, value)]
    }

    fn crash_and_takeover(&mut self) -> Vec<RefEvent> {
        // Fresh operator, state gone; nothing replayed.
        self.op = RefOperator::new(self.seed.wrapping_add(1));
        Vec::new()
    }
}

/// The image of `state` after `processed` events, the last of them input
/// `seq`: the stream resumes after it.
fn checkpoint(processed: u64, seq: u64, state: Vec<u8>) -> Checkpoint {
    let input = InputFrontier { position: seq + 1, ..InputFrontier::default() };
    Checkpoint { events_processed: processed, inputs: vec![input], state, ..Checkpoint::default() }
}

// ---------------------------------------------------------------------
// Passive standby
// ---------------------------------------------------------------------

/// Passive standby: the primary checkpoints to the standby and **only
/// forwards checkpointed tuples** (§5). Every emission therefore waits for
/// a synchronous checkpoint write; recovery restores the last checkpoint
/// with nothing lost and nothing divergent.
pub struct PassiveStandby {
    op: RefOperator,
    store: CheckpointStore,
    /// Outputs included in the last checkpoint, releasable downstream.
    emitted: u64,
}

impl fmt::Debug for PassiveStandby {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PassiveStandby").field("emitted", &self.emitted).finish()
    }
}

impl PassiveStandby {
    /// Creates the strategy; `checkpoint_latency` models the standby sync.
    pub fn new(seed: u64, checkpoint_latency: Duration) -> Self {
        PassiveStandby {
            op: RefOperator::new(seed),
            store: CheckpointStore::new(DiskSpec::simulated(checkpoint_latency)),
            emitted: 0,
        }
    }
}

impl HaStrategy for PassiveStandby {
    fn name(&self) -> &str {
        "passive standby"
    }

    fn process(&mut self, seq: u64, value: i64) -> Vec<RefEvent> {
        let out = self.op.process(seq, value);
        // Checkpoint state *and* the pending output, then release.
        let mut state = self.op.snapshot();
        state.extend(encode_to_vec(&out));
        self.store
            .save(checkpoint(self.op.processed(), seq, state))
            .expect("a store bound to no file keeps its checkpoints in memory");
        self.emitted += 1;
        vec![out]
    }

    fn crash_and_takeover(&mut self) -> Vec<RefEvent> {
        let cp = self.store.latest().expect("at least one checkpoint");
        // The operator snapshot length is self-delimiting via its codec;
        // re-split state || last-output.
        let op_len = RefOperator::new(0).snapshot().len();
        self.op = RefOperator::restore(&cp.state[..op_len]);
        let _last_out: RefEvent =
            decode_from_slice(&cp.state[op_len..]).expect("checkpointed output");
        // Everything emitted was checkpointed: nothing lost, nothing to
        // re-emit.
        Vec::new()
    }
}

// ---------------------------------------------------------------------
// Upstream backup
// ---------------------------------------------------------------------

/// Upstream backup: upstream retains events; outputs release immediately.
/// After a crash the events are replayed into a fresh operator — state is
/// rebuilt, but non-deterministic draws differ, so previously emitted
/// outputs are re-emitted with *divergent* content (imprecise for
/// non-deterministic operators, §5).
#[derive(Debug)]
pub struct UpstreamBackup {
    op: RefOperator,
    retained: VecDeque<(u64, i64)>,
    seed: u64,
    generation: u64,
}

impl UpstreamBackup {
    /// Creates the strategy.
    pub fn new(seed: u64) -> Self {
        UpstreamBackup {
            op: RefOperator::new(seed),
            retained: VecDeque::new(),
            seed,
            generation: 0,
        }
    }

    /// Trims the upstream buffer (acknowledged prefix).
    pub fn ack_upto(&mut self, seq: u64) {
        while self.retained.front().map(|(s, _)| *s < seq).unwrap_or(false) {
            self.retained.pop_front();
        }
    }
}

impl HaStrategy for UpstreamBackup {
    fn name(&self) -> &str {
        "upstream backup"
    }

    fn process(&mut self, seq: u64, value: i64) -> Vec<RefEvent> {
        self.retained.push_back((seq, value));
        vec![self.op.process(seq, value)]
    }

    fn crash_and_takeover(&mut self) -> Vec<RefEvent> {
        self.generation += 1;
        self.op = RefOperator::new(self.seed.wrapping_add(self.generation));
        // Replay retained inputs; outputs are re-emitted (duplicates) and
        // their tags are fresh draws (divergence).
        let retained: Vec<(u64, i64)> = self.retained.iter().copied().collect();
        retained.into_iter().map(|(s, v)| self.op.process(s, v)).collect()
    }
}

// ---------------------------------------------------------------------
// Active standby
// ---------------------------------------------------------------------

/// Active standby (process-pair, Flux-style): a secondary runs in
/// lock-step; the primary ships each non-deterministic decision and waits
/// for the acknowledgment before emitting (§5). Failover is lossless and
/// precise; the cost is one replica round-trip per event.
pub struct ActiveStandby {
    primary: RefOperator,
    secondary: RefOperator,
    rtt: Duration,
}

impl fmt::Debug for ActiveStandby {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ActiveStandby").field("rtt", &self.rtt).finish()
    }
}

impl ActiveStandby {
    /// Creates the pair; `rtt` models the decision-sync round trip.
    pub fn new(seed: u64, rtt: Duration) -> Self {
        ActiveStandby { primary: RefOperator::new(seed), secondary: RefOperator::new(seed), rtt }
    }
}

impl HaStrategy for ActiveStandby {
    fn name(&self) -> &str {
        "active standby"
    }

    fn process(&mut self, seq: u64, value: i64) -> Vec<RefEvent> {
        let out = self.primary.process(seq, value);
        // Ship the decision (the tag) to the secondary and wait for its ack
        // before releasing — modeled as one blocking round trip.
        let started = Instant::now();
        let mirrored = self.secondary.process_with_tag(seq, value, out.tag);
        debug_assert_eq!(mirrored, out);
        let elapsed = started.elapsed();
        if elapsed < self.rtt {
            std::thread::sleep(self.rtt - elapsed);
        }
        vec![out]
    }

    fn crash_and_takeover(&mut self) -> Vec<RefEvent> {
        // Secondary becomes primary; it is exactly in sync.
        self.primary = RefOperator::restore(&self.secondary.snapshot());
        Vec::new()
    }
}

// ---------------------------------------------------------------------
// Approximate checkpoint
// ---------------------------------------------------------------------

/// Approximate checkpoint (StreamMine's third recovery mode): outputs
/// release immediately and the state checkpoints *lazily*, once every
/// `every` events, so the synchronous write is amortized across the
/// interval instead of paid per event like [`PassiveStandby`]. A crash
/// restores the stale snapshot and resumes in place — no replay of the
/// gap — so nothing downstream is lost or duplicated, but post-crash
/// outputs diverge by at most the updates skipped since the last save:
/// the bounded error the runtime's budget accounts for.
pub struct ApproximateCheckpoint {
    op: RefOperator,
    store: CheckpointStore,
    seed: u64,
    every: u64,
    processed: u64,
}

impl fmt::Debug for ApproximateCheckpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ApproximateCheckpoint")
            .field("every", &self.every)
            .field("processed", &self.processed)
            .finish()
    }
}

impl ApproximateCheckpoint {
    /// Creates the strategy; `checkpoint_latency` models the stable write
    /// paid once per `every` events.
    pub fn new(seed: u64, checkpoint_latency: Duration, every: u64) -> Self {
        assert!(every > 0, "checkpoint interval must be positive");
        ApproximateCheckpoint {
            op: RefOperator::new(seed),
            store: CheckpointStore::new(DiskSpec::simulated(checkpoint_latency)),
            seed,
            every,
            processed: 0,
        }
    }
}

impl HaStrategy for ApproximateCheckpoint {
    fn name(&self) -> &str {
        "approximate checkpoint"
    }

    fn process(&mut self, seq: u64, value: i64) -> Vec<RefEvent> {
        let out = self.op.process(seq, value);
        self.processed += 1;
        if self.processed.is_multiple_of(self.every) {
            self.store
                .save(checkpoint(self.op.processed(), seq, self.op.snapshot()))
                .expect("a store bound to no file keeps its checkpoints in memory");
        }
        vec![out]
    }

    fn crash_and_takeover(&mut self) -> Vec<RefEvent> {
        // Stale-snapshot resume: no replay, the gap since the last save
        // is simply skipped (bounded by `every`).
        self.op = match self.store.latest() {
            Some(cp) => RefOperator::restore(&cp.state),
            None => RefOperator::new(self.seed),
        };
        Vec::new()
    }
}

// ---------------------------------------------------------------------
// Harness: run a stream with one mid-stream crash and classify precision.
// ---------------------------------------------------------------------

/// Drives `strategy` over `total` events with a crash after `crash_after`,
/// comparing against a failure-free [`RefOperator`] with the same seed.
/// Returns the report and the mean release latency (µs) per event.
pub fn evaluate(
    strategy: &mut dyn HaStrategy,
    seed: u64,
    total: u64,
    crash_after: u64,
) -> (RecoveryReport, f64) {
    assert!(crash_after < total, "crash must happen mid-stream");
    let mut reference = RefOperator::new(seed);
    let expected: Vec<RefEvent> = (0..total).map(|i| reference.process(i, i as i64)).collect();

    let mut emissions: Vec<RefEvent> = Vec::new();
    let mut total_latency = Duration::ZERO;
    for i in 0..total {
        if i == crash_after {
            emissions.extend(strategy.crash_and_takeover());
        }
        let started = Instant::now();
        emissions.extend(strategy.process(i, i as i64));
        total_latency += started.elapsed();
    }

    let mut report = RecoveryReport::default();
    for want in &expected {
        let got: Vec<&RefEvent> = emissions.iter().filter(|e| e.seq == want.seq).collect();
        match got.len() {
            0 => report.lost += 1,
            n => {
                if n > 1 {
                    report.duplicates += n - 1;
                }
                if got.iter().any(|e| *e != want) {
                    report.divergent += 1;
                }
            }
        }
    }
    (report, total_latency.as_secs_f64() * 1e6 / total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: u64 = 40;
    const CRASH: u64 = 25;

    #[test]
    fn amnesia_loses_state_and_diverges() {
        let mut s = Amnesia::new(1);
        let (report, latency) = evaluate(&mut s, 1, N, CRASH);
        assert!(!report.is_precise());
        assert!(report.divergent > 0, "post-crash outputs lose the running sum");
        assert!(latency < 1_000.0, "amnesia must be nearly free");
    }

    #[test]
    fn passive_standby_is_precise_but_pays_per_event() {
        let lat = Duration::from_millis(2);
        let mut s = PassiveStandby::new(1, lat);
        let (report, latency) = evaluate(&mut s, 1, N, CRASH);
        assert!(report.is_precise(), "passive standby must be precise: {report:?}");
        assert!(latency >= 1_800.0, "must pay ~checkpoint latency per event, got {latency}us");
    }

    #[test]
    fn upstream_backup_is_cheap_but_imprecise() {
        let mut s = UpstreamBackup::new(1);
        let (report, latency) = evaluate(&mut s, 1, N, CRASH);
        assert!(latency < 1_000.0, "upstream backup is cheap at runtime");
        assert_eq!(report.lost, 0, "replay recovers all inputs");
        assert!(report.duplicates > 0, "replay re-emits previously sent outputs");
        assert!(report.divergent > 0, "redrawn decisions diverge (imprecise)");
    }

    #[test]
    fn active_standby_is_precise_at_one_rtt_per_event() {
        let rtt = Duration::from_millis(1);
        let mut s = ActiveStandby::new(1, rtt);
        let (report, latency) = evaluate(&mut s, 1, N, CRASH);
        assert!(report.is_precise(), "active standby must be precise: {report:?}");
        assert!(latency >= 900.0, "must pay ~RTT per event, got {latency}us");
    }

    #[test]
    fn approximate_checkpoint_amortizes_the_write_into_bounded_divergence() {
        let lat = Duration::from_millis(2);
        // An interval that does not divide the crash point, so the last
        // save is genuinely stale when the crash lands.
        let mut s = ApproximateCheckpoint::new(1, lat, 4);
        let (report, latency) = evaluate(&mut s, 1, N, CRASH);
        assert_eq!(report.lost, 0, "every input's output was released");
        assert_eq!(report.duplicates, 0, "no replay, nothing re-emitted");
        assert!(report.divergent > 0, "the stale-snapshot resume must diverge post-crash");
        assert!(
            report.divergent <= (N - CRASH) as usize,
            "divergence is confined to post-crash outputs"
        );
        // Amortized: ~lat/every per event, well under passive standby's
        // full write per event.
        assert!(latency < 1_000.0, "lazy checkpoints must amortize, got {latency}us/event");
    }

    #[test]
    fn upstream_backup_ack_trims_buffer() {
        let mut s = UpstreamBackup::new(2);
        for i in 0..10 {
            s.process(i, 1);
        }
        s.ack_upto(6);
        let replayed = s.crash_and_takeover();
        assert_eq!(replayed.len(), 4, "only unacked events replay");
    }

    #[test]
    #[should_panic(expected = "crash must happen mid-stream")]
    fn evaluate_rejects_late_crash() {
        let mut s = Amnesia::new(1);
        let _ = evaluate(&mut s, 1, 5, 5);
    }
}
