//! The operator abstraction.
//!
//! An operator is specified by an optional setup method (state
//! registration), a required processing method, and an optional termination
//! method — mirroring §2.3. Crucially, *"the specification of an operator is
//! independent of its configuration"*: the same `process` code runs
//! speculatively or not — as an STM transaction either way, which publishes
//! its outputs at once or only when it commits — because all state access
//! and all non-determinism go through the [`OpCtx`].
//!
//! `process` may be invoked concurrently (optimistic parallelization) and
//! may be re-invoked for the same event (speculative rollback +
//! re-execution), so it must not hold state outside the registry or perform
//! non-idempotent external actions — the paper's "non-speculative external
//! actions" restriction (§2.3).

use std::fmt;

use parking_lot::Mutex;
use streammine_common::clock::SharedClock;
use streammine_common::codec::{Decode, Encode};
use streammine_common::event::{Event, Timestamp, Value};
use streammine_common::rng::DetRng;
use streammine_stm::{StmAbort, Txn};

use crate::determinant::{DecisionLog, Determinant, Tape};
use crate::state::{StateHandle, StateRegistry};

/// Index of an input port of an operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId(pub u32);

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "port{}", self.0)
    }
}

/// Context passed to [`Operator::setup`].
#[derive(Debug)]
pub struct SetupCtx<'a> {
    pub(crate) registry: &'a mut StateRegistry,
}

impl SetupCtx<'_> {
    /// Registers a state cell with an initial value. The engine checkpoints
    /// and restores registered cells automatically.
    pub fn state<T>(&mut self, init: T) -> StateHandle<T>
    where
        T: Clone + Encode + Decode + Send + Sync + 'static,
    {
        self.registry.register(init)
    }
}

/// Context passed to [`Operator::process`] for one input event.
pub struct OpCtx<'a, 'rt> {
    pub(crate) registry: &'a StateRegistry,
    /// The transaction this execution of the event runs as.
    pub(crate) txn: &'a mut Txn<'rt>,
    pub(crate) outputs: Vec<(Option<u32>, Value)>,
    /// The event's decision tape, shared by every execution of it.
    pub(crate) tape: &'a Tape,
    /// Tape entries this execution has asked for so far (the engine's
    /// input choice included): the index of its next decision.
    pub(crate) drawn: usize,
    /// Where a decision taken live is appended; `None`: nothing is logged.
    pub(crate) log: Option<&'a DecisionLog>,
    pub(crate) rng: &'a Mutex<DetRng>,
    pub(crate) clock: &'a SharedClock,
    pub(crate) input_port: PortId,
    pub(crate) input_ts: Timestamp,
}

impl fmt::Debug for OpCtx<'_, '_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OpCtx")
            .field("port", &self.input_port)
            .field("outputs", &self.outputs.len())
            .field("drawn", &self.drawn)
            .finish()
    }
}

impl<'a, 'rt> OpCtx<'a, 'rt> {
    /// Reads a state cell.
    ///
    /// # Errors
    ///
    /// Propagates [`StmAbort`] on a conflict; the engine retries the whole
    /// `process` call.
    pub fn get<T>(&mut self, handle: StateHandle<T>) -> Result<std::sync::Arc<T>, StmAbort>
    where
        T: Clone + Encode + Decode + Send + Sync + 'static,
    {
        self.registry.read(handle, self.txn)
    }

    /// Writes a state cell.
    ///
    /// # Errors
    ///
    /// Propagates [`StmAbort`] on a conflict.
    pub fn set<T>(&mut self, handle: StateHandle<T>, value: T) -> Result<(), StmAbort>
    where
        T: Clone + Encode + Decode + Send + Sync + 'static,
    {
        self.registry.write(handle, self.txn, value)
    }

    /// Read-modify-write of a state cell.
    ///
    /// # Errors
    ///
    /// Propagates [`StmAbort`] on a conflict.
    pub fn update<T>(
        &mut self,
        handle: StateHandle<T>,
        f: impl FnOnce(&T) -> T,
    ) -> Result<(), StmAbort>
    where
        T: Clone + Encode + Decode + Send + Sync + 'static,
    {
        let old = self.get(handle)?;
        self.set(handle, f(&old))
    }

    /// Emits an output event with the given payload to **all** downstream
    /// edges. The engine assigns the event id (deterministically, from the
    /// input's serial and the emit index) and the input's timestamp.
    pub fn emit(&mut self, payload: Value) {
        self.outputs.push((None, payload));
    }

    /// Emits an output event to a single downstream edge (by connection
    /// order) — how a `Split` operator routes (§2.2). Out-of-range targets
    /// are dropped by the engine.
    pub fn emit_to(&mut self, output: u32, payload: Value) {
        self.outputs.push((Some(output), payload));
    }

    /// Which input port the current event arrived on.
    pub fn input_port(&self) -> PortId {
        self.input_port
    }

    /// The current event's timestamp.
    pub fn input_timestamp(&self) -> Timestamp {
        self.input_ts
    }

    /// The next entry of the event's tape: read if an earlier execution
    /// (or the run before a crash) took it, taken by `draw` and logged
    /// otherwise.
    fn decide(&mut self, draw: impl FnOnce() -> Determinant) -> Determinant {
        let index = self.drawn;
        self.drawn += 1;
        self.tape.decide(index, self.log, draw)
    }

    /// Draws a random 64-bit value. **This is a logged non-deterministic
    /// decision**: taken and appended to the log the first time the event
    /// asks for it, read back verbatim by a re-execution and by recovery.
    ///
    /// # Panics
    ///
    /// Panics if replay diverges (the recorded decision is of another
    /// kind) — that indicates a non-deterministic `process` outside this
    /// API.
    pub fn random_u64(&mut self) -> u64 {
        let rng = self.rng;
        match self.decide(|| Determinant::Random(rng.lock().next_u64())) {
            Determinant::Random(v) => v,
            other => panic!("replay divergence: expected Random, got {other:?}"),
        }
    }

    /// Uniform random value in `[0, bound)`, logged like
    /// [`OpCtx::random_u64`].
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0` or on replay divergence.
    pub fn random_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Derive from one logged u64 so replay consumes exactly one record.
        let x = self.random_u64();
        ((u128::from(x) * u128::from(bound)) >> 64) as u64
    }

    /// Reads physical time in microseconds. **This is a logged
    /// non-deterministic decision** (system-time windows etc., §1); a
    /// re-execution reads the time its first execution saw.
    ///
    /// # Panics
    ///
    /// Panics on replay divergence.
    pub fn now_micros(&mut self) -> Timestamp {
        let clock = self.clock;
        match self.decide(|| Determinant::Time(clock.now_micros())) {
            Determinant::Time(t) => t,
            other => panic!("replay divergence: expected Time, got {other:?}"),
        }
    }
}

/// A stream processing operator.
///
/// Implementations hold only immutable configuration; all mutable state
/// lives in cells registered during [`Operator::setup`], which is what lets
/// the engine run the same code as a transaction, speculative or not,
/// checkpoint it, and re-execute it after rollbacks.
pub trait Operator: Send + Sync + 'static {
    /// Human-readable name for logs and reports.
    fn name(&self) -> &str {
        "operator"
    }

    /// Called once before processing starts; registers state cells.
    fn setup(&self, ctx: &mut SetupCtx<'_>) {
        let _ = ctx;
    }

    /// Processes one input event; called for every event on any input port.
    ///
    /// # Errors
    ///
    /// Returns [`StmAbort`] when a conflict requires rollback —
    /// implementations simply propagate it with `?`.
    fn process(&self, ctx: &mut OpCtx<'_, '_>, event: &Event) -> Result<(), StmAbort>;

    /// Called once before shutdown.
    fn terminate(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};
    use streammine_common::clock::{shared, ManualClock};
    use streammine_common::ids::{EventId, OperatorId};
    use streammine_obs::{Labels, Obs};
    use streammine_stm::{Serial, StmRuntime};
    use streammine_storage::disk::DiskSpec;
    use streammine_storage::log::StableLog;

    use crate::determinant::{read_back, DecisionRecord};
    use crate::plumbing::Inbox;

    /// What an execution needs besides its event's tape: the state, the
    /// generator, the clock, and a runtime to run it as a transaction.
    struct Env {
        rt: StmRuntime,
        registry: StateRegistry,
        rng: Mutex<DetRng>,
        clock: SharedClock,
        serials: AtomicU64,
    }

    impl Env {
        fn new(seed: u64) -> Env {
            Env::with_clock(seed, shared(ManualClock::new()))
        }

        fn with_clock(seed: u64, clock: SharedClock) -> Env {
            let rt = StmRuntime::new();
            Env {
                registry: StateRegistry::new(rt.clone()),
                rt,
                rng: Mutex::new(DetRng::seed_from(seed)),
                clock,
                serials: AtomicU64::new(0),
            }
        }

        /// Runs `f` on the context of one execution of the event whose
        /// tape is `tape`, as a transaction that commits.
        fn run<R>(
            &self,
            tape: &Tape,
            log: Option<&DecisionLog>,
            f: impl FnOnce(&mut OpCtx<'_, '_>) -> R,
        ) -> R {
            let serial = Serial(self.serials.fetch_add(1, Ordering::Relaxed));
            let mut f = Some(f);
            let (handle, r) = (self.rt)
                .execute(serial, |txn| {
                    let mut ctx = OpCtx {
                        registry: &self.registry,
                        txn,
                        outputs: Vec::new(),
                        tape,
                        drawn: 0,
                        log,
                        rng: &self.rng,
                        clock: &self.clock,
                        input_port: PortId(0),
                        input_ts: 42,
                    };
                    Ok(f.take().expect("one attempt")(&mut ctx))
                })
                .unwrap();
            handle.authorize();
            handle.wait_committed();
            r
        }
    }

    fn decision_log() -> DecisionLog {
        let obs = Obs::tracing();
        DecisionLog {
            log: StableLog::new(vec![DiskSpec::simulated(Duration::from_micros(100))]),
            inbox: Inbox::new(Vec::new()),
            log_wait_us: obs.registry.histogram("stage.log_wait_us", Labels::op(0)),
            tracer: obs.tracer.clone(),
            op: 0,
            scratch: Mutex::default(),
        }
    }

    /// What the log holds once everything appended is stable.
    fn logged(log: &DecisionLog) -> Vec<DecisionRecord> {
        log.log.flush();
        read_back(log.log.stable_entries())
            .decisions
            .into_iter()
            .map(|(_, record)| record)
            .collect()
    }

    #[test]
    fn live_decisions_are_logged_as_they_are_taken() {
        let env = Env::new(1);
        let log = decision_log();
        let tape = Tape::new(7, false, Vec::new());
        let (r, t) = env.run(&tape, Some(&log), |ctx| {
            let r = ctx.random_u64();
            // Appended by the draw itself, not when the operator returns.
            assert_eq!(log.log.appended(), 1);
            (r, ctx.now_micros())
        });
        assert_eq!(
            logged(&log),
            vec![
                DecisionRecord { serial: 7, index: 0, decision: Determinant::Random(r) },
                DecisionRecord { serial: 7, index: 1, decision: Determinant::Time(t) },
            ]
        );
    }

    #[test]
    fn an_event_posts_one_stability_notice_however_many_decisions_it_took() {
        let env = Env::new(6);
        // Slow enough that all five draws are appended before the first
        // write returns.
        let log = DecisionLog {
            log: StableLog::new(vec![DiskSpec::simulated(Duration::from_millis(20)); 2]),
            ..decision_log()
        };
        let tape = Tape::new(3, false, Vec::new());
        env.run(&tape, Some(&log), |ctx| {
            for _ in 0..5 {
                ctx.random_u64();
            }
        });
        assert!(!tape.is_stable());
        let mut notices = std::collections::VecDeque::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        // The test owns the log, as a coordinator does: it parks until the
        // next group ends and completes it.
        while !tape.is_stable() && Instant::now() < deadline {
            log.inbox.park(log.log.next_due().or(Some(deadline)));
            log.log.poll();
        }
        assert!(tape.is_stable());
        log.inbox.take_notices(&mut notices);
        assert_eq!(notices.len(), 1, "{notices:?}");
        assert_eq!(log.log_wait_us.snapshot().count(), 5, "the wait is measured per record");
    }

    #[test]
    fn second_attempt_reads_the_first_attempts_decisions_and_appends_nothing() {
        let clock = Arc::new(ManualClock::new());
        let env = Env::with_clock(2, clock.clone());
        let log = decision_log();
        let tape = Tape::new(0, false, Vec::new());
        let first = env.run(&tape, Some(&log), |ctx| (ctx.random_u64(), ctx.now_micros()));
        let position = env.rng.lock().clone();
        clock.advance(Duration::from_micros(500));
        let second = env.run(&tape, Some(&log), |ctx| (ctx.random_u64(), ctx.now_micros()));
        assert_eq!(second, first);
        assert_eq!(log.log.appended(), 2, "a re-execution logged again");
        assert_eq!(*env.rng.lock(), position, "a re-execution moved the random stream");
    }

    #[test]
    fn attempt_that_draws_more_extends_tape_and_log_by_the_new_entries() {
        let env = Env::new(3);
        let log = decision_log();
        let tape = Tape::new(4, false, Vec::new());
        let first = env.run(&tape, Some(&log), |ctx| ctx.random_u64());
        let (again, extra) = env.run(&tape, Some(&log), |ctx| (ctx.random_u64(), ctx.random_u64()));
        assert_eq!(again, first);
        assert_ne!(extra, first);
        assert_eq!(
            logged(&log),
            vec![
                DecisionRecord { serial: 4, index: 0, decision: Determinant::Random(first) },
                DecisionRecord { serial: 4, index: 1, decision: Determinant::Random(extra) },
            ]
        );
    }

    #[test]
    fn recovered_prefix_is_read_and_live_draws_follow_it() {
        let env = Env::new(4);
        let log = decision_log();
        let tape = Tape::new(9, false, vec![Determinant::Random(99), Determinant::Time(123)]);
        let live = env.run(&tape, Some(&log), |ctx| {
            assert_eq!(ctx.random_u64(), 99);
            assert_eq!(ctx.now_micros(), 123);
            assert_eq!(log.log.appended(), 0, "an entry read back was logged again");
            ctx.random_u64()
        });
        let record = DecisionRecord { serial: 9, index: 2, decision: Determinant::Random(live) };
        assert_eq!(logged(&log), vec![record]);
    }

    #[test]
    fn without_a_log_decisions_are_taken_once_and_nothing_is_awaited() {
        let env = Env::new(5);
        let tape = Tape::new(0, false, Vec::new());
        let v = env.run(&tape, None, |ctx| ctx.random_below(10));
        assert!(v < 10);
        assert_eq!(env.run(&tape, None, |ctx| ctx.random_below(10)), v);
        assert!(tape.is_stable());
    }

    #[test]
    #[should_panic(expected = "replay divergence")]
    fn replay_divergence_panics() {
        let env = Env::new(3);
        let tape = Tape::new(0, false, vec![Determinant::Time(1)]);
        env.run(&tape, None, |ctx| ctx.random_u64());
    }

    #[test]
    fn emit_collects_outputs_and_state_roundtrips() {
        let mut env = Env::new(5);
        let h = env.registry.register(5i64);
        let tape = Tape::new(0, false, Vec::new());
        env.run(&tape, None, |ctx| {
            ctx.update(h, |v| v + 1).unwrap();
            assert_eq!(*ctx.get(h).unwrap(), 6);
            ctx.emit(Value::Int(1));
            ctx.emit_to(1, Value::Int(2));
            assert_eq!(ctx.outputs.len(), 2);
            assert_eq!(ctx.outputs[0].0, None);
            assert_eq!(ctx.outputs[1].0, Some(1));
            assert_eq!(ctx.input_port(), PortId(0));
            assert_eq!(ctx.input_timestamp(), 42);
        });
        assert_eq!(*env.run(&tape, None, |ctx| ctx.get(h).unwrap()), 6, "the update committed");
    }

    #[test]
    fn a_minimal_operator_compiles_and_runs() {
        struct Doubler {
            out: StateHandle<i64>,
        }
        // Handles are normally created in setup; for this unit test we
        // create the registry by hand.
        let mut env = Env::new(6);
        let op = Doubler { out: env.registry.register(0i64) };
        impl Operator for Doubler {
            fn name(&self) -> &str {
                "doubler"
            }
            fn process(&self, ctx: &mut OpCtx<'_, '_>, event: &Event) -> Result<(), StmAbort> {
                let v = event.payload.as_i64().unwrap_or(0);
                ctx.set(self.out, v * 2)?;
                ctx.emit(Value::Int(v * 2));
                Ok(())
            }
        }
        let tape = Tape::new(0, false, Vec::new());
        let ev = Event::new(EventId::new(OperatorId::new(0), 0), 1, Value::Int(21));
        env.run(&tape, None, |ctx| {
            op.process(ctx, &ev).unwrap();
            assert_eq!(ctx.outputs, vec![(None, Value::Int(42))]);
            assert_eq!(*ctx.get(op.out).unwrap(), 42);
        });
        assert_eq!(op.name(), "doubler");
        op.terminate();
    }
}
