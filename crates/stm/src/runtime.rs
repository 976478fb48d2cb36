//! The speculative STM runtime.
//!
//! One [`StmRuntime`] manages the state of one speculative operator: its
//! transactional variables, the transaction dependency graph, conflict
//! detection, publish/commit/abort processing and the commit frontier.
//!
//! # Protocol summary
//!
//! * **Active** transactions buffer writes privately and register
//!   read/write intents on each variable's metadata (the paper's lock
//!   array). Conflicts between two active transactions abort the one whose
//!   event arrived last (§3).
//! * **Publish** (`complete` in the paper) makes the write buffer visible to
//!   later transactions without committing: the transaction enters the
//!   *open* state, "waits in pre-commit stage and does not unregister itself
//!   from the lock array".
//! * Later transactions may **read published values of open transactions**,
//!   creating dependency edges: they cannot commit before their
//!   dependencies, and they abort if a dependency aborts (cascade).
//! * A publish by an *earlier-serial* transaction dooms every later
//!   transaction that read a value the publish supersedes — this is the
//!   fine-grained "rollback only when strictly necessary" rule (§5).
//! * **Commit** requires owner authorization (the engine grants it when all
//!   input events are final and the decision log is stable) plus dependency
//!   closure and the configured [`CommitOrder`].
//!
//! # Locking discipline
//!
//! Four lock classes exist, ordered: **per-transaction buffer → {per-variable
//! metadata, dependency graph} → value stripe**. A thread holds at most one
//! buffer lock (its own transaction's), may nest variable metadata or the
//! graph under it, and may nest a value stripe under variable metadata. The
//! graph and variable metadata are never held together, and nothing is ever
//! acquired *after* a stripe. Holding the buffer across the metadata and
//! graph sections lets publish/commit/cleanup iterate the read/write sets in
//! place — no per-operation snapshot vectors, which is what makes the hot
//! path allocation-free (see `fence`). Cross-lock races are closed by
//! registration ground truth (readers/writers register under the variable
//! lock *before* acting on what they saw) plus doom flags re-checked under
//! the graph lock at publish/commit decision points.
//!
//! # Fast-path reads
//!
//! Each variable carries a packed word `(version << 1) | writers_present`
//! (see [`VarCell`]). When the word shows no registered writers, a read
//! clones the committed value under the striped value lock and re-checks the
//! word — avoiding the metadata mutex entirely and registering **no** reader
//! record. The invisible read is validated at the transaction's own publish:
//! the version must be unchanged and no published earlier writer may have
//! appeared; the read is then registered as a regular committed read (so
//! later publishes can doom it while the transaction waits in the open
//! state). Any intervening writer is caught by exactly one of: the version
//! check (writer committed), the visible-writer check (writer published), or
//! the writer's own publish-time reader scan (writer published after our
//! registration). Failures fall back to [`AbortReason::StaleRead`] retries.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::fence::{ColdSection, HotSection};
use crate::graph::Graph;
use crate::handle::TxnHandle;
use crate::stats::{StatsSnapshot, StmStats};
use crate::txn::{Txn, TxnState, WriteEntry, TERMINAL_COMMITTED, TERMINAL_DISCARDED};
use crate::types::{
    AbortReason, CommitOrder, DependencyMode, Serial, StmAbort, TxnId, TxnStatus, VarId,
};
use crate::var::{DynValue, ReadKind, ReaderRec, TVar, VarCell, WriterRec};

/// Bound on the transaction-state pool; covers the live-transaction
/// high-water mark of an operator without pinning memory indefinitely.
const TXN_POOL_CAP: usize = 256;

/// Tuning knobs for a runtime.
#[derive(Debug, Clone)]
pub struct StmConfig {
    /// Commit ordering policy (see [`CommitOrder`]).
    pub commit_order: CommitOrder,
    /// Dependency tracking granularity (see [`DependencyMode`]).
    pub dependency_mode: DependencyMode,
    /// Base back-off after a conflict abort; doubled per consecutive retry.
    pub backoff_base: Duration,
    /// Upper bound for the back-off.
    pub backoff_max: Duration,
    /// Enable the striped-lock fast path for reads of variables with no
    /// registered writers (see the module docs). Disable to force every
    /// read through the metadata mutex — used by equivalence tests and as
    /// an ablation knob.
    pub fastpath: bool,
}

impl Default for StmConfig {
    fn default() -> Self {
        StmConfig {
            commit_order: CommitOrder::default(),
            dependency_mode: DependencyMode::default(),
            backoff_base: Duration::from_micros(20),
            backoff_max: Duration::from_millis(2),
            fastpath: true,
        }
    }
}

/// The speculative STM runtime. Cheap to clone (shared interior).
///
/// See the [crate docs](crate) for a worked example.
#[derive(Clone, Debug)]
pub struct StmRuntime {
    pub(crate) inner: Arc<RuntimeInner>,
}

/// Where the runtime reports a transaction id. Called on the commit and
/// abort paths, under the sink's lock: it must hand the id over without
/// blocking and without calling back into the runtime's sink setters.
type TxnSink = Box<dyn Fn(TxnId) + Send + Sync>;

pub(crate) struct RuntimeInner {
    next_var: AtomicU64,
    next_txn: AtomicU64,
    pub(crate) graph: Mutex<Graph>,
    pub(crate) cv: Condvar,
    pub(crate) config: StmConfig,
    pub(crate) stats: StmStats,
    abort_sink: Mutex<Option<TxnSink>>,
    commit_sink: Mutex<Option<TxnSink>>,
    shutdown: AtomicBool,
    /// Recycled transaction states; their buffer vectors keep warmed-up
    /// capacity, so `begin` allocates nothing in steady state.
    txn_pool: Mutex<Vec<Arc<TxnState>>>,
}

impl std::fmt::Debug for RuntimeInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuntimeInner")
            .field("vars", &self.next_var.load(Ordering::Relaxed))
            .field("txns", &self.next_txn.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for StmRuntime {
    fn default() -> Self {
        Self::new()
    }
}

impl StmRuntime {
    /// Creates a runtime with the default (sound) configuration.
    pub fn new() -> Self {
        Self::with_config(StmConfig::default())
    }

    /// Creates a runtime with an explicit configuration.
    pub fn with_config(config: StmConfig) -> Self {
        StmRuntime {
            inner: Arc::new(RuntimeInner {
                next_var: AtomicU64::new(0),
                next_txn: AtomicU64::new(0),
                graph: Mutex::new(Graph::default()),
                cv: Condvar::new(),
                config,
                stats: StmStats::default(),
                abort_sink: Mutex::new(None),
                commit_sink: Mutex::new(None),
                shutdown: AtomicBool::new(false),
                txn_pool: Mutex::new(Vec::with_capacity(TXN_POOL_CAP)),
            }),
        }
    }

    /// The runtime's configuration.
    pub fn config(&self) -> &StmConfig {
        &self.inner.config
    }

    /// Allocates a new transactional variable holding `initial`.
    pub fn new_var<T: Send + Sync + 'static>(&self, initial: T) -> TVar<T> {
        let id = VarId(self.inner.next_var.fetch_add(1, Ordering::Relaxed));
        TVar { cell: Arc::new(VarCell::new(id, Arc::new(initial))), _pd: std::marker::PhantomData }
    }

    /// Begins a transaction at `serial` without running anything yet.
    ///
    /// Most callers want [`StmRuntime::execute`]; `begin` exists for
    /// engines that drive the lifecycle manually.
    ///
    /// # Panics
    ///
    /// Panics if `serial` is already registered to a live transaction.
    pub fn begin(&self, serial: Serial) -> TxnHandle {
        let id = TxnId(self.inner.next_txn.fetch_add(1, Ordering::Relaxed));
        let state = self.inner.alloc_state(id, serial);
        self.inner.graph.lock().insert(id, serial, state.clone());
        state.trace(|| format!("begin serial={}", serial.0));
        self.inner.stats.started.fetch_add(1, Ordering::Relaxed);
        TxnHandle { runtime: self.clone(), state }
    }

    /// Runs `body` as a transaction at `serial`, retrying on conflicts,
    /// until it *publishes* (reaches the open state). Returns the handle —
    /// still awaiting [`TxnHandle::authorize`] before it can commit — and
    /// the body's result.
    ///
    /// # Errors
    ///
    /// Returns [`StmAbort`] only for non-retryable aborts (owner revocation
    /// or runtime shutdown).
    pub fn execute<R, F>(&self, serial: Serial, mut body: F) -> Result<(TxnHandle, R), StmAbort>
    where
        F: FnMut(&mut Txn<'_>) -> Result<R, StmAbort>,
    {
        let handle = self.begin(serial);
        match self.run_attempts(&handle, &mut body) {
            Ok(r) => Ok((handle, r)),
            Err(e) => Err(e),
        }
    }

    /// Re-runs an aborted transaction (same identity and serial, fresh
    /// generation). Used after cascade aborts and after the input event of
    /// a transaction was replaced by a newer speculative version.
    ///
    /// # Errors
    ///
    /// [`StmAbort`] for non-retryable aborts, or if the transaction was
    /// discarded.
    ///
    /// Returns [`AbortReason::Superseded`] if the transaction already has
    /// a live (published or committed) generation — a concurrent executor
    /// re-ran it first; the request is safely redundant.
    pub fn reexecute<R, F>(&self, handle: &TxnHandle, mut body: F) -> Result<R, StmAbort>
    where
        F: FnMut(&mut Txn<'_>) -> Result<R, StmAbort>,
    {
        // Serialize with any straggler executor of a previous generation:
        // only the holder of the execution flag may touch the transaction's
        // buffers or variable registrations.
        self.inner.acquire_execution(&handle.state);
        {
            let mut g = self.inner.graph.lock();
            if !g.contains(handle.state.id) {
                drop(g);
                self.inner.release_execution(&handle.state);
                return Err(StmAbort { reason: AbortReason::Revoked });
            }
            let node = g.node_mut(handle.state.id);
            match node.status {
                TxnStatus::Aborted => {
                    node.status = TxnStatus::Active;
                    node.generation += 1;
                    node.state.generation.store(node.generation, Ordering::Release);
                    node.authorized = false;
                    node.doomed = None;
                    node.state.clear_doom();
                    node.state.trace(|| format!("reexecute rearm gen={}", node.generation));
                }
                TxnStatus::Active => {
                    if node.doomed.is_some() {
                        // The previous executor exited on the doom without
                        // rearming (non-retryable reason); rearm in place so
                        // this re-execution runs with fresh state.
                        node.generation += 1;
                        node.state.generation.store(node.generation, Ordering::Release);
                        node.authorized = false;
                        node.doomed = None;
                        node.state.clear_doom();
                    }
                    node.state.trace(|| format!("reexecute entry-active gen={}", node.generation));
                }
                TxnStatus::Open | TxnStatus::Committing | TxnStatus::Committed => {
                    drop(g);
                    self.inner.release_execution(&handle.state);
                    return Err(StmAbort { reason: AbortReason::Superseded });
                }
            }
        }
        // Clear any leftovers of the aborted generation now, on the thread
        // that owns the execution flag — aborters never clean, so cleanup
        // can never race a newer generation's registrations.
        self.inner.cleanup_txn(&handle.state);
        let result = self.run_attempts_guarded(handle, &mut body);
        self.inner.release_execution(&handle.state);
        result
    }

    fn run_attempts<R, F>(&self, handle: &TxnHandle, body: &mut F) -> Result<R, StmAbort>
    where
        F: FnMut(&mut Txn<'_>) -> Result<R, StmAbort>,
    {
        self.inner.acquire_execution(&handle.state);
        let result = self.run_attempts_guarded(handle, body);
        self.inner.release_execution(&handle.state);
        result
    }

    fn run_attempts_guarded<R, F>(&self, handle: &TxnHandle, body: &mut F) -> Result<R, StmAbort>
    where
        F: FnMut(&mut Txn<'_>) -> Result<R, StmAbort>,
    {
        handle.state.trace(|| "run_attempts enter".to_string());
        let mut attempt: u32 = 0;
        loop {
            if self.inner.shutdown.load(Ordering::Acquire) {
                self.inner.abort_txn(handle.state.id, AbortReason::Shutdown, false);
                return Err(StmAbort { reason: AbortReason::Shutdown });
            }
            let mut txn = Txn { rt: &self.inner, state: handle.state.clone() };
            let outcome = match body(&mut txn) {
                Ok(r) => self.inner.publish(&handle.state).map(|()| r),
                Err(e) => Err(e),
            };
            match outcome {
                Ok(r) => return Ok(r),
                Err(abort) => {
                    self.inner.count_abort(abort.reason);
                    match abort.reason {
                        AbortReason::Conflict | AbortReason::StaleRead | AbortReason::Cascade => {
                            self.inner.stats.retries.fetch_add(1, Ordering::Relaxed);
                            self.inner.abort_txn(handle.state.id, abort.reason, true);
                            attempt += 1;
                            self.backoff(attempt);
                        }
                        AbortReason::Revoked | AbortReason::Superseded | AbortReason::Shutdown => {
                            self.inner.abort_txn(handle.state.id, abort.reason, false);
                            return Err(abort);
                        }
                    }
                }
            }
        }
    }

    fn backoff(&self, attempt: u32) {
        if attempt <= 1 {
            std::thread::yield_now();
            return;
        }
        let base = self.inner.config.backoff_base;
        let factor = 1u32 << attempt.min(10);
        let wait = (base * factor).min(self.inner.config.backoff_max);
        std::thread::sleep(wait);
    }

    /// Registers a non-blocking callback that is handed the id of every
    /// *open* transaction torn down by a cascade abort, so its owner can
    /// re-execute it. Replaces (and drops) the previous one.
    pub fn set_abort_sink(&self, sink: impl Fn(TxnId) + Send + Sync + 'static) {
        *self.inner.abort_sink.lock() = Some(Box::new(sink));
    }

    /// Registers a non-blocking callback that is handed the id of every
    /// transaction that commits. Engines use this to finalize the
    /// speculative outputs of the corresponding event (paper's control
    /// message 6 → event 7).
    pub fn set_commit_sink(&self, sink: impl Fn(TxnId) + Send + Sync + 'static) {
        *self.inner.commit_sink.lock() = Some(Box::new(sink));
    }

    /// Snapshot of the runtime's counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats.snapshot()
    }

    /// Number of live (uncommitted, undiscarded) transactions.
    pub fn live_txns(&self) -> usize {
        self.inner.graph.lock().uncommitted.len()
    }

    /// Renders the live transaction table for diagnostics: one line per
    /// uncommitted transaction with status, authorization, doom flag,
    /// generation and dependency edges.
    pub fn dump_state(&self) -> String {
        use std::fmt::Write as _;
        let g = self.inner.graph.lock();
        let mut out = String::new();
        for (serial, id) in &g.uncommitted {
            if let Some(n) = g.nodes.get(id) {
                let mut deps: Vec<u64> = n.deps.iter().map(|d| d.0).collect();
                deps.sort_unstable();
                let mut dependents: Vec<u64> = n.dependents.iter().map(|d| d.0).collect();
                dependents.sort_unstable();
                let _ = writeln!(
                    out,
                    "{serial} {id} status={} auth={} doomed={:?} gen={} deps={deps:?} dependents={dependents:?}",
                    n.status, n.authorized, n.doomed, n.generation
                );
            } else {
                let _ = writeln!(out, "{serial} {id} <missing node>");
            }
        }
        out
    }

    /// Shuts the runtime down: all live transactions are aborted, blocked
    /// waiters wake up, and new executions fail with
    /// [`AbortReason::Shutdown`].
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::Release);
        let roots: Vec<TxnId> = {
            let g = self.inner.graph.lock();
            g.uncommitted.values().copied().collect()
        };
        for id in roots {
            self.inner.abort_txn(id, AbortReason::Shutdown, false);
        }
        self.inner.cv.notify_all();
    }
}

/// Outcome aggregation used by abort processing: per-transaction cleanup
/// work to perform after the graph lock is released.
///
/// Empty `Vec::new` does not allocate; the vectors grow only when aborts
/// actually occur (the protocol's cold path, excluded from the allocation
/// fence via [`ColdSection`]).
struct AbortActions {
    cleanups: Vec<Arc<TxnState>>,
    notifies: Vec<TxnId>,
}

impl AbortActions {
    fn new() -> Self {
        AbortActions { cleanups: Vec::new(), notifies: Vec::new() }
    }
}

impl RuntimeInner {
    // ---------------------------------------------------------------------
    // Body-facing operations
    // ---------------------------------------------------------------------

    pub(crate) fn txn_read(
        &self,
        st: &Arc<TxnState>,
        cell: &Arc<VarCell>,
    ) -> Result<DynValue, StmAbort> {
        st.check_doom()?;
        {
            let buf = st.buf.lock();
            if let Some(e) = buf.write_for(cell.id) {
                // Arc bump, not a deep copy: values are shared `DynValue`
                // handles throughout (as is every `.clone()` below).
                return Ok(e.value.clone());
            }
        }
        let serial = st.serial;
        let me = st.id;
        // Fast path: the packed word shows no registered writers, so the
        // committed value is the only value any reader could observe. Clone
        // it under the value stripe and confirm the word did not move — an
        // unchanged word proves no writer registered and no commit landed
        // across the clone. The read stays invisible (no reader record)
        // until this transaction's own publish validates and registers it.
        if self.config.fastpath {
            let w1 = cell.fast_word();
            if w1 & 1 == 0 {
                let fast = cell.committed_try_clone().filter(|_| cell.fast_word() == w1);
                match fast {
                    Some(value) => {
                        self.stats.fastpath_hits.fetch_add(1, Ordering::Relaxed);
                        let mut buf = st.buf.lock();
                        if !buf.has_read(cell.id) {
                            buf.reads.push((cell.clone(), ReadKind::Fast(w1 >> 1)));
                        }
                        return Ok(value);
                    }
                    // Stripe contended or word moved: take the slow path.
                    None => {
                        self.stats.fastpath_fallbacks.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        // Ghost records of aborted-but-not-yet-re-executed writers are
        // skipped rather than retried against: their owner may be starved
        // behind us in a worker pool, so waiting for it can livelock.
        // (Empty `Vec::new` does not allocate; pushes happen only on the
        // ghost-record path.)
        let mut skip: Vec<TxnId> = Vec::new();
        loop {
            // Register under the metadata lock, but capture the committed
            // value *outside* it (under the stripe only) — the metadata
            // critical section stays a few word-sized operations.
            let (spec_value, kind) = {
                let mut meta = cell.meta.lock();
                // Lazy validation: an *active* earlier writer's buffer is
                // private, so we read past it (latest published or
                // committed value). If that writer later publishes, its
                // reader scan dooms us and we re-execute once — bounded
                // work, unlike eagerly aborting and re-running the whole
                // body while the writer is still computing.
                match meta.visible_writer_excluding(serial, &skip) {
                    Some(w) if w.txn != me => {
                        let kind = ReadKind::Spec(w.txn, w.serial, w.generation);
                        let value = w.published.clone().expect("visible writer must be published");
                        meta.upsert_reader(ReaderRec { serial, txn: me, kind });
                        (Some(value), kind)
                    }
                    _ => {
                        if let Some(lcs) = meta.last_commit_serial {
                            if lcs > serial {
                                self.stats.serial_inversions.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        let kind = ReadKind::Committed(meta.version);
                        meta.upsert_reader(ReaderRec { serial, txn: me, kind });
                        (None, kind)
                    }
                }
            };
            let value = match (spec_value, kind) {
                (Some(v), _) => v,
                (None, ReadKind::Committed(version)) => {
                    let v = cell.committed_clone();
                    // A commit may have replaced the value after we dropped
                    // the metadata lock; re-run the protocol so the
                    // registered version and the captured value agree.
                    if cell.meta.lock().version != version {
                        continue;
                    }
                    v
                }
                (None, _) => unreachable!("committed branch always records Committed"),
            };
            if let ReadKind::Spec(writer, _, generation) = kind {
                let mut g = self.graph.lock();
                match g.nodes.get(&writer) {
                    Some(n) if n.generation != generation => {
                        // The writer aborted and republished between our
                        // capture and this check: the captured value belongs
                        // to a dead generation. Start over (the record in
                        // the variable has been refreshed).
                        drop(g);
                        continue;
                    }
                    Some(n) if matches!(n.status, TxnStatus::Active | TxnStatus::Open) => {
                        g.add_dep(me, writer);
                        drop(g);
                        self.stats.spec_reads.fetch_add(1, Ordering::Relaxed);
                    }
                    Some(n) if n.status == TxnStatus::Aborted => {
                        // Ghost: pretend this writer is not there. If it
                        // re-executes and republishes, its publish will doom
                        // us (generation mismatch), so skipping is safe.
                        drop(g);
                        skip.push(writer);
                        continue;
                    }
                    None => {
                        // Gone from the graph: either committed (then the
                        // committed value already includes this write) or
                        // discarded (then the value must not be used). In
                        // both cases re-reading without it is correct.
                        drop(g);
                        skip.push(writer);
                        continue;
                    }
                    // Committing / committed: value is (about to be)
                    // durable; no edge needed.
                    _ => {}
                }
            }
            let mut buf = st.buf.lock();
            if !buf.has_read(cell.id) {
                buf.reads.push((cell.clone(), kind));
            }
            return Ok(value);
        }
    }

    pub(crate) fn txn_write(
        &self,
        st: &Arc<TxnState>,
        cell: &Arc<VarCell>,
        value: DynValue,
    ) -> Result<(), StmAbort> {
        st.check_doom()?;
        {
            let mut buf = st.buf.lock();
            if let Some(e) = buf.writes.iter_mut().find(|e| e.cell.id == cell.id) {
                // Repeat write: replace the buffered value, registration
                // already done on the first write.
                e.value = value;
                return Ok(());
            }
            buf.writes.push(WriteEntry { cell: cell.clone(), value });
        }
        let serial = st.serial;
        let me = st.id;
        // Empty `Vec::new` does not allocate; pushes happen only when
        // another *published* writer overlaps this variable.
        let mut forward_deps: Vec<TxnId> = Vec::new();
        let mut reverse_deps: Vec<TxnId> = Vec::new();
        {
            let mut meta = cell.meta.lock();
            for other in &meta.writers {
                if other.txn == me || other.published.is_none() {
                    // Active writers coexist: both buffers are private, and
                    // write/write ordering is enforced at publish time via
                    // the serial-sorted chain and reverse dependencies.
                    continue;
                }
                if other.serial < serial {
                    // Overwriting a published earlier value: our commit is
                    // conditional on theirs (§3).
                    forward_deps.push(other.txn);
                } else {
                    // A published later writer must commit after us.
                    reverse_deps.push(other.txn);
                }
            }
            meta.upsert_writer(WriterRec {
                serial,
                txn: me,
                generation: st.generation.load(Ordering::Acquire),
                published: None,
            });
            cell.resync_fast(&meta);
        }
        if !forward_deps.is_empty() || !reverse_deps.is_empty() {
            let mut g = self.graph.lock();
            for w in forward_deps {
                g.add_dep(me, w);
            }
            for w in reverse_deps {
                g.add_dep(w, me);
            }
        }
        Ok(())
    }

    /// Transitions an executed transaction to the open state, making its
    /// write buffer visible to later transactions.
    ///
    /// Holds the transaction's buffer lock across the whole operation (lock
    /// order: buffer → {metadata, graph}), iterating the write set in place
    /// and staging dooms/dependencies in the buffer's reusable scratch
    /// vectors — the entire publish allocates nothing in steady state.
    pub(crate) fn publish(&self, st: &Arc<TxnState>) -> Result<(), StmAbort> {
        let _hot = HotSection::enter();
        st.check_doom()?;
        let serial = st.serial;
        let me = st.id;
        let my_gen = st.generation.load(Ordering::Acquire);
        let mut buf = st.buf.lock();
        let crate::txn::TxnBuf { writes, reads, publish_dooms, publish_fwd, publish_rev } =
            &mut *buf;
        publish_dooms.clear();
        publish_fwd.clear();
        publish_rev.clear();
        // Pass 1: validate invisible fast-path reads and convert them to
        // registered committed reads. Our own writer records are still
        // unpublished, so they cannot satisfy the visible-writer check.
        for (cell, kind) in reads.iter_mut() {
            let ReadKind::Fast(v) = *kind else { continue };
            let mut meta = cell.meta.lock();
            if meta.version != v {
                // A writer committed since the read; the snapshot is stale.
                return Err(StmAbort { reason: AbortReason::StaleRead });
            }
            match meta.visible_writer_excluding(serial, &[]) {
                Some(w) if w.txn != me => {
                    // An earlier writer published a superseding value we
                    // never saw (we were invisible to its reader scan).
                    return Err(StmAbort { reason: AbortReason::StaleRead });
                }
                _ => {}
            }
            if let Some(lcs) = meta.last_commit_serial {
                if lcs > serial {
                    self.stats.serial_inversions.fetch_add(1, Ordering::Relaxed);
                }
            }
            let registered = ReadKind::Committed(v);
            meta.upsert_reader(ReaderRec { serial, txn: me, kind: registered });
            *kind = registered;
        }
        // Pass 2: publish the write buffer; collect stale readers to doom
        // and writer-writer ordering edges.
        for e in writes.iter() {
            let mut meta = e.cell.meta.lock();
            meta.upsert_writer(WriterRec {
                serial,
                txn: me,
                generation: my_gen,
                // Arc bump; the buffer keeps its handle for apply_commit.
                published: Some(e.value.clone()),
            });
            for r in &meta.readers {
                if r.txn == me || r.serial <= serial {
                    continue;
                }
                let stale = match r.kind {
                    // `Fast` never appears in a reader record (fast reads
                    // register as `Committed` at their publish), but it is
                    // stale by the same rule.
                    ReadKind::Committed(_) | ReadKind::Fast(_) => true,
                    // Read of an older writer, or of a rolled-back
                    // generation of *this* transaction.
                    ReadKind::Spec(wtxn, writer_serial, wgen) => {
                        writer_serial < serial || (wtxn == me && wgen != my_gen)
                    }
                };
                if stale {
                    publish_dooms.push(r.txn);
                }
            }
            for other in &meta.writers {
                if other.txn == me {
                    continue;
                }
                if other.serial > serial {
                    publish_rev.push(other.txn);
                } else if other.published.is_some() {
                    publish_fwd.push(other.txn);
                }
            }
            e.cell.resync_fast(&meta);
        }
        publish_dooms.sort_unstable();
        publish_dooms.dedup();
        let mut actions = AbortActions::new();
        let result = {
            let mut g = self.graph.lock();
            let doomed = g.node(me).doomed;
            match doomed {
                Some(reason) => Err(StmAbort { reason }),
                None => {
                    for &w in publish_fwd.iter() {
                        g.add_dep(me, w);
                    }
                    for &w in publish_rev.iter() {
                        g.add_dep(w, me);
                    }
                    if self.config.dependency_mode == DependencyMode::TaintAll {
                        // Non-default mode; the collect here is accepted.
                        for w in g.open_earlier(serial) {
                            g.add_dep(me, w);
                        }
                    }
                    for &d in publish_dooms.iter() {
                        self.doom_locked(&mut g, d, AbortReason::StaleRead, &mut actions);
                    }
                    let node = g.node_mut(me);
                    node.status = TxnStatus::Open;
                    node.publish_deps = node.deps.len();
                    node.state.trace(|| format!("publish ok gen={}", node.generation));
                    Ok(())
                }
            }
        };
        drop(buf);
        self.cv.notify_all();
        self.finish_abort_actions(actions);
        match result {
            Ok(()) => {
                self.stats.publishes.fetch_add(1, Ordering::Relaxed);
                self.pump();
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    // ---------------------------------------------------------------------
    // Lifecycle driven by handles / the engine
    // ---------------------------------------------------------------------

    pub(crate) fn authorize(&self, id: TxnId) {
        {
            let mut g = self.graph.lock();
            if g.contains(id) {
                g.node_mut(id).authorized = true;
            }
        }
        self.pump();
    }

    pub(crate) fn revoke(&self, id: TxnId) {
        self.abort_txn(id, AbortReason::Revoked, false);
    }

    pub(crate) fn discard(&self, st: &Arc<TxnState>) {
        // Wait out any in-flight executor, then tear down under the flag so
        // cleanup cannot race a (now impossible) new generation.
        self.acquire_execution(st);
        let mut actions = AbortActions::new();
        {
            let mut g = self.graph.lock();
            if g.contains(st.id) {
                if g.node(st.id).status != TxnStatus::Aborted {
                    self.mark_abort_locked(
                        &mut g,
                        st.id,
                        AbortReason::Revoked,
                        false,
                        &mut actions,
                    );
                }
                g.remove(st.id);
            }
            st.terminal.store(TERMINAL_DISCARDED, Ordering::Release);
        }
        self.cv.notify_all();
        self.finish_abort_actions(actions);
        self.cleanup_txn(st);
        self.release_execution(st);
        self.pump();
    }

    /// Blocks until the transaction is committed or aborted; returns the
    /// terminal-ish status observed.
    pub(crate) fn wait_outcome(&self, st: &Arc<TxnState>) -> TxnStatus {
        let mut g = self.graph.lock();
        loop {
            let status = self.status_locked(&g, st);
            if matches!(status, TxnStatus::Committed | TxnStatus::Aborted) {
                return status;
            }
            self.cv.wait(&mut g);
        }
    }

    /// Blocks until the transaction commits; panics if it is discarded
    /// while waiting (callers that revoke must not also wait).
    pub(crate) fn wait_committed(&self, st: &Arc<TxnState>) {
        let mut g = self.graph.lock();
        loop {
            match st.terminal.load(Ordering::Acquire) {
                TERMINAL_COMMITTED => return,
                TERMINAL_DISCARDED => panic!("transaction {} discarded while awaited", st.id),
                _ => {}
            }
            self.cv.wait(&mut g);
        }
    }

    pub(crate) fn status_locked(&self, g: &Graph, st: &Arc<TxnState>) -> TxnStatus {
        match st.terminal.load(Ordering::Acquire) {
            TERMINAL_COMMITTED => TxnStatus::Committed,
            TERMINAL_DISCARDED => TxnStatus::Aborted,
            _ => {
                if let Some(node) = g.nodes.get(&st.id) {
                    node.status
                } else {
                    TxnStatus::Aborted
                }
            }
        }
    }

    pub(crate) fn status(&self, st: &Arc<TxnState>) -> TxnStatus {
        let g = self.graph.lock();
        self.status_locked(&g, st)
    }

    pub(crate) fn publish_deps(&self, st: &Arc<TxnState>) -> usize {
        let g = self.graph.lock();
        g.nodes.get(&st.id).map(|n| n.publish_deps).unwrap_or(0)
    }

    pub(crate) fn current_deps(&self, st: &Arc<TxnState>) -> usize {
        let g = self.graph.lock();
        g.nodes.get(&st.id).map(|n| n.deps.len()).unwrap_or(0)
    }

    // ---------------------------------------------------------------------
    // Abort machinery
    // ---------------------------------------------------------------------

    /// Dooms one transaction: active transactions get flagged (their body
    /// thread rolls itself back), open transactions cascade-abort.
    fn doom_locked(
        &self,
        g: &mut Graph,
        id: TxnId,
        reason: AbortReason,
        actions: &mut AbortActions,
    ) {
        let status = match g.nodes.get(&id) {
            Some(n) => n.status,
            None => return,
        };
        match status {
            TxnStatus::Active => {
                let node = g.node_mut(id);
                if node.doomed.is_none() {
                    node.doomed = Some(reason);
                    node.state.doom(reason);
                }
            }
            TxnStatus::Open => {
                self.mark_abort_locked(g, id, reason, false, actions);
            }
            _ => {}
        }
    }

    /// Marks the cascade closure of `root` aborted under the graph lock and
    /// accumulates the out-of-lock cleanup work.
    fn mark_abort_locked(
        &self,
        g: &mut Graph,
        root: TxnId,
        reason: AbortReason,
        rearm_root: bool,
        actions: &mut AbortActions,
    ) {
        if !g.contains(root) {
            return;
        }
        let _cold = ColdSection::enter();
        let closure = g.cascade_closure(root);
        for (i, &id) in closure.iter().enumerate() {
            let is_root = i == 0;
            let member_reason = if is_root { reason } else { AbortReason::Cascade };
            let node = g.node_mut(id);
            match node.status {
                TxnStatus::Committed | TxnStatus::Committing => continue,
                TxnStatus::Active => {
                    if is_root && rearm_root {
                        node.generation += 1;
                        node.state.generation.store(node.generation, Ordering::Release);
                        node.authorized = false;
                        node.doomed = None;
                        node.state.clear_doom();
                        node.state.trace(|| {
                            format!("worker rearm gen={} reason={member_reason:?}", node.generation)
                        });
                        actions.cleanups.push(node.state.clone());
                    } else {
                        if node.doomed.is_none() {
                            node.doomed = Some(member_reason);
                            node.state.doom(member_reason);
                            node.state.trace(|| {
                                format!(
                                    "doomed-active gen={} reason={member_reason:?} root={root}",
                                    node.generation
                                )
                            });
                        }
                        // Its own executor resets and cleans it up.
                        continue;
                    }
                }
                TxnStatus::Open => {
                    node.status = TxnStatus::Aborted;
                    node.doomed = None;
                    node.state.clear_doom();
                    node.state.trace(|| format!("abort-open gen={} reason={member_reason:?} root={root} is_root={is_root}", node.generation));
                    // Deliberately NO cleanup here: the aborted generation's
                    // buffers and variable registrations are cleared by the
                    // next executor (reexecute) or by discard, both of which
                    // hold the execution flag. Aborter-side cleanup would
                    // race a newer generation's registrations. Until then,
                    // readers hitting the ghost records observe the aborted
                    // status and retry.
                    actions.notifies.push(id);
                    if !is_root {
                        self.count_abort(AbortReason::Cascade);
                    }
                }
                TxnStatus::Aborted => continue,
            }
            g.clear_edges(id);
        }
    }

    pub(crate) fn abort_txn(&self, root: TxnId, reason: AbortReason, rearm_root: bool) {
        let mut actions = AbortActions::new();
        {
            let mut g = self.graph.lock();
            self.mark_abort_locked(&mut g, root, reason, rearm_root, &mut actions);
        }
        self.cv.notify_all();
        self.finish_abort_actions(actions);
    }

    /// Spins until this thread owns the transaction's execution flag.
    pub(crate) fn acquire_execution(&self, st: &Arc<TxnState>) {
        let mut spins = 0u32;
        while st.executing.swap(true, Ordering::AcqRel) {
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    pub(crate) fn release_execution(&self, st: &Arc<TxnState>) {
        st.executing.store(false, Ordering::Release);
    }

    /// Drains the transaction's buffers and removes its variable
    /// registrations, iterating the sets in place under the buffer lock
    /// (lock order: buffer → metadata). Caller must hold the execution flag
    /// (or otherwise guarantee no concurrent executor).
    pub(crate) fn cleanup_txn(&self, st: &Arc<TxnState>) {
        let mut buf = st.buf.lock();
        for e in buf.writes.iter() {
            let mut meta = e.cell.meta.lock();
            meta.remove_txn(st.id);
            e.cell.resync_fast(&meta);
        }
        for (cell, _) in buf.reads.iter() {
            if buf.has_write(cell.id) {
                continue; // already deregistered above
            }
            // Reader records don't affect the fast word; no resync needed.
            cell.meta.lock().remove_txn(st.id);
        }
        buf.clear();
    }

    fn finish_abort_actions(&self, actions: AbortActions) {
        let _cold = ColdSection::enter();
        for st in &actions.cleanups {
            self.cleanup_txn(st);
        }
        if !actions.notifies.is_empty() {
            if let Some(sink) = &*self.abort_sink.lock() {
                for id in actions.notifies {
                    sink(id);
                }
            }
        }
    }

    /// Pops a reusable transaction state from the pool, or allocates one.
    ///
    /// A pooled `Arc` may still be referenced briefly (a handle owner or a
    /// sink consumer racing the recycle); candidates that fail `get_mut`
    /// rotate to the bottom of the stack, bounded so a pool of pinned
    /// states degrades to plain allocation rather than spinning.
    fn alloc_state(&self, id: TxnId, serial: Serial) -> Arc<TxnState> {
        let mut pool = self.txn_pool.lock();
        for _ in 0..4 {
            let Some(mut cand) = pool.pop() else { break };
            match Arc::get_mut(&mut cand) {
                Some(st) => {
                    st.reset(id, serial);
                    return cand;
                }
                None => pool.insert(0, cand),
            }
        }
        drop(pool);
        Arc::new(TxnState::new(id, serial))
    }

    /// Parks a terminal transaction's state for reuse (bounded).
    fn recycle_state(&self, st: Arc<TxnState>) {
        let mut pool = self.txn_pool.lock();
        if pool.len() < TXN_POOL_CAP {
            pool.push(st);
        }
    }

    pub(crate) fn count_abort(&self, reason: AbortReason) {
        let ctr = match reason {
            AbortReason::Conflict => &self.stats.aborts_conflict,
            AbortReason::StaleRead => &self.stats.aborts_stale,
            AbortReason::Cascade => &self.stats.aborts_cascade,
            AbortReason::Revoked | AbortReason::Superseded | AbortReason::Shutdown => {
                &self.stats.aborts_revoked
            }
        };
        ctr.fetch_add(1, Ordering::Relaxed);
    }

    // ---------------------------------------------------------------------
    // Commit machinery
    // ---------------------------------------------------------------------

    /// Commits every eligible transaction, looping until a fixed point.
    ///
    /// The batch buffer is thread-local and reused across calls; eligible
    /// states are taken straight out of the graph (marked `Committing`)
    /// without an intermediate id list.
    pub(crate) fn pump(&self) {
        thread_local! {
            static BATCH: std::cell::Cell<Vec<Arc<TxnState>>> =
                const { std::cell::Cell::new(Vec::new()) };
        }
        let _hot = HotSection::enter();
        let mut batch = BATCH.with(|b| b.take());
        loop {
            batch.clear();
            self.graph.lock().take_eligible_into(self.config.commit_order, &mut batch);
            if batch.is_empty() {
                break;
            }
            for st in batch.drain(..) {
                self.apply_commit(&st);
                self.recycle_state(st);
            }
            self.cv.notify_all();
        }
        BATCH.with(|b| b.set(batch));
    }

    /// Applies one transaction's writes to the committed slots and retires
    /// it. Iterates the write/read sets in place under the buffer lock
    /// (lock order: buffer → metadata → stripe); allocation-free.
    fn apply_commit(&self, st: &Arc<TxnState>) {
        {
            let buf = st.buf.lock();
            for e in buf.writes.iter() {
                let mut meta = e.cell.meta.lock();
                e.cell.set_committed(e.value.clone());
                meta.version += 1;
                meta.last_commit_serial = Some(match meta.last_commit_serial {
                    Some(prev) if prev > st.serial => prev,
                    _ => st.serial,
                });
                meta.remove_txn(st.id);
                e.cell.resync_fast(&meta);
            }
            for (cell, _) in buf.reads.iter() {
                if buf.has_write(cell.id) {
                    continue; // deregistered with the write above
                }
                cell.meta.lock().remove_txn(st.id);
            }
        }
        st.buf.lock().clear();
        {
            let mut g = self.graph.lock();
            if let Some(node) = g.nodes.get_mut(&st.id) {
                node.status = TxnStatus::Committed;
            }
            g.resolve_dependents(st.id);
            g.remove(st.id);
            st.terminal.store(TERMINAL_COMMITTED, Ordering::Release);
            st.trace(|| "committed".to_string());
        }
        self.stats.committed.fetch_add(1, Ordering::Relaxed);
        if let Some(sink) = &*self.commit_sink.lock() {
            // The notification queue is owned by the embedding layer and
            // unbounded: a hand-over occasionally grows it (amortized).
            // That is the caller's buffer, not the commit path's working
            // set, so it is excluded from the allocation fence.
            let _cold = crate::fence::ColdSection::enter();
            sink(st.id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_transaction_commits_and_applies() {
        let rt = StmRuntime::new();
        let v = rt.new_var(10i64);
        let (h, out) = rt
            .execute(Serial(0), |txn| {
                let x = *txn.read(&v)?;
                txn.write(&v, x + 5)?;
                Ok(x)
            })
            .unwrap();
        assert_eq!(out, 10);
        assert_eq!(*v.load(), 10, "uncommitted write must not be applied");
        assert_eq!(h.status(), TxnStatus::Open);
        h.authorize();
        assert_eq!(h.wait_outcome(), TxnStatus::Committed);
        assert_eq!(*v.load(), 15);
        assert_eq!(v.version(), 1);
    }

    #[test]
    fn later_txn_reads_published_value_and_depends_on_it() {
        let rt = StmRuntime::new();
        let v = rt.new_var(0i64);
        let (h0, _) = rt.execute(Serial(0), |txn| txn.write(&v, 1)).unwrap();
        let (h1, seen) = rt.execute(Serial(1), |txn| Ok(*txn.read(&v)?)).unwrap();
        assert_eq!(seen, 1, "must read the open transaction's published value");
        assert_eq!(h1.publish_deps(), 1);
        h1.authorize();
        // h1 cannot commit before h0 (dependency + timestamp order).
        assert_eq!(h1.status(), TxnStatus::Open);
        h0.authorize();
        assert_eq!(h0.wait_outcome(), TxnStatus::Committed);
        assert_eq!(h1.wait_outcome(), TxnStatus::Committed);
        assert_eq!(*v.load(), 1);
    }

    #[test]
    fn independent_txn_has_no_publish_deps() {
        let rt = StmRuntime::new();
        let a = rt.new_var(0i64);
        let b = rt.new_var(0i64);
        let (_h0, _) = rt.execute(Serial(0), |txn| txn.write(&a, 1)).unwrap();
        let (h1, _) = rt.execute(Serial(1), |txn| txn.write(&b, 2)).unwrap();
        assert_eq!(h1.publish_deps(), 0, "disjoint write sets must not taint");
    }

    #[test]
    fn taint_all_mode_taints_independent_txns() {
        let cfg = StmConfig { dependency_mode: DependencyMode::TaintAll, ..Default::default() };
        let rt = StmRuntime::with_config(cfg);
        let a = rt.new_var(0i64);
        let b = rt.new_var(0i64);
        let (_h0, _) = rt.execute(Serial(0), |txn| txn.write(&a, 1)).unwrap();
        let (h1, _) = rt.execute(Serial(1), |txn| txn.write(&b, 2)).unwrap();
        assert_eq!(h1.publish_deps(), 1, "taint-all must depend on open earlier txn");
    }

    #[test]
    fn cascade_abort_rolls_back_dependents() {
        let rt = StmRuntime::new();
        let v = rt.new_var(0i64);
        let (h0, _) = rt.execute(Serial(0), |txn| txn.write(&v, 1)).unwrap();
        let (h1, seen) = rt.execute(Serial(1), |txn| Ok(*txn.read(&v)?)).unwrap();
        assert_eq!(seen, 1);
        h0.revoke();
        assert_eq!(h0.status(), TxnStatus::Aborted);
        assert_eq!(h1.status(), TxnStatus::Aborted, "dependent must cascade");
        assert_eq!(*v.load(), 0);
        let stats = rt.stats();
        assert!(stats.aborts_cascade >= 1);
    }

    #[test]
    fn reexecute_after_revoke_produces_new_value() {
        let rt = StmRuntime::new();
        let v = rt.new_var(0i64);
        let (h0, _) = rt.execute(Serial(0), |txn| txn.write(&v, 1)).unwrap();
        h0.revoke();
        let out = rt.reexecute(&h0, |txn| {
            txn.write(&v, 42)?;
            Ok(())
        });
        assert!(out.is_ok());
        h0.authorize();
        assert_eq!(h0.wait_outcome(), TxnStatus::Committed);
        assert_eq!(*v.load(), 42);
    }

    #[test]
    fn discard_unblocks_commit_frontier() {
        let rt = StmRuntime::new();
        let v = rt.new_var(0i64);
        let (h0, _) = rt.execute(Serial(0), |txn| txn.write(&v, 1)).unwrap();
        let (h1, _) = rt.execute(Serial(1), |txn| txn.write(&v, 2)).unwrap();
        h1.authorize();
        assert_eq!(h1.status(), TxnStatus::Open, "blocked behind serial 0");
        h0.revoke();
        // h1 overwrote h0's published value — cascade kills h1 too (WAW is
        // conservative). Re-execute and confirm it can commit once h0 is
        // discarded.
        assert_eq!(h1.status(), TxnStatus::Aborted);
        h0.discard();
        rt.reexecute(&h1, |txn| txn.write(&v, 2)).unwrap();
        h1.authorize();
        assert_eq!(h1.wait_outcome(), TxnStatus::Committed);
        assert_eq!(*v.load(), 2);
    }

    #[test]
    fn stale_read_is_doomed_by_earlier_publish() {
        let rt = StmRuntime::new();
        let v = rt.new_var(0i64);
        // Later transaction reads the committed value first...
        let h1 = rt.begin(Serial(1));
        {
            let mut txn = Txn { rt: &rt.inner, state: h1.state().clone() };
            assert_eq!(*txn.read(&v).unwrap(), 0);
        }
        // ...then the earlier transaction publishes a write to it.
        let (h0, _) = rt.execute(Serial(0), |txn| txn.write(&v, 7)).unwrap();
        // h1 is now doomed; publishing it must fail.
        let res = rt.inner.publish(h1.state());
        assert_eq!(res.unwrap_err().reason, AbortReason::StaleRead);
        h0.authorize();
        assert_eq!(h0.wait_outcome(), TxnStatus::Committed);
        // h1 retries via run_attempts in real usage; clean up here.
        rt.inner.abort_txn(h1.id(), AbortReason::StaleRead, true);
    }

    #[test]
    fn reader_past_active_earlier_writer_is_doomed_at_its_publish() {
        // Lazy validation: the later transaction reads the committed value
        // past an active earlier writer; that writer's publish dooms it.
        let rt = StmRuntime::new();
        let v = rt.new_var(0i64);
        let h0 = rt.begin(Serial(0));
        {
            let mut txn = Txn { rt: &rt.inner, state: h0.state().clone() };
            txn.write(&v, 1).unwrap();
        }
        let h1 = rt.begin(Serial(1));
        {
            let mut txn = Txn { rt: &rt.inner, state: h1.state().clone() };
            assert_eq!(*txn.read(&v).unwrap(), 0, "reads past the private buffer");
        }
        rt.inner.publish(h0.state()).unwrap();
        assert!(h1.state().check_doom().is_err(), "stale reader must be doomed");
        // Re-execution reads the published value and both commit in order.
        rt.inner.abort_txn(h1.id(), AbortReason::StaleRead, true);
        {
            let mut txn = Txn { rt: &rt.inner, state: h1.state().clone() };
            assert_eq!(*txn.read(&v).unwrap(), 1);
        }
        rt.inner.publish(h1.state()).unwrap();
        h0.authorize();
        h1.authorize();
        assert_eq!(h0.wait_outcome(), TxnStatus::Committed);
        assert_eq!(h1.wait_outcome(), TxnStatus::Committed);
    }

    #[test]
    fn concurrent_blind_writers_commit_in_serial_order() {
        // Two active writers on the same variable coexist; the chain and
        // reverse dependencies make the later serial's value win.
        let rt = StmRuntime::new();
        let v = rt.new_var(0i64);
        let h1 = rt.begin(Serial(1));
        {
            let mut txn = Txn { rt: &rt.inner, state: h1.state().clone() };
            txn.write(&v, 2).unwrap();
        }
        let h0 = rt.begin(Serial(0));
        {
            let mut txn = Txn { rt: &rt.inner, state: h0.state().clone() };
            txn.write(&v, 1).unwrap();
        }
        rt.inner.publish(h1.state()).unwrap();
        rt.inner.publish(h0.state()).unwrap();
        h0.authorize();
        h1.authorize();
        assert_eq!(h0.wait_outcome(), TxnStatus::Committed);
        assert_eq!(h1.wait_outcome(), TxnStatus::Committed);
        assert_eq!(*v.load(), 2, "later serial's blind write wins");
    }

    #[test]
    fn shutdown_aborts_everything() {
        let rt = StmRuntime::new();
        let v = rt.new_var(0i64);
        let (h0, _) = rt.execute(Serial(0), |txn| txn.write(&v, 1)).unwrap();
        rt.shutdown();
        assert_eq!(h0.status(), TxnStatus::Aborted);
        let err = rt.execute(Serial(1), |txn| txn.write(&v, 2)).unwrap_err();
        assert_eq!(err.reason, AbortReason::Shutdown);
    }

    #[test]
    fn timestamp_order_commits_serially_even_without_conflicts() {
        let rt = StmRuntime::new();
        let a = rt.new_var(0i64);
        let b = rt.new_var(0i64);
        let (h0, _) = rt.execute(Serial(0), |txn| txn.write(&a, 1)).unwrap();
        let (h1, _) = rt.execute(Serial(1), |txn| txn.write(&b, 1)).unwrap();
        h1.authorize();
        assert_eq!(h1.status(), TxnStatus::Open);
        h0.authorize();
        assert_eq!(h0.wait_outcome(), TxnStatus::Committed);
        assert_eq!(h1.wait_outcome(), TxnStatus::Committed);
    }

    #[test]
    fn conflict_order_lets_independent_later_txn_commit_first() {
        let cfg = StmConfig { commit_order: CommitOrder::Conflict, ..Default::default() };
        let rt = StmRuntime::with_config(cfg);
        let a = rt.new_var(0i64);
        let b = rt.new_var(0i64);
        let (_h0, _) = rt.execute(Serial(0), |txn| txn.write(&a, 1)).unwrap();
        let (h1, _) = rt.execute(Serial(1), |txn| txn.write(&b, 1)).unwrap();
        h1.authorize();
        assert_eq!(h1.wait_outcome(), TxnStatus::Committed, "independent later txn overtakes");
        assert_eq!(*b.load(), 1);
        assert_eq!(*a.load(), 0, "earlier txn still open");
    }

    #[test]
    fn update_helper_reads_then_writes() {
        let rt = StmRuntime::new();
        let v = rt.new_var(3i64);
        let (h, _) = rt.execute(Serial(0), |txn| txn.update(&v, |x| x * 2)).unwrap();
        h.authorize();
        h.wait_outcome();
        assert_eq!(*v.load(), 6);
    }

    #[test]
    fn stats_reflect_lifecycle() {
        let rt = StmRuntime::new();
        let v = rt.new_var(0i64);
        let (h, _) = rt.execute(Serial(0), |txn| txn.write(&v, 1)).unwrap();
        h.authorize();
        h.wait_outcome();
        let s = rt.stats();
        assert_eq!(s.started, 1);
        assert_eq!(s.committed, 1);
        assert_eq!(s.publishes, 1);
    }
}
