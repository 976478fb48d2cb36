//! Optimistic parallel execution of speculative tasks.
//!
//! [`Speculator`] is the "optimistic parallelization" harness of the paper
//! (§3, Figure 5): tasks — one per input event, identified by their serial —
//! run concurrently on a worker pool; the STM detects conflicts, aborts the
//! later arrival, and re-executes cascade-aborted open transactions
//! automatically. With no available parallelism in the workload the system
//! degrades to sequential throughput (plus abort overhead); with
//! parallelism, speed-up approaches the worker count.
//!
//! Task bodies may run **multiple times** (retries and cascade
//! re-executions); all side effects other than transactional reads/writes
//! must be idempotent or versioned by the caller.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam_channel::{Receiver, Sender};
use parking_lot::{Condvar, Mutex};
use streammine_common::pool::ThreadPool;

use crate::handle::TxnHandle;
use crate::runtime::StmRuntime;
use crate::txn::Txn;
use crate::types::{Serial, StmAbort, TxnId, TxnStatus};

type TaskBody = Arc<dyn Fn(&mut Txn<'_>) -> Result<(), StmAbort> + Send + Sync>;

type Dispatch = Box<dyn FnOnce() + Send>;

struct SpecShared {
    tasks: Mutex<HashMap<TxnId, (TxnHandle, TaskBody)>>,
    submitted: AtomicU64,
    completed: AtomicU64,
    idle_lock: Mutex<()>,
    idle_cv: Condvar,
    stopping: AtomicBool,
    /// Maximum distance a task's serial may run ahead of the commit
    /// frontier. Unbounded look-ahead under conflict-heavy workloads makes
    /// every frontier advance doom the whole speculative tail (quadratic
    /// re-execution); the window bounds the wasted work, which is the
    /// "trade promptness to explore parallelism against the amount of
    /// resources wasted" knob of §4.
    window: u64,
    /// Tasks waiting for admission, FIFO by serial.
    parked: Mutex<VecDeque<(u64, Dispatch)>>,
}

/// Parallel optimistic executor over one [`StmRuntime`].
///
/// ```
/// use std::sync::Arc;
/// use streammine_stm::{Serial, Speculator, StmRuntime};
///
/// let rt = StmRuntime::new();
/// let counters: Vec<_> = (0..8).map(|_| rt.new_var(0i64)).collect();
/// let spec = Speculator::new(rt.clone(), 4);
/// for i in 0..64u64 {
///     let var = counters[(i % 8) as usize].clone();
///     spec.submit(Serial(i), move |txn| txn.update(&var, |v| v + 1));
/// }
/// spec.wait_idle();
/// let total: i64 = counters.iter().map(|c| *c.load()).sum();
/// assert_eq!(total, 64);
/// ```
pub struct Speculator {
    runtime: StmRuntime,
    pool: Arc<ThreadPool>,
    shared: Arc<SpecShared>,
    completion_tx: Sender<TxnHandle>,
    monitor: Option<JoinHandle<()>>,
    waiter: Option<JoinHandle<()>>,
}

impl fmt::Debug for Speculator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Speculator")
            .field("threads", &self.pool.size())
            .field("submitted", &self.shared.submitted.load(Ordering::Relaxed))
            .field("completed", &self.shared.completed.load(Ordering::Relaxed))
            .finish()
    }
}

impl Speculator {
    /// Creates an executor with `threads` workers over `runtime`.
    ///
    /// Registers itself as the runtime's abort sink: cascade-aborted open
    /// transactions are re-executed automatically.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(runtime: StmRuntime, threads: usize) -> Self {
        Self::with_window(runtime, threads, (threads as u64) * 4)
    }

    /// Creates an executor with an explicit speculation window (how far
    /// serials may run ahead of the commit frontier).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or `window == 0`.
    pub fn with_window(runtime: StmRuntime, threads: usize, window: u64) -> Self {
        assert!(window > 0, "speculation window must be positive");
        let pool = Arc::new(ThreadPool::new("speculator", threads));
        let shared = Arc::new(SpecShared {
            tasks: Mutex::new(HashMap::new()),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            idle_lock: Mutex::new(()),
            idle_cv: Condvar::new(),
            stopping: AtomicBool::new(false),
            window,
            parked: Mutex::new(VecDeque::new()),
        });
        // Unbounded, but intrinsically bounded: each channel carries at
        // most one entry per live transaction, and the speculation window
        // caps live transactions at `window`. A bounded channel here could
        // deadlock — the abort sink fires from commit/validation paths
        // that must never block on the monitor draining.
        let (abort_tx, abort_rx) = crossbeam_channel::unbounded::<TxnId>();
        runtime.set_abort_sink(move |id| {
            let _ = abort_tx.send(id);
        });
        let (completion_tx, completion_rx) = crossbeam_channel::unbounded::<TxnHandle>();

        let monitor = {
            let shared = shared.clone();
            let pool = pool.clone();
            let runtime = runtime.clone();
            std::thread::Builder::new()
                .name("speculator-monitor".into())
                .spawn(move || Self::monitor_loop(&runtime, &shared, &pool, &abort_rx))
                .expect("spawn monitor")
        };
        let waiter = {
            let shared = shared.clone();
            let pool = pool.clone();
            std::thread::Builder::new()
                .name("speculator-waiter".into())
                .spawn(move || Self::waiter_loop(&shared, &pool, &completion_rx))
                .expect("spawn waiter")
        };
        Speculator {
            runtime,
            pool,
            shared,
            completion_tx,
            monitor: Some(monitor),
            waiter: Some(waiter),
        }
    }

    /// The underlying runtime.
    pub fn runtime(&self) -> &StmRuntime {
        &self.runtime
    }

    /// Submits a task: `body` runs as a transaction at `serial` on the
    /// worker pool and is authorized to commit as soon as it publishes.
    ///
    /// The transaction is *begun* synchronously, so the commit frontier
    /// observes serials in submission order — callers must submit in serial
    /// order. The body may run several times; see the module docs.
    pub fn submit<F>(&self, serial: Serial, body: F)
    where
        F: Fn(&mut Txn<'_>) -> Result<(), StmAbort> + Send + Sync + 'static,
    {
        let body: TaskBody = Arc::new(body);
        self.shared.submitted.fetch_add(1, Ordering::SeqCst);
        // Register before the first execution: a cascade abort arriving
        // between publish and registration must find the task re-runnable.
        let handle = self.runtime.begin(serial);
        self.shared.tasks.lock().insert(handle.id(), (handle.clone(), body.clone()));
        let runtime = self.runtime.clone();
        let shared = self.shared.clone();
        let completion_tx = self.completion_tx.clone();
        let pool = self.pool.clone();
        let dispatch: Dispatch = Box::new(move || {
            // `body` moves straight into the transaction closure: the
            // dispatch is FnOnce and the registry holds its own Arc.
            match runtime.reexecute(&handle, move |txn| body(txn)) {
                Ok(()) => {
                    handle.authorize();
                    let _ = completion_tx.send(handle);
                }
                Err(_) => {
                    // Shutdown: account as completed so wait_idle returns.
                    shared.tasks.lock().remove(&handle.id());
                    let _idle = shared.idle_lock.lock();
                    shared.completed.fetch_add(1, Ordering::SeqCst);
                    shared.idle_cv.notify_all();
                }
            }
        });
        // Admission control: run now if within the window of the frontier,
        // otherwise park until commits advance it.
        let frontier = self.shared.completed.load(Ordering::SeqCst);
        let mut parked = self.shared.parked.lock();
        if serial.0 < frontier + self.shared.window && parked.is_empty() {
            drop(parked);
            pool.execute(dispatch);
        } else {
            parked.push_back((serial.0, dispatch));
        }
    }

    fn admit_ready(shared: &Arc<SpecShared>, pool: &Arc<ThreadPool>) {
        let frontier = shared.completed.load(Ordering::SeqCst);
        let window = shared.window;
        loop {
            let dispatch = {
                let mut parked = shared.parked.lock();
                match parked.front() {
                    Some((serial, _)) if *serial < frontier + window => {
                        parked.pop_front().expect("nonempty").1
                    }
                    _ => break,
                }
            };
            pool.execute(dispatch);
        }
    }

    fn monitor_loop(
        runtime: &StmRuntime,
        shared: &Arc<SpecShared>,
        pool: &Arc<ThreadPool>,
        abort_rx: &Receiver<TxnId>,
    ) {
        while let Ok(id) = abort_rx.recv() {
            if shared.stopping.load(Ordering::Acquire) {
                break;
            }
            let entry = shared.tasks.lock().get(&id).cloned();
            if let Some((handle, body)) = entry {
                handle.state().trace(|| "monitor schedules reexecute".to_string());
                // A re-execution near the commit frontier gates overall
                // progress: run it inline, immediately. Farther ones go to
                // the pool (admission control keeps its queue short).
                let frontier = shared.completed.load(Ordering::SeqCst);
                let near_frontier = handle.serial().0 <= frontier + 2;
                if near_frontier {
                    if runtime.reexecute(&handle, move |txn| body(txn)).is_ok() {
                        handle.authorize();
                    }
                } else {
                    let runtime = runtime.clone();
                    pool.execute(move || {
                        if runtime.reexecute(&handle, move |txn| body(txn)).is_ok() {
                            handle.authorize();
                        }
                    });
                }
            }
        }
    }

    fn waiter_loop(
        shared: &Arc<SpecShared>,
        pool: &Arc<ThreadPool>,
        completion_rx: &Receiver<TxnHandle>,
    ) {
        while let Ok(handle) = completion_rx.recv() {
            loop {
                match handle.wait_outcome() {
                    TxnStatus::Committed => break,
                    _ => {
                        if shared.stopping.load(Ordering::Acquire) {
                            break;
                        }
                        // Aborted: a re-execution is in flight; let it run.
                        std::thread::sleep(Duration::from_micros(50));
                    }
                }
            }
            shared.tasks.lock().remove(&handle.id());
            // Increment and notify under the idle lock: otherwise wait_idle
            // can check the counter, lose the race to this increment, and
            // then sleep through the notification forever.
            {
                let _idle = shared.idle_lock.lock();
                shared.completed.fetch_add(1, Ordering::SeqCst);
                shared.idle_cv.notify_all();
            }
            Self::admit_ready(shared, pool);
        }
    }

    /// Blocks until every submitted task has committed.
    pub fn wait_idle(&self) {
        let mut guard = self.shared.idle_lock.lock();
        while self.shared.completed.load(Ordering::SeqCst)
            < self.shared.submitted.load(Ordering::SeqCst)
        {
            self.shared.idle_cv.wait(&mut guard);
        }
    }

    /// Tasks submitted so far.
    pub fn submitted(&self) -> u64 {
        self.shared.submitted.load(Ordering::SeqCst)
    }

    /// Tasks fully committed so far.
    pub fn completed(&self) -> u64 {
        self.shared.completed.load(Ordering::SeqCst)
    }

    /// Shuts down the executor (waits for queued work to drain first when
    /// possible). The runtime itself stays usable.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.shared.stopping.store(true, Ordering::Release);
        // Closing the completion channel ends the waiter; the monitor ends
        // when the abort sender does, and the runtime's sink owns it — so
        // replace the sink.
        self.runtime.set_abort_sink(|_| {});
        self.runtime.inner.cv.notify_all();
        let (tx, _rx) = crossbeam_channel::unbounded();
        let old_tx = std::mem::replace(&mut self.completion_tx, tx);
        drop(old_tx);
        if let Some(h) = self.monitor.take() {
            // Monitor may be blocked on recv; it wakes when the old sink,
            // and the abort sender inside it, is dropped above.
            let _ = h.join();
        }
        if let Some(h) = self.waiter.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Speculator {
    fn drop(&mut self) {
        if self.monitor.is_some() || self.waiter.is_some() {
            self.shutdown_in_place();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_disjoint_tasks_all_commit() {
        let rt = StmRuntime::new();
        let vars: Vec<_> = (0..16).map(|_| rt.new_var(0i64)).collect();
        let spec = Speculator::new(rt.clone(), 4);
        for i in 0..128u64 {
            let var = vars[(i % 16) as usize].clone();
            spec.submit(Serial(i), move |txn| txn.update(&var, |v| v + 1));
        }
        spec.wait_idle();
        let total: i64 = vars.iter().map(|v| *v.load()).sum();
        assert_eq!(total, 128);
        assert_eq!(rt.stats().committed, 128);
        spec.shutdown();
    }

    #[test]
    fn fully_conflicting_tasks_serialize_correctly() {
        let rt = StmRuntime::new();
        let var = rt.new_var(0i64);
        let spec = Speculator::new(rt.clone(), 4);
        for i in 0..64u64 {
            let var = var.clone();
            spec.submit(Serial(i), move |txn| txn.update(&var, |v| v + 1));
        }
        spec.wait_idle();
        assert_eq!(*var.load(), 64, "single-field state must serialize losslessly");
        spec.shutdown();
    }

    #[test]
    fn conflicting_workload_records_aborts() {
        let rt = StmRuntime::new();
        let var = rt.new_var(0i64);
        let spec = Speculator::new(rt.clone(), 8);
        for i in 0..200u64 {
            let var = var.clone();
            spec.submit(Serial(i), move |txn| {
                txn.update(&var, |v| v + 1)?;
                // Lengthen the window a bit so conflicts actually occur.
                std::hint::black_box(compute(200));
                Ok(())
            });
        }
        spec.wait_idle();
        assert_eq!(*var.load(), 200);
        spec.shutdown();
    }

    fn compute(n: u64) -> u64 {
        let mut acc = 1u64;
        for i in 1..n {
            acc = acc.wrapping_mul(i) ^ (acc >> 3);
        }
        acc
    }

    #[test]
    fn serial_order_is_respected_for_conflicting_updates() {
        // Each task appends its serial to a shared log; committed order
        // must be exactly ascending because appends conflict pairwise.
        let rt = StmRuntime::new();
        let log = rt.new_var(Vec::<u64>::new());
        let spec = Speculator::new(rt.clone(), 4);
        for i in 0..32u64 {
            let log = log.clone();
            spec.submit(Serial(i), move |txn| {
                txn.update(&log, |v| {
                    let mut v = v.clone();
                    v.push(i);
                    v
                })
            });
        }
        spec.wait_idle();
        let final_log = log.load();
        let expect: Vec<u64> = (0..32).collect();
        assert_eq!(*final_log, expect);
        spec.shutdown();
    }
}
