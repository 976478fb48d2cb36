//! Transaction state and the body-facing [`Txn`] API.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::runtime::RuntimeInner;
use crate::types::{AbortReason, Serial, StmAbort, TxnId, VarId};
use crate::var::{DynValue, ReadKind, TVar, VarCell};

/// A buffered (not yet committed) write.
pub(crate) struct WriteEntry {
    pub cell: Arc<VarCell>,
    pub value: DynValue,
}

impl fmt::Debug for WriteEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WriteEntry").field("var", &self.cell.id).finish()
    }
}

/// Read and write sets of one transaction attempt.
///
/// Stream-operator transactions touch a handful of variables, so both sets
/// are plain vectors scanned linearly — no hashing, no per-transaction
/// hash-map allocation, and the capacity survives `clear()` so a pooled
/// [`TxnState`] reaches zero steady-state allocation. The `publish_*`
/// fields are scratch space for [`RuntimeInner::publish`], reused across
/// attempts for the same reason.
#[derive(Debug, Default)]
pub(crate) struct TxnBuf {
    /// Write buffer: all stores are private here until publish (§3: "all
    /// writes are buffered and no modification is performed to the actual
    /// data until the transaction commits"). At most one entry per var.
    pub writes: Vec<WriteEntry>,
    /// Variables read (for registration cleanup) with how they were read.
    /// At most one entry per var (first read wins).
    pub reads: Vec<(Arc<VarCell>, ReadKind)>,
    /// Publish scratch: transactions doomed by this publish.
    pub publish_dooms: Vec<TxnId>,
    /// Publish scratch: forward dependencies discovered at publish.
    pub publish_fwd: Vec<TxnId>,
    /// Publish scratch: reverse dependencies discovered at publish.
    pub publish_rev: Vec<TxnId>,
}

/// Entries each publish scratch vector reserves when its state is made,
/// outside any hot section, so that a pooled state's first publish to meet
/// another writer does not allocate.
const PUBLISH_SCRATCH: usize = 4;

impl TxnBuf {
    fn new() -> TxnBuf {
        TxnBuf {
            publish_dooms: Vec::with_capacity(PUBLISH_SCRATCH),
            publish_fwd: Vec::with_capacity(PUBLISH_SCRATCH),
            publish_rev: Vec::with_capacity(PUBLISH_SCRATCH),
            ..TxnBuf::default()
        }
    }

    /// The buffered write for `id`, if any.
    pub fn write_for(&self, id: VarId) -> Option<&WriteEntry> {
        self.writes.iter().find(|e| e.cell.id == id)
    }

    /// Whether a read of `id` is already recorded.
    pub fn has_read(&self, id: VarId) -> bool {
        self.reads.iter().any(|(c, _)| c.id == id)
    }

    /// Whether a write to `id` is buffered.
    pub fn has_write(&self, id: VarId) -> bool {
        self.writes.iter().any(|e| e.cell.id == id)
    }

    /// Clears all sets, keeping their capacity for the next attempt.
    pub fn clear(&mut self) {
        self.writes.clear();
        self.reads.clear();
        self.publish_dooms.clear();
        self.publish_fwd.clear();
        self.publish_rev.clear();
    }
}

/// Terminal-state cache (valid once the node left the graph).
pub(crate) const TERMINAL_NONE: u8 = 0;
pub(crate) const TERMINAL_COMMITTED: u8 = 1;
pub(crate) const TERMINAL_DISCARDED: u8 = 2;

/// Shared per-transaction state; lives as long as any handle or graph node.
pub(crate) struct TxnState {
    pub id: TxnId,
    pub serial: Serial,
    /// Fast-path doom flag mirrored from the graph node, checked on every
    /// transactional operation by the executing body.
    pub doomed: AtomicBool,
    /// `AbortReason` as u8 + 1 (0 = none); set together with `doomed`.
    pub doom_reason: AtomicU8,
    /// Terminal-state cache, set when the node is removed from the graph.
    pub terminal: AtomicU8,
    /// Mirror of the graph node's generation, readable without the graph
    /// lock (bumped under the graph lock at every rearm).
    pub generation: std::sync::atomic::AtomicU64,
    /// Guards against two threads executing the same transaction's body
    /// concurrently — a protocol violation that silently corrupts buffers.
    pub executing: AtomicBool,
    pub buf: Mutex<TxnBuf>,
    /// Debug-build lifecycle history for protocol diagnostics.
    #[cfg(debug_assertions)]
    pub history: Mutex<Vec<String>>,
}

impl fmt::Debug for TxnState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TxnState")
            .field("id", &self.id)
            .field("serial", &self.serial)
            .field("doomed", &self.doomed.load(Ordering::Relaxed))
            .finish()
    }
}

pub(crate) fn reason_to_u8(r: AbortReason) -> u8 {
    match r {
        AbortReason::Conflict => 1,
        AbortReason::StaleRead => 2,
        AbortReason::Cascade => 3,
        AbortReason::Revoked => 4,
        AbortReason::Shutdown => 5,
        AbortReason::Superseded => 6,
    }
}

pub(crate) fn reason_from_u8(v: u8) -> AbortReason {
    match v {
        1 => AbortReason::Conflict,
        2 => AbortReason::StaleRead,
        4 => AbortReason::Revoked,
        5 => AbortReason::Shutdown,
        6 => AbortReason::Superseded,
        _ => AbortReason::Cascade,
    }
}

impl TxnState {
    pub fn new(id: TxnId, serial: Serial) -> Self {
        TxnState {
            id,
            serial,
            doomed: AtomicBool::new(false),
            doom_reason: AtomicU8::new(0),
            terminal: AtomicU8::new(TERMINAL_NONE),
            generation: std::sync::atomic::AtomicU64::new(0),
            executing: AtomicBool::new(false),
            buf: Mutex::new(TxnBuf::new()),
            #[cfg(debug_assertions)]
            history: Mutex::new(Vec::new()),
        }
    }

    /// Re-initializes a pooled state for a fresh transaction. Only callable
    /// with exclusive access (`Arc::get_mut`), which proves no handle, node
    /// or executor still references the previous incarnation.
    pub fn reset(&mut self, id: TxnId, serial: Serial) {
        self.id = id;
        self.serial = serial;
        *self.doomed.get_mut() = false;
        *self.doom_reason.get_mut() = 0;
        *self.terminal.get_mut() = TERMINAL_NONE;
        *self.generation.get_mut() = 0;
        *self.executing.get_mut() = false;
        self.buf.get_mut().clear();
        #[cfg(debug_assertions)]
        self.history.get_mut().clear();
    }

    /// Appends a lifecycle note in debug builds (no-op in release).
    pub fn trace(&self, note: impl FnOnce() -> String) {
        #[cfg(debug_assertions)]
        self.history.lock().push(format!(
            "[{:?}] {}",
            std::thread::current().name().unwrap_or("?"),
            note()
        ));
        #[cfg(not(debug_assertions))]
        let _ = note;
    }

    pub fn doom(&self, reason: AbortReason) {
        self.doom_reason.store(reason_to_u8(reason), Ordering::Relaxed);
        self.doomed.store(true, Ordering::Release);
    }

    pub fn clear_doom(&self) {
        self.doom_reason.store(0, Ordering::Relaxed);
        self.doomed.store(false, Ordering::Release);
    }

    pub fn check_doom(&self) -> Result<(), StmAbort> {
        if self.doomed.load(Ordering::Acquire) {
            Err(StmAbort { reason: reason_from_u8(self.doom_reason.load(Ordering::Relaxed)) })
        } else {
            Ok(())
        }
    }
}

/// The active view of a transaction, passed to the processing body.
///
/// All shared-state access inside a speculative operator goes through this
/// handle; see [`StmRuntime::execute`](crate::StmRuntime::execute).
///
/// # Errors
///
/// Every operation may return [`StmAbort`] when the transaction has been
/// doomed by a conflicting peer — the body should propagate it with `?`;
/// the executor rolls back and re-runs the body automatically.
pub struct Txn<'rt> {
    pub(crate) rt: &'rt RuntimeInner,
    pub(crate) state: Arc<TxnState>,
}

impl fmt::Debug for Txn<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Txn")
            .field("id", &self.state.id)
            .field("serial", &self.state.serial)
            .finish()
    }
}

impl Txn<'_> {
    /// This transaction's id.
    pub fn id(&self) -> TxnId {
        self.state.id
    }

    /// This transaction's serial (event arrival order).
    pub fn serial(&self) -> Serial {
        self.state.serial
    }

    /// The current execution generation (bumps on every rollback +
    /// re-execution). Lets owners order per-attempt side effects.
    pub fn generation(&self) -> u64 {
        self.state.generation.load(Ordering::Acquire)
    }

    /// Transactionally reads `var`.
    ///
    /// Reads the latest value visible at this transaction's serial: its own
    /// buffered write, else the published value of the latest earlier open
    /// transaction (creating a dependency — the paper's conditional-commit
    /// rule), else the committed value.
    ///
    /// # Errors
    ///
    /// [`StmAbort`] if a conflict dooms this transaction (retry handled by
    /// the executor).
    pub fn read<T: Send + Sync + 'static>(&mut self, var: &TVar<T>) -> Result<Arc<T>, StmAbort> {
        let value = self.rt.txn_read(&self.state, &var.cell)?;
        Ok(value.downcast::<T>().expect("type confusion in TVar"))
    }

    /// Transactionally writes `value` to `var` (buffered until publish).
    ///
    /// # Errors
    ///
    /// [`StmAbort`] on conflict with an earlier-serial active writer (the
    /// later arrival — this transaction — aborts, per §3).
    pub fn write<T: Send + Sync + 'static>(
        &mut self,
        var: &TVar<T>,
        value: T,
    ) -> Result<(), StmAbort> {
        self.rt.txn_write(&self.state, &var.cell, Arc::new(value))
    }

    /// Read-modify-write convenience.
    ///
    /// # Errors
    ///
    /// Same as [`Txn::read`] / [`Txn::write`].
    pub fn update<T, F>(&mut self, var: &TVar<T>, f: F) -> Result<(), StmAbort>
    where
        T: Clone + Send + Sync + 'static,
        F: FnOnce(&T) -> T,
    {
        let old = self.read(var)?;
        self.write(var, f(&old))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doom_roundtrip() {
        let s = TxnState::new(TxnId(1), Serial(0));
        assert!(s.check_doom().is_ok());
        s.doom(AbortReason::StaleRead);
        assert_eq!(s.check_doom().unwrap_err().reason, AbortReason::StaleRead);
        s.clear_doom();
        assert!(s.check_doom().is_ok());
    }

    #[test]
    fn reason_codes_roundtrip() {
        for r in [
            AbortReason::Conflict,
            AbortReason::StaleRead,
            AbortReason::Cascade,
            AbortReason::Revoked,
            AbortReason::Superseded,
            AbortReason::Shutdown,
        ] {
            assert_eq!(reason_from_u8(reason_to_u8(r)), r);
        }
    }

    #[test]
    fn buf_clear_keeps_capacity() {
        let cell = Arc::new(VarCell::new(VarId(1), Arc::new(0i64)));
        let mut buf = TxnBuf::default();
        buf.reads.push((cell.clone(), ReadKind::Committed(0)));
        buf.writes.push(WriteEntry { cell: cell.clone(), value: Arc::new(1i64) });
        assert!(buf.has_read(VarId(1)));
        assert!(buf.has_write(VarId(1)));
        assert!(buf.write_for(VarId(1)).is_some());
        let (rc, wc) = (buf.reads.capacity(), buf.writes.capacity());
        buf.clear();
        assert!(!buf.has_read(VarId(1)));
        assert!(buf.write_for(VarId(1)).is_none());
        assert_eq!(buf.reads.capacity(), rc, "clear must retain capacity");
        assert_eq!(buf.writes.capacity(), wc, "clear must retain capacity");
    }

    #[test]
    fn reset_rearms_pooled_state() {
        let mut s = TxnState::new(TxnId(1), Serial(0));
        s.doom(AbortReason::Conflict);
        s.terminal.store(TERMINAL_COMMITTED, Ordering::Release);
        s.reset(TxnId(2), Serial(9));
        assert_eq!(s.id, TxnId(2));
        assert_eq!(s.serial, Serial(9));
        assert!(s.check_doom().is_ok());
        assert_eq!(s.terminal.load(Ordering::Acquire), TERMINAL_NONE);
    }
}
