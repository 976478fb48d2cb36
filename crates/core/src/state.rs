//! Operator state.
//!
//! The paper stresses that *"the specification of an operator is
//! independent of its configuration"* (§2.3): the same processing code runs
//! speculatively or not. Every node runs each event as an STM transaction
//! (a non-speculative one only publishes nothing before it commits), so
//! operators never own their state directly — they register typed cells
//! during setup, backed by STM [`TVar`]s, and access them through the
//! context's transaction.
//!
//! Registration also gives the engine *checkpointing for free*: every cell
//! must be codec-serializable, so the engine can snapshot and restore the
//! whole state without operator cooperation.

use std::any::Any;
use std::fmt;
use std::marker::PhantomData;
use std::sync::Arc;

use streammine_common::codec::{decode_from_slice, encode_to_vec, Decode, Encode};
use streammine_common::error::{Error, Result};
use streammine_stm::{StmAbort, StmRuntime, TVar, Txn};

type DynVal = Arc<dyn Any + Send + Sync>;

/// Typed handle to a registered state cell.
///
/// Obtained from [`StateRegistry::register`]; used with the operator
/// context's `get`/`set`/`update`.
pub struct StateHandle<T> {
    pub(crate) index: usize,
    pub(crate) _pd: PhantomData<fn() -> T>,
}

impl<T> Clone for StateHandle<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for StateHandle<T> {}

impl<T> fmt::Debug for StateHandle<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StateHandle").field("index", &self.index).finish()
    }
}

trait Slot: Send + Sync {
    fn read(&self, txn: &mut Txn<'_>) -> std::result::Result<DynVal, StmAbort>;
    fn write(&self, txn: &mut Txn<'_>, v: DynVal) -> std::result::Result<(), StmAbort>;
    fn snapshot(&self) -> Vec<u8>;
    fn restore(&self, bytes: &[u8]) -> Result<()>;
}

struct StmSlot<T> {
    var: TVar<T>,
}

impl<T> Slot for StmSlot<T>
where
    T: Clone + Encode + Decode + Send + Sync + 'static,
{
    fn read(&self, txn: &mut Txn<'_>) -> std::result::Result<DynVal, StmAbort> {
        Ok(txn.read(&self.var)? as DynVal)
    }

    fn write(&self, txn: &mut Txn<'_>, v: DynVal) -> std::result::Result<(), StmAbort> {
        let typed = v.downcast::<T>().expect("type confusion in state slot");
        txn.write(&self.var, (*typed).clone())
    }

    fn snapshot(&self) -> Vec<u8> {
        encode_to_vec(&*self.var.load())
    }

    fn restore(&self, bytes: &[u8]) -> Result<()> {
        let value: T = decode_from_slice(bytes)?;
        self.var.restore(value);
        Ok(())
    }
}

/// Registry of an operator's state cells, created during setup.
pub struct StateRegistry {
    slots: Vec<Box<dyn Slot>>,
    runtime: StmRuntime,
}

impl fmt::Debug for StateRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StateRegistry").field("slots", &self.slots.len()).finish()
    }
}

impl StateRegistry {
    /// A registry backing cells with variables of `runtime`.
    pub fn new(runtime: StmRuntime) -> Self {
        StateRegistry { slots: Vec::new(), runtime }
    }

    /// Registers a state cell with an initial value.
    pub fn register<T>(&mut self, init: T) -> StateHandle<T>
    where
        T: Clone + Encode + Decode + Send + Sync + 'static,
    {
        let index = self.slots.len();
        self.slots.push(Box::new(StmSlot { var: self.runtime.new_var(init) }));
        StateHandle { index, _pd: PhantomData }
    }

    /// Number of registered cells.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no cells are registered.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    pub(crate) fn read<T>(
        &self,
        handle: StateHandle<T>,
        txn: &mut Txn<'_>,
    ) -> std::result::Result<Arc<T>, StmAbort>
    where
        T: Clone + Encode + Decode + Send + Sync + 'static,
    {
        let v = self.slots[handle.index].read(txn)?;
        Ok(v.downcast::<T>().expect("type confusion in state handle"))
    }

    pub(crate) fn write<T>(
        &self,
        handle: StateHandle<T>,
        txn: &mut Txn<'_>,
        value: T,
    ) -> std::result::Result<(), StmAbort>
    where
        T: Clone + Encode + Decode + Send + Sync + 'static,
    {
        self.slots[handle.index].write(txn, Arc::new(value))
    }

    /// Serializes all cells' committed values (for a checkpoint).
    pub fn snapshot(&self) -> Vec<u8> {
        let parts: Vec<Vec<u8>> = self.slots.iter().map(|s| s.snapshot()).collect();
        encode_to_vec(&parts)
    }

    /// Restores all cells from a snapshot produced by [`Self::snapshot`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Codec`] on malformed snapshots or
    /// [`Error::Recovery`] on slot-count mismatch.
    pub fn restore(&self, snapshot: &[u8]) -> Result<()> {
        let parts: Vec<Vec<u8>> = decode_from_slice(snapshot)?;
        if parts.len() != self.slots.len() {
            return Err(Error::Recovery(format!(
                "checkpoint has {} cells, operator registered {}",
                parts.len(),
                self.slots.len()
            )));
        }
        for (slot, bytes) in self.slots.iter().zip(&parts) {
            slot.restore(bytes)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streammine_stm::Serial;

    /// Runs `body` as the transaction at `serial`, commits it and returns
    /// what it returned.
    fn commit<R>(
        rt: &StmRuntime,
        serial: u64,
        body: impl FnMut(&mut Txn<'_>) -> std::result::Result<R, StmAbort>,
    ) -> R {
        let (handle, r) = rt.execute(Serial(serial), body).unwrap();
        handle.authorize();
        handle.wait_committed();
        r
    }

    #[test]
    fn registry_reads_and_writes_through_a_transaction() {
        let rt = StmRuntime::new();
        let mut reg = StateRegistry::new(rt.clone());
        let h = reg.register(10i64);
        assert_eq!(reg.len(), 1);
        commit(&rt, 0, |txn| {
            assert_eq!(*reg.read(h, txn)?, 10);
            reg.write(h, txn, 42)
        });
        assert_eq!(*commit(&rt, 1, |txn| reg.read(h, txn)), 42);
    }

    #[test]
    fn a_snapshot_holds_committed_values_only() {
        let rt = StmRuntime::new();
        let mut reg = StateRegistry::new(rt.clone());
        let h = reg.register(0i64);
        let before = reg.snapshot();
        let (handle, ()) = rt
            .execute(Serial(0), |txn| {
                let v = *reg.read(h, txn)?;
                reg.write(h, txn, v + 5)
            })
            .unwrap();
        assert_eq!(reg.snapshot(), before, "an open transaction's write was snapshotted");
        handle.authorize();
        handle.wait_committed();
        let rt2 = StmRuntime::new();
        let mut reg2 = StateRegistry::new(rt2.clone());
        let h2 = reg2.register(0i64);
        reg2.restore(&reg.snapshot()).unwrap();
        assert_eq!(*commit(&rt2, 0, |txn| reg2.read(h2, txn)), 5);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let rt = StmRuntime::new();
        let mut reg = StateRegistry::new(rt.clone());
        let a = reg.register(1i64);
        let b = reg.register(String::from("x"));
        commit(&rt, 0, |txn| {
            reg.write(a, txn, 7)?;
            reg.write(b, txn, "hello".to_string())
        });
        let snap = reg.snapshot();

        let rt2 = StmRuntime::new();
        let mut reg2 = StateRegistry::new(rt2.clone());
        let a2 = reg2.register(0i64);
        let b2 = reg2.register(String::new());
        reg2.restore(&snap).unwrap();
        let (a, b) = commit(&rt2, 0, |txn| Ok((reg2.read(a2, txn)?, reg2.read(b2, txn)?)));
        assert_eq!((*a, b.as_str()), (7, "hello"));
    }

    #[test]
    fn restore_slot_count_mismatch_is_error() {
        let mut reg = StateRegistry::new(StmRuntime::new());
        reg.register(1i64);
        let snap = reg.snapshot();
        let mut reg2 = StateRegistry::new(StmRuntime::new());
        reg2.register(1i64);
        reg2.register(2i64);
        let err = reg2.restore(&snap).unwrap_err();
        assert!(matches!(err, Error::Recovery(_)));
    }

    #[test]
    fn empty_registry_snapshot_roundtrips() {
        let reg = StateRegistry::new(StmRuntime::new());
        assert!(reg.is_empty());
        let snap = reg.snapshot();
        reg.restore(&snap).unwrap();
    }
}
