//! Transaction dependency graph.
//!
//! All transaction statuses and dependency edges live behind a single mutex
//! (owned by the runtime). Keeping the graph self-contained makes the
//! cascade-closure and commit-eligibility logic directly unit-testable,
//! independent of the concurrency around it.
//!
//! Edges: `deps[t]` = open transactions `t` observed (read published values
//! of, or must commit after); `dependents[t]` = the reverse. The paper's
//! rule (§3): *"if the first transaction aborts, the second one must also
//! abort"* — implemented as [`Graph::cascade_closure`].

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use crate::txn::TxnState;
use crate::types::{AbortReason, CommitOrder, Serial, TxnId, TxnStatus};

/// Per-transaction node.
///
/// Edge sets are plain vectors: a transaction observes at most a handful of
/// open predecessors, and vectors keep their capacity when the node is
/// recycled through the graph's spare-node pool — the dependency edges added
/// during publish then allocate nothing in steady state.
#[derive(Debug)]
pub(crate) struct TxnNode {
    pub serial: Serial,
    pub status: TxnStatus,
    /// Bumped on every (re-)activation; lets stale doom requests be ignored
    /// only when truly stale and keeps diagnostics meaningful.
    pub generation: u64,
    /// Set while `Active` to tell the executing body to stop.
    pub doomed: Option<AbortReason>,
    /// Open transactions this one must wait for (and dies with).
    pub deps: Vec<TxnId>,
    /// Transactions that observed this one's published writes.
    pub dependents: Vec<TxnId>,
    /// Owner granted commit authorization (inputs final, logs stable).
    pub authorized: bool,
    /// Number of outstanding dependencies at publish time; used by the
    /// engine to decide whether outputs must be tagged speculative.
    pub publish_deps: usize,
    /// Shared per-transaction state (read/write buffers, doomed flag).
    pub state: Arc<TxnState>,
}

/// Bound on the spare-node pool; enough to cover the live-transaction
/// high-water mark of any realistic operator without pinning memory.
const SPARE_NODE_CAP: usize = 128;

fn vec_remove_id(v: &mut Vec<TxnId>, id: TxnId) {
    if let Some(pos) = v.iter().position(|x| *x == id) {
        v.swap_remove(pos);
    }
}

/// Placeholder state for parked spare nodes (see [`Graph::remove`]).
fn dummy_state() -> &'static Arc<TxnState> {
    use std::sync::OnceLock;
    static DUMMY: OnceLock<Arc<TxnState>> = OnceLock::new();
    DUMMY.get_or_init(|| Arc::new(TxnState::new(TxnId(u64::MAX), Serial(u64::MAX))))
}

/// The dependency graph + commit frontier. Not thread-safe by itself; the
/// runtime wraps it in a mutex.
#[derive(Debug, Default)]
pub(crate) struct Graph {
    pub nodes: HashMap<TxnId, TxnNode>,
    /// All not-yet-committed (and not discarded) transactions by serial;
    /// drives `CommitOrder::Timestamp` and the publish frontier.
    pub uncommitted: BTreeMap<Serial, TxnId>,
    /// Recycled nodes; their edge vectors keep warmed-up capacity.
    spare: Vec<TxnNode>,
    /// Reusable id buffer for edge clearing / eligibility scans.
    scratch: Vec<TxnId>,
}

impl Graph {
    /// Inserts a fresh node in `Active` state, reusing a pooled node when
    /// one is available.
    ///
    /// # Panics
    ///
    /// Panics if the serial is already registered to another live
    /// transaction — serials must be unique within a runtime.
    pub fn insert(&mut self, id: TxnId, serial: Serial, state: Arc<TxnState>) {
        if let Some(prev) = self.uncommitted.get(&serial) {
            assert!(*prev == id, "duplicate serial {serial} for {prev} and {id}");
        }
        self.uncommitted.insert(serial, id);
        let node = match self.spare.pop() {
            Some(mut n) => {
                n.serial = serial;
                n.status = TxnStatus::Active;
                n.generation = 0;
                n.doomed = None;
                n.deps.clear();
                n.dependents.clear();
                n.authorized = false;
                n.publish_deps = 0;
                n.state = state;
                n
            }
            None => TxnNode {
                serial,
                status: TxnStatus::Active,
                generation: 0,
                doomed: None,
                deps: Vec::new(),
                dependents: Vec::new(),
                authorized: false,
                publish_deps: 0,
                state,
            },
        };
        self.nodes.insert(id, node);
    }

    /// Immutable node access.
    pub fn node(&self, id: TxnId) -> &TxnNode {
        self.nodes.get(&id).unwrap_or_else(|| panic!("unknown transaction {id}"))
    }

    /// Mutable node access.
    pub fn node_mut(&mut self, id: TxnId) -> &mut TxnNode {
        self.nodes.get_mut(&id).unwrap_or_else(|| panic!("unknown transaction {id}"))
    }

    /// Whether `id` is still tracked.
    pub fn contains(&self, id: TxnId) -> bool {
        self.nodes.contains_key(&id)
    }

    /// Adds edge `from` depends-on `to` (idempotent). No-op when `to` is
    /// already terminal or the edge would be a self-loop.
    pub fn add_dep(&mut self, from: TxnId, to: TxnId) {
        if from == to {
            return;
        }
        let to_alive = self
            .nodes
            .get(&to)
            .map(|n| !matches!(n.status, TxnStatus::Committed | TxnStatus::Committing))
            .unwrap_or(false);
        if !to_alive {
            return;
        }
        let deps = &mut self.node_mut(from).deps;
        if !deps.contains(&to) {
            deps.push(to);
            self.node_mut(to).dependents.push(from);
        }
    }

    /// Computes the cascade closure rooted at `root`: `root` plus every
    /// transitive dependent. The root is always first in the result.
    pub fn cascade_closure(&self, root: TxnId) -> Vec<TxnId> {
        let mut seen = HashSet::new();
        let mut order = Vec::new();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if !seen.insert(id) {
                continue;
            }
            order.push(id);
            if let Some(node) = self.nodes.get(&id) {
                for &d in &node.dependents {
                    stack.push(d);
                }
            }
        }
        order
    }

    /// Detaches `id` from all its edges (both directions). Edge vectors are
    /// cleared in place (capacity retained); the neighbour ids transit
    /// through the graph-level scratch buffer, so no allocation occurs once
    /// warm.
    pub fn clear_edges(&mut self, id: TxnId) {
        // Neither neighbour scan borrows the node itself, so stage the ids
        // through `scratch` (taken/restored to appease the borrow checker).
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        if let Some(node) = self.nodes.get_mut(&id) {
            scratch.extend_from_slice(&node.deps);
            node.deps.clear();
        }
        for &d in &scratch {
            if let Some(n) = self.nodes.get_mut(&d) {
                vec_remove_id(&mut n.dependents, id);
            }
        }
        scratch.clear();
        if let Some(node) = self.nodes.get_mut(&id) {
            scratch.extend_from_slice(&node.dependents);
            node.dependents.clear();
        }
        for &d in &scratch {
            if let Some(n) = self.nodes.get_mut(&d) {
                vec_remove_id(&mut n.deps, id);
            }
        }
        self.scratch = scratch;
    }

    /// Removes `id` from every other node's `deps` set (called on commit),
    /// freeing dependents that may now be commit-eligible. Allocation-free:
    /// the reverse edges are cleared in place via the scratch buffer; the
    /// commit pump rescans eligibility afterwards rather than chasing the
    /// freed list.
    pub fn resolve_dependents(&mut self, id: TxnId) {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        if let Some(node) = self.nodes.get_mut(&id) {
            scratch.extend_from_slice(&node.dependents);
            node.dependents.clear();
        }
        for &d in &scratch {
            if let Some(n) = self.nodes.get_mut(&d) {
                vec_remove_id(&mut n.deps, id);
            }
        }
        self.scratch = scratch;
    }

    /// Drops the node entirely (after abort+discard or commit) and parks it
    /// in the spare pool for reuse. The state handle is swapped for a shared
    /// dummy so a parked node does not pin the (poolable) `TxnState`.
    pub fn remove(&mut self, id: TxnId) {
        self.clear_edges(id);
        if let Some(mut node) = self.nodes.remove(&id) {
            if self.uncommitted.get(&node.serial) == Some(&id) {
                self.uncommitted.remove(&node.serial);
            }
            if self.spare.len() < SPARE_NODE_CAP {
                node.state = dummy_state().clone();
                self.spare.push(node);
            }
        }
    }

    /// Is `id` allowed to commit under `order`?
    ///
    /// Common preconditions: status `Open`, authorized, no outstanding deps.
    /// Order-specific:
    /// * `Timestamp` — `id` must be the lowest-serial uncommitted txn;
    /// * `Conflict` — every lower-serial uncommitted txn must have published
    ///   (be `Open`/`Committing`), so all conflicts are already edges.
    pub fn commit_eligible(&self, id: TxnId, order: CommitOrder) -> bool {
        let node = match self.nodes.get(&id) {
            Some(n) => n,
            None => return false,
        };
        if node.status != TxnStatus::Open || !node.authorized || !node.deps.is_empty() {
            return false;
        }
        match order {
            CommitOrder::Timestamp => {
                self.uncommitted.first_key_value().map(|(_, first)| *first == id).unwrap_or(false)
            }
            CommitOrder::Conflict => self.uncommitted.range(..node.serial).all(|(_, other)| {
                self.nodes
                    .get(other)
                    .map(|n| matches!(n.status, TxnStatus::Open | TxnStatus::Committing))
                    .unwrap_or(true)
            }),
        }
    }

    /// All transactions currently eligible to commit.
    #[cfg(test)]
    pub fn eligible(&self, order: CommitOrder) -> Vec<TxnId> {
        self.uncommitted.values().copied().filter(|&id| self.commit_eligible(id, order)).collect()
    }

    /// Collects every commit-eligible transaction into `out`, marking each
    /// `Committing` and cloning its state handle. Replaces the allocating
    /// `eligible()` on the pump path: `out` is a caller-owned reusable
    /// buffer, ids transit through the graph scratch.
    pub fn take_eligible_into(&mut self, order: CommitOrder, out: &mut Vec<Arc<TxnState>>) {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        // In timestamp order only the lowest uncommitted serial can be
        // eligible: looking at the others would make every commit of a
        // burst cost a pass over everything still open behind it.
        let candidates = match order {
            CommitOrder::Timestamp => 1,
            CommitOrder::Conflict => usize::MAX,
        };
        scratch.extend(
            self.uncommitted
                .values()
                .take(candidates)
                .copied()
                .filter(|&id| self.commit_eligible(id, order)),
        );
        for &id in &scratch {
            let node = self.node_mut(id);
            node.status = TxnStatus::Committing;
            out.push(node.state.clone());
        }
        self.scratch = scratch;
    }

    /// Serials of all live (uncommitted, undiscarded) transactions with
    /// status `Open` and serial strictly below `below` — the set a
    /// `TaintAll` transaction must depend on.
    pub fn open_earlier(&self, below: Serial) -> Vec<TxnId> {
        self.uncommitted
            .range(..below)
            .filter_map(|(_, id)| {
                self.nodes
                    .get(id)
                    .filter(|n| matches!(n.status, TxnStatus::Open | TxnStatus::Active))
                    .map(|_| *id)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::TxnState;

    fn graph_with(n: u64) -> Graph {
        let mut g = Graph::default();
        for i in 0..n {
            let id = TxnId(i);
            g.insert(id, Serial(i), Arc::new(TxnState::new(id, Serial(i))));
        }
        g
    }

    fn open(g: &mut Graph, id: u64) {
        g.node_mut(TxnId(id)).status = TxnStatus::Open;
    }

    fn auth(g: &mut Graph, id: u64) {
        g.node_mut(TxnId(id)).authorized = true;
    }

    #[test]
    fn cascade_closure_follows_dependents_transitively() {
        let mut g = graph_with(4);
        g.add_dep(TxnId(1), TxnId(0)); // 1 depends on 0
        g.add_dep(TxnId(2), TxnId(1));
        g.add_dep(TxnId(3), TxnId(0));
        let mut closure = g.cascade_closure(TxnId(0));
        assert_eq!(closure[0], TxnId(0));
        closure.sort();
        assert_eq!(closure, vec![TxnId(0), TxnId(1), TxnId(2), TxnId(3)]);
        // Closure from the middle only catches downstream.
        let mut mid = g.cascade_closure(TxnId(1));
        mid.sort();
        assert_eq!(mid, vec![TxnId(1), TxnId(2)]);
    }

    #[test]
    fn add_dep_ignores_self_loops_and_terminal_targets() {
        let mut g = graph_with(2);
        g.add_dep(TxnId(0), TxnId(0));
        assert!(g.node(TxnId(0)).deps.is_empty());
        g.node_mut(TxnId(1)).status = TxnStatus::Committed;
        g.add_dep(TxnId(0), TxnId(1));
        assert!(g.node(TxnId(0)).deps.is_empty());
    }

    #[test]
    fn timestamp_order_commits_strictly_in_serial_order() {
        let mut g = graph_with(3);
        for i in 0..3 {
            open(&mut g, i);
            auth(&mut g, i);
        }
        assert!(g.commit_eligible(TxnId(0), CommitOrder::Timestamp));
        assert!(!g.commit_eligible(TxnId(1), CommitOrder::Timestamp));
        g.remove(TxnId(0));
        assert!(g.commit_eligible(TxnId(1), CommitOrder::Timestamp));
    }

    #[test]
    fn conflict_order_lets_independent_later_txn_pass_open_earlier_one() {
        let mut g = graph_with(2);
        open(&mut g, 0); // published, unauthorized (e.g. waiting on its log)
        open(&mut g, 1);
        auth(&mut g, 1);
        assert!(g.commit_eligible(TxnId(1), CommitOrder::Conflict));
        assert!(!g.commit_eligible(TxnId(1), CommitOrder::Timestamp));
    }

    #[test]
    fn conflict_order_blocks_behind_unpublished_earlier_txn() {
        let mut g = graph_with(2);
        // txn 0 still Active: its conflicts are unknown.
        open(&mut g, 1);
        auth(&mut g, 1);
        assert!(!g.commit_eligible(TxnId(1), CommitOrder::Conflict));
    }

    #[test]
    fn deps_block_commit_until_resolved() {
        let mut g = graph_with(2);
        open(&mut g, 0);
        auth(&mut g, 0);
        open(&mut g, 1);
        auth(&mut g, 1);
        g.add_dep(TxnId(1), TxnId(0));
        assert!(!g.commit_eligible(TxnId(1), CommitOrder::Conflict));
        g.remove(TxnId(0)); // clears edges too
        assert!(g.commit_eligible(TxnId(1), CommitOrder::Conflict));
    }

    #[test]
    fn resolve_dependents_clears_reverse_edges() {
        let mut g = graph_with(3);
        g.add_dep(TxnId(1), TxnId(0));
        g.add_dep(TxnId(2), TxnId(0));
        g.resolve_dependents(TxnId(0));
        assert!(g.node(TxnId(1)).deps.is_empty());
        assert!(g.node(TxnId(2)).deps.is_empty());
        assert!(g.node(TxnId(0)).dependents.is_empty());
    }

    #[test]
    fn take_eligible_into_marks_committing_and_reuses_buffer() {
        let mut g = graph_with(3);
        for i in 0..3 {
            open(&mut g, i);
            auth(&mut g, i);
        }
        let mut batch = Vec::new();
        g.take_eligible_into(CommitOrder::Conflict, &mut batch);
        assert_eq!(batch.len(), 3);
        for i in 0..3 {
            assert_eq!(g.node(TxnId(i)).status, TxnStatus::Committing);
        }
        // Nothing left eligible: a second sweep must add nothing.
        batch.clear();
        g.take_eligible_into(CommitOrder::Conflict, &mut batch);
        assert!(batch.is_empty());
    }

    #[test]
    fn removed_nodes_are_recycled_through_spare_pool() {
        let mut g = graph_with(2);
        g.add_dep(TxnId(1), TxnId(0));
        g.remove(TxnId(0));
        assert_eq!(g.spare.len(), 1);
        assert!(g.node(TxnId(1)).deps.is_empty());
        // Reinsertion drains the pool and yields a clean node.
        g.insert(TxnId(5), Serial(5), Arc::new(TxnState::new(TxnId(5), Serial(5))));
        assert!(g.spare.is_empty());
        let n = g.node(TxnId(5));
        assert_eq!(n.status, TxnStatus::Active);
        assert!(n.deps.is_empty() && n.dependents.is_empty());
        assert!(n.doomed.is_none() && !n.authorized);
    }

    #[test]
    fn eligible_lists_all_ready_transactions() {
        let mut g = graph_with(3);
        for i in 0..3 {
            open(&mut g, i);
            auth(&mut g, i);
        }
        assert_eq!(g.eligible(CommitOrder::Timestamp), vec![TxnId(0)]);
        assert_eq!(g.eligible(CommitOrder::Conflict), vec![TxnId(0), TxnId(1), TxnId(2)]);
    }

    #[test]
    #[should_panic(expected = "duplicate serial")]
    fn duplicate_serial_panics() {
        let mut g = graph_with(1);
        g.insert(TxnId(9), Serial(0), Arc::new(TxnState::new(TxnId(9), Serial(0))));
    }

    #[test]
    fn open_earlier_reports_live_predecessors() {
        let mut g = graph_with(3);
        open(&mut g, 0);
        // txn1 stays Active; txn2 queries below serial 2.
        let mut earlier = g.open_earlier(Serial(2));
        earlier.sort();
        assert_eq!(earlier, vec![TxnId(0), TxnId(1)]);
    }
}
