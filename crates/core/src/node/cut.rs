//! Where a checkpoint cuts the node's serials (§2.2). A speculative node in
//! process that commits in timestamp order images its committed prefix —
//! every serial below the lowest one still open — while later transactions
//! stay open and admission goes on ([`Node::prefix_cut`]), on one STM
//! thread or on several. Any other node waits until it is settled
//! ([`Node::settled_cut`]).
//!
//! On a pool of STM threads three things hold that one thread gets for
//! free, and the prefix cut makes each of them true:
//!
//! * **Commits race the snapshot.** Pool threads commit too, not only the
//!   coordinator. In timestamp order only the lowest open serial can
//!   commit next, so the state is snapshotted between two checks that it
//!   has not begun to. If it has, the cut is dropped, nothing is touched,
//!   and its commit notice tries again.
//! * **The generator.** Draws run out of serial order, so no position of
//!   the generator stands for a prefix. The image takes it as it stands at
//!   the cut: a serial left open reads back what its stable tape holds and
//!   draws the rest afresh, and none of its outputs were final. One thread
//!   draws in serial order, and its image takes the generator as the
//!   lowest open serial found it, so a replay draws what the run drew.
//! * **Late records.** A pool thread may append a covered serial's record
//!   after the lowest open serial was admitted, past the image's
//!   `covers_log`. Recovery reads it back and drops it: replay starts at
//!   the image's serial.

use super::*;

/// An event admitted since the last image of a node that images its
/// committed prefix, as that image needs it once the event is the lowest
/// one left open: where it was read, where the log stood before it took
/// its first decision, and — on one thread — the generator it found.
pub(super) struct Admitted {
    serial: u64,
    port: u32,
    id: EventId,
    frame: FrameAt,
    rng: Option<DetRng>,
    log_at: u64,
}

impl Node {
    /// The image of a settled node, which covers every serial taken: no
    /// in-flight transactions, no outputs still held for log stability, no
    /// parked speculative inputs — otherwise the covered events' effects
    /// would be lost in a crash while replay skips them. Port queues must be
    /// empty too: a partially consumed DataBatch shares one link sequence
    /// across its events, and the ids consumed are an id prefix only once
    /// everything read is (finals arrive in the sender's serial order).
    /// `None` until the node settles.
    ///
    /// A non-speculative node applies an event's state before its outputs
    /// are released, and a cluster worker's receiver counts every output it
    /// was sent: both wait to be settled.
    pub(super) fn settled_cut(&mut self) -> Option<Checkpoint> {
        if !self.pending.is_empty()
            || !self.hold_queue.is_empty()
            || !self.parked.is_empty()
            || self.port_queues.iter().any(|q| !q.is_empty())
        {
            return None;
        }
        let inputs = self.frontiers.iter_mut().map(|f| f.fold(f.consumed_top(), None)).collect();
        Some(Checkpoint {
            covers_log: LogSeq(self.log.as_ref().map_or(0, StableLog::appended)),
            events_processed: self.next_serial,
            inputs,
            // The serialized RNG goes into the checkpoint so the random
            // stream stays continuous across a crash (see `restore`).
            rng_state: encode_to_vec(&*self.rng.lock()),
            state: self.registry.snapshot(),
            ..Checkpoint::default()
        })
    }

    /// The image of a speculative node's committed prefix: every serial
    /// below the lowest one still open, while that one and later ones stay
    /// open. Commits run in serial order, so the STM's committed values are
    /// exactly those of the prefix — once the notice of every commit is
    /// served, and while the lowest open serial has not begun to commit.
    /// Per port, replay re-reads from the frame of the first event left
    /// open (admitted at or above the cut, or read and not admitted yet),
    /// and the covered id prefix drops the committed events it re-reads on
    /// the way. The log is taken as it stood when the lowest open serial
    /// was admitted, so the open transactions' records survive truncation
    /// and recovery reads them back. `None` when that is not a consistent
    /// cut yet; nothing is touched then.
    pub(super) fn prefix_cut(&mut self) -> Option<Checkpoint> {
        let low = self.pending_by_serial.keys().min().copied().unwrap_or(self.next_serial);
        let lowest_open = self.pending_by_serial.get(&low).and_then(|id| self.pending.get(id));
        let handle = lowest_open.map(|p| p.handle.clone());
        // Whether the lowest open transaction began to commit. One thread
        // only finds it so with its notice still queued; on a pool a worker
        // thread may begin it at any moment, during the snapshot too.
        let moved = || {
            handle
                .as_ref()
                .is_some_and(|h| matches!(h.status(), TxnStatus::Committed | TxnStatus::Committing))
        };
        if moved() {
            return None;
        }
        let admitted = self.admitted.as_ref()?;
        let split = admitted.partition_point(|a| a.serial < low);
        let ports = self.frontiers.len();
        let mut covered_below: Vec<u64> =
            self.frontiers.iter().map(Frontier::covered_below).collect();
        for a in admitted.range(..split) {
            let covered = &mut covered_below[a.port as usize];
            *covered = (*covered).max(a.id.seq + 1);
        }
        // Replay must admit every event left open again; a queued one its
        // frontier would drop anyway does not count.
        let mut from: Vec<Option<FrameAt>> = vec![None; ports];
        let mut lowest_id = vec![u64::MAX; ports];
        let left_open = admitted.range(split..).map(|a| (a.port as usize, a.id, a.frame));
        let queued = self.port_queues.iter().enumerate().flat_map(|(port, queue)| {
            let frontier = &self.frontiers[port];
            queue.iter().filter(|q| frontier.admits(q.0.id)).map(move |q| (port, q.0.id, q.2))
        });
        for (port, id, frame) in left_open.chain(queued) {
            from[port].get_or_insert(frame);
            lowest_id[port] = lowest_id[port].min(id.seq);
        }
        // A sender that sent out of id order (several threads) can leave an
        // open id below a committed one; such a port waits for a settled
        // image.
        if covered_below.iter().zip(&lowest_id).any(|(covered, lowest)| covered > lowest) {
            return None;
        }
        let first_open = admitted.get(split);
        let rng_state = match first_open.and_then(|a| a.rng.as_ref()) {
            Some(rng) => encode_to_vec(rng),
            None => encode_to_vec(&*self.rng.lock()),
        };
        let log_now = || self.log.as_ref().map_or(0, StableLog::appended);
        let covers_log = first_open.map_or_else(log_now, |a| a.log_at);
        // Committed values only: an open transaction's writes are not
        // visible outside it.
        let state = self.registry.snapshot();
        if moved() {
            return None; // the snapshot may hold some of its writes
        }
        let inputs: Vec<InputFrontier> = self
            .frontiers
            .iter_mut()
            .zip(covered_below.into_iter().zip(from))
            .map(|(f, (covered, from))| f.fold(covered, from))
            .collect();
        self.admitted.as_mut().expect("checked above").drain(..split);
        if cfg!(debug_assertions) {
            for p in self.pending.values() {
                let at = inputs[p.port as usize];
                debug_assert!(
                    p.input_id.seq >= at.covered_below,
                    "open {} lies below port {}'s covered prefix {}",
                    p.input_id,
                    p.port,
                    at.covered_below
                );
                let first = p.tape.first_record().map_or(u64::MAX, |seq| seq.0);
                debug_assert!(
                    covers_log <= first,
                    "an image covering log {covers_log} truncates open serial {}'s record {first}",
                    p.serial
                );
            }
        }
        Some(Checkpoint {
            covers_log: LogSeq(covers_log),
            events_processed: low,
            inputs,
            rng_state,
            state,
            ..Checkpoint::default()
        })
    }

    /// Takes note of the event admitted at `serial`, before it takes a
    /// decision, on a node that images its committed prefix.
    pub(super) fn note_admitted(&mut self, serial: u64, port: u32, id: EventId, frame: FrameAt) {
        let Some(admitted) = &mut self.admitted else { return };
        let rng = self.pool.is_none().then(|| self.rng.lock().clone());
        let log_at = self.log.as_ref().map_or(0, StableLog::appended);
        admitted.push_back(Admitted { serial, port, id, frame, rng, log_at });
    }
}
