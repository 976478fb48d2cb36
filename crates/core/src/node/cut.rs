//! Where a checkpoint cuts the node's serials (§2.2). Every node images
//! its committed prefix — every serial below the lowest one still open —
//! while later transactions stay open and admission goes on
//! ([`Node::prefix_cut`]): speculative or not, on one STM thread or on
//! several, in process or in a cluster worker. A non-speculative node's
//! open transactions are the events that wait for their log, its parked
//! inputs are read and not admitted.
//!
//! The prefix is cut at fixed logical times: at every `checkpoint_every`-th
//! serial. On a node that commits in timestamp order, the serial a cut is
//! due at does not commit before the cut is taken, passed up or — refused —
//! moved one serial on ([`Node::prefix_cut_due`]), so no commit races the
//! snapshot, and the nodes of a chain whose serials match (one output per
//! input) cut at the same events: a node's image, once stable,
//! acknowledges all that its upstream's image of the same cut counts. A
//! node that commits in conflict order commits out of serial order, so it
//! holds no serial and is cut only when nothing is open.
//!
//! An image counts what the serials it covers put on each down-edge: data
//! events and finalizes, sent or swallowed as already there, each serial
//! in its own [`Tally`]. So a covered serial that re-publishes after a
//! later one was admitted is counted right, and a new process that resumes
//! from the image swallows exactly what its receiver holds beyond it.
//! Where the receiver's cursor is all that outlives the sender (a
//! worker's out-edge), the image waits until the receiver acknowledged
//! the last frame a covered serial put there. An acknowledgment at `q`
//! says every event in the frames below `q` is final at the receiver — a
//! node acks its image's positions, which leave every open event above
//! them, and a sink acks below its first event not final — so the data
//! frames are enough: their finalizes were received too.
//!
//! On a pool of STM threads two things hold that one thread gets for free,
//! and the prefix cut makes each of them true:
//!
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

/// What one serial put on one down-edge, sent or swallowed as already
/// there, and where in the ring its frames end.
#[derive(Debug, Default)]
pub(super) struct Tally {
    pub(super) events: AtomicU64,
    pub(super) finals: AtomicU64,
    /// One past its last data frame in the ring (0: none).
    pub(super) data_end: AtomicU64,
    /// One past its last finalize in the ring (0: none).
    pub(super) finals_end: AtomicU64,
}

impl Tally {
    /// One past the last frame the receiver must acknowledge for this
    /// serial: its last data frame — the receiver holds an event final
    /// below its ack, so the finalize came too — or, when the serial's
    /// data were all swallowed, its last finalize.
    fn end(&self) -> u64 {
        match self.data_end.load(Ordering::Acquire) {
            0 => self.finals_end.load(Ordering::Acquire),
            end => end,
        }
    }
}

/// An event admitted since the node's last image, as the image needs it
/// once the event is the lowest one left open: where it was read, where
/// the log stood before it took its first decision, and — on one thread —
/// the generator it found; and once it is covered, what it put on each
/// down-edge.
pub(super) struct Admitted {
    serial: u64,
    port: u32,
    id: EventId,
    frame: FrameAt,
    rng: Option<DetRng>,
    log_at: u64,
    put: Arc<[Tally]>,
}

impl Node {
    /// The image of the node's committed prefix: every serial below the
    /// lowest one still open, while that one and later ones stay open.
    /// Commits below it ran in serial order (or nothing is open), so the
    /// STM's committed values are exactly those of the prefix — once the
    /// notice of every commit is served, and while the lowest open serial
    /// has not begun to commit. Per port, replay re-reads from the earliest
    /// frame of an event left open (admitted at or above the cut, or read
    /// and not admitted yet: queued or parked), and the covered id prefix
    /// drops the committed events it re-reads on the way. The log is taken
    /// as it stood when the lowest open serial was admitted, so the open
    /// transactions' records survive truncation and recovery reads them
    /// back. The outputs it counts are those of the covered serials'
    /// tallies. `None` when that is not a consistent cut yet; nothing is
    /// touched then.
    fn prefix_cut(&mut self, low: u64) -> Option<Image> {
        let admitted = self.admitted.as_ref()?;
        let split = admitted.partition_point(|a| a.serial < low);
        let ports = self.frontiers.len();
        let mut covered_below: Vec<u64> =
            self.frontiers.iter().map(Frontier::covered_below).collect();
        for a in admitted.range(..split) {
            let covered = &mut covered_below[a.port as usize];
            *covered = (*covered).max(a.id.seq + 1);
        }
        // Replay must admit every event left open again; a read one its
        // frontier would drop anyway does not count.
        let mut from: Vec<Option<FrameAt>> = vec![None; ports];
        let mut lowest_id = vec![u64::MAX; ports];
        let left_open = admitted.range(split..).map(|a| (a.port as usize, a.id, a.frame));
        let queued = self.port_queues.iter().enumerate().flat_map(|(port, queue)| {
            queue.iter().map(move |(event, _, frame)| (port, event.id, *frame))
        });
        let parked = self.parked.values().map(|(port, event, at)| (*port as usize, event.id, *at));
        let read = queued.chain(parked).filter(|(port, id, _)| self.frontiers[*port].admits(*id));
        for (port, id, frame) in left_open.chain(read) {
            if from[port].is_none_or(|at| frame < at) {
                from[port] = Some(frame);
            }
            lowest_id[port] = lowest_id[port].min(id.seq);
        }
        // A sender that sent out of id order (several threads) can leave an
        // open id below a committed one: no cut here, try again once more
        // has committed.
        if covered_below.iter().zip(&lowest_id).any(|(covered, lowest)| covered > lowest) {
            return None;
        }
        let first_open = admitted.get(split);
        let rng_state = match first_open.and_then(|a| a.rng.as_ref()) {
            Some(rng) => encode_to_vec(rng),
            None => encode_to_vec(&*self.runner.rng.lock()),
        };
        let log_now = || self.log.as_ref().map_or(0, StableLog::appended);
        let covers_log = first_open.map_or_else(log_now, |a| a.log_at);
        // Committed values only: an open transaction's writes are not
        // visible outside it, and the lowest one is held.
        let state = self.runner.registry.snapshot();
        // The covered serials' final outputs still buffered for batching
        // are volatile: on the rings they are counted and outlive a crash.
        self.flush_out_batches();
        let inputs: Vec<InputFrontier> = self
            .frontiers
            .iter_mut()
            .zip(covered_below.into_iter().zip(from))
            .map(|(f, (covered, from))| f.fold(covered, from))
            .collect();
        let mut ends = vec![0; self.down.len()];
        for a in self.admitted.as_mut().expect("checked above").drain(..split) {
            for (out, tally) in a.put.iter().enumerate() {
                let (events, finals) = &mut self.covered_sent[out];
                *events += tally.events.load(Ordering::Acquire);
                *finals += tally.finals.load(Ordering::Acquire);
                ends[out] = ends[out].max(tally.end());
            }
        }
        if cfg!(debug_assertions) {
            for p in self.pending.values() {
                let status = p.handle.status();
                debug_assert!(
                    !matches!(status, TxnStatus::Committed | TxnStatus::Committing),
                    "open serial {} began to commit past the cut at {low}",
                    p.serial
                );
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
        let checkpoint = Checkpoint {
            covers_log: LogSeq(covers_log),
            events_processed: low,
            inputs,
            outputs_sent: self.covered_sent.iter().map(|(events, _)| *events).collect(),
            finals_sent: self.covered_sent.iter().map(|(_, finals)| *finals).collect(),
            rng_state,
            state,
            ..Checkpoint::default()
        };
        Some(Image { checkpoint, outputs_end: self.outputs_end(|out| ends[out]) })
    }

    /// The image due, once every serial below the one it is due at
    /// committed (or was revoked): taken at the lowest serial still open.
    /// The next cut is then due at the next multiple of `interval`, where
    /// every node of the chain cuts; so it is when two images still wait
    /// for their downstreams and this one is passed up. A cut refused for
    /// an open id below a covered one (a sender that sent out of id order)
    /// lets that lowest serial alone commit and is tried again after it.
    ///
    /// A node that commits in conflict order holds no serial: its cut is
    /// due at the multiple of `interval` past its last image, and taken
    /// once nothing is open. No image is taken inside an approximate
    /// resume window: it would pin mid-window input positions against
    /// pre-crash output counters, corrupting the skip computation of any
    /// later crash.
    pub(super) fn prefix_cut_due(&mut self, interval: u64) -> Option<Image> {
        if self.approx.as_ref().is_some_and(ApproxState::resuming) {
            return None;
        }
        let cut_at = self.send_view.cut_at.load(Ordering::Relaxed);
        let ordered = cut_at < u64::MAX;
        let due = if ordered { cut_at } else { (self.checkpoint_serial / interval + 1) * interval };
        if self.next_serial < due {
            return None;
        }
        let low = self.pending_by_serial.keys().min().copied().unwrap_or(self.next_serial);
        if low < due || (!ordered && low < self.next_serial) {
            return None;
        }
        if !ordered {
            return self.may_wait().then(|| self.prefix_cut(low)).flatten();
        }
        let on_grid = (low / interval + 1) * interval;
        let (image, next) = if !self.may_wait() {
            (None, on_grid)
        } else {
            match self.prefix_cut(low) {
                Some(image) => (Some(image), on_grid),
                None => (None, low + 1),
            }
        };
        self.send_view.cut_at.store(next, Ordering::SeqCst);
        for held in self.pending.values().filter(|p| p.serial < next) {
            maybe_authorize_pending(held, &self.send_view.cut_at);
        }
        image
    }

    /// Takes note of the event admitted at `serial`, before it takes a
    /// decision, on a node that checkpoints; `put` tallies its outputs.
    pub(super) fn note_admitted(
        &mut self,
        serial: u64,
        port: u32,
        id: EventId,
        frame: FrameAt,
        put: &Arc<[Tally]>,
    ) {
        let Some(admitted) = &mut self.admitted else { return };
        let rng = self.pool.is_none().then(|| self.runner.rng.lock().clone());
        let log_at = self.log.as_ref().map_or(0, StableLog::appended);
        let put = put.clone();
        admitted.push_back(Admitted { serial, port, id, frame, rng, log_at, put });
    }
}
