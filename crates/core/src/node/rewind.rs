//! The node's frontiers, its checkpoints, and recovery (§2.2): restore
//! the latest checkpoint and rewind every input ring to the frontier it
//! records. The paper's "ask the upstream to resend" is that rewind and no
//! message: the ring is retained outside the node and read by a cursor,
//! which the node moves back itself. What the edges carry already of the
//! outputs the rewind re-derives is swallowed (precise), or — approximate
//! mode, within the error budget — the inputs that produced it are
//! skipped. STM cascade rollback is no rewind: it re-executes serials
//! above the frontier and never moves it.
//!
//! A checkpoint covers a settled node, or — on a single-threaded
//! speculative node — its committed prefix while later transactions stay
//! open ([`Node::prefix_cut`]).
//!
//! Frontier invariants, checked in debug builds: a port reads consecutive
//! link sequences between rewinds; a rewind reaches back to the checkpoint
//! (`rewind-short`); `covered_below` only grows and no consumed id lies
//! below it; nothing below the last checkpoint's serial runs again; a
//! committed-prefix image leaves every open transaction's input above its
//! port's covered prefix and its first log record above `covers_log`.

use super::*;

/// Where one input port stands: the durable part a checkpoint records, and
/// the ids consumed for good (processed, or committed) since the last one.
/// Unlike the consumed ids, the covered prefix survives a crash: a sender
/// that recovers *after* this node did re-sends what it re-derives under
/// ids this node consumed before its own crash.
#[derive(Debug, Default)]
pub(super) struct Frontier {
    at: InputFrontier,
    consumed: HashSet<EventId>,
}

/// Where a data event was read: the link sequence of its frame, and the
/// data events read on the port before that frame. An image that leaves
/// the event open records the port from there.
#[derive(Debug, Clone, Copy)]
pub(super) struct FrameAt {
    seq: u64,
    events: u64,
}

impl Frontier {
    /// Takes note of the frame read at `link_seq`, and returns where its
    /// events were read. A ring hands out consecutive sequences between
    /// rewinds, so that is the position.
    pub(super) fn read(&mut self, link_seq: u64, msg: &Message) -> FrameAt {
        debug_assert_eq!(link_seq, self.at.position, "a read skipped or repeated a sequence");
        let frame = FrameAt { seq: link_seq, events: self.at.events };
        self.at.position = link_seq + 1;
        self.at.events += msg.event_count() as u64;
        frame
    }

    /// Whether event `id` is new here: neither covered by the last
    /// checkpoint nor consumed since. A finalized event can never legally
    /// be revised, so anything else is a duplicate — recovery replay, or a
    /// recovered sender re-sending what it re-derives.
    pub(super) fn admits(&self, id: EventId) -> bool {
        id.seq >= self.at.covered_below && !self.consumed.contains(&id)
    }

    /// Event `id` is consumed for good: a duplicate is dropped from now
    /// on, and the next checkpoint covers it.
    pub(super) fn consume(&mut self, id: EventId) {
        debug_assert!(id.seq >= self.at.covered_below, "consumed {id} below the covered prefix");
        self.consumed.insert(id);
    }

    /// Just past the highest id consumed since the last checkpoint.
    pub(super) fn consumed_top(&self) -> u64 {
        self.consumed.iter().map(|id| id.seq + 1).max().unwrap_or(0)
    }

    /// At a checkpoint: the ids below `covered_below` become covered (the
    /// prefix never shrinks) and are forgotten as consumed ids, and the
    /// image records the port from `from`, the frame of its first event
    /// the image leaves open — from where the port stands when it leaves
    /// none. The caller vouches that what lies below the prefix is
    /// consumed for good and what replay re-reads above it is not.
    pub(super) fn fold(&mut self, covered_below: u64, from: Option<FrameAt>) -> InputFrontier {
        self.at.covered_below = self.at.covered_below.max(covered_below);
        let covered = self.at.covered_below;
        self.consumed.retain(|id| id.seq >= covered);
        let mut image = self.at;
        if let Some(frame) = from {
            image.position = frame.seq;
            image.events = frame.events;
        }
        image
    }
}

/// An event admitted since the last image of a node that images its
/// committed prefix, as that image needs it once the event is the lowest
/// one left open: where it was read, and where the generator and the log
/// stood before it took its first decision.
pub(super) struct Admitted {
    serial: u64,
    port: u32,
    id: EventId,
    frame: FrameAt,
    rng: DetRng,
    log_at: u64,
}

/// A checkpoint taken but not saved yet, and per down-edge the ring
/// position its downstream must have acknowledged before it may be saved
/// (see [`Node::maybe_checkpoint`]).
pub(super) struct Image {
    checkpoint: Checkpoint,
    /// Per down-edge: where the outputs the image counts end in the ring
    /// (0 where the ring outlives the node, so nothing is waited for).
    outputs_end: Vec<u64>,
}

/// Runtime state of approximate recovery
/// ([`crate::config::RecoveryMode::Approximate`]): the declared bound, the
/// current resume window, and the error-budget gauges.
pub(super) struct ApproxState {
    /// The declared (ε, δ) accuracy contract.
    bound: ErrorBound,
    /// Replayed inputs still to drop in the current resume window. Each
    /// dropped input consumes a serial without running the operator, so
    /// later output ids stay aligned with the fault-free run; its state
    /// update is the loss the budget charged.
    skip_remaining: u64,
    /// Updates dropped by the current resume window, not yet permanent:
    /// baked into the store's durable loss counter when the next
    /// checkpoint makes the stale lineage the only lineage. A crash
    /// before that save re-derives a superset window from the same
    /// baseline, so baking earlier would double-charge.
    window_loss: u64,
    /// `recovery.error_budget.lost` — updates lost across all recoveries.
    lost_gauge: Gauge,
    /// `recovery.error_budget.allowed` — current loss allowance (ε·N).
    allowed_gauge: Gauge,
    /// `recovery.error_budget.remaining` — allowance minus realized loss.
    remaining_gauge: Gauge,
    /// `recovery.escalations` — precise cycles forced by budget
    /// exhaustion.
    escalations: Counter,
}

impl ApproxState {
    pub(super) fn registered(bound: ErrorBound, obs: &Obs, op: u32) -> ApproxState {
        let r = &obs.registry;
        ApproxState {
            bound,
            skip_remaining: 0,
            window_loss: 0,
            lost_gauge: r.gauge("recovery.error_budget.lost", Labels::op(op)),
            allowed_gauge: r.gauge("recovery.error_budget.allowed", Labels::op(op)),
            remaining_gauge: r.gauge("recovery.error_budget.remaining", Labels::op(op)),
            escalations: r.counter("recovery.escalations", Labels::op(op)),
        }
    }

    /// Takes one input off the resume window, if any is left: `true` when
    /// the caller drops it.
    pub(super) fn skips(&mut self) -> bool {
        let skips = self.skip_remaining > 0;
        self.skip_remaining -= u64::from(skips);
        skips
    }

    /// Refreshes the budget gauges for `delivered` events and `lost`
    /// realized losses.
    fn set_gauges(&self, lost: u64, delivered: u64) {
        let allowed = self.bound.allowed_loss(delivered);
        self.lost_gauge.set(lost as i64);
        self.allowed_gauge.set(allowed as i64);
        self.remaining_gauge.set(allowed.saturating_sub(lost) as i64);
    }
}

impl Node {
    /// Restores the latest checkpoint, rebuilds the decision tapes of the
    /// serials it does not cover from the stable log, and when `recovering`
    /// from a crash rewinds every input port to its restored frontier.
    pub(super) fn recover(&mut self, recovering: bool) {
        let cp = self.restore();
        self.next_serial = cp.events_processed;
        self.checkpoint_serial = cp.events_processed;
        self.frontiers =
            cp.inputs.iter().map(|&at| Frontier { at, consumed: HashSet::new() }).collect();
        if let Some(log) = &self.log {
            let entries = log.stable_entries().into_iter().filter(|(seq, _)| *seq >= cp.covers_log);
            let records: Vec<(LogSeq, DecisionRecord)> = entries
                .filter_map(|(seq, bytes)| Some((seq, decode_from_slice(&bytes).ok()?)))
                .filter(|(_, record): &(_, DecisionRecord)| record.serial >= cp.events_processed)
                .collect();
            let upto = records.iter().map(|(_, record)| record.serial + 1).max();
            self.recovered_log =
                records.first().zip(upto).map(|((first, _), upto)| (first.0, upto));
            self.recovered = recovered_tapes(records.into_iter().map(|(_, record)| record));
        }
        if recovering {
            self.rewind(&cp);
        }
    }

    /// The latest checkpoint, restored into the state registry and the
    /// generator; a fresh start's when there is none. One that cannot be
    /// restored degrades the node to the log and a full replay instead of
    /// killing it — an image of another shape too: it is read from a file,
    /// and would index rings the node does not have, or be short of some.
    fn restore(&mut self) -> Checkpoint {
        let fresh = Checkpoint {
            inputs: vec![InputFrontier::default(); self.up.len()],
            outputs_sent: vec![0; self.down.len()],
            ..Checkpoint::default()
        };
        let Some(cp) = self.checkpoints.as_ref().and_then(|store| store.latest()) else {
            return fresh;
        };
        let shape = (cp.inputs.len(), cp.outputs_sent.len());
        let restored = if shape != (self.up.len(), self.down.len()) {
            Err(format!("an image of (inputs, outputs) {shape:?} does not fit the node"))
        } else {
            self.registry.restore(&cp.state).map_err(|e| e.to_string())
        };
        if let Err(e) = restored {
            self.obs.journal.warn(
                Some(self.id.index()),
                "checkpoint-restore-failed",
                format!("{e}; falling back to log + full replay"),
            );
            return fresh;
        }
        // Restoring the RNG position keeps the random stream continuous
        // across the crash: re-executed events that never reached the log
        // draw exactly the values the failure-free run drew.
        if let Ok(rng) = decode_from_slice::<DetRng>(&cp.rng_state) {
            *self.rng.lock() = rng;
        }
        cp
    }

    /// Rewinds every input port to its frontier, once it is settled what
    /// becomes of the re-derived outputs the edges carry already.
    fn rewind(&mut self, cp: &Checkpoint) {
        // Per edge, the re-derived events and finalizes already on the
        // wire: the edge's counts minus the checkpoint's baseline (at a
        // checkpoint every event sent is final, so one baseline serves
        // both). A speculative node subtracts only from a receiver's count
        // ([`crate::plumbing::Sent::by_receiver`]).
        let excess: Vec<(u64, u64)> = self
            .down
            .iter()
            .zip(&cp.outputs_sent)
            .map(|(edge, baseline)| {
                if self.config.speculative && !edge.sent.by_receiver {
                    return (0, 0);
                }
                let over = |n: &AtomicU64| n.load(Ordering::Acquire).saturating_sub(*baseline);
                (over(&edge.sent.events), over(&edge.sent.finals))
            })
            .collect();
        if !self.skip_within_budget(&excess, cp.events_processed) {
            // Replay regenerates the post-checkpoint output stream in its
            // original send order (sends are a serial-order prefix), so the
            // first `excess` regenerated events per edge are byte-identical
            // to what the edge already carries. Swallow them; whoever holds
            // them (the link's retained buffer, the receiver) serves any
            // downstream replay of that range.
            for (out, (events, finals)) in excess.into_iter().enumerate() {
                self.resend[out].events.store(events, Ordering::Relaxed);
                self.resend[out].finals.store(finals, Ordering::Relaxed);
                if events > 0 {
                    self.obs.journal.record(
                        Some(self.id.index()),
                        JournalKind::ResendSuppressed { edge: out as u32, count: events },
                    );
                }
            }
        }
        // Read again what the checkpoint does not cover: every frame from
        // its position on is still in the ring (acks trim to a checkpoint's
        // positions, never past them), including what arrived while the
        // node was down. In a worker the ring is the acceptor's fresh local
        // one, numbered from the position, and the reconnect handshake
        // rewinds the sender's side instead.
        for (port, frontier) in self.frontiers.iter().enumerate() {
            let from = frontier.at.position;
            let stands = self.inbox.inputs[port].rewind_to(from);
            self.metrics.replay_requests.incr();
            self.obs
                .journal
                .record(Some(self.id.index()), JournalKind::Rewind { port: port as u32, from });
            // Frontier invariant: the ring reaches back to the checkpoint.
            // Short of it, the frames in between are gone.
            if stands > from {
                self.obs.journal.warn(
                    Some(self.id.index()),
                    "rewind-short",
                    format!(
                        "port {port}: the ring is trimmed to {stands}, past the checkpoint's \
                         position {from}; {} frame(s) cannot be replayed",
                        stands - from
                    ),
                );
            }
            debug_assert!(stands <= from, "port {port}: rewound to {stands}, not {from}");
        }
    }

    /// The approximate policy for what the edges carry already: drop the
    /// replayed inputs whose outputs are downstream, charging their lost
    /// state updates to the error budget, instead of re-executing them.
    /// `excess` holds, per output edge, the re-derived events and finalizes
    /// on the wire; `covered_serials` is the checkpoint's input position.
    ///
    /// The resume window is the per-edge maximum of the events. Returns
    /// `false` — swallow them, as precise recovery does — when the node is
    /// not in approximate mode or when baked loss plus this window would
    /// exceed the ε·N allowance.
    fn skip_within_budget(&mut self, excess: &[(u64, u64)], covered_serials: u64) -> bool {
        let Some(approx) = &mut self.approx else { return false };
        let Some(store) = &self.checkpoints else { return false };
        // Operators are 1:1 (one output per input), so the on-wire output
        // excess equals the count of replayed inputs to drop. Edges may
        // disagree only if the crash interrupted a fan-out mid-event;
        // taking the max never re-emits a delivered output (at-most-once
        // on the divergent edge is within the approximate contract).
        let skip = excess.iter().map(|(events, _)| *events).max().unwrap_or(0);
        let baked = store.approx_loss();
        let delivered = covered_serials + skip;
        let mut budget = ErrorBudget { bound: approx.bound, lost: baked, escalations: 0 };
        if budget.admit(skip, delivered) {
            approx.skip_remaining = skip;
            // The whole window is provisional: a crash before the next
            // save re-derives a superset window from the same baseline.
            approx.window_loss = skip;
            let remaining = budget.remaining(delivered);
            approx.set_gauges(baked + skip, delivered);
            self.obs.journal.record(
                Some(self.id.index()),
                JournalKind::ApproxResume { skipped: skip, lost: baked + skip, remaining },
            );
            true
        } else {
            store.note_escalation();
            approx.escalations.incr();
            approx.set_gauges(baked, delivered);
            self.obs.journal.record(
                Some(self.id.index()),
                JournalKind::ApproxEscalate {
                    lost: baked + skip,
                    allowed: approx.bound.allowed_loss(delivered),
                },
            );
            false
        }
    }

    pub(super) fn maybe_checkpoint(&mut self) {
        let Some(interval) = self.config.checkpoint_every else { return };
        let consumed: usize = self.frontiers.iter().map(|f| f.consumed.len()).sum();
        if (consumed as u64) < interval {
            return;
        }
        // Never save mid-resume-window: the save would pin mid-window
        // input positions against pre-crash output counters, corrupting
        // the skip computation of any later crash. The window's loss is
        // baked into the durable budget only at the first save after the
        // window drains — a crash before that re-derives a superset
        // window from the same baseline, so baking earlier would
        // double-charge.
        if self.approx.as_ref().is_some_and(|a| a.skip_remaining > 0) {
            return;
        }
        // One image waits for its downstreams at a time.
        if self.checkpoints.is_none() || self.image.is_some() {
            return;
        }
        let cut = if self.admitted.is_some() { self.prefix_cut() } else { self.settled_cut() };
        // `None`: not a cut yet, try again later.
        let Some(mut checkpoint) = cut else { return };
        // Nothing appends the records recovery read back again: an image
        // that leaves any of their serials to replay keeps them all.
        if let Some((first, upto)) = self.recovered_log {
            if checkpoint.events_processed < upto {
                checkpoint.covers_log = LogSeq(checkpoint.covers_log.0.min(first));
            } else {
                self.recovered_log = None;
            }
        }
        // Outputs still buffered for batching are volatile; put them on
        // the (replay-retaining) links before the covering events become
        // unreplayable.
        self.flush_out_batches();
        self.checkpoint_serial = checkpoint.events_processed;
        // With the hold queue drained and batches flushed, the send counters
        // of a settled node cover exactly the outputs of the checkpointed
        // prefix — the baseline recovery subtracts to size its resend
        // suppression. A committed prefix leaves open transactions' outputs
        // on the wire past it; its node re-sends what it re-derives and
        // subtracts nothing ([`crate::plumbing::Sent::by_receiver`]).
        checkpoint.outputs_sent =
            self.down.iter().map(|e| e.sent.events.load(Ordering::Acquire)).collect();
        // Committed values only: an open transaction's writes are not
        // visible outside it.
        checkpoint.state = self.registry.snapshot();
        // A ring told its counts by the receiver lives in this process and
        // dies with it, and a replacement re-derives only the outputs past
        // the image's counts: the image waits until the receiver
        // acknowledges every output it counts. Its own checkpoint acks
        // them, so a crash of the receiver cannot lose them either.
        let outputs_end = self
            .down
            .iter()
            .map(|e| if e.sent.by_receiver { e.data_tx.sent() } else { 0 })
            .collect();
        self.image = Some(Image { checkpoint, outputs_end });
        self.save_image();
    }

    /// The image of a settled node, which covers every serial taken: no
    /// in-flight transactions, no outputs still held for log stability, no
    /// parked speculative inputs — otherwise the covered events' effects
    /// would be lost in a crash while replay skips them. Port queues must be
    /// empty too: a partially consumed DataBatch shares one link sequence
    /// across its events, and the ids consumed are an id prefix only once
    /// everything read is (finals arrive in the sender's serial order).
    /// `None` until the node settles.
    ///
    /// Multi-threaded speculative nodes draw out of serial order, so no RNG
    /// position stands for a prefix of their serials; non-speculative ones
    /// apply an event's state before its outputs are released; and a
    /// cluster worker's receiver counts every output it was sent. They all
    /// wait to be settled.
    fn settled_cut(&mut self) -> Option<Checkpoint> {
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
            ..Checkpoint::default()
        })
    }

    /// The image of a single-threaded speculative node's committed prefix:
    /// every serial below the lowest one still open, while that one and
    /// later ones stay open and admission goes on. Commits run in serial
    /// order, and with one thread only the coordinator pumps them, so the
    /// STM's committed values are exactly those of the prefix — once the
    /// notice of every commit is served. Per port, replay re-reads from the
    /// frame of the first event left open (admitted at or above the cut, or
    /// read and not admitted yet), and the covered id prefix drops the
    /// committed events it re-reads on the way. The RNG and the log are
    /// taken as they stood when the lowest open serial was admitted, so the
    /// open transactions' records survive truncation and recovery reads
    /// them back. `None` when that is not a consistent cut yet.
    fn prefix_cut(&mut self) -> Option<Checkpoint> {
        let low = self.pending_by_serial.keys().min().copied().unwrap_or(self.next_serial);
        let lowest_open = self.pending_by_serial.get(&low).and_then(|id| self.pending.get(id));
        if lowest_open.is_some_and(|p| {
            matches!(p.handle.status(), TxnStatus::Committed | TxnStatus::Committing)
        }) {
            return None; // its notice is still queued
        }
        let admitted = self.admitted.as_ref()?;
        let split = admitted.partition_point(|a| a.serial < low);
        let ports = self.frontiers.len();
        let mut covered_below: Vec<u64> =
            self.frontiers.iter().map(|f| f.at.covered_below).collect();
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
        let rng_state = match first_open {
            Some(a) => encode_to_vec(&a.rng),
            None => encode_to_vec(&*self.rng.lock()),
        };
        let log_now = || self.log.as_ref().map_or(0, StableLog::appended);
        let covers_log = first_open.map_or_else(log_now, |a| a.log_at);
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
            ..Checkpoint::default()
        })
    }

    /// Takes note of the event admitted at `serial`, before it takes a
    /// decision, on a node that images its committed prefix.
    pub(super) fn note_admitted(&mut self, serial: u64, port: u32, id: EventId, frame: FrameAt) {
        let Some(admitted) = &mut self.admitted else { return };
        let rng = self.rng.lock().clone();
        let log_at = self.log.as_ref().map_or(0, StableLog::appended);
        admitted.push_back(Admitted { serial, port, id, frame, rng, log_at });
    }

    /// Saves the waiting image once every downstream has acknowledged the
    /// outputs it counts, then acks the upstreams down to its positions.
    pub(super) fn save_image(&mut self) {
        let acked = &self.down_acked;
        let Some(image) = self
            .image
            .take_if(|image| image.outputs_end.iter().zip(acked).all(|(end, acked)| acked >= end))
        else {
            return;
        };
        let Some(store) = &self.checkpoints else { return };
        // An image that missed its file (the store warned) is not one a
        // replacement can resume from: nothing is acked on its strength.
        let Ok(cp) = store.save(image.checkpoint) else { return };
        self.obs.journal.record(
            Some(self.id.index()),
            JournalKind::CheckpointSaved { id: cp.id, covers_log: cp.covers_log.0 },
        );
        // The save made the stale lineage the only lineage: the resume
        // window's provisional loss is now permanent. Bake it into the
        // store's durable counter so later recoveries charge against it.
        if let Some(approx) = &mut self.approx {
            if approx.window_loss > 0 {
                store.add_approx_loss(approx.window_loss);
                approx.window_loss = 0;
            }
            approx.set_gauges(store.approx_loss(), self.next_serial);
        }
        if let Some(log) = &self.log {
            log.truncate_below(cp.covers_log);
        }
        for (ctrl_tx, input) in self.up.iter().zip(&cp.inputs) {
            ctrl_tx.push(Control::Ack { upto: input.position });
        }
    }
}
