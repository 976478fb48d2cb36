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
//! Frontier invariants, checked in debug builds: a port reads consecutive
//! link sequences between rewinds; a rewind reaches back to the checkpoint
//! (`rewind-short`); `covered_below` only grows and no consumed id lies
//! below it; nothing below the last checkpoint's serial runs again.

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

impl Frontier {
    /// Takes note of the frame read at `link_seq`. A ring hands out
    /// consecutive sequences between rewinds, so that is the position.
    pub(super) fn read(&mut self, link_seq: u64, msg: &Message) {
        debug_assert_eq!(link_seq, self.at.position, "a read skipped or repeated a sequence");
        self.at.position = link_seq + 1;
        self.at.events += msg.event_count() as u64;
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

    /// At a checkpoint: what was consumed becomes covered, and the durable
    /// part is what the image records. Nothing is pending, parked or
    /// queued then, and finals arrive in the sender's serial order, so what
    /// was consumed is an id prefix.
    pub(super) fn fold(&mut self) -> InputFrontier {
        if let Some(top) = self.consumed.drain().map(|id| id.seq + 1).max() {
            self.at.covered_below = self.at.covered_below.max(top);
        }
        self.at
    }
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
            let records = entries
                .filter_map(|(_, bytes)| decode_from_slice::<DecisionRecord>(&bytes).ok())
                .filter(|record| record.serial >= cp.events_processed);
            self.recovered = recovered_tapes(records);
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
        // A checkpoint may only cover fully settled work: no in-flight
        // transactions, no outputs still held for log stability, no parked
        // speculative inputs. Otherwise the covered events' effects would
        // be lost in a crash while replay skips them. Port queues must be
        // empty too: a partially consumed DataBatch shares one link
        // sequence across its events, so a mid-batch position would make
        // replay re-deliver (and re-serialize) its already-processed
        // prefix under fresh serials.
        if !self.pending.is_empty()
            || !self.hold_queue.is_empty()
            || !self.parked.is_empty()
            || self.port_queues.iter().any(|q| !q.is_empty())
        {
            return; // try again once in-flight work settles
        }
        // One image waits for its downstreams at a time.
        if self.checkpoints.is_none() || self.image.is_some() {
            return;
        }
        // Outputs still buffered for batching are volatile; put them on
        // the (replay-retaining) links before the covering events become
        // unreplayable.
        self.flush_out_batches();
        self.checkpoint_serial = self.next_serial;
        let checkpoint = Checkpoint {
            covers_log: LogSeq(self.log.as_ref().map(|l| l.appended()).unwrap_or(0)),
            events_processed: self.next_serial,
            // Every frame read is fully processed (the queues are empty),
            // so each frontier is where its upstream replays from.
            inputs: self.frontiers.iter_mut().map(Frontier::fold).collect(),
            // With the hold queue drained and batches flushed, the send
            // counters cover exactly the outputs of the checkpointed
            // prefix — the baseline recovery subtracts to size its resend
            // suppression.
            outputs_sent: self.down.iter().map(|e| e.sent.events.load(Ordering::Acquire)).collect(),
            state: self.registry.snapshot(),
            // The serialized RNG goes into the checkpoint so the random
            // stream stays continuous across a crash (see `restore`).
            rng_state: encode_to_vec(&*self.rng.lock()),
            ..Checkpoint::default()
        };
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
