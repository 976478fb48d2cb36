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
//! A checkpoint covers the node's committed prefix while later
//! transactions stay open (see [`super::cut`]). It is taken, waits for its
//! downstreams (see [`Node::maybe_checkpoint`]), is appended to the node's
//! log as an image record, and only once that record is stable does the
//! node act on it: truncate the log below what the image covers and ack
//! each input ring — the ring it reads — up to its position. Until then
//! the previous image and the decisions after it stay readable, so a torn
//! newest image costs nothing. The next image does not wait for that: several may be on their
//! way, and a stable one supersedes the older ones still in flight.
//!
//! Frontier invariants, checked in debug builds: a port reads consecutive
//! link sequences between rewinds; a rewind reaches back to the checkpoint
//! (`rewind-short`); `covered_below` only grows and no consumed id lies
//! below it; nothing below the last checkpoint's serial runs again; a
//! committed-prefix image leaves every open transaction's input above its
//! port's covered prefix and its first log record above `covers_log`; no
//! tape read back lies below the serial replay admits.

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
/// data events and finals read on the port before that frame. An image
/// that leaves the event open records the port from there.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(super) struct FrameAt {
    seq: u64,
    events: u64,
    finals: u64,
}

impl Frontier {
    /// Takes note of the frame read at `link_seq`, and returns where its
    /// events were read. A ring hands out consecutive sequences between
    /// rewinds, so that is the position.
    pub(super) fn read(&mut self, link_seq: u64, msg: &Message) -> FrameAt {
        debug_assert_eq!(link_seq, self.at.position, "a read skipped or repeated a sequence");
        let frame = FrameAt { seq: link_seq, events: self.at.events, finals: self.at.finals };
        self.at.position = link_seq + 1;
        self.at.events += msg.event_count() as u64;
        self.at.finals += msg.final_count() as u64;
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

    /// Where the covered id prefix ends.
    pub(super) fn covered_below(&self) -> u64 {
        self.at.covered_below
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
            image.finals = frame.finals;
        }
        image
    }
}

/// A checkpoint taken but not appended yet, and per down-edge the ring
/// position its downstream must have acknowledged before it may be
/// appended (see [`Node::maybe_checkpoint`]).
pub(super) struct Image {
    pub(super) checkpoint: Checkpoint,
    /// Per down-edge: where the outputs the image counts end in the ring
    /// (0 where the ring outlives the node, so nothing is waited for).
    pub(super) outputs_end: Vec<u64>,
}

/// Runtime state of approximate recovery
/// ([`crate::config::RecoveryMode::Approximate`]): the declared bound, the
/// current resume window, and the error-budget gauges.
pub(super) struct ApproxState {
    /// The declared (ε, δ) accuracy contract.
    bound: ErrorBound,
    /// Updates missing for good from the lineage of the image restored or
    /// stable last: what later recoveries charge against.
    baked: u64,
    /// Replayed inputs still to drop in the current resume window. Each
    /// dropped input consumes a serial without running the operator, so
    /// later output ids stay aligned with the fault-free run; its state
    /// update is the loss the budget charged.
    skip_remaining: u64,
    /// Updates dropped by the current resume window, not yet permanent:
    /// the next image carries them in its `approx_loss`, and they are
    /// baked once that image is stable and the stale lineage the only
    /// lineage. A crash before then re-derives a superset window from the
    /// same baseline, so baking earlier would double-charge.
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
            baked: 0,
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

    /// Whether a resume window is still being dropped.
    pub(super) fn resuming(&self) -> bool {
        self.skip_remaining > 0
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
        let read = self.log.as_ref().map(|log| read_back(log.stable_entries())).unwrap_or_default();
        let cp = self.restore(read.image);
        self.next_serial = cp.events_processed;
        self.checkpoint_serial = cp.events_processed;
        let holds_cut = self.send_view.cut_at.load(Ordering::Relaxed) < u64::MAX;
        if let Some(interval) = self.config.checkpoint_every.filter(|_| holds_cut) {
            let next = (cp.events_processed / interval + 1) * interval;
            self.send_view.cut_at.store(next, Ordering::SeqCst);
        }
        self.image_id = cp.id;
        if let Some(approx) = &mut self.approx {
            approx.baked = cp.approx_loss;
        }
        self.frontiers =
            cp.inputs.iter().map(|&at| Frontier { at, consumed: HashSet::new() }).collect();
        self.covered_sent =
            cp.outputs_sent.iter().copied().zip(cp.finals_sent.iter().copied()).collect();
        // A covered serial's record past `covers_log` was appended late, by
        // a pool thread (see `super::cut`): replay starts at the image's
        // serial, and ignores it.
        let records: Vec<(LogSeq, DecisionRecord)> = read
            .decisions
            .into_iter()
            .filter(|(_, record)| record.serial >= cp.events_processed)
            .collect();
        let upto = records.iter().map(|(_, record)| record.serial + 1).max();
        self.recovered_log = records.first().zip(upto).map(|((first, _), upto)| (first.0, upto));
        self.recovered = recovered_tapes(records.into_iter().map(|(_, record)| record));
        if recovering {
            self.rewind(&cp);
        }
    }

    /// `image`, restored into the state registry and the generator; a
    /// fresh start's when there is none. One that cannot be restored
    /// degrades the node to the log and a full replay instead of killing it
    /// — an image of another shape too: a worker's comes from a file, and
    /// would index rings the node does not have, or be short of some.
    fn restore(&mut self, image: Option<Checkpoint>) -> Checkpoint {
        let outputs = self.down.len();
        let fresh = Checkpoint {
            inputs: vec![InputFrontier::default(); self.inbox.inputs.len()],
            outputs_sent: vec![0; outputs],
            finals_sent: vec![0; outputs],
            ..Checkpoint::default()
        };
        let Some(cp) = image else {
            return fresh;
        };
        let shape = (cp.inputs.len(), cp.outputs_sent.len());
        let inputs = self.inbox.inputs.len();
        let restored = if shape != (inputs, outputs) || cp.finals_sent.len() != outputs {
            Err(format!("an image of (inputs, outputs) {shape:?} does not fit the node"))
        } else {
            self.runner.registry.restore(&cp.state).map_err(|e| e.to_string())
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
            *self.runner.rng.lock() = rng;
        }
        cp
    }

    /// Rewinds every input port to its frontier, once it is settled what
    /// becomes of the re-derived outputs the edges carry already.
    fn rewind(&mut self, cp: &Checkpoint) {
        // Per edge, the re-derived events and finalizes already on the
        // wire: the edge's counts minus what the events the checkpoint
        // covers put there. A speculative node subtracts only from a
        // receiver's count ([`crate::plumbing::Sent::by_receiver`]).
        let excess: Vec<(u64, u64)> = (self.down.iter().zip(&cp.outputs_sent).zip(&cp.finals_sent))
            .map(|((edge, events), finals)| {
                if self.config.speculative && !edge.sent.by_receiver {
                    return (0, 0);
                }
                let over =
                    |n: &AtomicU64, base: u64| n.load(Ordering::Acquire).saturating_sub(base);
                (over(&edge.sent.events, *events), over(&edge.sent.finals, *finals))
            })
            .collect();
        // Replay regenerates the post-checkpoint output stream in its
        // original send order (sends are a serial-order prefix), so the
        // first `excess` regenerated events per edge are byte-identical to
        // what the edge already carries. Swallow them; whoever holds them
        // (the link's retained buffer, the receiver) serves any downstream
        // replay of that range. Within an approximate budget the replayed
        // inputs that produced them are dropped instead, and each takes
        // what its serial put on the wire off the counts (see
        // `Node::accept_event`).
        let skipping = self.skip_within_budget(&excess, cp.events_processed);
        for (out, (events, finals)) in excess.into_iter().enumerate() {
            self.resend[out].events.store(events, Ordering::Relaxed);
            self.resend[out].finals.store(finals, Ordering::Relaxed);
            if events > 0 && !skipping {
                self.obs.journal.record(
                    Some(self.id.index()),
                    JournalKind::ResendSuppressed { edge: out as u32, count: events },
                );
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
        if self.log.is_none() {
            return false; // no image to resume from
        }
        // Operators are 1:1 (one output per input), so the on-wire output
        // excess equals the count of replayed inputs to drop. Edges may
        // disagree only if the crash interrupted a fan-out mid-event;
        // taking the max never re-emits a delivered output (at-most-once
        // on the divergent edge is within the approximate contract).
        let skip = excess.iter().map(|(events, _)| *events).max().unwrap_or(0);
        let baked = approx.baked;
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

    /// Takes a checkpoint when one is due ([`Node::prefix_cut_due`]).
    pub(super) fn maybe_checkpoint(&mut self) {
        let Some(interval) = self.config.checkpoint_every else { return };
        let cut = self.prefix_cut_due(interval);
        // `None`: not a cut yet, try again later.
        let Some(mut image) = cut else { return };
        let checkpoint = &mut image.checkpoint;
        // Nothing appends the records recovery read back again: an image
        // that leaves any of their serials to replay keeps them all.
        if let Some((first, upto)) = self.recovered_log {
            if checkpoint.events_processed < upto {
                checkpoint.covers_log = LogSeq(checkpoint.covers_log.0.min(first));
            } else {
                self.recovered_log = None;
            }
        }
        self.checkpoint_serial = checkpoint.events_processed;
        self.waiting.push_back(image);
        self.save_image();
    }

    /// Whether an image may be taken: the node has a log, and fewer than
    /// two images wait for their downstreams. The next cut is not put off
    /// while one waits, so a late acknowledgment does not move a node's
    /// cut points off its downstream's.
    pub(super) fn may_wait(&self) -> bool {
        self.log.is_some() && self.waiting.len() < 2
    }

    /// Where the outputs an image counts end on each down-edge, as `end`
    /// puts it, on an edge whose ring dies with this process: a
    /// replacement re-derives only the outputs past the image's counts, so
    /// the image waits until the receiver acknowledges them all. 0 where
    /// the ring outlives the node, so nothing is waited for.
    pub(super) fn outputs_end(&self, end: impl Fn(usize) -> u64) -> Vec<u64> {
        (self.down.iter().enumerate())
            .map(|(out, e)| if e.sent.by_receiver { end(out) } else { 0 })
            .collect()
    }

    /// Appends the newest waiting image whose outputs every downstream has
    /// acknowledged — the watermark of each output ring — to the log, and
    /// drops the older ones it supersedes; `true` when it did. Its record
    /// carries the resume window's loss already: the image is of the stale
    /// lineage.
    pub(super) fn save_image(&mut self) -> bool {
        let Some(log) = &self.log else { return false };
        let acked = |(end, edge): (&u64, &DownEdge)| edge.data_tx.acked() >= *end;
        let ready = (self.waiting.iter())
            .take_while(|image| image.outputs_end.iter().zip(&self.down).all(acked))
            .count();
        let Some(Image { mut checkpoint, .. }) = self.waiting.drain(..ready).next_back() else {
            return false;
        };
        self.image_id += 1;
        checkpoint.id = self.image_id;
        if let Some(approx) = &self.approx {
            checkpoint.approx_loss = approx.baked + approx.window_loss;
        }
        let record = encode_to_vec(&LogRecord::Image(checkpoint));
        let ticket = log.append(&record);
        let seq = ticket.seq();
        self.stabilizing.push_back((seq, record));
        let inbox = self.inbox.clone();
        ticket.subscribe(move || inbox.post(Notice::ImageStable { seq }));
        true
    }

    /// The image appended at `seq` is stable (in a worker's file too): the
    /// log is truncated below what it covers and each input ring is acked
    /// up to its position. Older images still on their way are
    /// superseded; a notice for an image of an earlier incarnation changes
    /// nothing.
    pub(super) fn on_image_stable(&mut self, seq: LogSeq) {
        let Some(at) = self.stabilizing.iter().position(|(at, _)| *at == seq) else {
            return;
        };
        let Some((_, record)) = self.stabilizing.drain(..=at).next_back() else { return };
        let Ok(LogRecord::Image(cp)) = decode_from_slice(&record) else { return };
        self.obs.journal.record(
            Some(self.id.index()),
            JournalKind::CheckpointSaved { id: cp.id, covers_log: cp.covers_log.0 },
        );
        // The stale lineage is now the only lineage: the resume window's
        // provisional loss is permanent.
        if let Some(approx) = &mut self.approx {
            approx.baked = cp.approx_loss;
            approx.window_loss = 0;
            approx.set_gauges(approx.baked, self.next_serial);
        }
        if let Some(log) = &self.log {
            log.truncate_below(cp.covers_log);
        }
        for (ring, input) in self.inbox.inputs.iter().zip(&cp.inputs) {
            ring.ack_upto(input.position);
        }
    }
}

#[cfg(test)]
impl Frontier {
    /// How many ids were consumed above the covered prefix.
    pub(super) fn consumed_len(&self) -> usize {
        self.consumed.len()
    }
}
