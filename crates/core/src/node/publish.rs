//! What the node sends: final outputs held until their decisions are
//! stable and batched per edge, the speculative diff an attempt publishes,
//! and the resend suppression of a recovering node.
//!
//! # Emission-ordering protocol (speculative mode)
//!
//! Attempts of one event may finish on different worker threads in any
//! order, while the commit gate runs on yet another thread. Three rules
//! keep the wire consistent:
//!
//! 1. **Generation-ordered diffs** — each attempt's outputs carry the STM
//!    generation; diffs against the `sent` list apply monotonically, so a
//!    straggling old attempt can never resurrect outputs a newer attempt
//!    revised or revoked.
//! 2. **Attempts-in-flight gate** — the commit gate only opens when no
//!    attempt is scheduled or mid-emission, so a commit's finalizes always
//!    follow the last data/revoke of the surviving generation.
//! 3. **Finalize/diff mutual exclusion** — finalizes are sent under the
//!    same `sent` lock the diffs use, with a `finalized` flag checked
//!    inside it: nothing can revise an output after its finalize entered
//!    the wire.

use super::*;

/// Per down-edge: how many of the outputs a recovering node re-derives it
/// must swallow instead of sending, because the edge carries them already
/// ([`crate::plumbing::Sent`] minus the checkpoint's baseline). Re-derived
/// output comes in the order it was first sent, so the first `events` data
/// events and the first `finals` finalizes are exactly the ones on the
/// wire. Putting them on again would park copies at fresh link sequences,
/// which a *later* downstream crash would replay and process as new
/// events, and would count twice in a receiver's cursor. Set by
/// [`Node::recover`] before the first event is admitted, then only counted
/// down — by the coordinator, or by the one thread of a speculative node
/// that has any to swallow.
#[derive(Default)]
pub(super) struct Resend {
    pub(super) events: AtomicU64,
    pub(super) finals: AtomicU64,
}

/// Whether an output routed to `target` (`None`: every edge) goes out on
/// edge `out`.
pub(super) fn routes_to(target: Option<u32>, out: usize) -> bool {
    target.is_none_or(|t| t as usize == out)
}

/// Takes one off `count` if any is left: `true` when the caller's output
/// is one of the swallowed.
pub(super) fn swallow(count: &AtomicU64) -> bool {
    count.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1)).is_ok()
}

impl Node {
    pub(super) fn on_log_stable(&mut self, serial: u64) {
        let pending =
            self.pending_by_serial.get(&serial).and_then(|id| self.pending.get(id)).cloned();
        let trace_id = pending.as_ref().and_then(|p| p.trace.map(|c| c.id)).or_else(|| {
            self.hold_queue.iter().find(|(s, _)| *s == serial).and_then(|(_, h)| h.trace)
        });
        self.obs.journal.record_traced(
            Some(self.id.index()),
            trace_id,
            JournalKind::LogStable { serial },
        );
        // Non-speculative mode: flush the stable prefix in serial order
        // (keeps FIFO downstream).
        while self.hold_queue.front().is_some_and(|(_, held)| held.tape.is_stable()) {
            let (s, held) = self.hold_queue.pop_front().expect("nonempty");
            if held.trace.is_some() {
                // A held output turning loose is the non-speculative commit
                // point: log stable, outputs final downstream.
                self.obs.tracer.record_commit(self.id.index(), s, 0);
            }
            self.send_outputs_final(held.outputs);
        }
        // Speculative mode: a stable log is one leg of the commit gate.
        if let Some(pending) = pending {
            maybe_authorize_pending(&pending);
        }
        // A drained hold queue may unblock a deferred checkpoint.
        self.maybe_checkpoint();
    }

    /// Stages final outputs for sending. Events accumulate in per-edge
    /// buffers (payloads are shared via their `Arc`, not deep-copied) and
    /// go out as one `DataBatch` frame when a buffer reaches
    /// [`BATCH_MAX_EVENTS`] or the coordinator runs out of readable work.
    pub(super) fn send_outputs_final(&mut self, outputs: Vec<(Event, Option<u32>)>) {
        for (event, target) in outputs {
            for out in 0..self.down.len() {
                if routes_to(target, out) {
                    if swallow(&self.resend[out].events) {
                        self.metrics.resend_suppressed.incr();
                        continue;
                    }
                    self.out_batch[out].push(event.clone());
                    if self.out_batch[out].len() >= BATCH_MAX_EVENTS {
                        self.flush_edge(out);
                    }
                }
            }
        }
    }

    /// Sends edge `out`'s buffered outputs as one frame.
    fn flush_edge(&mut self, out: usize) {
        let Some(msg) = data_frame(&mut self.out_batch[out], &self.metrics.batch_events) else {
            return;
        };
        self.down[out].sent.events.fetch_add(msg.event_count() as u64, Ordering::AcqRel);
        self.down[out].data_tx.push(msg);
    }

    pub(super) fn flush_out_batches(&mut self) {
        for out in 0..self.down.len() {
            self.flush_edge(out);
        }
    }
}

/// The subset of node context an execution needs off the coordinator:
/// where its live decisions are logged, and — after a transaction
/// publishes — what it takes to assign output ids and send them.
pub(super) struct NodeSendView {
    pub(super) id: OperatorId,
    pub(super) down: Vec<DownEdge>,
    pub(super) resend: Arc<Vec<Resend>>,
    /// `None`: the node logs nothing (no log configured, or approximate
    /// recovery).
    pub(super) decisions: Option<DecisionLog>,
    pub(super) journal: Arc<Journal>,
    pub(super) spec_published: Counter,
    pub(super) resend_suppressed: Counter,
    pub(super) batch_events: Histogram,
    /// Shared retained-speculative-output count (admission control input).
    pub(super) spec_retained: Arc<AtomicI64>,
}

impl NodeSendView {
    pub(super) fn after_publish(&self, pending: &Arc<PendingTxn>) {
        let Some((generation, outputs)) = pending.attempt.lock().take() else { return };
        // First emissions are always speculative: even with final inputs, a
        // stable-by-construction log and no *observed* dependencies, an
        // earlier-serial transaction's re-execution can still invalidate
        // this one before it commits (its conflict may not exist yet).
        // Finality is only ever granted by the commit path, which under
        // the configured commit order is precisely when nothing can change
        // anymore. For gate-ready transactions the commit — and thus the
        // finalize — follows within microseconds.
        let child = pending.trace.map(|c| c.child(span_key(self.id.index(), pending.serial)));
        let new_events =
            assign_output_ids(self.id, pending.serial, pending.input_ts, &outputs, true, child);

        // Diff against previously sent outputs (re-execution produces a
        // revision; identical payloads need no resend).
        {
            let mut sent = pending.sent.lock();
            if pending.finalized.load(Ordering::Acquire) {
                // The transaction committed and its outputs were finalized;
                // a straggling attempt must not touch the wire anymore.
                return;
            }
            // Diffs must apply in generation order: a stale attempt's diff
            // running after a newer one's would resurrect dead outputs.
            if generation < pending.applied_gen.load(Ordering::Acquire) {
                return;
            }
            pending.applied_gen.store(generation, Ordering::Release);
            let sent_before = sent.len();
            let mut to_send: Vec<(Message, Option<u32>)> = Vec::new();
            for (k, (new_ev, target)) in new_events.iter().enumerate() {
                match sent.get(k) {
                    None => {
                        sent.push((new_ev.clone(), *target));
                        to_send.push((Message::Data(new_ev.clone()), *target));
                    }
                    Some((old, old_target))
                        if old.payload == new_ev.payload && old_target == target => {}
                    Some((old, old_target)) => {
                        // Content or routing changed: revoke on the old
                        // route if the route moved, then send the revision.
                        if old_target != target {
                            to_send.push((
                                Message::Control(Control::Revoke { id: old.id }),
                                *old_target,
                            ));
                        }
                        let revised = old.reissue(new_ev.payload.clone());
                        sent[k] = (revised.clone(), *target);
                        to_send.push((Message::Data(revised), *target));
                    }
                }
            }
            // Outputs that disappeared in the re-execution are revoked.
            while sent.len() > new_events.len() {
                let (gone, target) = sent.pop().expect("nonempty");
                to_send.push((Message::Control(Control::Revoke { id: gone.id }), target));
            }
            // Keep the retained-speculative-output count current for the
            // admission gate (revisions replace in place: no change).
            self.spec_retained.fetch_add(sent.len() as i64 - sent_before as i64, Ordering::Relaxed);
            // Route the diff to each edge, coalescing consecutive data
            // messages into one `DataBatch` frame per edge. Control
            // messages (revokes) act as barriers, so relative data/control
            // order on each link is exactly what unbatched sending yields.
            let mut published = 0u64;
            for (out, edge) in self.down.iter().enumerate() {
                let mut run: Vec<Event> = Vec::new();
                let flush = |run: &mut Vec<Event>| {
                    if let Some(frame) = data_frame(run, &self.batch_events) {
                        edge.data_tx.push(frame);
                    }
                };
                let mut sent_here = 0u64;
                for (msg, target) in &to_send {
                    if !routes_to(*target, out) {
                        continue;
                    }
                    match msg {
                        // Re-derived and on the wire already: it stays in
                        // `sent` (its finalize is still owed) and off the
                        // edge.
                        Message::Data(_) if swallow(&self.resend[out].events) => {
                            self.resend_suppressed.incr();
                        }
                        Message::Data(e) => {
                            run.push(e.clone());
                            sent_here += 1;
                        }
                        other => {
                            flush(&mut run);
                            edge.data_tx.push(other.clone());
                        }
                    }
                }
                flush(&mut run);
                edge.sent.events.fetch_add(sent_here, Ordering::AcqRel);
                published += sent_here;
            }
            if published > 0 {
                self.spec_published.add(published);
                self.journal.record_traced(
                    Some(self.id.index()),
                    pending.trace.map(|c| c.id),
                    JournalKind::SpecPublish { serial: pending.serial, outputs: published as u32 },
                );
            }
        }
    }
}

/// Empties `events` into the frame that carries them, counted in
/// `batch_events`: none for no events, plain `Data` for a lone one
/// (identical wire behavior to unbatched operation), a `DataBatch`
/// otherwise.
fn data_frame(events: &mut Vec<Event>, batch_events: &Histogram) -> Option<Message> {
    let msg = match events.len() {
        0 => return None,
        // Pop the lone event and keep the buffer (and its capacity); only
        // the multi-event frame has to hand the Vec itself over the wire.
        1 => Message::Data(events.pop().expect("len checked")),
        _ => Message::DataBatch(std::mem::take(events)),
    };
    batch_events.record(msg.event_count() as u64);
    Some(msg)
}
