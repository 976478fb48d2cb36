//! What the node takes in: its rings read by cursor, the overload gate
//! that decides what may be read and admitted, the order of admission, and
//! the upstream's finalizes of inputs not committed yet.

use super::*;

/// Why the overload gate closed (see [`Node::overload_reason`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StallReason {
    /// A downstream edge is saturated (its link window is full).
    Edge(u32),
    /// Speculation admission control: too many open transactions or
    /// retained speculative outputs.
    SpecCap { open: usize, retained: usize },
}

impl Node {
    // Overload control: window-backed backpressure + speculation admission
    // (bounded optimism).

    /// Why the node must stop pulling new data events, if it must.
    fn overload_reason(&self) -> Option<StallReason> {
        // Outputs already produced but held for log stability will land on
        // every downstream link once their records turn stable; counting
        // them against the window keeps the overshoot past it bounded by
        // one event's outputs, instead of everything admitted inside a
        // stability wait. (Event count is conservative: micro-batching
        // can coalesce them into fewer frames, never more.)
        let held: usize = self.hold_queue.iter().map(|(_, h)| h.outputs.len()).sum();
        for (out, edge) in self.down.iter().enumerate() {
            if edge.data_tx.is_saturated_with(held) {
                return Some(StallReason::Edge(out as u32));
            }
        }
        if self.config.speculative {
            let open = self.pending.len();
            let retained = self.spec_retained.load(Ordering::Relaxed).max(0) as usize;
            if open >= self.config.node.max_open_speculations
                || retained >= self.config.node.max_retained_spec_outputs
            {
                return Some(StallReason::SpecCap { open, retained });
            }
        }
        None
    }

    /// Evaluates the overload gate, entering or ending a stall episode.
    /// Returns `true` while the node must not pull data. Control-plane
    /// work (acks, commits, log callbacks) is never gated — that asymmetry
    /// is what makes the flow-control protocol deadlock-free: a stalled
    /// node still takes in what ends its stall.
    fn check_overload(&mut self) -> bool {
        let reason = self.overload_reason();
        match reason {
            Some(reason) => self.enter_stall(reason),
            None => self.exit_stall(),
        }
        reason.is_some()
    }

    fn enter_stall(&mut self, reason: StallReason) {
        if self.stall_since.is_some() {
            return; // already inside an episode
        }
        self.stall_since = Some(Instant::now());
        self.metrics.backpressure_stalls.incr();
        match reason {
            StallReason::Edge(edge) => {
                self.obs
                    .journal
                    .record(Some(self.id.index()), JournalKind::BackpressureStall { edge });
            }
            StallReason::SpecCap { open, retained } => {
                self.metrics.spec_cap_hits.incr();
                self.obs.journal.record(
                    Some(self.id.index()),
                    JournalKind::SpecCapHit { open: open as u32, retained: retained as u64 },
                );
            }
        }
    }

    fn exit_stall(&mut self) {
        let Some(since) = self.stall_since.take() else { return };
        let stalled = since.elapsed();
        self.metrics.backpressure_stall_us.record_duration(stalled);
        self.obs.journal.record(
            Some(self.id.index()),
            JournalKind::BackpressureResume { stall_us: stalled.as_micros() as u64 },
        );
        self.obs.tracer.record_backpressure(self.id.index(), stalled.as_micros() as u64);
    }

    /// Handles every queued notice, then every readable downstream
    /// control frame, acknowledging what it read; `true` when there was
    /// any.
    pub(super) fn serve_control(&mut self) -> bool {
        let mut notices = std::mem::take(&mut self.notices);
        self.inbox.take_notices(&mut notices);
        let mut worked = !notices.is_empty();
        for notice in notices.drain(..) {
            self.handle_notice(notice);
        }
        self.notices = notices;
        for out in 0..self.inbox.ctrls.len() {
            let mut handled = None;
            while let Ok(Some((seq, ctrl))) = self.inbox.ctrls[out].try_recv() {
                self.handle_downstream(out as u32, ctrl);
                handled = Some(seq);
            }
            if let Some(seq) = handled {
                // Handled: nobody re-reads a control link.
                self.inbox.ctrls[out].ack_upto(seq + 1);
                worked = true;
            }
        }
        worked
    }

    /// Reads the input rings by cursor, admitting after every frame so
    /// the order of processing stays a function of the order of frames; at
    /// most [`BATCH_MAX_EVENTS`] frames per port, then control is looked at
    /// again. `true` when anything was read.
    ///
    /// A stalled node admits nothing, and what it does not read is what
    /// fills the window and stops its upstream. It must not stop reading
    /// altogether, though: the `Finalize` (or `Revoke`) that lets an open
    /// transaction commit — and so ends a stall on the speculation caps,
    /// here or downstream — travels on the same ring, behind data. So a
    /// stalled node keeps reading a port exactly while an input it already
    /// admitted from there still awaits that notice ([`Self::reads_port`]);
    /// events read on the way wait un-admitted in `port_queues`. The notice
    /// is at most the upstream's own speculation caps behind, which bounds
    /// the read-ahead by configuration; a node whose admitted inputs are
    /// all final (fed by a source, say) reads nothing.
    pub(super) fn read_inputs(&mut self) -> bool {
        let mut worked = false;
        for port in 0..self.inbox.inputs.len() {
            for _ in 0..BATCH_MAX_EVENTS {
                if !self.reads_port(port) {
                    break;
                }
                let Ok(Some((link_seq, msg))) = self.inbox.inputs[port].try_recv() else { break };
                worked = true;
                let frame = self.frontiers[port].read(link_seq, &msg);
                self.handle_upstream(port as u32, msg, frame);
                self.drain_ready_events();
            }
        }
        worked
    }

    /// Whether the node reads input ring `port` right now: always while it
    /// flows; stalled, only while an input admitted from that port is
    /// still speculative — open and unfinalized, or parked.
    fn reads_port(&self, port: usize) -> bool {
        self.stall_since.is_none()
            || self.parked.values().any(|(p, ..)| *p as usize == port)
            || self.pending.values().any(|p| p.port as usize == port && p.input.lock().speculative)
    }

    /// When the earliest frame in flight on a ring the node reads falls
    /// due, if any is.
    pub(super) fn earliest_due(&self) -> Option<Instant> {
        let inputs =
            self.inbox.inputs.iter().enumerate().filter(|(port, _)| self.reads_port(*port));
        let rings = inputs
            .map(|(_, rx)| rx.next_due())
            .chain(self.inbox.ctrls.iter().map(|rx| rx.next_due()));
        rings.flatten().min()
    }

    fn handle_notice(&mut self, notice: Notice) {
        match notice {
            Notice::Downstream { out, ctrl } => self.handle_downstream(out, ctrl),
            Notice::TxnCommitted(txn) => self.on_txn_committed(txn),
            Notice::TxnAborted(txn) => self.on_txn_aborted(txn),
            Notice::LogStable { serial } => self.on_log_stable(serial),
            Notice::Command(NodeCommand::Shutdown) => {
                self.running = false;
            }
            Notice::Command(NodeCommand::Crash) => {
                // Simulated crash: just stop; all volatile state dies with
                // this object. Links, log and checkpoints survive outside.
                self.running = false;
                self.crashed = true;
            }
        }
    }

    fn handle_upstream(&mut self, port: u32, msg: Message, frame: FrameAt) {
        match msg {
            Message::Data(event) => {
                self.port_queues[port as usize].push_back((event, Instant::now(), frame));
            }
            Message::DataBatch(events) => {
                let now = Instant::now();
                self.port_queues[port as usize].extend(events.into_iter().map(|e| (e, now, frame)));
            }
            Message::Control(Control::Finalize { id, version }) => {
                self.on_input_finalized(port, id, version)
            }
            Message::Control(Control::Revoke { id }) => self.on_input_revoked(port, id),
            Message::Control(Control::Eof) => {
                self.eof_count += 1;
                if self.eof_count >= self.up.len() {
                    // Buffered data must precede EOF on the wire.
                    self.flush_out_batches();
                    for edge in &self.down {
                        edge.data_tx.push(Message::Control(Control::Eof));
                    }
                }
            }
            Message::Control(other) => {
                debug_assert!(false, "unexpected upstream control {other}");
            }
        }
    }

    fn handle_downstream(&mut self, out: u32, ctrl: Control) {
        match ctrl {
            Control::Ack { upto } => {
                self.down[out as usize].data_tx.ack_upto(upto);
                let acked = &mut self.down_acked[out as usize];
                *acked = (*acked).max(upto);
                self.save_image();
            }
            other => debug_assert!(false, "unexpected downstream control {other}"),
        }
    }

    /// Pulls queued events into processing: what the log recorded, in the
    /// logged order; live, in arrival order.
    pub(super) fn drain_ready_events(&mut self) {
        loop {
            // Overload gate first: while a downstream edge is saturated or
            // a speculation cap is hit, admit nothing — queued events wait
            // in `port_queues` and unread in the input rings, and the
            // node paces itself by downstream drain / log stability
            // instead of speculating further (it never aborts admitted
            // work). Applies to replay identically: replayed input obeys
            // the same window as live input.
            if self.check_overload() {
                return;
            }
            // The event at `next_serial` comes from the port its recovered
            // tape names (a single-input node logs no choice: port 0) and
            // waits until that port has it. Without a tape — live, or the
            // serial left nothing in the log — take from any non-empty
            // queue, lowest port first (the *choice* is logged, so any
            // policy is legal; port order keeps tests deterministic). For
            // a serial recovery lost that is only unambiguous on a
            // single-input operator.
            let logged_port =
                self.recovered.get(&self.next_serial).map(|tape| match tape.first() {
                    Some(Determinant::InputChoice(port)) => *port as usize,
                    _ => 0,
                });
            let live_port = || self.port_queues.iter().position(|q| !q.is_empty());
            let Some(port) = logged_port.or_else(live_port) else { return };
            let Some((event, enq, frame)) = self.port_queues[port].pop_front() else { return };
            let queue_wait = enq.elapsed();
            self.metrics.queue_wait_us.record_duration(queue_wait);
            self.accept_event(port as u32, event, queue_wait, frame);
        }
    }

    /// Routes one data event into processing, handling duplicates,
    /// revisions, and non-speculative parking.
    fn accept_event(&mut self, port: u32, event: Event, queue_wait: Duration, frame: FrameAt) {
        if let Some(c) = self.metrics.events_in.get(port as usize) {
            c.incr();
        }
        // Revision of an in-flight speculative input?
        if let Some(pending) = self.pending.get(&event.id).cloned() {
            let current = pending.input.lock().version;
            if event.version > current {
                self.revise_pending(&pending, event);
            }
            return; // same or older version: duplicate, silently dropped
        }
        if !self.frontiers[port as usize].admits(event.id) {
            return;
        }
        if !self.config.speculative {
            if event.speculative {
                // A non-speculative operator only consumes final events.
                self.parked.insert(event.id, (port, event, frame));
                return;
            }
            self.process_nonspec(port, event, queue_wait);
        } else {
            self.process_spec(port, event, queue_wait, frame);
        }
    }

    fn on_input_finalized(&mut self, port: u32, id: EventId, version: u32) {
        if let Some(pending) = self.pending.get(&id) {
            let mut view = pending.input.lock();
            if view.version == version {
                view.speculative = false;
                drop(view);
                maybe_authorize_pending(pending);
                return;
            }
        }
        let queue = &mut self.port_queues[port as usize];
        let is_it = |e: &Event| e.id == id && e.version == version;
        if self.config.speculative {
            // Read but not admitted yet (the node was stalled, or is
            // replaying in logged order): final when its turn comes.
            if let Some((event, ..)) = queue.iter_mut().find(|(e, ..)| is_it(e)) {
                event.speculative = false;
            }
            return;
        }
        // A non-speculative operator parks a speculative input when its
        // turn comes and processes it when the finalize arrives — behind
        // everything read before this notice. Parked already or still
        // waiting its turn, the event joins the back of the queue as
        // final: the order of processing is that of the frames, whether or
        // not the node was stalled in between.
        let parked = self.parked.remove(&id).map(|(_, event, frame)| (event, frame));
        let at = queue.iter().position(|(e, ..)| is_it(e));
        let waiting = || at.and_then(|at| queue.remove(at)).map(|(e, _, frame)| (e, frame));
        let Some((mut event, frame)) = parked.filter(|(e, _)| is_it(e)).or_else(waiting) else {
            return;
        };
        queue.retain(|(e, ..)| e.id != id); // versions it superseded
        event.speculative = false;
        queue.push_back((event, Instant::now(), frame));
    }
}
