//! Running an admitted event, and STM cascade rollback: an input revised
//! or revoked upstream, a transaction aborted by a conflict. Rollback
//! re-executes serials above the frontier and never moves it.
//!
//! # The two execution modes (§2.3, §2.4)
//!
//! * **Non-speculative**: events are processed sequentially; outputs are
//!   *held* until every decision record of the event is stable on disk —
//!   each was appended the moment the decision was taken, so the write
//!   runs beside the operator — then sent as final. A speculative input
//!   event is parked until its finalize arrives — a non-speculative
//!   operator only consumes and produces final events.
//! * **Speculative**: each event runs as an STM transaction; outputs are
//!   sent immediately, tagged speculative when anything about them may
//!   still change (speculative inputs, open dependencies, unstable log).
//!   When the transaction commits — inputs final + log stable +
//!   dependencies committed, in timestamp order — `Finalize` control
//!   messages upgrade the outputs downstream. Rollbacks re-execute the
//!   event and re-emit revised outputs under a bumped version.

use super::*;

impl Node {
    /// The decision tape of the event admitted at `serial` from `port`:
    /// what recovery read from the log for it, and on a multi-input node
    /// the merge's choice as entry 0 (§1's union-order rule) — read back
    /// if recovered, taken and logged now otherwise. The live generator
    /// steps over each recovered draw here, once per serial however often
    /// the event then executes, so a draw past the recovered prefix, and
    /// every later event's, continues the stream of the run that crashed.
    fn open_tape(&mut self, serial: u64, port: u32, traced: bool) -> Tape {
        let recovered = self.recovered.remove(&serial).unwrap_or_default();
        debug_assert!(
            self.recovered.keys().all(|&s| s > serial),
            "a tape read back below serial {serial} is left over: replay must ignore it"
        );
        let draws = recovered.iter().filter(|d| matches!(d, Determinant::Random(_))).count();
        if draws > 0 {
            let mut rng = self.rng.lock();
            for _ in 0..draws {
                let _ = rng.next_u64();
            }
        }
        let tape = Tape::new(serial, traced, recovered);
        if self.up.len() > 1 {
            let log = self.send_view.decisions.as_ref();
            tape.decide(0, log, || Determinant::InputChoice(port));
        }
        tape
    }

    /// Admits `event` from `port` into processing: the next serial, its
    /// trace span and journal record, its decision tape.
    fn admit(&mut self, port: u32, event: &Event, queue_wait: Duration) -> (u64, Tape) {
        let serial = self.next_serial;
        self.next_serial += 1;
        if let Some(ctx) = event.trace {
            self.obs.tracer.begin_span(
                ctx.id,
                ctx.parent,
                self.id.index(),
                serial,
                queue_wait.as_micros() as u64,
            );
        }
        self.obs.journal.record_traced(
            Some(self.id.index()),
            event.trace.map(|c| c.id),
            JournalKind::Ingest { serial, port },
        );
        let tape = self.open_tape(serial, port, event.trace.is_some());
        (serial, tape)
    }

    // Non-speculative path

    pub(super) fn process_nonspec(&mut self, port: u32, event: Event, queue_wait: Duration) {
        if self.approx.as_mut().is_some_and(ApproxState::skips) {
            // Approximate resume window: this replayed input's output is
            // already on the wire downstream. Consume its serial without
            // running the operator so later output ids stay aligned with
            // the fault-free run; its dropped state update is the loss the
            // budget charged at resume.
            self.next_serial += 1;
            self.frontiers[port as usize].consume(event.id);
            return;
        }
        let (serial, tape) = self.admit(port, &event, queue_wait);
        let trace_id = event.trace.map(|c| c.id);
        let mut ctx = OpCtx {
            registry: &self.registry,
            access: StateAccess::Plain,
            outputs: Vec::new(),
            tape: &tape,
            drawn: usize::from(self.up.len() > 1),
            log: self.send_view.decisions.as_ref(),
            rng: &self.rng,
            clock: &self.clock,
            input_port: PortId(port),
            input_ts: event.timestamp,
        };
        let process_start = Instant::now();
        let process_result = self.operator.process(&mut ctx, &event);
        let process_took = process_start.elapsed();
        self.metrics.process_us.record_duration(process_took);
        if event.trace.is_some() {
            self.obs.tracer.record_process(
                self.id.index(),
                serial,
                process_took.as_micros() as u64,
            );
        }
        if process_result.is_err() {
            // StmAbort cannot legitimately occur outside speculative mode;
            // treat it as an operator bug and drop the event's outputs
            // rather than killing the coordinator.
            self.obs.journal.warn(
                Some(self.id.index()),
                "plain-mode-abort",
                format!("process aborted on {}; outputs dropped", event.id),
            );
        }
        let child = event.trace.map(|c| c.child(span_key(self.id.index(), serial)));
        let outputs =
            assign_output_ids(self.id, serial, event.timestamp, &ctx.outputs, false, child);
        drop(ctx);

        self.frontiers[port as usize].consume(event.id);

        // Hold the outputs until every decision the event took is stable
        // (§2.4) — each record has been on its way since it was taken.
        // Nothing taken live (deterministic, or all of it read back from
        // the log) or stable already: forward now, unless earlier outputs
        // are still held, which go first.
        if self.hold_queue.is_empty() && tape.is_stable() {
            if trace_id.is_some() {
                self.obs.tracer.record_commit(self.id.index(), serial, 0);
            }
            self.send_outputs_final(outputs);
        } else {
            self.hold_queue.push_back((serial, HeldOutput { tape, outputs, trace: trace_id }));
        }
        self.maybe_checkpoint();
    }

    // Speculative path

    pub(super) fn process_spec(
        &mut self,
        port: u32,
        event: Event,
        queue_wait: Duration,
        frame: FrameAt,
    ) {
        let put: Arc<[Tally]> = self.down.iter().map(|_| Tally::default()).collect();
        self.note_admitted(self.next_serial, port, event.id, frame, &put);
        let (serial, tape) = self.admit(port, &event, queue_wait);
        let stm = self.stm.as_ref().expect("speculative node has an stm");
        let handle = stm.begin(Serial(serial));
        let pending = Arc::new(PendingTxn {
            serial,
            input_id: event.id,
            port,
            input_ts: event.timestamp,
            started: Instant::now(),
            rollbacks: AtomicU64::new(0),
            input: Mutex::new(InputView {
                version: event.version,
                payload: event.payload.clone(),
                speculative: event.speculative,
            }),
            handle: handle.clone(),
            attempt: Mutex::new(None),
            applied_gen: AtomicU64::new(0),
            tape,
            sent: Mutex::new(Vec::new()),
            put,
            finalized: AtomicBool::new(false),
            attempts_pending: AtomicU64::new(0),
            trace: event.trace,
        });
        self.pending.insert(event.id, pending.clone());
        self.pending_by_txn.insert(handle.id(), event.id);
        self.pending_by_serial.insert(serial, event.id);
        self.spawn_attempt(pending);
    }

    /// Runs (or re-runs) the processing transaction for `pending`.
    fn spawn_attempt(&self, pending: Arc<PendingTxn>) {
        // Frontier invariant: what the last checkpoint covers never runs
        // again.
        debug_assert!(
            pending.serial >= self.checkpoint_serial,
            "serial {} runs below the checkpoint's {}",
            pending.serial,
            self.checkpoint_serial
        );
        pending.attempts_pending.fetch_add(1, Ordering::SeqCst);
        let stm = self.stm.as_ref().expect("speculative node").clone();
        let operator = self.operator.clone();
        let registry = self.registry.clone();
        let rng = self.rng.clone();
        let clock = self.clock.clone();
        let first_draw = usize::from(self.up.len() > 1);
        let process_us = self.metrics.process_us.clone();
        let attempt_tracer = pending.trace.is_some().then(|| self.obs.tracer.clone());
        let op_index = self.id.index();
        let node_view = self.send_view.clone();
        let run = move || {
            let body = |txn: &mut streammine_stm::Txn<'_>| -> Result<(), StmAbort> {
                let view = pending.input.lock().clone();
                let event = Event {
                    id: pending.input_id,
                    version: view.version,
                    timestamp: pending.input_ts,
                    speculative: view.speculative,
                    payload: view.payload,
                    trace: pending.trace,
                };
                let generation = txn.generation();
                let mut ctx = OpCtx {
                    registry: &registry,
                    access: StateAccess::Txn(txn),
                    outputs: Vec::new(),
                    tape: &pending.tape,
                    drawn: first_draw,
                    log: node_view.decisions.as_ref(),
                    rng: &rng,
                    clock: &clock,
                    input_port: PortId(pending.port),
                    input_ts: pending.input_ts,
                };
                let process_start = Instant::now();
                let process_result = operator.process(&mut ctx, &event);
                let process_took = process_start.elapsed();
                process_us.record_duration(process_took);
                if let Some(tracer) = &attempt_tracer {
                    tracer.record_process(
                        op_index,
                        pending.serial,
                        process_took.as_micros() as u64,
                    );
                }
                process_result?;
                // The generation tag orders diff application across
                // concurrently finishing attempts.
                *pending.attempt.lock() = Some((generation, ctx.outputs));
                Ok(())
            };
            if stm.reexecute(&pending.handle, body).is_ok() {
                node_view.after_publish(&pending);
            }
            // Only after the attempt's outputs are fully on the wire may
            // the commit gate re-open.
            pending.attempts_pending.fetch_sub(1, Ordering::SeqCst);
            maybe_authorize_pending(&pending, &node_view.cut_at);
        };
        match &self.pool {
            Some(pool) => pool.execute(run),
            None => run(),
        }
    }

    pub(super) fn revise_pending(&mut self, pending: &Arc<PendingTxn>, event: Event) {
        // The input was replaced by a newer speculative version (§3.1,
        // E1′ → E1″): revoke and re-execute with the new content.
        let Event { version, payload, speculative, .. } = event;
        *pending.input.lock() = InputView { version, payload, speculative };
        pending.handle.revoke();
        self.spawn_attempt(pending.clone());
    }

    pub(super) fn on_input_revoked(&mut self, port: u32, id: EventId) {
        self.parked.remove(&id);
        self.port_queues[port as usize].retain(|(e, ..)| e.id != id);
        if let Some(pending) = self.pending.remove(&id) {
            self.pending_by_txn.remove(&pending.handle.id());
            self.pending_by_serial.remove(&pending.serial);
            // Revoke our outputs downstream, then drop the transaction.
            {
                let sent = pending.sent.lock();
                self.spec_retained.fetch_sub(sent.len() as i64, Ordering::Relaxed);
                for (event, target) in sent.iter() {
                    for (out, edge) in self.down.iter().enumerate() {
                        if routes_to(*target, out) {
                            edge.data_tx.push(Message::Control(Control::Revoke { id: event.id }));
                        }
                    }
                }
            }
            pending.handle.discard();
        }
        // The lowest open serial may have been this one.
        self.maybe_checkpoint();
    }

    /// The open transaction `txn` is the execution of, if any is.
    fn pending_txn(&self, txn: TxnId) -> Option<Arc<PendingTxn>> {
        self.pending_by_txn.get(&txn).and_then(|id| self.pending.get(id)).cloned()
    }

    pub(super) fn on_txn_committed(&mut self, txn: TxnId) {
        let Some(pending) = self.pending_txn(txn) else { return };
        let id = pending.input_id;
        // Upgrade all sent outputs to final downstream. Holding the sent
        // lock while sending orders these finalizes after every attempt's
        // output diff and blocks any straggler diff from revising or
        // revoking a finalized output afterwards (it observes `finalized`
        // under the same lock).
        {
            let sent = pending.sent.lock();
            pending.finalized.store(true, Ordering::Release);
            // Finalized outputs stop counting against the retained-
            // speculation admission cap.
            self.spec_retained.fetch_sub(sent.len() as i64, Ordering::Relaxed);
            for (event, target) in sent.iter().filter(|(event, _)| event.speculative) {
                for (out, edge) in self.down.iter().enumerate() {
                    if !routes_to(*target, out) {
                        continue;
                    }
                    let tally = &pending.put[out];
                    tally.finals.fetch_add(1, Ordering::AcqRel);
                    if !swallow(&self.resend[out].finals) {
                        edge.sent.finals.fetch_add(1, Ordering::AcqRel);
                        let (id, version) = (event.id, event.version);
                        let pushed =
                            edge.data_tx.push(Message::Control(Control::Finalize { id, version }));
                        tally.finals_end.fetch_max(pushed.seq() + 1, Ordering::AcqRel);
                    }
                }
            }
        }
        self.metrics.spec_finalized.incr();
        let gate = pending.started.elapsed();
        self.metrics.commit_gate_us.record_duration(gate);
        if pending.trace.is_some() {
            self.obs.tracer.record_commit(self.id.index(), pending.serial, gate.as_micros() as u64);
        }
        self.obs.journal.record_traced(
            Some(self.id.index()),
            pending.trace.map(|c| c.id),
            JournalKind::Commit { serial: pending.serial },
        );
        self.frontiers[pending.port as usize].consume(id);
        self.pending.remove(&id);
        self.pending_by_txn.remove(&txn);
        self.pending_by_serial.remove(&pending.serial);
        self.maybe_checkpoint();
    }

    pub(super) fn on_txn_aborted(&mut self, txn: TxnId) {
        let Some(pending) = self.pending_txn(txn) else { return };
        self.metrics.spec_rollbacks.incr();
        let depth = pending.rollbacks.fetch_add(1, Ordering::Relaxed) + 1;
        if pending.trace.is_some() {
            // Attribute the cascade to its originating determinant (the
            // deepest still-uncommitted ancestor span).
            self.obs.tracer.record_rollback(self.id.index(), pending.serial);
        }
        self.obs.journal.record_traced(
            Some(self.id.index()),
            pending.trace.map(|c| c.id),
            JournalKind::Rollback { serial: pending.serial, cascade_depth: depth as u32 },
        );
        // Cascade abort: re-execute the event (§3: rollback + re-execution).
        self.spawn_attempt(pending);
    }
}

/// Opens the commit gate when (and only when) every condition holds: no
/// attempt is mid-flight (its outputs must hit the wire before any
/// finalize can, and it may still take decisions), every decision on the
/// tape is stable, the input event is final, and the serial lies below
/// `cut_at` — the serial the node's next committed-prefix image is taken
/// at waits for that image (see [`super::cut`]).
///
/// A pool thread ends an attempt and then reads `cut_at`; the coordinator
/// moves `cut_at` and then reads the attempt count. Both sides store and
/// load `SeqCst`, so at least one of them sees the other's store and
/// authorizes: with a weaker store both could read the old values.
pub(super) fn maybe_authorize_pending(pending: &Arc<PendingTxn>, cut_at: &AtomicU64) {
    if pending.attempts_pending.load(Ordering::SeqCst) != 0
        || pending.serial >= cut_at.load(Ordering::SeqCst)
    {
        return;
    }
    if pending.tape.is_stable() && !pending.input.lock().speculative {
        pending.handle.authorize();
    }
}

/// Deterministically derives output event ids from the input serial: the
/// k-th output of the event at `serial` is `op#(serial << 16 | k)`, which
/// replays to the identical id after recovery.
pub(super) fn assign_output_ids(
    op: OperatorId,
    serial: u64,
    ts: u64,
    payloads: &[(Option<u32>, Value)],
    speculative: bool,
    trace: Option<TraceCtx>,
) -> Vec<(Event, Option<u32>)> {
    assert!(
        (payloads.len() as u64) < MAX_OUTPUTS_PER_EVENT,
        "operator emitted too many outputs for one event"
    );
    payloads
        .iter()
        .enumerate()
        .map(|(k, (target, p))| {
            (
                Event {
                    id: EventId::new(op, (serial << 16) | k as u64),
                    version: 0,
                    timestamp: ts,
                    speculative,
                    payload: p.clone(),
                    trace,
                },
                *target,
            )
        })
        .collect()
}
