//! Running an admitted event, and STM cascade rollback: an input revised
//! or revoked upstream, a transaction aborted by a conflict. Rollback
//! re-executes serials above the frontier and never moves it.
//!
//! # One execution path (§2.3, §2.4)
//!
//! Every admitted event runs as an STM transaction, which commits once its
//! input is final, every decision it took is stable — each record was
//! appended the moment the decision was taken, so the write runs beside
//! the operator — and, in timestamp order, every earlier serial committed.
//! Whether the operator is speculative decides only when the outputs go
//! out:
//!
//! * **Speculative**: at once, tagged speculative while anything about
//!   them may still change. When the transaction commits, `Finalize`
//!   control messages upgrade them downstream; a rollback re-executes the
//!   event and re-emits revised outputs under a bumped version. Attempts
//!   may run on a pool of STM threads.
//! * **Non-speculative**: nothing before the commit, and then the outputs
//!   go out final, in serial order, batched per edge. Such a node runs
//!   one event at a time on its coordinator, and a speculative input event
//!   is parked until its finalize arrives — it only consumes and produces
//!   final events.

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
            let mut rng = self.runner.rng.lock();
            for _ in 0..draws {
                let _ = rng.next_u64();
            }
        }
        let tape = Tape::new(serial, traced, recovered);
        if self.inbox.inputs.len() > 1 {
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

    /// Runs `event`, read from `port` in `frame`, as the transaction of the
    /// next serial.
    pub(super) fn execute(
        &mut self,
        port: u32,
        event: Event,
        queue_wait: Duration,
        frame: FrameAt,
    ) {
        let put: Arc<[Tally]> = self.down.iter().map(|_| Tally::default()).collect();
        self.note_admitted(self.next_serial, port, event.id, frame, &put);
        let (serial, tape) = self.admit(port, &event, queue_wait);
        let handle = self.stm.begin(Serial(serial));
        let pending = Arc::new(PendingTxn {
            serial,
            input_id: event.id,
            port,
            input_ts: event.timestamp,
            started: Instant::now(),
            rollbacks: AtomicU64::new(0),
            input: Mutex::new(InputView {
                version: event.version,
                payload: event.payload,
                speculative: event.speculative,
            }),
            handle,
            attempt: Mutex::new(None),
            applied_gen: AtomicU64::new(0),
            tape,
            sent: Mutex::new(Vec::new()),
            put,
            finalized: AtomicBool::new(false),
            attempts_pending: AtomicU64::new(0),
            trace: event.trace,
        });
        self.spawn_attempt(pending.clone());
        // A non-speculative attempt runs here, on the coordinator. One that
        // committed during it, with nothing before it open, sends its
        // outputs now, before the next event is admitted; the notice of
        // its commit then finds nothing to do.
        let settled = !self.config.speculative && self.pending.is_empty();
        if settled && pending.handle.status() == TxnStatus::Committed {
            self.committed(&pending);
            return;
        }
        self.pending_by_txn.insert(pending.handle.id(), event.id);
        self.pending_by_serial.insert(serial, event.id);
        self.pending.insert(event.id, pending);
    }

    /// Runs (or re-runs) the processing transaction for `pending`: on the
    /// node's pool if it has one, here otherwise.
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
        match &self.pool {
            Some(pool) => {
                let runner = self.runner.clone();
                pool.execute(move || runner.run(&pending));
            }
            None => self.runner.run(&pending),
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

    /// Transaction `txn` committed; `false` when it is not the node's
    /// open transaction (any more).
    pub(super) fn on_txn_committed(&mut self, txn: TxnId) -> bool {
        let Some(pending) = self.pending_txn(txn) else { return false };
        self.pending.remove(&pending.input_id);
        self.pending_by_txn.remove(&txn);
        self.pending_by_serial.remove(&pending.serial);
        self.committed(&pending);
        true
    }

    /// `pending`'s transaction committed: its outputs go out final — as
    /// finalizes of what a speculative attempt published, or sent now —
    /// and its input is consumed for good.
    fn committed(&mut self, pending: &PendingTxn) {
        let gate = if self.config.speculative {
            self.finalize_sent(pending);
            self.metrics.spec_finalized.incr();
            let gate = pending.started.elapsed();
            self.metrics.commit_gate_us.record_duration(gate);
            gate.as_micros() as u64
        } else {
            // Nothing went out before the commit: the outputs of the
            // attempt that committed go out now, final.
            let (_, outputs) = pending.attempt.lock().take().unwrap_or_default();
            let child = pending.trace.map(|c| c.child(span_key(self.id.index(), pending.serial)));
            let ts = pending.input_ts;
            let outputs = assign_output_ids(self.id, pending.serial, ts, &outputs, false, child);
            self.send_outputs_final(outputs, &pending.put);
            0
        };
        if pending.trace.is_some() {
            self.obs.tracer.record_commit(self.id.index(), pending.serial, gate);
        }
        self.obs.journal.record_traced(
            Some(self.id.index()),
            pending.trace.map(|c| c.id),
            JournalKind::Commit { serial: pending.serial },
        );
        self.frontiers[pending.port as usize].consume(pending.input_id);
        self.maybe_checkpoint();
    }

    /// Upgrades every output `pending` sent to final downstream. Holding
    /// the sent lock while sending orders these finalizes after every
    /// attempt's output diff and blocks any straggler diff from revising or
    /// revoking a finalized output afterwards (it observes `finalized`
    /// under the same lock).
    fn finalize_sent(&self, pending: &PendingTxn) {
        let sent = pending.sent.lock();
        pending.finalized.store(true, Ordering::Release);
        // Finalized outputs stop counting against the retained-speculation
        // admission cap.
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

/// What an attempt needs, shared by every attempt of the node: built once,
/// so an attempt on the coordinator clones nothing and one on a pool
/// thread one `Arc`.
pub(super) struct Runner {
    pub(super) stm: StmRuntime,
    pub(super) operator: Arc<dyn Operator>,
    pub(super) registry: Arc<StateRegistry>,
    pub(super) rng: Arc<Mutex<DetRng>>,
    pub(super) clock: SharedClock,
    /// The tape entry the operator's first draw takes: 1 on a multi-input
    /// node, whose entry 0 is the merge's choice.
    pub(super) first_draw: usize,
    pub(super) process_us: Histogram,
    pub(super) tracer: Arc<Tracer>,
    pub(super) send_view: Arc<NodeSendView>,
    /// Whether an attempt publishes its outputs at once (a speculative
    /// node); a non-speculative attempt's wait in its capture for the
    /// commit.
    pub(super) publishes: bool,
}

impl Runner {
    /// Runs one attempt of `pending`'s transaction, publishes its outputs
    /// if the node speculates, and then re-evaluates its commit gate.
    fn run(&self, pending: &Arc<PendingTxn>) {
        let op_index = self.send_view.id.index();
        let log = self.send_view.decisions.as_ref();
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
                registry: &self.registry,
                txn,
                outputs: Vec::new(),
                tape: &pending.tape,
                drawn: self.first_draw,
                log,
                rng: &self.rng,
                clock: &self.clock,
                input_port: PortId(pending.port),
                input_ts: pending.input_ts,
            };
            let process_start = Instant::now();
            let process_result = self.operator.process(&mut ctx, &event);
            let process_took = process_start.elapsed();
            self.process_us.record_duration(process_took);
            if pending.trace.is_some() {
                let took = process_took.as_micros() as u64;
                self.tracer.record_process(op_index, pending.serial, took);
            }
            process_result?;
            // The generation tag orders diff application across
            // concurrently finishing attempts.
            *pending.attempt.lock() = Some((generation, ctx.outputs));
            Ok(())
        };
        if self.stm.reexecute(&pending.handle, body).is_ok() && self.publishes {
            self.send_view.after_publish(pending);
        }
        // Only after the attempt's outputs are fully on the wire may the
        // commit gate re-open.
        pending.attempts_pending.fetch_sub(1, Ordering::SeqCst);
        maybe_authorize_pending(pending, &self.send_view.cut_at);
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
