//! Node plumbing: link endpoints, intake merging, and the per-edge
//! receive cursor.
//!
//! Each operator runs a single coordinator loop fed by one *intake*.
//! Small forwarder threads pump every upstream data link and every
//! downstream control link into the intake. The intake has **two lanes**:
//!
//! * a **bounded data lane** fed only by the data pumps — when the
//!   coordinator stops draining it (backpressure stall), the pumps block,
//!   the upstream link's window stays full, and the producer saturates in
//!   turn: backpressure propagates hop by hop instead of growing memory;
//! * an **unbounded control lane** for everything else (acks, replay
//!   requests, commit/abort notifications, log-stability callbacks,
//!   engine commands). It must never block: log tickets fire their
//!   callbacks *synchronously on the caller's thread* when the serial is
//!   already stable, so the coordinator itself sends into this lane — a
//!   bounded lane could self-deadlock. It is intrinsically bounded
//!   anyway: every message class is capped by bounded in-flight state
//!   (open transactions, the hold queue, per-edge ctrl-link windows), not
//!   by external producers.
//!
//! Receives service the control lane first so a stalled node keeps
//! serving replay requests and acks — the deadlock-freedom core of the
//! flow-control protocol. The plumbing survives operator crashes — links,
//! sequence counters and retained output buffers are exactly the state
//! that lives *outside* the failed process in the paper's model.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam_channel::{RecvTimeoutError, TryRecvError};
use streammine_net::{LinkReceiver, LinkSender};
use streammine_stm::TxnId;

use crate::message::{Control, Message};

/// Messages arriving at a node's coordinator.
#[derive(Debug)]
pub(crate) enum Intake {
    /// A message from the upstream on input port `port`, with its link
    /// sequence number.
    Upstream { port: u32, link_seq: u64, msg: Message },
    /// A control message from the downstream on output `out`.
    Downstream { out: u32, ctrl: Control },
    /// The STM committed a transaction (speculative mode).
    TxnCommitted(TxnId),
    /// The STM cascade-aborted an open transaction (speculative mode).
    TxnAborted(TxnId),
    /// A decision-log ticket for `serial` became stable.
    LogStable { serial: u64 },
    /// Engine command.
    Command(NodeCommand),
}

/// Commands the graph controller can send to a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NodeCommand {
    /// Simulate a crash: drop all volatile state and stop the loop.
    Crash,
    /// Stop cleanly after draining.
    Shutdown,
}

/// The downstream-facing half of an edge at the sending node.
///
/// While the link is severed, outgoing messages wait inside the
/// (crash-surviving) link and flow in order once it heals.
pub(crate) struct DownEdge {
    /// Data + finalize/revoke to the receiver.
    pub data_tx: LinkSender<Message>,
    /// Cumulative count of data *events* (not frames) ever put on this
    /// edge, across every incarnation of the sending node. Lives outside
    /// the node like the link itself, so a recovering node knows how many
    /// of its re-executed outputs are already on the wire and must not be
    /// appended again.
    pub events_sent: Arc<AtomicU64>,
    /// Forwarder feeding the receiver's acknowledgments into our intake
    /// (held only to keep the thread alive).
    pub _ctrl_pump: Option<JoinHandle<()>>,
}

impl fmt::Debug for DownEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DownEdge").finish()
    }
}

/// The upstream-facing half of an edge at the receiving node.
pub(crate) struct UpEdge {
    /// Control back to the sender (acks, replay requests): a severed
    /// control link delays — never loses — them.
    pub ctrl_tx: LinkSender<Control>,
    /// Forwarder feeding the sender's data into our intake.
    pub _data_pump: Option<JoinHandle<()>>,
}

impl fmt::Debug for UpEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UpEdge").finish()
    }
}

/// Spawns a forwarder pumping a data link into an intake channel.
pub(crate) fn pump_data(
    port: u32,
    rx: LinkReceiver<Message>,
    intake: IntakeSender,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("pump-data-p{port}"))
        .spawn(move || {
            while let Ok((link_seq, msg)) = rx.recv() {
                if intake.send(Intake::Upstream { port, link_seq, msg }).is_err() {
                    break;
                }
            }
        })
        .expect("spawn data pump")
}

/// Spawns a forwarder pumping a downstream control link into an intake.
pub(crate) fn pump_ctrl(
    out: u32,
    rx: LinkReceiver<Control>,
    intake: IntakeSender,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("pump-ctrl-o{out}"))
        .spawn(move || {
            while let Ok((seq, ctrl)) = rx.recv() {
                if intake.send(Intake::Downstream { out, ctrl }).is_err() {
                    break;
                }
                // Forwarded: nobody re-reads a control link.
                rx.ack_upto(seq + 1);
            }
        })
        .expect("spawn ctrl pump")
}

/// The receive cursor of one edge: the next link sequence it accepts and
/// the cumulative count of data events accepted.
///
/// A link hands its receiver consecutive sequences, and after every rewind
/// (crash replay, reconnect) consecutive sequences again from the rewind
/// point — so the cursor only has to ask "is this the sequence I expect?"
/// and drop everything else: a lower sequence is a duplicate from an
/// overlapping replay or a zombie sender; a higher one was read before a
/// rewind that is about to deliver it again, in order.
#[derive(Debug)]
pub(crate) struct EdgeCursor {
    next: u64,
    events: u64,
    /// A sequence past `next` was dropped and nothing was accepted since:
    /// only a rewind (which the replay watchdog requests) fills the gap.
    gap: bool,
}

impl EdgeCursor {
    /// A cursor expecting link sequence `seq` next — 0 on a fresh edge, a
    /// checkpoint's input position after recovery (everything below was
    /// acknowledged away upstream and is unreplayable). The event count is
    /// primed to `seq` too: on unbatched edges frames carry one event
    /// each, and only a *freshly restarted* sender consults it.
    pub fn starting_at(seq: u64) -> EdgeCursor {
        EdgeCursor { next: seq, events: seq, gap: false }
    }

    /// The next expected link sequence.
    pub fn next_seq(&self) -> u64 {
        self.next
    }

    /// Data events accepted so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Whether the cursor is waiting behind a gap.
    pub fn saw_gap(&self) -> bool {
        self.gap
    }

    /// Offers a frame; `true` when it is the expected one (the cursor
    /// advances and the caller processes it), `false` when it is dropped.
    pub fn accept(&mut self, link_seq: u64, msg: &Message) -> bool {
        if link_seq != self.next {
            self.gap |= link_seq > self.next;
            return false;
        }
        self.next += 1;
        self.events += msg.event_count() as u64;
        self.gap = false;
        true
    }
}

/// Which intake lane an [`IntakeSender`] feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lane {
    Data,
    Ctrl,
}

/// Both lanes of an intake, behind one mutex. A single lock for both lanes
/// is what lets a blocking receive wait on *either* lane with one condvar —
/// the channel stand-in has no multi-channel select, and the previous
/// slice-polling workaround cost up to 500µs of added latency per hop.
#[derive(Debug)]
struct IntakeQueues {
    data: VecDeque<Intake>,
    ctrl: VecDeque<Intake>,
    data_cap: usize,
    /// Cleared when the last [`IntakeHandle`] clone drops; senders then
    /// fail fast so pump threads exit.
    receiver_alive: bool,
}

#[derive(Debug)]
struct IntakeShared {
    inner: parking_lot::Mutex<IntakeQueues>,
    /// Signalled on every send: the coordinator waits here for messages.
    recv_cv: parking_lot::Condvar,
    /// Signalled when the data lane gains space: data pumps wait here —
    /// this blocking *is* the backpressure mechanism.
    space_cv: parking_lot::Condvar,
}

/// A cloneable producer endpoint for one intake lane.
///
/// Data-lane sends block while the lane is full (backpressure); control-lane
/// sends never block. Both fail once the receiving coordinator is gone.
#[derive(Debug, Clone)]
pub(crate) struct IntakeSender {
    shared: Arc<IntakeShared>,
    lane: Lane,
}

/// Error returned by [`IntakeSender::send`] when the receiver is gone.
#[derive(Debug)]
pub(crate) struct IntakeClosed;

impl IntakeSender {
    /// Enqueues a message on this sender's lane. Blocks on a full data
    /// lane; returns `Err` once the receiver has been dropped.
    pub fn send(&self, m: Intake) -> Result<(), IntakeClosed> {
        let mut q = self.shared.inner.lock();
        match self.lane {
            Lane::Ctrl => {
                if !q.receiver_alive {
                    return Err(IntakeClosed);
                }
                q.ctrl.push_back(m);
            }
            Lane::Data => {
                while q.receiver_alive && q.data.len() >= q.data_cap {
                    self.shared.space_cv.wait(&mut q);
                }
                if !q.receiver_alive {
                    return Err(IntakeClosed);
                }
                q.data.push_back(m);
            }
        }
        drop(q);
        self.shared.recv_cv.notify_one();
        Ok(())
    }
}

/// Drops ownership of the receiving side: the last [`IntakeHandle`] clone
/// going away marks the intake closed and wakes every blocked sender.
#[derive(Debug)]
struct ReceiverToken {
    shared: Arc<IntakeShared>,
}

impl Drop for ReceiverToken {
    fn drop(&mut self) {
        self.shared.inner.lock().receiver_alive = false;
        self.shared.space_cv.notify_all();
        self.shared.recv_cv.notify_all();
    }
}

/// The two-lane queue bundle feeding a node's coordinator. Survives
/// crashes. See the module docs for the lane semantics.
#[derive(Debug, Clone)]
pub(crate) struct IntakeHandle {
    /// Bounded data lane: data pumps only. A blocking send here *is* the
    /// backpressure mechanism.
    pub data_tx: IntakeSender,
    /// Unbounded control lane: everything that must never block.
    pub ctrl_tx: IntakeSender,
    _receiver: Arc<ReceiverToken>,
}

impl IntakeHandle {
    /// Creates an intake whose data lane holds at most `data_capacity`
    /// messages (`NodeConfig::intake_capacity`).
    pub fn new(data_capacity: usize) -> Self {
        let shared = Arc::new(IntakeShared {
            inner: parking_lot::Mutex::new(IntakeQueues {
                data: VecDeque::with_capacity(data_capacity.max(1)),
                ctrl: VecDeque::new(),
                data_cap: data_capacity.max(1),
                receiver_alive: true,
            }),
            recv_cv: parking_lot::Condvar::new(),
            space_cv: parking_lot::Condvar::new(),
        });
        IntakeHandle {
            data_tx: IntakeSender { shared: shared.clone(), lane: Lane::Data },
            ctrl_tx: IntakeSender { shared: shared.clone(), lane: Lane::Ctrl },
            _receiver: Arc::new(ReceiverToken { shared }),
        }
    }

    /// Pops the next message under the queue lock; control lane first. With
    /// `accept_data == false` (backpressure stall) the data lane is left
    /// untouched so its pumps stay blocked.
    fn pop_locked(&self, q: &mut IntakeQueues, accept_data: bool) -> Option<Intake> {
        if let Some(m) = q.ctrl.pop_front() {
            return Some(m);
        }
        if accept_data {
            if let Some(m) = q.data.pop_front() {
                self.data_tx.shared.space_cv.notify_one();
                return Some(m);
            }
        }
        None
    }

    /// Non-blocking receive; control lane first.
    pub fn try_recv(&self, accept_data: bool) -> Result<Intake, TryRecvError> {
        let mut q = self.data_tx.shared.inner.lock();
        self.pop_locked(&mut q, accept_data).ok_or(TryRecvError::Empty)
    }

    /// Blocking receive with a timeout; control lane first. Waits on the
    /// shared condvar — a send on either lane wakes it immediately, with no
    /// polling slice.
    pub fn recv_timeout(
        &self,
        timeout: Duration,
        accept_data: bool,
    ) -> Result<Intake, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut q = self.data_tx.shared.inner.lock();
        loop {
            if let Some(m) = self.pop_locked(&mut q, accept_data) {
                return Ok(m);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            let _ = self.data_tx.shared.recv_cv.wait_for(&mut q, deadline - now);
        }
    }

    /// Discards everything queued on both lanes (crash simulation:
    /// in-flight intake messages die with the process). Draining the data
    /// lane also unblocks any pump waiting on a full lane.
    pub fn drain(&self) -> usize {
        let mut q = self.data_tx.shared.inner.lock();
        let n = q.ctrl.len() + q.data.len();
        q.ctrl.clear();
        q.data.clear();
        drop(q);
        self.data_tx.shared.space_cv.notify_all();
        n
    }

    /// Messages currently queued on the bounded data lane.
    pub fn data_depth(&self) -> usize {
        self.data_tx.shared.inner.lock().data.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streammine_common::event::{Event, Value};
    use streammine_common::ids::{EventId, OperatorId};
    use streammine_net::{link, LinkConfig};

    fn msg(n: i64) -> Message {
        Message::Data(Event::new(EventId::new(OperatorId::new(0), n as u64), 0, Value::Int(n)))
    }

    #[test]
    fn cursor_accepts_only_the_expected_sequence() {
        let mut c = EdgeCursor::starting_at(0);
        assert!(c.accept(0, &msg(0)));
        // Ahead of the cursor: dropped, and remembered as a gap.
        assert!(!c.accept(2, &msg(2)));
        assert!(c.saw_gap());
        assert_eq!((c.next_seq(), c.events()), (1, 1));
        // The rewind delivers from the gap on, in order; batches count
        // events, not frames.
        let batch = Message::DataBatch(vec![
            Event::new(EventId::new(OperatorId::new(0), 10), 0, Value::Int(1)),
            Event::new(EventId::new(OperatorId::new(0), 11), 0, Value::Int(2)),
        ]);
        assert!(c.accept(1, &batch));
        assert!(!c.saw_gap());
        assert!(c.accept(2, &msg(2)));
        assert_eq!((c.next_seq(), c.events()), (3, 4));
        // Stale duplicate: dropped, and not a gap.
        assert!(!c.accept(1, &msg(1)));
        assert!(!c.saw_gap());
        assert_eq!(c.events(), 4);
    }

    #[test]
    fn cursor_resumes_at_a_checkpoint_position() {
        let mut c = EdgeCursor::starting_at(5);
        assert!(!c.accept(3, &msg(3)), "pre-checkpoint frames are stale");
        assert!(c.accept(5, &msg(5)));
        assert_eq!((c.next_seq(), c.events()), (6, 6));
    }

    #[test]
    fn data_pump_forwards_with_port_tag() {
        let (tx, rx) = link::<Message>(LinkConfig::instant());
        let intake = IntakeHandle::new(16);
        let _h = pump_data(3, rx, intake.data_tx.clone());
        tx.send(msg(7)).unwrap();
        match intake.recv_timeout(Duration::from_secs(5), true).unwrap() {
            Intake::Upstream { port, link_seq, msg: Message::Data(e) } => {
                assert_eq!(port, 3);
                assert_eq!(link_seq, 0);
                assert_eq!(e.payload, Value::Int(7));
            }
            other => panic!("unexpected intake {other:?}"),
        }
    }

    #[test]
    fn ctrl_pump_forwards_with_out_tag() {
        let (tx, rx) = link::<Control>(LinkConfig::instant());
        let intake = IntakeHandle::new(16);
        let _h = pump_ctrl(1, rx, intake.ctrl_tx.clone());
        tx.send(Control::Ack { upto: 9 }).unwrap();
        match intake.recv_timeout(Duration::from_secs(5), true).unwrap() {
            Intake::Downstream { out, ctrl: Control::Ack { upto } } => {
                assert_eq!(out, 1);
                assert_eq!(upto, 9);
            }
            other => panic!("unexpected intake {other:?}"),
        }
    }

    #[test]
    fn control_lane_is_served_before_data() {
        let intake = IntakeHandle::new(16);
        intake.data_tx.send(Intake::Upstream { port: 0, link_seq: 0, msg: msg(1) }).unwrap();
        intake.ctrl_tx.send(Intake::LogStable { serial: 5 }).unwrap();
        // Control wins even though data arrived first.
        assert!(matches!(intake.try_recv(true), Ok(Intake::LogStable { serial: 5 })));
        assert!(matches!(intake.try_recv(true), Ok(Intake::Upstream { .. })));
    }

    #[test]
    fn stalled_receive_leaves_data_lane_untouched() {
        let intake = IntakeHandle::new(16);
        intake.data_tx.send(Intake::Upstream { port: 0, link_seq: 0, msg: msg(1) }).unwrap();
        assert!(intake.try_recv(false).is_err(), "data must stay queued while stalled");
        assert_eq!(intake.data_depth(), 1);
        assert!(matches!(intake.try_recv(true), Ok(Intake::Upstream { .. })));
    }

    #[test]
    fn full_data_lane_blocks_pump_until_drained() {
        let (tx, rx) = link::<Message>(LinkConfig::instant());
        let intake = IntakeHandle::new(1);
        let _h = pump_data(0, rx, intake.data_tx.clone());
        tx.send(msg(1)).unwrap();
        tx.send(msg(2)).unwrap();
        tx.send(msg(3)).unwrap();
        // Lane capacity 1: the pump holds one message blocked in send; the
        // third stays on the link until the coordinator drains.
        let first = intake.recv_timeout(Duration::from_secs(5), true).unwrap();
        assert!(matches!(first, Intake::Upstream { link_seq: 0, .. }));
        let second = intake.recv_timeout(Duration::from_secs(5), true).unwrap();
        assert!(matches!(second, Intake::Upstream { link_seq: 1, .. }));
        let third = intake.recv_timeout(Duration::from_secs(5), true).unwrap();
        assert!(matches!(third, Intake::Upstream { link_seq: 2, .. }));
    }
}
