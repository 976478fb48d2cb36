//! Node plumbing: the inbox a coordinator reads and the edge halves it
//! writes.
//!
//! Each operator is one coordinator loop that reads its own connections
//! (§2.3). Everything it reads sits in one [`Inbox`]:
//!
//! * its **input rings**, one per port — data, finalize / revoke and EOF
//!   from the upstream, read by cursor. The ring's window is the whole of
//!   backpressure: what a stalled coordinator does not read stays unread
//!   in the ring, the window fills and the producer saturates in turn, hop
//!   by hop, with no second queue in between;
//! * its **downstream control rings**, one per output — acks,
//!   acknowledged as they are read (nobody re-reads a control link);
//! * one unbounded **notice queue** for what is not an edge: log-stability
//!   callbacks, STM commits and aborts, engine commands, and the control
//!   frames a bridge read off its socket. It must never block — a log
//!   ticket fires its callback *synchronously on the caller's thread* when
//!   the serial is already stable, so the coordinator itself posts here —
//!   and it is bounded anyway by bounded in-flight state (open
//!   transactions, the hold queue, the control windows);
//! * one **waker** all of them signal, the only place the coordinator
//!   sleeps. The consumer of each output ring signals it too, on its
//!   first read after the coordinator found that window full.
//!
//! The coordinator serves notices and control rings first, so a stalled
//! node keeps applying acks — the deadlock-freedom core of the
//! flow-control protocol. The inbox survives operator crashes — links,
//! sequence counters and retained output buffers are exactly the state
//! that lives *outside* the failed process in the paper's model; only the
//! notices in flight die with it. That is also the whole of upstream
//! replay: a recovering node moves the cursor of each input ring back to
//! its checkpoint's position ([`LinkReceiver::rewind_to`]) and reads on.
//! Nothing is asked of the upstream, so nothing can be lost, retried or
//! answered twice.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use streammine_net::{LinkReceiver, LinkSender, Waker};
use streammine_stm::TxnId;

use crate::message::{Control, Message};

/// What reaches a node's coordinator other than over a ring.
#[derive(Debug)]
pub(crate) enum Notice {
    /// A control message from the downstream on output `out` that a bridge
    /// read off its socket (in process it comes over a control ring).
    Downstream { out: u32, ctrl: Control },
    /// The STM committed a transaction (speculative mode).
    TxnCommitted(TxnId),
    /// The STM cascade-aborted an open transaction (speculative mode).
    TxnAborted(TxnId),
    /// Every decision record appended for `serial` is stable.
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

/// What an edge carries already, as a recovering sender subtracts it from
/// the output it re-derives. Lives outside the node like the link itself.
#[derive(Debug, Default)]
pub(crate) struct Sent {
    /// Cumulative count of data *events* (not frames) ever put on the
    /// edge, across every incarnation of the sending node.
    pub events: AtomicU64,
    /// Cumulative count of `Finalize` notices put on the edge. Only a
    /// speculative sender sends any; it sends no final data, so this is
    /// how many of its events the receiver knows to be final.
    pub finals: AtomicU64,
    /// Whether the counts are the receiver's cursor, told at the handshake
    /// of a new sender process, rather than this ring's own sends. A new
    /// process starts on an empty ring: what the receiver counted is all
    /// that is left of its predecessor's output, the receiver keeps
    /// counting whatever arrives, and so every re-derived output below the
    /// count must be swallowed, speculative or not. In process the ring
    /// survives the node, a speculative node's sends are not a function of
    /// the count (threads, revisions), and it re-sends instead: the
    /// downstream drops by event id.
    pub by_receiver: bool,
}

/// The downstream-facing half of an edge at the sending node.
///
/// While the link is severed, outgoing messages wait inside the
/// (crash-surviving) link and flow in order once it heals.
#[derive(Clone)]
pub(crate) struct DownEdge {
    /// Data + finalize/revoke to the receiver.
    pub data_tx: LinkSender<Message>,
    pub sent: Arc<Sent>,
}

impl fmt::Debug for DownEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DownEdge").field("sent", &self.sent).finish()
    }
}

/// Everything one coordinator reads, behind one waker. See the module
/// docs.
#[derive(Debug)]
pub(crate) struct Inbox {
    /// The input rings, by port.
    pub inputs: Vec<LinkReceiver<Message>>,
    /// The downstream control rings, by output (none where a bridge
    /// carries the edge: its control arrives as notices).
    pub ctrls: Vec<LinkReceiver<Control>>,
    notices: Mutex<VecDeque<Notice>>,
    waker: Waker,
}

impl Inbox {
    /// An inbox over the given rings; each signals the inbox's waker from
    /// now on.
    pub fn new(
        inputs: Vec<LinkReceiver<Message>>,
        ctrls: Vec<LinkReceiver<Control>>,
    ) -> Arc<Inbox> {
        let waker = Waker::new();
        inputs.iter().for_each(|rx| rx.set_waker(waker.clone()));
        ctrls.iter().for_each(|rx| rx.set_waker(waker.clone()));
        Arc::new(Inbox { inputs, ctrls, notices: Mutex::new(VecDeque::new()), waker })
    }

    /// Queues a notice and wakes the coordinator. Never blocks.
    pub fn post(&self, notice: Notice) {
        self.notices.lock().push_back(notice);
        self.waker.wake();
    }

    /// Moves every queued notice, in order, into the empty `into` (whose
    /// storage the queue takes over, so a steady state allocates nothing).
    pub fn take_notices(&self, into: &mut VecDeque<Notice>) {
        debug_assert!(into.is_empty());
        std::mem::swap(&mut *self.notices.lock(), into);
    }

    /// Makes the consumer of the node's output ring `out` signal this
    /// inbox when it reads on after the node found the window full: the
    /// read is what ends a backpressure stall.
    pub fn wake_on_room(&self, out: &LinkSender<Message>) {
        out.set_waker(self.waker.clone());
    }

    /// Sleeps until a ring or the notice queue signals, or `deadline` if
    /// there is one; `false` when the deadline came first. A signal since
    /// the last park returns at once — poll everything, *then* park.
    pub fn park(&self, deadline: Option<Instant>) -> bool {
        self.waker.park(deadline)
    }

    /// Discards the queued notices (crash simulation: they die with the
    /// process; the rings are what survives).
    pub fn drain(&self) {
        self.notices.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use streammine_common::event::{Event, Value};
    use streammine_common::ids::{EventId, OperatorId};
    use streammine_net::{link, LinkConfig};

    fn msg(n: i64) -> Message {
        Message::Data(Event::new(EventId::new(OperatorId::new(0), n as u64), 0, Value::Int(n)))
    }

    #[test]
    fn notices_are_taken_in_order_and_die_with_a_crash() {
        let inbox = Inbox::new(Vec::new(), Vec::new());
        inbox.post(Notice::LogStable { serial: 1 });
        inbox.post(Notice::LogStable { serial: 2 });
        let mut got = VecDeque::new();
        inbox.take_notices(&mut got);
        let serials: Vec<u64> = got
            .drain(..)
            .map(|n| match n {
                Notice::LogStable { serial } => serial,
                other => panic!("unexpected notice {other:?}"),
            })
            .collect();
        assert_eq!(serials, vec![1, 2]);
        inbox.post(Notice::Command(NodeCommand::Shutdown));
        inbox.drain();
        inbox.take_notices(&mut got);
        assert!(got.is_empty());
    }

    /// Several producers over several rings plus the notice queue, one
    /// consumer on the waker: everything sent is consumed, in per-ring
    /// order, and the consumer never sleeps out a park while something is
    /// readable — a signal between its last poll and its park is kept.
    #[test]
    fn one_consumer_drains_many_producers_without_a_lost_wakeup() {
        const RINGS: usize = 3;
        const PER_PRODUCER: u64 = 2_000;
        /// Far longer than any hand-over; a park that lasts this long with
        /// something readable slept through its signal.
        const PARK: Duration = Duration::from_millis(500);

        // Tiny windows, so producers also block on the consumer's cursor.
        let (data_txs, data_rxs): (Vec<_>, Vec<_>) =
            (0..RINGS).map(|_| link::<Message>(LinkConfig::instant().with_capacity(4))).unzip();
        let (ctrl_txs, ctrl_rxs): (Vec<_>, Vec<_>) =
            (0..RINGS).map(|_| link::<Control>(LinkConfig::instant().with_capacity(4))).unzip();
        let inbox = Inbox::new(data_rxs, ctrl_rxs);
        let total = PER_PRODUCER * (2 * RINGS as u64 + 1);

        std::thread::scope(|s| {
            for tx in &data_txs {
                s.spawn(move || {
                    for n in 0..PER_PRODUCER {
                        tx.send_blocking(msg(n as i64)).unwrap();
                    }
                });
            }
            for tx in &ctrl_txs {
                s.spawn(move || {
                    for n in 0..PER_PRODUCER {
                        tx.send_blocking(Control::Ack { upto: n }).unwrap();
                    }
                });
            }
            let notifier = inbox.clone();
            s.spawn(move || {
                for serial in 0..PER_PRODUCER {
                    notifier.post(Notice::LogStable { serial });
                }
            });

            let mut next_data = [0u64; RINGS];
            let mut next_ctrl = [0u64; RINGS];
            let mut next_notice = 0u64;
            let mut notices = VecDeque::new();
            let mut consumed = 0u64;
            while consumed < total {
                let before = consumed;
                inbox.take_notices(&mut notices);
                for notice in notices.drain(..) {
                    assert!(
                        matches!(notice, Notice::LogStable { serial } if serial == next_notice)
                    );
                    next_notice += 1;
                    consumed += 1;
                }
                for (ring, rx) in inbox.ctrls.iter().enumerate() {
                    while let Some((seq, ctrl)) = rx.try_recv().unwrap() {
                        assert_eq!((seq, ctrl), (next_ctrl[ring], Control::Ack { upto: seq }));
                        rx.ack_upto(seq + 1);
                        next_ctrl[ring] += 1;
                        consumed += 1;
                    }
                }
                for (ring, rx) in inbox.inputs.iter().enumerate() {
                    // One frame per ring per pass: the consumer parks often.
                    if let Some((seq, _)) = rx.try_recv().unwrap() {
                        assert_eq!(seq, next_data[ring]);
                        next_data[ring] += 1;
                        consumed += 1;
                    }
                }
                if consumed == before {
                    let parked_at = Instant::now();
                    let signalled = inbox.park(Some(parked_at + PARK));
                    assert!(
                        signalled,
                        "slept {:?} through a wake-up at {consumed}/{total}",
                        parked_at.elapsed()
                    );
                }
            }
        });
    }
}
