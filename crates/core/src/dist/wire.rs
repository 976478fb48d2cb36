//! Wire protocol of the distributed runtime.
//!
//! Two independent lanes, both carried as CRC-framed transport payloads
//! (`streammine_net::Transport`):
//!
//! * **Data lane** ([`DistFrame`]) — one full-duplex connection per graph
//!   edge, dialed by the *sending* side. The connection opens with an
//!   [`DistFrame::EdgeHello`] / [`DistFrame::Welcome`] handshake that
//!   tells the sender where the receiver's cursor stands, enabling
//!   resend-from-ack after a reconnect and output suppression after a
//!   sender restart. Data frames carry the link sequence number assigned
//!   by the sender's retained link, so replayed frames keep their
//!   original positions. What they carry is speculative between precise
//!   workers: an event goes out flagged `speculative` before its sender's
//!   decision log is stable, and a `Control::Finalize` (or `Revoke`)
//!   follows it on the same lane, in order, once the sender committed.
//!   Control frames flow the *other* way on the same socket (acks, replay
//!   requests).
//! * **Control lane** ([`CtrlMsg`]) — one connection per worker process,
//!   dialed by the worker at startup. Workers introduce themselves with
//!   [`CtrlMsg::Hello`] (carrying their data listener address), then renew
//!   their lease with [`CtrlMsg::Beat`]; the parent pushes edge wiring
//!   ([`CtrlMsg::Wire`]), fault-injection commands ([`CtrlMsg::Fault`]),
//!   and fencing ([`CtrlMsg::Fence`]) for stale incarnations.

use streammine_common::codec::{Decode, DecodeError, Decoder, Encode, Encoder};
use streammine_obs::TelemetryReport;

use crate::message::{Control, Message};

/// A frame on a data-edge connection.
#[derive(Debug, Clone, PartialEq)]
pub enum DistFrame {
    /// First frame on every connection, sent by the dialing (sending)
    /// side: which edge this connection serves and the sender's
    /// incarnation number.
    EdgeHello {
        /// Edge id (graph-global).
        edge: u32,
        /// Incarnation of the sending process (0 for the first start).
        incarnation: u64,
    },
    /// The receiver's reply to [`DistFrame::EdgeHello`]: where its edge
    /// cursor stands.
    Welcome {
        /// The next link sequence the receiver expects.
        next_seq: u64,
        /// Data *events* (not frames) the receiver has consumed in order
        /// on this edge — the resend-suppression count for a freshly
        /// restarted sender.
        events_received: u64,
        /// How many of them the receiver knows to be final (they arrived
        /// final, or their `Finalize` did). The rest it holds speculative:
        /// a restarted sender owes it their finalizes, and only those.
        finals_received: u64,
    },
    /// Data-lane messages, each with its sender-assigned link sequence
    /// (original position, even on replay): everything the sender's ring
    /// held ready when its bridge looked, in ring order. One message under
    /// a paced stream; a replay, or an event's worth of speculative output
    /// and finalizes, shares one frame.
    Data(Vec<(u64, Message)>),
    /// Receiver-to-sender control traffic (acks) riding the same socket in
    /// the reverse direction.
    Ctrl(Control),
}

impl Encode for DistFrame {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            DistFrame::EdgeHello { edge, incarnation } => {
                enc.put_u8(0);
                enc.put_u32(*edge);
                enc.put_u64(*incarnation);
            }
            DistFrame::Welcome { next_seq, events_received, finals_received } => {
                enc.put_u8(1);
                enc.put_u64(*next_seq);
                enc.put_u64(*events_received);
                enc.put_u64(*finals_received);
            }
            DistFrame::Data(run) => {
                enc.put_u8(2);
                enc.put_u64(run.len() as u64);
                for (seq, msg) in run {
                    enc.put_u64(*seq);
                    msg.encode(enc);
                }
            }
            DistFrame::Ctrl(ctrl) => {
                enc.put_u8(3);
                ctrl.encode(enc);
            }
        }
    }
}

impl Decode for DistFrame {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(match dec.get_u8()? {
            0 => DistFrame::EdgeHello { edge: dec.get_u32()?, incarnation: dec.get_u64()? },
            1 => DistFrame::Welcome {
                next_seq: dec.get_u64()?,
                events_received: dec.get_u64()?,
                finals_received: dec.get_u64()?,
            },
            2 => {
                let len = dec.get_len()?;
                let mut run = Vec::with_capacity(len.min(1024));
                for _ in 0..len {
                    run.push((dec.get_u64()?, Message::decode(dec)?));
                }
                DistFrame::Data(run)
            }
            3 => DistFrame::Ctrl(Control::decode(dec)?),
            tag => return Err(DecodeError::InvalidTag { type_name: "DistFrame", tag }),
        })
    }
}

/// A fault-injection command the parent's nemesis pushes to a worker over
/// the control lane (the distributed analogues of the in-process chaos
/// faults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultCmd {
    /// Refuse new data-lane connections and sever existing ones for
    /// `millis` — the listener-drop fault. Senders see their connections
    /// die, reconnect with capped exponential backoff, and resend from
    /// the receiver's cursor once the listener comes back.
    ListenerDrop {
        /// Blackhole window length in milliseconds.
        millis: u64,
    },
    /// Stop *reading* inbound frames on one edge for `millis` while the
    /// outbound direction keeps flowing — a one-way partition. Inbound
    /// frames queue in the kernel until the sender's write times out and
    /// it tears the connection.
    PauseInbound {
        /// Edge id whose inbound direction is partitioned.
        edge: u32,
        /// Partition window length in milliseconds.
        millis: u64,
    },
    /// Stop sending heartbeats for `millis` — from the parent's point of
    /// view the worker is unreachable (lease expiry) while the process is
    /// actually alive: the crash-versus-partition discriminator.
    PauseBeats {
        /// Silence window length in milliseconds.
        millis: u64,
    },
}

impl Encode for FaultCmd {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            FaultCmd::ListenerDrop { millis } => {
                enc.put_u8(0);
                enc.put_u64(*millis);
            }
            FaultCmd::PauseInbound { edge, millis } => {
                enc.put_u8(1);
                enc.put_u32(*edge);
                enc.put_u64(*millis);
            }
            FaultCmd::PauseBeats { millis } => {
                enc.put_u8(2);
                enc.put_u64(*millis);
            }
        }
    }
}

impl Decode for FaultCmd {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(match dec.get_u8()? {
            0 => FaultCmd::ListenerDrop { millis: dec.get_u64()? },
            1 => FaultCmd::PauseInbound { edge: dec.get_u32()?, millis: dec.get_u64()? },
            2 => FaultCmd::PauseBeats { millis: dec.get_u64()? },
            tag => return Err(DecodeError::InvalidTag { type_name: "FaultCmd", tag }),
        })
    }
}

/// A message on the worker-to-parent control lane.
#[derive(Debug, Clone, PartialEq)]
pub enum CtrlMsg {
    /// Worker → parent: first message on every control connection.
    Hello {
        /// Worker index in the cluster spec.
        worker: u32,
        /// The worker's incarnation (restart count); the lease epoch.
        incarnation: u64,
        /// Address of the worker's data listener, for upstream dialers.
        data_addr: String,
    },
    /// Worker → parent: heartbeat renewing the worker's lease.
    Beat {
        /// Worker index.
        worker: u32,
        /// The incarnation claiming the lease. A beat with a stale
        /// incarnation is answered with [`CtrlMsg::Fence`].
        incarnation: u64,
    },
    /// Parent → worker: dial addresses for the worker's out-edges,
    /// re-sent whenever a downstream neighbor's address changes.
    Wire {
        /// `(edge id, dial address)` per out-edge.
        outs: Vec<(u32, String)>,
    },
    /// Parent → worker: the receiver's incarnation lost its lease (a
    /// newer incarnation holds it). The worker must exit immediately.
    Fence,
    /// Parent → worker: inject a fault (chaos nemesis).
    Fault(FaultCmd),
    /// Parent → worker: exit cleanly.
    Shutdown,
    /// Worker → parent: a telemetry push — the worker's metrics snapshot,
    /// fresh journal records, and completed trace spans, merged by the
    /// launcher's cluster aggregator.
    Telemetry(TelemetryReport),
}

impl Encode for CtrlMsg {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            CtrlMsg::Hello { worker, incarnation, data_addr } => {
                enc.put_u8(0);
                enc.put_u32(*worker);
                enc.put_u64(*incarnation);
                data_addr.encode(enc);
            }
            CtrlMsg::Beat { worker, incarnation } => {
                enc.put_u8(1);
                enc.put_u32(*worker);
                enc.put_u64(*incarnation);
            }
            CtrlMsg::Wire { outs } => {
                enc.put_u8(2);
                outs.encode(enc);
            }
            CtrlMsg::Fence => enc.put_u8(3),
            CtrlMsg::Fault(cmd) => {
                enc.put_u8(4);
                cmd.encode(enc);
            }
            CtrlMsg::Shutdown => enc.put_u8(5),
            CtrlMsg::Telemetry(report) => {
                enc.put_u8(6);
                report.encode(enc);
            }
        }
    }
}

impl Decode for CtrlMsg {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(match dec.get_u8()? {
            0 => CtrlMsg::Hello {
                worker: dec.get_u32()?,
                incarnation: dec.get_u64()?,
                data_addr: String::decode(dec)?,
            },
            1 => CtrlMsg::Beat { worker: dec.get_u32()?, incarnation: dec.get_u64()? },
            2 => CtrlMsg::Wire { outs: Vec::<(u32, String)>::decode(dec)? },
            3 => CtrlMsg::Fence,
            4 => CtrlMsg::Fault(FaultCmd::decode(dec)?),
            5 => CtrlMsg::Shutdown,
            6 => CtrlMsg::Telemetry(TelemetryReport::decode(dec)?),
            tag => return Err(DecodeError::InvalidTag { type_name: "CtrlMsg", tag }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streammine_common::codec::roundtrip;
    use streammine_common::event::{Event, Value};
    use streammine_common::ids::{EventId, OperatorId};

    #[test]
    fn dist_frames_roundtrip() {
        let ev = Event::new(EventId::new(OperatorId::new(1), 9), 3, Value::Int(7));
        let cases = vec![
            DistFrame::EdgeHello { edge: 2, incarnation: 5 },
            DistFrame::Welcome { next_seq: 11, events_received: 40, finals_received: 37 },
            DistFrame::Data(vec![(3, Message::Data(ev.clone()))]),
            DistFrame::Data(vec![
                (4, Message::DataBatch(vec![ev.clone(), ev])),
                (5, Message::Control(Control::Eof)),
            ]),
            DistFrame::Data(Vec::new()),
            DistFrame::Ctrl(Control::Ack { upto: 17 }),
        ];
        for c in cases {
            assert_eq!(roundtrip(&c).unwrap(), c);
        }
    }

    #[test]
    fn ctrl_msgs_roundtrip() {
        let cases = vec![
            CtrlMsg::Hello { worker: 1, incarnation: 2, data_addr: "127.0.0.1:4000".into() },
            CtrlMsg::Beat { worker: 1, incarnation: 2 },
            CtrlMsg::Wire { outs: vec![(3, "127.0.0.1:5000".into()), (4, "mem:1".into())] },
            CtrlMsg::Fence,
            CtrlMsg::Fault(FaultCmd::ListenerDrop { millis: 200 }),
            CtrlMsg::Fault(FaultCmd::PauseInbound { edge: 1, millis: 300 }),
            CtrlMsg::Fault(FaultCmd::PauseBeats { millis: 500 }),
            CtrlMsg::Shutdown,
            CtrlMsg::Telemetry(TelemetryReport {
                worker: 1,
                incarnation: 2,
                seq: 3,
                fin: true,
                metrics: vec![streammine_obs::Sample {
                    name: "events.in".into(),
                    labels: streammine_obs::Labels::op_port(1, 0),
                    value: streammine_obs::SampleValue::Counter(7),
                }],
                journal: vec![],
                spans: vec![],
            }),
        ];
        for c in cases {
            assert_eq!(roundtrip(&c).unwrap(), c);
        }
    }

    #[test]
    fn invalid_tags_are_clean_errors() {
        assert!(streammine_common::codec::decode_from_slice::<DistFrame>(&[9]).is_err());
        assert!(streammine_common::codec::decode_from_slice::<CtrlMsg>(&[9]).is_err());
        assert!(streammine_common::codec::decode_from_slice::<FaultCmd>(&[9]).is_err());
    }
}
