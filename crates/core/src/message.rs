//! Messages exchanged between operators.
//!
//! Data events and control traffic share each link, mirroring the paper's
//! protocol (§2.2, Figure 1): speculative data first, then finalize /
//! revoke control messages once logs stabilize, and acknowledgments for
//! output buffer pruning. The paper's replay request is not a message here:
//! an edge is a retained ring that outlives its reader, and a recovering
//! reader moves its own cursor back.

use std::fmt;

use streammine_common::codec::{Decode, DecodeError, Decoder, Encode, Encoder};
use streammine_common::event::Event;
use streammine_common::ids::EventId;

/// Control messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Control {
    /// A previously sent speculative event `(id, version)` is now final —
    /// the sender's decision logs are stable and its transaction committed
    /// (the paper's step iv / message 6→7).
    Finalize {
        /// Event identity.
        id: EventId,
        /// The version being finalized.
        version: u32,
    },
    /// A previously sent speculative event will never be finalized (its
    /// transaction was discarded); the receiver must roll back anything
    /// that consumed it.
    Revoke {
        /// Event identity.
        id: EventId,
    },
    /// The receiver has durably consumed everything below the given link
    /// sequence; the sender may prune its output buffer (message 5).
    Ack {
        /// First link sequence still needed.
        upto: u64,
    },
    /// No more data will be sent on this link.
    Eof,
}

impl fmt::Display for Control {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Control::Finalize { id, version } => write!(f, "finalize {id} v{version}"),
            Control::Revoke { id } => write!(f, "revoke {id}"),
            Control::Ack { upto } => write!(f, "ack <{upto}"),
            Control::Eof => write!(f, "eof"),
        }
    }
}

/// A link message: data or control.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// A data event (speculative or final).
    Data(Event),
    /// Protocol control traffic.
    Control(Control),
    /// Several data events sent as one frame (micro-batching). The batch
    /// occupies a single link sequence number; receivers expand it back
    /// into individual events, all positioned at that sequence. Senders
    /// only form batches at whole-event boundaries, and a batch carries at
    /// least two events (a single event travels as [`Message::Data`]).
    DataBatch(Vec<Event>),
}

impl Message {
    /// Convenience accessor for the data payload of a single-event message.
    pub fn as_event(&self) -> Option<&Event> {
        match self {
            Message::Data(e) => Some(e),
            Message::Control(_) | Message::DataBatch(_) => None,
        }
    }

    /// Number of data events this message carries (0 for control).
    pub fn event_count(&self) -> usize {
        match self {
            Message::Data(_) => 1,
            Message::Control(_) => 0,
            Message::DataBatch(events) => events.len(),
        }
    }

    /// Number of events this message makes known as final: its data events
    /// that are not speculative, or the one a `Finalize` upgrades.
    pub fn final_count(&self) -> usize {
        match self {
            Message::Data(e) => usize::from(e.is_final()),
            Message::DataBatch(events) => events.iter().filter(|e| e.is_final()).count(),
            Message::Control(Control::Finalize { .. }) => 1,
            Message::Control(_) => 0,
        }
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Message::Data(e) => write!(f, "data {e}"),
            Message::Control(c) => write!(f, "ctrl {c}"),
            Message::DataBatch(events) => write!(f, "batch[{}]", events.len()),
        }
    }
}

impl Encode for Control {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            Control::Finalize { id, version } => {
                enc.put_u8(0);
                id.encode(enc);
                enc.put_u32(*version);
            }
            Control::Revoke { id } => {
                enc.put_u8(1);
                id.encode(enc);
            }
            Control::Ack { upto } => {
                enc.put_u8(2);
                enc.put_u64(*upto);
            }
            // Tag 3 was the replay request; it stays retired.
            Control::Eof => enc.put_u8(4),
        }
    }
}

impl Decode for Control {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(match dec.get_u8()? {
            0 => Control::Finalize { id: EventId::decode(dec)?, version: dec.get_u32()? },
            1 => Control::Revoke { id: EventId::decode(dec)? },
            2 => Control::Ack { upto: dec.get_u64()? },
            4 => Control::Eof,
            tag => return Err(DecodeError::InvalidTag { type_name: "Control", tag }),
        })
    }
}

impl Encode for Message {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            Message::Data(e) => {
                enc.put_u8(0);
                e.encode(enc);
            }
            Message::Control(c) => {
                enc.put_u8(1);
                c.encode(enc);
            }
            Message::DataBatch(events) => {
                enc.put_u8(2);
                events.encode(enc);
            }
        }
    }
}

impl Decode for Message {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(match dec.get_u8()? {
            0 => Message::Data(Event::decode(dec)?),
            1 => Message::Control(Control::decode(dec)?),
            2 => Message::DataBatch(Vec::<Event>::decode(dec)?),
            tag => return Err(DecodeError::InvalidTag { type_name: "Message", tag }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streammine_common::codec::roundtrip;
    use streammine_common::event::Value;
    use streammine_common::ids::OperatorId;

    fn id() -> EventId {
        EventId::new(OperatorId::new(2), 17)
    }

    #[test]
    fn control_roundtrips() {
        let cases = vec![
            Control::Finalize { id: id(), version: 3 },
            Control::Revoke { id: id() },
            Control::Ack { upto: 99 },
            Control::Eof,
        ];
        for c in cases {
            assert_eq!(roundtrip(&c).unwrap(), c);
        }
    }

    /// Tag 3 carried the replay request of an older peer: a clean error,
    /// whatever follows it.
    #[test]
    fn retired_replay_request_tag_is_a_decode_error() {
        use streammine_common::codec::decode_from_slice;
        let mut old = vec![3u8];
        old.extend_from_slice(&7u64.to_le_bytes());
        old.extend_from_slice(&2u64.to_le_bytes());
        for bytes in [&old[..], &old[..1]] {
            let err = decode_from_slice::<Control>(bytes).unwrap_err();
            assert!(matches!(err, DecodeError::InvalidTag { type_name: "Control", tag: 3 }));
        }
        let mut framed = vec![1u8];
        framed.extend_from_slice(&old);
        assert!(decode_from_slice::<Message>(&framed).is_err());
    }

    #[test]
    fn message_roundtrips() {
        let m = Message::Data(Event::speculative(id(), 5, Value::Int(9)));
        assert_eq!(roundtrip(&m).unwrap(), m);
        let m = Message::Control(Control::Eof);
        assert_eq!(roundtrip(&m).unwrap(), m);
    }

    #[test]
    fn traced_events_roundtrip_through_messages_and_batches() {
        use streammine_common::event::TraceCtx;
        // The trace context rides inside the event codec, so framed
        // messages and batches carry it with no transport-level changes.
        let root = Event::new(id(), 1, Value::Int(4)).traced(Some(TraceCtx::root(77)));
        let child =
            Event::speculative(id(), 2, Value::Int(5)).traced(Some(TraceCtx::root(77).child(42)));
        let m = Message::Data(root.clone());
        assert_eq!(roundtrip(&m).unwrap(), m);
        let batch = Message::DataBatch(vec![root.clone(), child.clone()]);
        let back = roundtrip(&batch).unwrap();
        assert_eq!(back, batch);
        let Message::DataBatch(events) = back else { panic!("batch frame changed kind") };
        assert_eq!(events[0].trace, Some(TraceCtx { id: 77, parent: 0 }));
        assert_eq!(events[1].trace, Some(TraceCtx { id: 77, parent: 42 }));
        // Untraced events stay untraced: the flag byte distinguishes them.
        let bare = Event::new(id(), 3, Value::Null);
        assert_eq!(roundtrip(&bare).unwrap().trace, None);
    }

    #[test]
    fn as_event_filters_control() {
        let e = Event::new(id(), 1, Value::Null);
        assert!(Message::Data(e).as_event().is_some());
        assert!(Message::Control(Control::Eof).as_event().is_none());
    }

    #[test]
    fn batch_roundtrips_and_counts_events() {
        let events = vec![
            Event::new(id(), 1, Value::Int(1)),
            Event::speculative(EventId::new(OperatorId::new(2), 18), 2, Value::from("x")),
        ];
        let m = Message::DataBatch(events);
        assert_eq!(roundtrip(&m).unwrap(), m);
        assert_eq!(m.event_count(), 2);
        assert_eq!(m.final_count(), 1, "one of the two is speculative");
        assert_eq!(Message::Control(Control::Finalize { id: id(), version: 0 }).final_count(), 1);
        assert!(m.as_event().is_none(), "a batch is not a single event");
        assert_eq!(Message::Control(Control::Eof).event_count(), 0);
        assert_eq!(Message::Control(Control::Eof).final_count(), 0);
        assert!(m.to_string().contains("batch[2]"));
    }

    #[test]
    fn invalid_tag_rejected() {
        let err = streammine_common::codec::decode_from_slice::<Message>(&[9]).unwrap_err();
        assert!(matches!(err, DecodeError::InvalidTag { .. }));
    }

    #[test]
    fn displays_are_informative() {
        assert!(Control::Finalize { id: id(), version: 1 }.to_string().contains("finalize"));
        assert!(Message::Control(Control::Eof).to_string().contains("eof"));
    }
}
