//! Property test: every wire `Message` — all `Control` variants, single
//! events, and `DataBatch` frames with trace contexts — survives
//! encode → truncate-at-every-byte → decode with a clean `DecodeError`,
//! never a panic, and the untruncated bytes round-trip exactly.
//!
//! The TCP transport only guards frame *integrity* (length prefix + CRC);
//! a torn frame that slips through at a lower layer, or a buggy peer, must
//! still be rejected by the codec itself rather than crash a worker.

use proptest::prelude::*;

use streammine::common::codec::{decode_from_slice, encode_to_vec};
use streammine::common::event::{Event, TraceCtx, Value};
use streammine::common::ids::{EventId, OperatorId};
use streammine::core::{Control, Message};

fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        // Finite floats only: NaN breaks the equality half of the check
        // without exercising any extra codec path.
        (-1e15f64..1e15).prop_map(Value::Float),
        any::<bool>().prop_map(Value::Bool),
        ".{0,12}".prop_map(Value::from),
        proptest::collection::vec(any::<u8>(), 0..16).prop_map(Value::bytes),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        proptest::collection::vec(inner, 0..4).prop_map(Value::record)
    })
}

fn event_id_strategy() -> impl Strategy<Value = EventId> {
    (any::<u32>(), any::<u64>()).prop_map(|(op, seq)| EventId::new(OperatorId::new(op), seq))
}

fn trace_strategy() -> impl Strategy<Value = Option<TraceCtx>> {
    prop_oneof![
        Just(None),
        (any::<u64>(), any::<u64>()).prop_map(|(id, parent)| Some(TraceCtx { id, parent })),
    ]
}

fn event_strategy() -> impl Strategy<Value = Event> {
    (
        event_id_strategy(),
        any::<u32>(),
        any::<u64>(),
        any::<bool>(),
        value_strategy(),
        trace_strategy(),
    )
        .prop_map(|(id, version, timestamp, speculative, payload, trace)| Event {
            id,
            version,
            timestamp,
            speculative,
            payload,
            trace,
        })
}

fn control_strategy() -> impl Strategy<Value = Control> {
    prop_oneof![
        (event_id_strategy(), any::<u32>())
            .prop_map(|(id, version)| Control::Finalize { id, version }),
        event_id_strategy().prop_map(|id| Control::Revoke { id }),
        any::<u64>().prop_map(|upto| Control::Ack { upto }),
        Just(Control::Eof),
    ]
}

fn message_strategy() -> impl Strategy<Value = Message> {
    prop_oneof![
        event_strategy().prop_map(Message::Data),
        control_strategy().prop_map(Message::Control),
        // Batches carry ≥ 2 events by protocol contract.
        proptest::collection::vec(event_strategy(), 2..5).prop_map(Message::DataBatch),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn message_roundtrips_and_every_truncation_fails_cleanly(msg in message_strategy()) {
        let bytes = encode_to_vec(&msg);
        let back: Message = decode_from_slice(&bytes).expect("full frame must decode");
        prop_assert_eq!(&back, &msg, "roundtrip changed the message");
        // A strict prefix can never be a complete, exactly-consumed
        // encoding: decode must return an error (UnexpectedEof /
        // InvalidTag / InvalidUtf8 / TrailingBytes), not panic and not
        // silently succeed.
        for cut in 0..bytes.len() {
            let res: Result<Message, _> = decode_from_slice(&bytes[..cut]);
            prop_assert!(
                res.is_err(),
                "truncation at byte {}/{} decoded to {:?}",
                cut,
                bytes.len(),
                res
            );
        }
    }

    #[test]
    fn corrupted_bytes_never_panic(msg in message_strategy(), flip in any::<u8>(), pos_frac in 0.0f64..1.0) {
        let mut bytes = encode_to_vec(&msg);
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= flip | 1; // always flip at least one bit
        // Either a clean decode error or a (different) valid message —
        // both acceptable; a panic or abort is the only failure mode.
        let _ = decode_from_slice::<Message>(&bytes);
    }

    /// Control tag 3 was the replay request. It is retired, not reused: a
    /// frame of an older peer is a decode error whatever follows the tag.
    #[test]
    fn retired_control_tag_3_never_decodes(tail in proptest::collection::vec(any::<u8>(), 0..24)) {
        let mut bytes = vec![3u8];
        bytes.extend_from_slice(&tail);
        prop_assert!(decode_from_slice::<Control>(&bytes).is_err());
        bytes.insert(0, 1); // framed as `Message::Control`
        prop_assert!(decode_from_slice::<Message>(&bytes).is_err());
    }
}
