//! Property test: every wire `Message` — all `Control` variants, single
//! events, and `DataBatch` frames with trace contexts — and every frame of
//! the distributed runtime's two lanes — a data edge's `DistFrame` and the
//! control lane's `CtrlMsg`, telemetry reports with journal records and
//! trace spans included — survives encode → truncate-at-every-byte →
//! decode with a clean `DecodeError`, never a panic, and the untruncated
//! bytes round-trip exactly. A flipped bit never panics either.
//!
//! The TCP transport only guards frame *integrity* (length prefix + CRC);
//! a torn frame that slips through at a lower layer, or a buggy peer, must
//! still be rejected by the codec itself rather than crash a worker.

use proptest::prelude::*;

use std::fmt::Debug;

use streammine::common::codec::{decode_from_slice, encode_to_vec, Decode, Encode};
use streammine::common::event::{Event, TraceCtx, Value};
use streammine::common::ids::{EventId, OperatorId};
use streammine::core::dist::wire::{CtrlMsg, DistFrame, FaultCmd};
use streammine::core::{Control, Message};
use streammine::obs::{
    HistogramSnapshot, JournalEvent, JournalKind, Labels, Sample, SampleValue, Span,
    TelemetryReport, HISTOGRAM_BUCKETS,
};

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

fn opt_u32() -> impl Strategy<Value = Option<u32>> {
    prop_oneof![Just(None), any::<u32>().prop_map(Some)]
}

fn opt_u64() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![Just(None), any::<u64>().prop_map(Some)]
}

fn labels_strategy() -> impl Strategy<Value = Labels> {
    (opt_u32(), opt_u32(), opt_u32()).prop_map(|(op, port, worker)| Labels { op, port, worker })
}

fn sample_strategy() -> impl Strategy<Value = Sample> {
    let value = prop_oneof![
        any::<u64>().prop_map(SampleValue::Counter),
        any::<i64>().prop_map(SampleValue::Gauge),
        (
            any::<u64>(),
            proptest::collection::vec(0u64..4, HISTOGRAM_BUCKETS..HISTOGRAM_BUCKETS + 1)
        )
            .prop_map(|(sum, buckets)| SampleValue::Histogram(HistogramSnapshot { sum, buckets })),
    ];
    ("[a-z.]{1,16}", labels_strategy(), value).prop_map(|(name, labels, value)| Sample {
        name,
        labels,
        value,
    })
}

fn journal_kind_strategy() -> impl Strategy<Value = JournalKind> {
    prop_oneof![
        (any::<u64>(), any::<u32>())
            .prop_map(|(serial, port)| JournalKind::Ingest { serial, port }),
        any::<u64>().prop_map(|serial| JournalKind::Commit { serial }),
        (any::<u32>(), any::<u64>()).prop_map(|(port, from)| JournalKind::Rewind { port, from }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(id, covers_log)| JournalKind::CheckpointSaved { id, covers_log }),
        (any::<u32>(), any::<u64>())
            .prop_map(|(attempt, backoff_us)| JournalKind::Restart { attempt, backoff_us }),
        ".{0,12}".prop_map(|detail| JournalKind::Warn { code: "rewind-short", detail }),
    ]
}

fn journal_event_strategy() -> impl Strategy<Value = JournalEvent> {
    (any::<u64>(), any::<u64>(), opt_u32(), opt_u64(), journal_kind_strategy())
        .prop_map(|(seq, at_us, op, trace, kind)| JournalEvent { seq, at_us, op, trace, kind })
}

fn span_strategy() -> impl Strategy<Value = Span> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u32>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>(), opt_u64(), opt_u64()),
        (any::<u32>(), any::<bool>(), proptest::collection::vec(any::<u64>(), 0..3)),
    )
        .prop_map(|(ids, times, rest)| Span {
            trace_id: ids.0,
            span_id: ids.1,
            parent: ids.2,
            op: ids.3,
            serial: ids.4,
            start_us: times.0,
            queue_wait_us: times.1,
            process_us: times.2,
            log_wait_us: times.3,
            commit_gate_us: times.4,
            rollbacks: rest.0,
            committed: rest.1,
            deps: rest.2,
        })
}

fn telemetry_strategy() -> impl Strategy<Value = TelemetryReport> {
    (
        (any::<u32>(), any::<u64>(), any::<u64>()),
        proptest::collection::vec(sample_strategy(), 0..3),
        proptest::collection::vec(journal_event_strategy(), 1..4),
        proptest::collection::vec(span_strategy(), 1..3),
    )
        .prop_map(|((worker, incarnation, seq), metrics, journal, spans)| TelemetryReport {
            worker,
            incarnation,
            seq,
            metrics,
            journal,
            spans,
        })
}

fn dist_frame_strategy() -> impl Strategy<Value = DistFrame> {
    prop_oneof![
        (any::<u32>(), any::<u64>())
            .prop_map(|(edge, incarnation)| DistFrame::EdgeHello { edge, incarnation }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(next_seq, events_received, finals_received)| DistFrame::Welcome {
                next_seq,
                events_received,
                finals_received,
            }
        ),
        proptest::collection::vec((any::<u64>(), message_strategy()), 0..4)
            .prop_map(DistFrame::Data),
        control_strategy().prop_map(DistFrame::Ctrl),
    ]
}

fn ctrl_msg_strategy() -> impl Strategy<Value = CtrlMsg> {
    let fault = prop_oneof![
        any::<u64>().prop_map(|millis| FaultCmd::ListenerDrop { millis }),
        (any::<u32>(), any::<u64>())
            .prop_map(|(edge, millis)| FaultCmd::PauseInbound { edge, millis }),
        any::<u64>().prop_map(|millis| FaultCmd::PauseBeats { millis }),
    ];
    prop_oneof![
        (any::<u32>(), any::<u64>(), ".{0,16}").prop_map(|(worker, incarnation, data_addr)| {
            CtrlMsg::Hello { worker, incarnation, data_addr }
        }),
        (any::<u32>(), any::<u64>())
            .prop_map(|(worker, incarnation)| CtrlMsg::Beat { worker, incarnation }),
        proptest::collection::vec((any::<u32>(), ".{0,12}"), 0..3)
            .prop_map(|outs| CtrlMsg::Wire { outs }),
        Just(CtrlMsg::Fence),
        fault.prop_map(CtrlMsg::Fault),
        Just(CtrlMsg::Shutdown),
        telemetry_strategy().prop_map(CtrlMsg::Telemetry),
    ]
}

/// `frame` round-trips, and no strict prefix of its bytes decodes: each
/// is a clean error (UnexpectedEof / InvalidTag / InvalidUtf8 /
/// TrailingBytes), not a panic and not a silent success.
fn roundtrips_and_truncations_fail<T>(frame: &T) -> Result<(), TestCaseError>
where
    T: Encode + Decode + PartialEq + Debug,
{
    let bytes = encode_to_vec(frame);
    let back: T = decode_from_slice(&bytes).expect("full frame must decode");
    prop_assert_eq!(&back, frame, "roundtrip changed the frame");
    for cut in 0..bytes.len() {
        let res: Result<T, _> = decode_from_slice(&bytes[..cut]);
        prop_assert!(
            res.is_err(),
            "truncation at byte {}/{} decoded to {:?}",
            cut,
            bytes.len(),
            res
        );
    }
    Ok(())
}

/// Flips at least one bit of `frame`'s bytes at `pos_frac` of their length
/// and decodes them: a clean error or a (different) valid frame are both
/// fine; a panic or abort is the only failure.
fn flipped_decodes_without_panic<T: Encode + Decode>(frame: &T, flip: u8, pos_frac: f64) {
    let mut bytes = encode_to_vec(frame);
    let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
    bytes[pos] ^= flip | 1;
    let _ = decode_from_slice::<T>(&bytes);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn message_roundtrips_and_every_truncation_fails_cleanly(msg in message_strategy()) {
        roundtrips_and_truncations_fail(&msg)?;
    }

    #[test]
    fn corrupted_bytes_never_panic(msg in message_strategy(), flip in any::<u8>(), pos_frac in 0.0f64..1.0) {
        flipped_decodes_without_panic(&msg, flip, pos_frac);
    }

    #[test]
    fn dist_frames_roundtrip_and_every_truncation_fails_cleanly(
        frame in dist_frame_strategy(),
        ctrl in ctrl_msg_strategy(),
    ) {
        roundtrips_and_truncations_fail(&frame)?;
        roundtrips_and_truncations_fail(&ctrl)?;
    }

    #[test]
    fn corrupted_dist_frames_never_panic(
        frame in dist_frame_strategy(),
        ctrl in ctrl_msg_strategy(),
        flip in any::<u8>(),
        pos_frac in 0.0f64..1.0,
    ) {
        flipped_decodes_without_panic(&frame, flip, pos_frac);
        flipped_decodes_without_panic(&ctrl, flip, pos_frac);
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
