//! Determinants and the decision tape.
//!
//! Precise recovery (§1, footnote 1) requires that a replayed execution
//! takes *exactly* the same non-deterministic decisions as the original:
//! which input stream an event was taken from, every random number drawn,
//! every physical-time read (§2.2). Operators can only obtain
//! non-determinism through the [`OpCtx`](crate::operator::OpCtx), and the
//! engine's merge takes its input choice the same way: as entry *k* of the
//! admitted event's [`Tape`].
//!
//! # The tape
//!
//! Every admitted event owns one tape, keyed by its serial. Asking for
//! entry *k* **reads** it if the tape holds it and otherwise **takes** the
//! decision: draws it live, pushes it, and at that moment appends the
//! record `(serial, k, determinant)` to the stable log (§2.4: "issue an
//! asynchronous storage request … and continue") and counting it in
//! flight. The write runs beside the rest of the operator, and whoever
//! must wait for it — the commit gate — waits for *all*
//! of the tape's records, not the last one appended: on striped devices a
//! later record can be stable before an earlier one. The record that
//! empties the count posts the event's one stability notice, so what a
//! notice costs the coordinator is paid per event however many decisions
//! the operator takes.
//!
//! A decision is taken once. A re-execution (conflict, cascade, revised
//! input) reads the entries its predecessor took and appends nothing; if
//! it asks for more than the tape holds, tape and log grow by exactly the
//! new entries. The k-th decision of an event must be of the same kind in
//! every execution — a mismatch panics as a replay divergence.
//!
//! # Recovery
//!
//! [`recovered_tapes`] rebuilds the tapes from the stable log, and
//! admission hands each event its recovered entries: replay *is* the read
//! path, and nothing is appended for an entry read. Per serial the
//! recovered tape is the contiguous prefix by index — a record whose
//! predecessor is missing (torn tail; a stripe that was still in flight)
//! is dropped with everything after it — and a later record of an index
//! replaces the earlier one and what followed it (an incarnation that
//! found the prefix shorter took the decision again). Whatever lies past
//! the prefix is drawn live again when the event asks for it; the live
//! generator is stepped over each recovered draw at admission, so those
//! draws continue the original stream.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use streammine_common::codec::{decode_from_slice, Decode, DecodeError, Decoder, Encode, Encoder};
use streammine_obs::{Histogram, Tracer};
use streammine_storage::checkpoint::Checkpoint;
use streammine_storage::log::{LogSeq, StableLog};

use crate::plumbing::{Inbox, Notice};

/// One recorded non-deterministic decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Determinant {
    /// Which input port the event at this serial was taken from (the
    /// union-order decision of §1: "a simple union operator … must log the
    /// order in which events were selected from the input streams").
    InputChoice(u32),
    /// A random 64-bit draw.
    Random(u64),
    /// A physical-time read, in microseconds.
    Time(u64),
}

impl fmt::Display for Determinant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Determinant::InputChoice(p) => write!(f, "input={p}"),
            Determinant::Random(v) => write!(f, "rand={v:#x}"),
            Determinant::Time(t) => write!(f, "time={t}us"),
        }
    }
}

impl Encode for Determinant {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            Determinant::InputChoice(p) => {
                enc.put_u8(0);
                enc.put_u32(*p);
            }
            Determinant::Random(v) => {
                enc.put_u8(1);
                enc.put_u64(*v);
            }
            Determinant::Time(t) => {
                enc.put_u8(2);
                enc.put_u64(*t);
            }
        }
    }
}

impl Decode for Determinant {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(match dec.get_u8()? {
            0 => Determinant::InputChoice(dec.get_u32()?),
            1 => Determinant::Random(dec.get_u64()?),
            2 => Determinant::Time(dec.get_u64()?),
            tag => return Err(DecodeError::InvalidTag { type_name: "Determinant", tag }),
        })
    }
}

/// One log record: the `index`-th decision taken for the event at
/// `serial`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecisionRecord {
    /// The operator-local serial of the event.
    pub serial: u64,
    /// Position of the decision on the event's tape.
    pub index: u32,
    /// The decision.
    pub decision: Determinant,
}

impl Encode for DecisionRecord {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.serial);
        enc.put_u32(self.index);
        self.decision.encode(enc);
    }
}

impl Decode for DecisionRecord {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(DecisionRecord {
            serial: dec.get_u64()?,
            index: dec.get_u32()?,
            decision: Determinant::decode(dec)?,
        })
    }
}

/// One record of a node's log.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum LogRecord {
    /// A decision (tag 0).
    Decision(DecisionRecord),
    /// A checkpoint image (tag 1).
    Image(Checkpoint),
}

impl Encode for LogRecord {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            LogRecord::Decision(record) => {
                enc.put_u8(0);
                record.encode(enc);
            }
            LogRecord::Image(image) => {
                enc.put_u8(1);
                image.encode(enc);
            }
        }
    }
}

impl Decode for LogRecord {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(match dec.get_u8()? {
            0 => LogRecord::Decision(DecisionRecord::decode(dec)?),
            1 => LogRecord::Image(Checkpoint::decode(dec)?),
            tag => return Err(DecodeError::InvalidTag { type_name: "LogRecord", tag }),
        })
    }
}

/// What recovery reads back from a node's log.
#[derive(Debug, Default)]
pub(crate) struct ReadBack {
    /// The newest image that decodes.
    pub image: Option<Checkpoint>,
    /// The decisions at or after the image's `covers_log` (all of them
    /// without an image), in log order.
    pub decisions: Vec<(LogSeq, DecisionRecord)>,
}

/// Reads a log's (or a log file's) stable records once (module docs).
pub(crate) fn read_back(entries: Vec<(LogSeq, Vec<u8>)>) -> ReadBack {
    let mut read = ReadBack::default();
    for (seq, bytes) in entries {
        match decode_from_slice(&bytes) {
            Ok(LogRecord::Decision(record)) => read.decisions.push((seq, record)),
            Ok(LogRecord::Image(image)) => read.image = Some(image),
            Err(_) => {}
        }
    }
    let from = read.image.as_ref().map_or(LogSeq(0), |image| image.covers_log);
    read.decisions.retain(|(seq, _)| *seq >= from);
    read
}

/// The tapes a stable log holds, by serial, from its records in log order
/// (the prefix and replacement rules of the module docs).
pub(crate) fn recovered_tapes(
    records: impl IntoIterator<Item = DecisionRecord>,
) -> HashMap<u64, Vec<Determinant>> {
    let mut tapes: HashMap<u64, Vec<Determinant>> = HashMap::new();
    for record in records {
        let tape = tapes.entry(record.serial).or_default();
        let index = record.index as usize;
        if index <= tape.len() {
            tape.truncate(index);
            tape.push(record.decision);
        }
    }
    tapes
}

/// Where a node's live decisions become durable, and who hears of it: the
/// log, and the coordinator's notice queue and log-wait metrics.
pub(crate) struct DecisionLog {
    pub log: StableLog,
    pub inbox: Arc<Inbox>,
    /// Append → stable, per record (`stage.log_wait_us`).
    pub log_wait_us: Histogram,
    pub tracer: Arc<Tracer>,
    /// Owning operator index (the tracer's span key).
    pub op: u32,
    /// Where a record is encoded before the log copies it in.
    pub scratch: Mutex<Vec<u8>>,
}

impl DecisionLog {
    /// Appends `record`, counted in `in_flight` until it is stable; the
    /// record that brings the count to zero tells the coordinator
    /// ([`Notice::LogStable`]) — one notice per event, not per decision,
    /// unless the operator outlasts a write between two draws. The
    /// callback runs on whichever thread completes the record's group:
    /// the coordinator, in the wake its log's deadline gives it, or this
    /// very thread when the device is that fast — posting a notice never
    /// blocks. Returns where the record went.
    fn persist(
        &self,
        record: DecisionRecord,
        traced: bool,
        in_flight: &Arc<AtomicUsize>,
    ) -> LogSeq {
        let appended_at = Instant::now();
        in_flight.fetch_add(1, Ordering::AcqRel);
        let in_flight = in_flight.clone();
        let inbox = self.inbox.clone();
        let log_wait = self.log_wait_us.clone();
        let tracer = traced.then(|| self.tracer.clone());
        let op = self.op;
        let ticket = {
            let mut scratch = self.scratch.lock();
            LogRecord::Decision(record).encode_into(&mut scratch);
            self.log.append(&*scratch)
        };
        ticket.subscribe(move || {
            let waited = appended_at.elapsed();
            log_wait.record_duration(waited);
            if in_flight.fetch_sub(1, Ordering::AcqRel) == 1 {
                if let Some(tracer) = &tracer {
                    tracer.record_log_wait(op, record.serial, waited.as_micros() as u64);
                }
                inbox.post(Notice::LogStable { serial: record.serial });
            }
        });
        ticket.seq()
    }
}

/// The decisions of one admitted event, in the order they were taken, and
/// how many of those taken live are not stable yet (module docs).
pub(crate) struct Tape {
    serial: u64,
    /// Whether the event is sampled for tracing.
    traced: bool,
    entries: Mutex<Vec<Determinant>>,
    /// Records appended for this tape and still on their way. A count,
    /// not the last ticket: striped devices finish out of order.
    in_flight: Arc<AtomicUsize>,
    /// The log sequence of the first record appended for this tape
    /// (`u64::MAX`: none yet). A checkpoint must leave it in the log.
    first_record: AtomicU64,
}

impl Tape {
    /// The tape of the event at `serial`, holding what recovery read from
    /// the log for it.
    pub fn new(serial: u64, traced: bool, recovered: Vec<Determinant>) -> Tape {
        Tape {
            serial,
            traced,
            entries: Mutex::new(recovered),
            in_flight: Arc::new(AtomicUsize::new(0)),
            first_record: AtomicU64::new(u64::MAX),
        }
    }

    /// Where the first record appended for this tape went, if any was.
    pub fn first_record(&self) -> Option<LogSeq> {
        let seq = self.first_record.load(Ordering::Acquire);
        (seq != u64::MAX).then_some(LogSeq(seq))
    }

    /// Entry `index`: read if the tape holds it; otherwise taken by
    /// `draw`, pushed and — with a `log` — appended there and then.
    /// Executions of one event run one at a time, each asking from its
    /// first entry up, so a missing entry is always the next one.
    pub fn decide(
        &self,
        index: usize,
        log: Option<&DecisionLog>,
        draw: impl FnOnce() -> Determinant,
    ) -> Determinant {
        let mut entries = self.entries.lock();
        if let Some(decision) = entries.get(index) {
            return *decision;
        }
        debug_assert_eq!(index, entries.len(), "decisions are taken in index order");
        let decision = draw();
        entries.push(decision);
        if let Some(log) = log {
            let record = DecisionRecord { serial: self.serial, index: index as u32, decision };
            let seq = log.persist(record, self.traced, &self.in_flight);
            self.first_record.fetch_min(seq.0, Ordering::AcqRel);
        }
        decision
    }

    /// Whether every record appended for this tape is stable (a tape that
    /// appended none is).
    pub fn is_stable(&self) -> bool {
        self.in_flight.load(Ordering::Acquire) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::time::Duration;
    use streammine_common::codec::{encode_to_vec, roundtrip};
    use streammine_storage::disk::DiskSpec;

    #[test]
    fn determinants_roundtrip() {
        for d in [Determinant::InputChoice(3), Determinant::Random(0xDEAD), Determinant::Time(99)] {
            assert_eq!(roundtrip(&d).unwrap(), d);
        }
    }

    #[test]
    fn record_roundtrips() {
        let rec = DecisionRecord { serial: 7, index: 2, decision: Determinant::Random(42) };
        assert_eq!(roundtrip(&rec).unwrap(), rec);
    }

    fn record(serial: u64, index: u32, value: u64) -> DecisionRecord {
        DecisionRecord { serial, index, decision: Determinant::Random(value) }
    }

    #[test]
    fn recovered_tapes_group_by_serial_in_index_order() {
        // Two events' records interleaved, as two STM threads append them.
        let log = [record(5, 0, 50), record(6, 0, 60), record(6, 1, 61), record(5, 1, 51)];
        let tapes = recovered_tapes(log);
        assert_eq!(tapes.len(), 2);
        assert_eq!(tapes[&5], vec![Determinant::Random(50), Determinant::Random(51)]);
        assert_eq!(tapes[&6], vec![Determinant::Random(60), Determinant::Random(61)]);
    }

    #[test]
    fn recovered_tape_is_the_contiguous_prefix() {
        // Index 1 never became stable (torn tail, or its stripe was still
        // in flight): index 2 cannot be placed and goes with it.
        let tapes = recovered_tapes([record(3, 0, 30), record(3, 2, 32), record(4, 1, 41)]);
        assert_eq!(tapes[&3], vec![Determinant::Random(30)]);
        assert_eq!(tapes[&4], vec![], "a tape whose first entry is lost is empty");
    }

    #[test]
    fn a_later_record_replaces_the_entry_and_what_followed_it() {
        // An incarnation that recovered only index 0 took index 1 again;
        // the first incarnation's records 1 and 2 turned stable after all.
        let log = [record(8, 0, 80), record(8, 1, 81), record(8, 2, 82), record(8, 1, 91)];
        let tapes = recovered_tapes(log);
        assert_eq!(tapes[&8], vec![Determinant::Random(80), Determinant::Random(91)]);
    }

    #[test]
    fn log_records_roundtrip_under_their_tags() {
        let decision = LogRecord::Decision(record(4, 1, 44));
        let image =
            LogRecord::Image(Checkpoint { id: 2, state: vec![1, 2, 3], ..Checkpoint::default() });
        for r in [decision, image] {
            assert_eq!(roundtrip(&r).unwrap(), r);
        }
        let err = streammine_common::codec::decode_from_slice::<LogRecord>(&[2]).unwrap_err();
        assert!(matches!(err, DecodeError::InvalidTag { type_name: "LogRecord", tag: 2 }));
    }

    /// What one random record of the recovery-read property is.
    #[derive(Debug, Clone)]
    enum Kind {
        Decision,
        /// An image covering the log from this many records before it.
        Image {
            back: u64,
            state: usize,
        },
    }

    fn kind() -> impl Strategy<Value = Kind> {
        // Mostly decisions; some images span the log's 16 KiB blocks.
        prop_oneof![
            Just(Kind::Decision),
            Just(Kind::Decision),
            Just(Kind::Decision),
            (0u64..8, 0usize..64).prop_map(|(back, state)| Kind::Image { back, state }),
            (0u64..8, 60_000usize..90_000).prop_map(|(back, state)| Kind::Image { back, state }),
        ]
    }

    fn log_record(seq: u64, kind: &Kind) -> LogRecord {
        match *kind {
            Kind::Decision => LogRecord::Decision(record(seq / 3, (seq % 3) as u32, seq)),
            Kind::Image { back, state } => LogRecord::Image(Checkpoint {
                id: seq,
                covers_log: LogSeq(seq.saturating_sub(back)),
                events_processed: seq / 3,
                state: vec![seq as u8; state],
                ..Checkpoint::default()
            }),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// Recovery reads the newest image before a flipped bit and exactly
        /// the decisions at or after what it covers and before the flip,
        /// whatever truncation left, on striped devices; it never panics.
        #[test]
        fn the_read_is_the_newest_image_before_a_flip_and_the_decisions_it_needs(
            devices in 1usize..4,
            kinds in proptest::collection::vec(kind(), 1..40),
            truncate_at in 0.0f64..1.0,
            flips in any::<bool>(),
            victim_at in 0.0f64..1.0,
            bit in any::<u32>(),
        ) {
            let log = StableLog::new(vec![DiskSpec::simulated(Duration::from_micros(50)); devices]);
            let records: Vec<LogRecord> =
                kinds.iter().enumerate().map(|(seq, kind)| log_record(seq as u64, kind)).collect();
            for r in &records {
                log.append(encode_to_vec(r));
            }
            log.flush();
            let n = records.len() as u64;
            let watermark = (n as f64 * truncate_at) as u64;
            log.truncate_below(LogSeq(watermark));
            // Records at or past `end` are unreadable: the flipped one on.
            let end = if flips && watermark < n {
                let victim = (watermark + ((n - watermark) as f64 * victim_at) as u64).min(n - 1);
                prop_assert!(log.corrupt_bit(LogSeq(victim), bit as usize));
                victim
            } else {
                n
            };
            let live = watermark..end;
            let image = live.clone().rev().find_map(|seq| match &records[seq as usize] {
                LogRecord::Image(image) => Some(image.clone()),
                LogRecord::Decision(_) => None,
            });
            let from = image.as_ref().map_or(0, |image| image.covers_log.0).max(watermark);
            let decisions: Vec<(LogSeq, DecisionRecord)> = (from..end)
                .filter_map(|seq| match records[seq as usize] {
                    LogRecord::Decision(d) => Some((LogSeq(seq), d)),
                    LogRecord::Image(_) => None,
                })
                .collect();
            let read = read_back(log.stable_entries());
            prop_assert_eq!(read.image, image);
            prop_assert_eq!(read.decisions, decisions);
        }
    }

    #[test]
    fn invalid_tag_is_error() {
        let err = streammine_common::codec::decode_from_slice::<Determinant>(&[7]).unwrap_err();
        assert!(matches!(err, DecodeError::InvalidTag { .. }));
    }
}
