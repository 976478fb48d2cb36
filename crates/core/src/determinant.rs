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
//! must wait for it — the commit gate, the hold queue — waits for *all*
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
use streammine_common::codec::{Decode, DecodeError, Decoder, Encode, Encoder};
use streammine_obs::{Histogram, Tracer};
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
    /// callback may fire on this very thread when the device is that fast
    /// — posting a notice never blocks. Returns where the record went.
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
            record.encode_into(&mut scratch);
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
    use streammine_common::codec::roundtrip;

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
    fn invalid_tag_is_error() {
        let err = streammine_common::codec::decode_from_slice::<Determinant>(&[7]).unwrap_err();
        assert!(matches!(err, DecodeError::InvalidTag { .. }));
    }
}
