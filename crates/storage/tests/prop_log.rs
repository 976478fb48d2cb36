//! The decision log checked against a reference model.
//!
//! The model is the readable set as a `BTreeMap<u64, Vec<u8>>`, with the
//! log's rules written out plainly: a record is readable once its write
//! finished unless a truncation watermark covers it (even one set while it
//! was in flight) or a torn-tail read dropped it. Random sequences of
//! appends, waits, flushes, truncations and tail corruptions run on 1–3
//! striped devices; after every step `stable_entries`, `stable_len`,
//! `appended` and `corrupt_dropped` must agree with the model. Between
//! flushes some records are still in flight, so there the read must lie
//! between what the model knows is stable and what it allows.
//!
//! The second property flips one bit anywhere in one stored frame: the
//! read must truncate exactly there, never panic, and leave the log usable.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use proptest::prelude::*;
use streammine_storage::{DiskSpec, LogSeq, LogTicket, StableLog};

#[derive(Debug, Clone)]
enum Op {
    /// `count` records of `len` bytes each, drawn from `seed`.
    Append {
        count: usize,
        len: usize,
        seed: u8,
    },
    /// Waits for the ticket at this fraction of those appended.
    Wait(f64),
    Flush,
    /// Truncates below this fraction of those appended.
    Truncate(f64),
    /// Flushes, then flips a bit of the highest stable record.
    CorruptTail,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1usize..8, record_len(), any::<u8>()).prop_map(|(count, len, seed)| Op::Append {
            count,
            len,
            seed
        }),
        (0.0f64..1.0).prop_map(Op::Wait),
        Just(Op::Flush),
        (0.0f64..1.0).prop_map(Op::Truncate),
        Just(Op::CorruptTail),
    ]
}

/// Mostly decision-sized records; one in four spans image blocks.
fn record_len() -> impl Strategy<Value = usize> {
    prop_oneof![0usize..40, 0usize..40, 0usize..40, 20_000usize..100_000]
}

fn payload(seq: u64, len: usize, seed: u8) -> Vec<u8> {
    (0..len).map(|i| (seq as u8).wrapping_mul(31) ^ seed ^ i as u8).collect()
}

fn log_on(devices: usize, write_us: u64) -> StableLog {
    StableLog::new(vec![DiskSpec::simulated(Duration::from_micros(write_us)); devices])
}

/// The log's semantics, one rule per field.
#[derive(Default)]
struct Model {
    /// Every appended payload, by sequence number.
    appended: Vec<Vec<u8>>,
    /// Records known to be stable (waited on, or flushed).
    stable: BTreeSet<u64>,
    watermark: u64,
    /// Records a torn-tail read dropped.
    torn: BTreeSet<u64>,
    corrupt_dropped: u64,
}

impl Model {
    fn readable(&self, seq: u64) -> bool {
        seq >= self.watermark && !self.torn.contains(&seq)
    }

    /// What the read must return once everything appended is stable.
    fn reference(&self) -> BTreeMap<u64, Vec<u8>> {
        (0..self.appended.len() as u64)
            .filter(|&seq| self.readable(seq) && self.stable.contains(&seq))
            .map(|seq| (seq, self.appended[seq as usize].clone()))
            .collect()
    }
}

/// Compares the log with the model; `quiet` when nothing is in flight.
fn check(log: &StableLog, model: &Model, quiet: bool) -> Result<(), TestCaseError> {
    let entries = log.stable_entries();
    prop_assert_eq!(log.appended(), model.appended.len() as u64);
    prop_assert_eq!(log.corrupt_dropped(), model.corrupt_dropped);
    let stable = log.stable_len();
    prop_assert!(stable >= model.stable.len() as u64 && stable <= log.appended());
    let read: BTreeMap<u64, Vec<u8>> = entries.iter().map(|(s, r)| (s.0, r.clone())).collect();
    prop_assert_eq!(read.len(), entries.len(), "a sequence number read twice");
    prop_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "read out of sequence order");
    let reference = model.reference();
    if quiet {
        prop_assert_eq!(stable, log.appended());
        prop_assert_eq!(read, reference);
    } else {
        for (seq, record) in &read {
            prop_assert!(model.readable(*seq), "record {} must not be readable", seq);
            prop_assert_eq!(record, &model.appended[*seq as usize]);
        }
        for seq in reference.keys() {
            prop_assert!(read.contains_key(seq), "stable record {} missing", seq);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn log_agrees_with_the_reference_model(
        devices in 1usize..4,
        write_us in 0u64..400,
        ops in proptest::collection::vec(op(), 1..40),
    ) {
        let log = log_on(devices, write_us);
        let mut tickets: Vec<LogTicket> = Vec::new();
        let mut model = Model::default();
        for op in ops {
            let mut quiet = false;
            match op {
                Op::Append { count, len, seed } => {
                    for _ in 0..count {
                        let seq = model.appended.len() as u64;
                        let record = payload(seq, len, seed);
                        let ticket = log.append(&record);
                        prop_assert_eq!(ticket.seq(), LogSeq(seq));
                        tickets.push(ticket);
                        model.appended.push(record);
                    }
                }
                Op::Wait(at) => {
                    if !tickets.is_empty() {
                        let i = ((tickets.len() as f64 * at) as usize).min(tickets.len() - 1);
                        tickets[i].wait();
                        prop_assert!(tickets[i].is_stable());
                        model.stable.insert(i as u64);
                    }
                }
                Op::Flush => {
                    log.flush();
                    model.stable.extend(0..model.appended.len() as u64);
                    quiet = true;
                }
                Op::Truncate(at) => {
                    let upto = (model.appended.len() as f64 * at) as u64;
                    log.truncate_below(LogSeq(upto));
                    model.watermark = model.watermark.max(upto);
                }
                Op::CorruptTail => {
                    log.flush();
                    model.stable.extend(0..model.appended.len() as u64);
                    let last = (0..model.appended.len() as u64).rev().find(|&s| model.readable(s));
                    prop_assert_eq!(log.corrupt_tail(), last.is_some());
                    // The check's read finds the flipped frame and drops it
                    // with everything after it — nothing, as it is the last.
                    if let Some(last) = last {
                        model.torn.insert(last);
                        model.corrupt_dropped += 1;
                    }
                    quiet = true;
                }
            }
            check(&log, &model, quiet)?;
        }
        log.flush();
        model.stable.extend(0..model.appended.len() as u64);
        check(&log, &model, true)?;
        for t in &tickets {
            t.wait();
        }
    }

    #[test]
    fn any_flipped_bit_truncates_the_read_there(
        devices in 1usize..4,
        lens in proptest::collection::vec(record_len(), 1..40),
        truncate_at in 0.0f64..0.5,
        victim_at in 0.0f64..1.0,
        bit in any::<u32>(),
    ) {
        let log = log_on(devices, 50);
        let records: Vec<Vec<u8>> =
            lens.iter().enumerate().map(|(seq, &len)| payload(seq as u64, len, 0xA5)).collect();
        for record in &records {
            log.append(record);
        }
        log.flush();
        let watermark = (records.len() as f64 * truncate_at) as u64;
        log.truncate_below(LogSeq(watermark));
        let live = records.len() as u64 - watermark;
        let victim = watermark + ((live as f64 * victim_at) as u64).min(live - 1);
        prop_assert!(log.corrupt_bit(LogSeq(victim), bit as usize));

        let expected: Vec<(LogSeq, Vec<u8>)> =
            (watermark..victim).map(|seq| (LogSeq(seq), records[seq as usize].clone())).collect();
        prop_assert_eq!(log.stable_entries(), expected.clone());
        prop_assert_eq!(log.corrupt_dropped(), records.len() as u64 - victim);
        // The truncation holds, and the log takes and reads new records.
        prop_assert_eq!(log.stable_entries(), expected.clone());
        let next = log.append(b"after");
        next.wait();
        let mut after = expected;
        after.push((next.seq(), b"after".to_vec()));
        prop_assert_eq!(log.stable_entries(), after);
    }
}
