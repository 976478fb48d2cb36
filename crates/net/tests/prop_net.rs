//! Property-based tests for the link substrate: FIFO order, replay
//! equivalence, ack/retention consistency, backoff arithmetic, and the
//! ring checked against a `Vec` model.

use proptest::prelude::*;
use streammine_common::BackoffConfig;
use streammine_net::{link, LinkConfig, LinkError, SendOutcome};

/// How long the ring model waits for a message a delay spike (under 50 µs
/// here) holds in flight.
const SPIKE_PATIENCE: std::time::Duration = std::time::Duration::from_secs(5);

proptest! {
    #[test]
    fn delivery_is_fifo_under_jitter(
        count in 1usize..80,
        jitter in 0.0f64..0.95,
    ) {
        let cfg = LinkConfig {
            delay: std::time::Duration::from_micros(50),
            jitter,
            seed: 7,
            ..LinkConfig::instant()
        };
        let (tx, rx) = link::<usize>(cfg);
        for i in 0..count {
            tx.send(i).unwrap();
        }
        for i in 0..count {
            let (seq, v) = rx.recv().unwrap();
            prop_assert_eq!(seq as usize, i);
            prop_assert_eq!(v, i);
        }
    }

    #[test]
    fn replay_is_equivalent_to_original_suffix(
        count in 1u64..60,
        from_frac in 0.0f64..1.0,
    ) {
        let (tx, rx) = link::<u64>(LinkConfig::instant());
        for i in 0..count {
            tx.send(i).unwrap();
        }
        for _ in 0..count {
            rx.recv().unwrap();
        }
        let from = (count as f64 * from_frac) as u64;
        rx.rewind_to(from);
        for i in from..count {
            let (seq, v) = rx.recv().unwrap();
            prop_assert_eq!(seq, i);
            prop_assert_eq!(v, i);
        }
    }

    #[test]
    fn ack_then_replay_only_has_unacked(
        count in 1u64..60,
        ack_frac in 0.0f64..1.0,
    ) {
        let (tx, rx) = link::<u64>(LinkConfig::instant());
        for i in 0..count {
            tx.send(i).unwrap();
        }
        for _ in 0..count {
            // original deliveries
            rx.recv().unwrap();
        }
        let ack = (count as f64 * ack_frac) as u64;
        tx.ack_upto(ack);
        prop_assert_eq!(tx.retained_len() as u64, count - ack);
        rx.rewind_to(0);
        let mut replayed = 0;
        while let Ok(Some((seq, _))) = rx.try_recv() {
            prop_assert!(seq >= ack, "acked message {} replayed", seq);
            replayed += 1;
        }
        prop_assert_eq!(replayed, count - ack);
    }

    #[test]
    fn backoff_delay_never_overflows_and_stays_capped(
        base_us in 0u64..10_000_000,
        cap_us in 0u64..60_000_000,
        failures in 0u32..u32::MAX,
    ) {
        let cfg = BackoffConfig {
            base: std::time::Duration::from_micros(base_us),
            cap: std::time::Duration::from_micros(cap_us),
        };
        // Must not panic for any failure count (shift/multiply overflow)
        // and must never exceed the cap.
        let d = cfg.delay(failures);
        prop_assert!(d <= cfg.cap.max(std::time::Duration::ZERO) || failures == 0 && d.is_zero());
        if failures > 0 {
            prop_assert!(d <= cfg.cap);
        }
    }

    #[test]
    fn backoff_delay_is_monotone_up_to_the_cap(
        base_us in 1u64..1_000_000,
        cap_us in 1u64..120_000_000,
        failures in 1u32..64,
    ) {
        let cfg = BackoffConfig {
            base: std::time::Duration::from_micros(base_us),
            cap: std::time::Duration::from_micros(cap_us),
        };
        let prev = cfg.delay(failures);
        let next = cfg.delay(failures + 1);
        prop_assert!(next >= prev, "delay({}) = {prev:?} > delay({}) = {next:?}",
            failures, failures + 1);
    }

    /// The ring against a `Vec` model under arbitrary interleavings of
    /// send / push / recv / sever / heal / replay / ack / delay spike /
    /// held acks: the
    /// receiver is handed exactly the sequence at its cursor (in order,
    /// never a gap), a rewind stops at what is retained, the rejecting
    /// send says `Saturated` iff the window is full and then uses no
    /// sequence number, and nothing accepted is lost before it is both
    /// read and acknowledged. A message a spike still holds in flight is
    /// not readable yet: the non-blocking read may find nothing, the
    /// blocking one waits out the spike and gets exactly that message. The
    /// watermark is the highest ack taken while acks were not held; a
    /// release applies the highest one held.
    #[test]
    fn ring_matches_vec_model(
        capacity in 1usize..10,
        ops in proptest::collection::vec((0u8..12, 0u64..48), 1..160),
    ) {
        let (tx, rx) = link::<u64>(LinkConfig::instant().with_capacity(capacity));
        // The model: sequence `s` carries payload `s`; `tail` messages were
        // accepted, those below `base` are gone.
        let (mut tail, mut base, mut cursor, mut acked) = (0u64, 0u64, 0u64, 0u64);
        let mut limit = u64::MAX;
        // The highest ack taken while held, if acks are held.
        let mut held: Option<u64> = None;
        for (op, arg) in ops {
            let full = (tail - cursor) as usize >= capacity;
            match op {
                0 | 1 => match tx.send(tail) {
                    Ok(seq) => {
                        prop_assert!(!full, "send accepted into a full window");
                        prop_assert_eq!(seq, tail);
                        tail += 1;
                    }
                    Err(e) => {
                        prop_assert_eq!(e, LinkError::Saturated);
                        prop_assert!(full, "send rejected with room in the window");
                        prop_assert_eq!(tx.sent(), tail, "a rejected send used a sequence number");
                    }
                },
                2 => {
                    let expect = if (tail + 1 - cursor) as usize >= capacity {
                        SendOutcome::Saturated(tail)
                    } else if tail >= limit {
                        SendOutcome::Queued(tail)
                    } else {
                        SendOutcome::Sent(tail)
                    };
                    prop_assert_eq!(tx.push(tail), expect);
                    tail += 1;
                }
                3 | 4 => {
                    let present = cursor < tail.min(limit);
                    let got = rx.try_recv().unwrap();
                    prop_assert!(got.is_none() || present, "read {:?} past the tail or the sever", got);
                    if present {
                        let got = got.map_or_else(|| rx.recv_timeout(SPIKE_PATIENCE), Ok);
                        prop_assert_eq!(got, Ok((cursor, cursor)));
                        cursor += 1;
                    }
                }
                5 => {
                    tx.sever();
                    limit = limit.min(tail);
                }
                6 => {
                    tx.heal();
                    limit = u64::MAX;
                }
                7 => {
                    let to = arg.max(base).min(cursor);
                    prop_assert_eq!(rx.rewind_to(arg), to);
                    cursor = to;
                }
                8 => {
                    tx.ack_upto(arg);
                    match &mut held {
                        Some(held) => *held = (*held).max(arg),
                        None => acked = acked.max(arg),
                    }
                }
                10 => {
                    tx.hold_acks();
                    held = Some(held.unwrap_or(acked));
                }
                11 => {
                    tx.release_acks();
                    acked = acked.max(held.take().unwrap_or(0));
                }
                _ => tx.delay_spike(
                    std::time::Duration::from_micros(arg),
                    std::time::Duration::from_micros(200),
                ),
            }
            base = base.max(acked.min(cursor));
            prop_assert_eq!(tx.retained_len() as u64, tail - base);
            prop_assert_eq!(tx.acked(), acked);
            prop_assert_eq!(tx.is_severed(), limit != u64::MAX);
        }
        // Nothing accepted and still owed is lost: from the first retained
        // sequence the receiver gets every one, in order, to the tail.
        tx.heal();
        rx.rewind_to(0);
        for seq in base..tail {
            prop_assert_eq!(rx.recv_timeout(SPIKE_PATIENCE), Ok((seq, seq)));
        }
        prop_assert_eq!(rx.try_recv().unwrap(), None);
    }

    #[test]
    fn sever_heal_preserves_sequence_monotonicity(
        before in 1u64..20,
        during in 1u64..20,
        after in 1u64..20,
    ) {
        let (tx, rx) = link::<u64>(LinkConfig::instant());
        for i in 0..before {
            tx.send(i).unwrap();
        }
        tx.sever();
        for i in 0..during {
            tx.send(i).unwrap();
        }
        tx.heal();
        for i in 0..after {
            tx.send(i).unwrap();
        }
        let mut prev = None;
        for _ in 0..(before + during + after) {
            let (seq, _) = rx.recv().unwrap();
            if let Some(p) = prev {
                prop_assert!(seq > p);
            }
            prev = Some(seq);
        }
    }
}
