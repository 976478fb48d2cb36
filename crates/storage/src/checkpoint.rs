//! Checkpoint images.
//!
//! Stateful operators periodically checkpoint their local state so that the
//! decision log can be truncated and recovery does not need to replay the
//! stream from the beginning (§2.2). A [`Checkpoint`] records the state
//! snapshot together with the log sequence number it covers and where each
//! input stream stands ([`InputFrontier`]); recovery restores the newest
//! image and replays only the log suffix.
//!
//! An image is not stored on its own: the engine appends it to the
//! operator's own [`StableLog`](crate::log::StableLog) as one more record,
//! so an image and the decisions after it share one framing, one torn-tail
//! rule and one device queue. A torn newest image ends the readable log
//! where it starts, and recovery falls back to the image before it.

use streammine_common::codec::{Decode, DecodeError, Decoder, Encode, Encoder};

use crate::log::LogSeq;

/// Where one input stream stands at a checkpoint: the durable part of an
/// operator's per-port frontier. Recovery rewinds the port to it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InputFrontier {
    /// The link sequence read next: replay of the stream starts here.
    pub position: u64,
    /// Data events read below `position` (a frame may carry several, or
    /// none). A receiver that resumes the edge in a new process tells its
    /// sender this count, and the sender swallows that many.
    pub events: u64,
    /// How many of them were final below `position`: those that arrived
    /// final, plus the `Finalize` notices read there. The finalize of an
    /// event read below `position` may lie above it, where the resumed
    /// edge reads it again; it counts there, not here.
    pub finals: u64,
    /// Every upstream event whose id sequence is below it is covered by
    /// the snapshot. A sender that recovers later re-sends such events
    /// under fresh link sequences, and the operator's memory of the ids it
    /// consumed dies with it: this is what lets it drop them all the same.
    pub covered_below: u64,
}

impl Encode for InputFrontier {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.position);
        enc.put_u64(self.events);
        enc.put_u64(self.finals);
        enc.put_u64(self.covered_below);
    }
}

impl Decode for InputFrontier {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(InputFrontier {
            position: dec.get_u64()?,
            events: dec.get_u64()?,
            finals: dec.get_u64()?,
            covered_below: dec.get_u64()?,
        })
    }
}

/// One stored checkpoint.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Checkpoint {
    /// Monotone checkpoint id, assigned by the operator that took it.
    pub id: u64,
    /// The snapshot covers all log records with sequence `< covers_log`.
    pub covers_log: LogSeq,
    /// Number of events the operator had fully processed at snapshot time
    /// (the serial counter resumes here).
    pub events_processed: u64,
    /// Per input port: where the stream stands.
    pub inputs: Vec<InputFrontier>,
    /// Per output edge: the data events the covered events put on it, sent
    /// or swallowed as already there. Recovery replays only the events the
    /// image does not cover, so what the edge carries beyond this count is
    /// exactly the re-executed outputs that are on the wire already and
    /// must not be sent again.
    pub outputs_sent: Vec<u64>,
    /// Per output edge: the `Finalize` notices the covered events put on
    /// it, sent or swallowed — the same baseline for the finalizes.
    pub finals_sent: Vec<u64>,
    /// Serialized operator state.
    pub state: Vec<u8>,
    /// Serialized operator RNG state: restoring it keeps the random stream
    /// continuous across a crash, so re-executed events that were never
    /// logged still draw the same values the failure-free run drew.
    pub rng_state: Vec<u8>,
    /// Approximate recovery's error budget: updates permanently missing
    /// from the state lineage this image belongs to, its own resume
    /// window included.
    pub approx_loss: u64,
}

impl Encode for Checkpoint {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.id);
        enc.put_u64(self.covers_log.0);
        enc.put_u64(self.events_processed);
        self.inputs.encode(enc);
        self.outputs_sent.encode(enc);
        self.finals_sent.encode(enc);
        enc.put_bytes(&self.state);
        enc.put_bytes(&self.rng_state);
        enc.put_u64(self.approx_loss);
    }
}

impl Decode for Checkpoint {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Checkpoint {
            id: dec.get_u64()?,
            covers_log: LogSeq(dec.get_u64()?),
            events_processed: dec.get_u64()?,
            inputs: Vec::<InputFrontier>::decode(dec)?,
            outputs_sent: Vec::<u64>::decode(dec)?,
            finals_sent: Vec::<u64>::decode(dec)?,
            state: dec.get_bytes()?,
            rng_state: dec.get_bytes()?,
            approx_loss: dec.get_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streammine_common::codec::roundtrip;

    #[test]
    fn checkpoint_roundtrips_through_codec() {
        let at = |position, events, covered_below| InputFrontier {
            position,
            events,
            finals: events - 1,
            covered_below,
        };
        let cp = Checkpoint {
            id: 3,
            covers_log: LogSeq(99),
            events_processed: 42,
            inputs: vec![at(1, 1, 7), at(2, 5, 8), at(3, 2, 9)],
            outputs_sent: vec![4, 5],
            finals_sent: vec![3, 5],
            state: vec![0xAB; 16],
            rng_state: vec![0xCD; 32],
            approx_loss: 6,
        };
        assert_eq!(roundtrip(&cp).unwrap(), cp);
    }
}
