//! The serialized per-process topology spec.
//!
//! The launcher hands each worker process its slice of the topology as a
//! [`WorkerSpec`]: which operator to run, its logging and RNG
//! configuration, the edge ids it consumes and produces, and where the
//! parent's control listener lives. The spec travels CRC-framed and
//! hex-encoded in the `STREAMMINE_WORKER_SPEC` environment variable, so a
//! worker binary needs no argument parsing and a truncated or corrupted
//! spec is detected before anything starts.

use streammine_common::codec::{decode_from_slice, Decode, DecodeError, Decoder, Encode, Encoder};
use streammine_common::crc32;

/// Environment variable carrying the hex-encoded [`WorkerSpec`].
pub const SPEC_ENV: &str = "STREAMMINE_WORKER_SPEC";

/// Everything one worker process needs to build and run its node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerSpec {
    /// Worker index == operator index in the cluster chain.
    pub worker: u32,
    /// Restart count of this worker (0 on first launch); the lease epoch.
    pub incarnation: u64,
    /// Address of the parent's control listener.
    pub ctrl_addr: String,
    /// Operator name, resolved against the worker binary's registry.
    pub operator: String,
    /// Seed of the operator's deterministic RNG. Fixed per worker slot so
    /// every incarnation re-derives the same random decisions.
    pub rng_seed: u64,
    /// Simulated stable-write latency of the decision log, microseconds.
    pub log_micros: u64,
    /// Number of replicated decision-log disks.
    pub disks: u32,
    /// Edge ids consumed, in input-port order.
    pub in_edges: Vec<u32>,
    /// Edge ids produced, in output order.
    pub out_edges: Vec<u32>,
    /// Heartbeat interval in milliseconds.
    pub beat_millis: u64,
    /// Causal-tracer sampling rate: trace one source event in this many
    /// (`0` = tracer disabled). Fixed per cluster so every worker samples
    /// the same deterministic trace ids.
    pub trace_one_in: u64,
    /// Telemetry report period in milliseconds (`0` = only the final
    /// flush on clean shutdown).
    pub telemetry_millis: u64,
    /// Checkpoint interval in processed events (`0` = no checkpointing —
    /// the worker recovers by full upstream replay).
    pub checkpoint_every: u64,
    /// The cluster's checkpoint directory, owned by the launcher: the
    /// worker's image is `worker<worker>.ckpt` in it, where every later
    /// incarnation of the slot finds it.
    pub checkpoint_dir: String,
    /// Approximate-recovery ε in parts-per-million (`0` = precise
    /// recovery; the ppm pair is only meaningful together).
    pub approx_eps_ppm: u64,
    /// Approximate-recovery δ in parts-per-million.
    pub approx_delta_ppm: u64,
}

impl Encode for WorkerSpec {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(self.worker);
        enc.put_u64(self.incarnation);
        self.ctrl_addr.encode(enc);
        self.operator.encode(enc);
        enc.put_u64(self.rng_seed);
        enc.put_u64(self.log_micros);
        enc.put_u32(self.disks);
        self.in_edges.encode(enc);
        self.out_edges.encode(enc);
        enc.put_u64(self.beat_millis);
        enc.put_u64(self.trace_one_in);
        enc.put_u64(self.telemetry_millis);
        enc.put_u64(self.checkpoint_every);
        self.checkpoint_dir.encode(enc);
        enc.put_u64(self.approx_eps_ppm);
        enc.put_u64(self.approx_delta_ppm);
    }
}

impl Decode for WorkerSpec {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(WorkerSpec {
            worker: dec.get_u32()?,
            incarnation: dec.get_u64()?,
            ctrl_addr: String::decode(dec)?,
            operator: String::decode(dec)?,
            rng_seed: dec.get_u64()?,
            log_micros: dec.get_u64()?,
            disks: dec.get_u32()?,
            in_edges: Vec::<u32>::decode(dec)?,
            out_edges: Vec::<u32>::decode(dec)?,
            beat_millis: dec.get_u64()?,
            trace_one_in: dec.get_u64()?,
            telemetry_millis: dec.get_u64()?,
            checkpoint_every: dec.get_u64()?,
            checkpoint_dir: String::decode(dec)?,
            approx_eps_ppm: dec.get_u64()?,
            approx_delta_ppm: dec.get_u64()?,
        })
    }
}

impl WorkerSpec {
    /// Serializes the spec: codec bytes, CRC-framed, hex-encoded.
    pub fn to_hex(&self) -> String {
        let framed = crc32::frame(self.encode_to_vec());
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut out = String::with_capacity(framed.len() * 2);
        for b in framed {
            out.push(HEX[(b >> 4) as usize] as char);
            out.push(HEX[(b & 0xf) as usize] as char);
        }
        out
    }

    /// Parses a spec produced by [`WorkerSpec::to_hex`].
    pub fn from_hex(hex: &str) -> Result<WorkerSpec, String> {
        if !hex.len().is_multiple_of(2) {
            return Err("spec hex has odd length".into());
        }
        let mut bytes = Vec::with_capacity(hex.len() / 2);
        let digits = hex.as_bytes();
        for pair in digits.chunks(2) {
            let hi = (pair[0] as char).to_digit(16).ok_or("non-hex digit in spec")?;
            let lo = (pair[1] as char).to_digit(16).ok_or("non-hex digit in spec")?;
            bytes.push(((hi << 4) | lo) as u8);
        }
        let payload = crc32::unframe(&bytes).ok_or("spec frame invalid (CRC or length)")?;
        decode_from_slice::<WorkerSpec>(payload).map_err(|e| format!("spec decode failed: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> WorkerSpec {
        WorkerSpec {
            worker: 1,
            incarnation: 3,
            ctrl_addr: "127.0.0.1:9000".into(),
            operator: "random-tagger".into(),
            rng_seed: 0xABCD_0001,
            log_micros: 200,
            disks: 1,
            in_edges: vec![1],
            out_edges: vec![2],
            beat_millis: 20,
            trace_one_in: 8,
            telemetry_millis: 50,
            checkpoint_every: 32,
            checkpoint_dir: "/tmp/streammine-ckpt".into(),
            approx_eps_ppm: 10_000,
            approx_delta_ppm: 50_000,
        }
    }

    #[test]
    fn spec_roundtrips_through_hex() {
        let s = spec();
        assert_eq!(WorkerSpec::from_hex(&s.to_hex()).unwrap(), s);
    }

    #[test]
    fn corrupted_spec_is_rejected() {
        let mut hex = spec().to_hex();
        // Flip one payload nibble: the CRC frame catches it.
        let flip = hex.len() / 2;
        let orig = hex.as_bytes()[flip] as char;
        let replacement = if orig == '0' { '1' } else { '0' };
        hex.replace_range(flip..flip + 1, &replacement.to_string());
        assert!(WorkerSpec::from_hex(&hex).is_err());
    }

    #[test]
    fn truncated_and_malformed_specs_are_rejected() {
        let hex = spec().to_hex();
        assert!(WorkerSpec::from_hex(&hex[..hex.len() - 2]).is_err());
        assert!(WorkerSpec::from_hex("abc").is_err(), "odd length");
        assert!(WorkerSpec::from_hex("zz").is_err(), "non-hex");
    }
}
