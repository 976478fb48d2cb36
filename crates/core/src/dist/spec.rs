//! The serialized per-process topology spec.
//!
//! The launcher hands each worker process its slice of the topology as a
//! [`WorkerSpec`]: which operator to run and its [`OperatorConfig`] — the
//! same configuration an operator in process takes — the edge ids it
//! consumes and produces, and where the parent's control listener lives.
//! The spec travels CRC-framed and hex-encoded in the
//! `STREAMMINE_WORKER_SPEC` environment variable, so a worker binary needs
//! no argument parsing, and a truncated or corrupted spec, or one whose
//! config does not validate, is refused before anything starts.

use std::path::{Path, PathBuf};

use streammine_common::codec::{decode_from_slice, Decode, DecodeError, Decoder, Encode, Encoder};
use streammine_common::crc32;

use crate::config::OperatorConfig;

/// Environment variable carrying the hex-encoded [`WorkerSpec`].
pub const SPEC_ENV: &str = "STREAMMINE_WORKER_SPEC";

/// Everything one worker process needs to build and run its node.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerSpec {
    /// Worker index == operator index in the cluster chain; it also fixes
    /// the operator's RNG seed, as an operator's index does in process.
    pub worker: u32,
    /// Restart count of this worker (0 on first launch); the lease epoch.
    pub incarnation: u64,
    /// Address of the parent's control listener.
    pub ctrl_addr: String,
    /// Operator name, resolved against the worker binary's registry.
    pub operator: String,
    /// The operator's configuration, as the node is built from it.
    pub config: OperatorConfig,
    /// Edge ids consumed, in input-port order.
    pub in_edges: Vec<u32>,
    /// Edge ids produced, in output order.
    pub out_edges: Vec<u32>,
    /// Causal-tracer sampling rate: trace one source event in this many
    /// (`0` = tracer disabled). Fixed per cluster so every worker samples
    /// the same deterministic trace ids.
    pub trace_one_in: u64,
    /// Telemetry report period in milliseconds (`0` = only the final
    /// flush on clean shutdown).
    pub telemetry_millis: u64,
    /// The cluster's directory, owned by the launcher: the worker's log —
    /// its decisions and checkpoint images — is `worker<worker>.log` in it
    /// (`log_file`), where every later incarnation of the slot reads it.
    pub checkpoint_dir: String,
}

impl Encode for WorkerSpec {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(self.worker);
        enc.put_u64(self.incarnation);
        self.ctrl_addr.encode(enc);
        self.operator.encode(enc);
        self.config.encode(enc);
        self.in_edges.encode(enc);
        self.out_edges.encode(enc);
        enc.put_u64(self.trace_one_in);
        enc.put_u64(self.telemetry_millis);
        self.checkpoint_dir.encode(enc);
    }
}

impl Decode for WorkerSpec {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(WorkerSpec {
            worker: dec.get_u32()?,
            incarnation: dec.get_u64()?,
            ctrl_addr: String::decode(dec)?,
            operator: String::decode(dec)?,
            config: OperatorConfig::decode(dec)?,
            in_edges: Vec::<u32>::decode(dec)?,
            out_edges: Vec::<u32>::decode(dec)?,
            trace_one_in: dec.get_u64()?,
            telemetry_millis: dec.get_u64()?,
            checkpoint_dir: String::decode(dec)?,
        })
    }
}

/// The log file of `worker` in the cluster directory `dir`.
pub(crate) fn log_file(dir: impl AsRef<Path>, worker: u32) -> PathBuf {
    dir.as_ref().join(format!("worker{worker}.log"))
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

    /// Parses a spec produced by [`WorkerSpec::to_hex`] whose config
    /// validates.
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
        let spec = decode_from_slice::<WorkerSpec>(payload)
            .map_err(|e| format!("spec decode failed: {e}"))?;
        spec.config.validate().map_err(|e| format!("spec config invalid: {e}"))?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    use crate::config::{LoggingConfig, NodeConfig};
    use streammine_sketch::ErrorBound;
    use streammine_stm::{CommitOrder, DependencyMode, StmConfig};
    use streammine_storage::disk::DiskSpec;

    fn spec() -> WorkerSpec {
        WorkerSpec {
            worker: 1,
            incarnation: 3,
            ctrl_addr: "127.0.0.1:9000".into(),
            operator: "random-tagger".into(),
            config: OperatorConfig::default(),
            in_edges: vec![1],
            out_edges: vec![2],
            trace_one_in: 8,
            telemetry_millis: 50,
            checkpoint_dir: "/tmp/streammine-ckpt".into(),
        }
    }

    /// Every field of a config that is not the default crosses: two
    /// threads in conflict order on two disks of different models, and an
    /// approximate bound with no checkpoints.
    fn exotic() -> OperatorConfig {
        let hdd = DiskSpec { fault_rate: 0.125, ..DiskSpec::local_hdd() };
        let logging =
            LoggingConfig { disks: vec![DiskSpec::simulated(Duration::from_micros(700)), hdd] };
        OperatorConfig {
            checkpoint_every: None,
            stm: StmConfig {
                commit_order: CommitOrder::Conflict,
                dependency_mode: DependencyMode::TaintAll,
                fastpath: false,
            },
            node: NodeConfig { max_open_speculations: 3, max_retained_spec_outputs: 5 },
            ..OperatorConfig::speculative(logging).with_threads(2)
        }
        .with_approximate_recovery(ErrorBound::new(0.01, 0.05))
    }

    #[test]
    fn a_config_that_is_not_the_default_roundtrips() {
        let s = WorkerSpec { config: exotic(), ..spec() };
        let back = decode_from_slice::<WorkerSpec>(&s.encode_to_vec()).unwrap();
        assert_eq!(back, s);
    }

    /// A config that decodes but does not validate, or whose bound does
    /// not decode, is refused with the spec: the worker exits `BAD_SPEC`.
    #[test]
    fn a_spec_whose_config_is_out_of_range_is_refused() {
        assert!(WorkerSpec::from_hex(&spec().to_hex()).is_ok());
        let threads = WorkerSpec { config: OperatorConfig::default().with_threads(0), ..spec() };
        let err = WorkerSpec::from_hex(&threads.to_hex()).unwrap_err();
        assert!(err.contains("threads"), "{err}");
        let no_epsilon = ErrorBound { epsilon: 0.0, delta: 0.05 };
        let config = OperatorConfig::default().with_approximate_recovery(no_epsilon);
        let err = WorkerSpec::from_hex(&WorkerSpec { config, ..spec() }.to_hex()).unwrap_err();
        assert!(err.contains("ErrorBound"), "{err}");
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
