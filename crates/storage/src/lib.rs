//! Simulated stable storage for StreamMine.
//!
//! Fault-tolerant stream processing stands or falls with the latency of
//! forcing *determinants* (non-deterministic decisions) to stable storage:
//! an operator may only emit a **final** event once every decision that
//! influenced it is durable (paper §2.4). This crate provides:
//!
//! * [`disk`] — parameterized disk models. The paper's experiments use both
//!   real local disks and "simulated disks" with fixed 10 ms / 5 ms write
//!   latency (the `Sim 10` / `Sim 5` configurations of Figures 2–3);
//!   [`DiskSpec`](disk::DiskSpec) expresses all of them.
//! * [`log`] — the asynchronous decision log. Requests are handed to a set
//!   of writer threads (one per storage point plus a collector, §2.4),
//!   batched per device (group commit), and acknowledged through
//!   [`LogTicket`](log::LogTicket)s that support both blocking waits and
//!   callbacks — the engine subscribes a callback that authorizes the
//!   corresponding transaction's commit. What is stable is kept as one
//!   byte image of CRC-framed records with a dense index by sequence
//!   number, and a ticket is the log plus a sequence number, so a warm
//!   append allocates nothing per record.
//! * [`checkpoint`] — a checkpoint store with the standard
//!   checkpoint/log-truncation contract.
//!
//! # Example
//!
//! ```
//! use std::time::Duration;
//! use streammine_storage::disk::DiskSpec;
//! use streammine_storage::log::StableLog;
//!
//! let log = StableLog::new(vec![DiskSpec::simulated(Duration::from_millis(1)); 2]);
//! let ticket = log.append(b"decision: 42");
//! ticket.wait();
//! assert!(ticket.is_stable());
//! assert_eq!(log.stable_entries().len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checkpoint;
pub mod disk;
pub mod log;

pub use checkpoint::{CheckpointObs, CheckpointStore};
pub use disk::{DiskSpec, StorageDevice};
pub use log::{LogObs, LogSeq, LogTicket, StableLog};
