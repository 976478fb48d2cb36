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
//! * [`log`] — the asynchronous decision log. Requests are batched per
//!   device (group commit, §2.4) and acknowledged through
//!   [`LogTicket`](log::LogTicket)s that support both blocking waits and
//!   callbacks — the engine subscribes a callback that authorizes the
//!   corresponding transaction's commit. The paper's writer thread per
//!   storage point is a timeline here: the log runs no thread, and every
//!   read of it completes the groups whose write has ended. What is
//!   stable is one byte image of CRC-framed records with a dense index by
//!   sequence number, so a warm append allocates nothing per record.
//!   A log opened on a file outlives its process: a group reaches the
//!   file before it is stable, and reopening reads it back.
//! * [`checkpoint`] — the checkpoint image and its codec. An image is one
//!   more record in its operator's log, and once it is stable the log is
//!   truncated below what it covers: one durable stream per operator.
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

pub use disk::{DiskSpec, StorageDevice};
pub use log::{LogObs, LogSeq, LogTicket, StableLog};
