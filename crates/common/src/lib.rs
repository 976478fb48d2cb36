//! Shared foundations for the StreamMine stream-processing framework.
//!
//! This crate contains the pieces every other StreamMine crate builds on:
//!
//! * [`backoff`] — the one capped exponential backoff every retry waits on.
//! * [`event`] — the event model: [`Event`](event::Event) carrying a typed
//!   [`Value`](event::Value) payload, identified by `(source, sequence)` and a
//!   *version* that is bumped whenever a speculative event is re-emitted after
//!   a rollback.
//! * [`ids`] — newtype identifiers for operators and events.
//! * [`codec`] — a small self-contained binary wire format (no serde format
//!   crate is available offline; checkpoints, decision logs and link frames
//!   all use this).
//! * [`clock`] — a clock abstraction so tests can control time, and the
//!   exact timer wake-ups a node's coordinator asks for.
//! * [`crc32`] — per-record checksum framing for stable-storage records,
//!   so recovery can truncate a torn log tail instead of panicking.
//! * [`rng`] — a deterministic, seedable RNG used both for workload
//!   generation and for the *logged* non-deterministic decisions of
//!   operators.
//! * [`pool`] — a minimal thread pool used by operator runtimes.
//! * [`stats`] — latency/throughput recorders used by the benchmark harness.
//!
//! # Example
//!
//! ```
//! use streammine_common::event::{Event, Value};
//! use streammine_common::ids::{EventId, OperatorId};
//!
//! let src = OperatorId::new(1);
//! let ev = Event::new(EventId::new(src, 0), 42, Value::from(7i64));
//! assert!(ev.is_final());
//! assert_eq!(ev.payload.as_i64(), Some(7));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backoff;
pub mod buf;
pub mod clock;
pub mod codec;
pub mod crc32;
pub mod error;
pub mod event;
pub mod ids;
pub mod pool;
pub mod rng;
pub mod stats;

pub use backoff::BackoffConfig;
pub use clock::{Clock, ManualClock, SystemClock};
pub use error::{Error, Result};
pub use event::{Event, Value};
pub use ids::{EventId, OperatorId};
pub use rng::DetRng;
