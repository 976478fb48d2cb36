//! The StreamMine engine.
//!
//! This crate is the paper's primary contribution, assembled: an event
//! stream processing engine whose operators can run **speculatively** —
//! emitting events before their decision logs are stable, processing
//! speculative inputs inside open STM transactions, and finalizing,
//! revising or revoking events as speculation resolves — while still
//! guaranteeing **precise recovery**: the outputs during and after a
//! failure are identical to a failure-free run.
//!
//! # Layers
//!
//! * [`operator`] — the operator abstraction (setup / process / terminate,
//!   §2.3) with dual-mode state ([`state`]) and intercepted non-determinism
//!   ([`determinant`]).
//! * [`message`] / [`plumbing`] — the wire protocol between operators
//!   (speculative data, finalize / revoke, acks, replay) and the inbox a
//!   coordinator reads it from.
//! * [`node`] — the per-operator runtime implementing both execution modes
//!   and the recovery procedure.
//! * [`graph`] / [`endpoints`] — graph assembly, sources, sinks and fault
//!   injection.
//!
//! # Quickstart
//!
//! ```
//! use std::time::Duration;
//! use streammine_common::event::{Event, Value};
//! use streammine_core::{GraphBuilder, OpCtx, Operator, OperatorConfig};
//! use streammine_stm::StmAbort;
//!
//! struct AddOne;
//! impl Operator for AddOne {
//!     fn process(&self, ctx: &mut OpCtx<'_, '_>, event: &Event) -> Result<(), StmAbort> {
//!         let v = event.payload.as_i64().unwrap_or(0);
//!         ctx.emit(Value::Int(v + 1));
//!         Ok(())
//!     }
//! }
//!
//! let mut builder = GraphBuilder::new();
//! let op = builder.add_operator(AddOne, OperatorConfig::plain());
//! let src = builder.source_into(op).unwrap();
//! let sink = builder.sink_from(op).unwrap();
//! let running = builder.build().unwrap().start();
//!
//! running.source(src).push(Value::Int(41));
//! assert!(running.sink(sink).wait_final(1, Duration::from_secs(5)));
//! assert_eq!(running.sink(sink).final_events()[0].payload, Value::Int(42));
//! running.shutdown();
//! ```

#![warn(missing_docs)]
// Engine code degrades failures into typed fallbacks (reconnect, replay,
// truncate); panicking shortcuts are reserved for tests.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod config;
pub mod determinant;
pub mod dist;
pub mod endpoints;
pub mod graph;
pub mod message;
pub mod node;
pub mod operator;
pub mod plumbing;
mod restart;
pub mod state;

pub use config::{LoggingConfig, NodeConfig, OperatorConfig, RecoveryMode};
pub use determinant::{DecisionRecord, Determinant};
pub use endpoints::{SinkHandle, SinkRecord, SourceHandle};
pub use graph::{Graph, GraphBuilder, Running, SinkId, SourceId};
pub use message::{Control, Message};
pub use operator::{OpCtx, Operator, PortId, SetupCtx};
pub use state::{StateHandle, StateRegistry};
