//! Standard operator library for StreamMine.
//!
//! Implements the operator classes the paper enumerates (§1):
//!
//! | Operator | State | Determinism | Here |
//! |---|---|---|---|
//! | transformation | stateless | deterministic | [`Map`] |
//! | enrichment | stateless | deterministic, *costly* | [`Enrich`] |
//! | union | stateless | order non-deterministic | [`Union`] |
//! | split | stateless | randomized routing | [`Split`] |
//! | aggregation (count window) | stateful | order-sensitive | [`CountWindow`] |
//! | aggregation (system-time window) | stateful | time non-deterministic | [`SystemTimeWindow`] |
//! | classifier (§3.1 example) | stateful, fine-grained | deterministic | [`Classifier`] |
//! | count-sketch top-k (§4) | stateful, fine-grained, costly | deterministic | [`SketchOp`] |
//! | count-min (approximate-recovery workload) | stateful, mergeable, bounded-error | deterministic | [`CountMinOp`] |
//! | relay with logged decision (Fig. 2/3 workload) | stateless | random non-deterministic | [`StampedRelay`] |
//! | relay with *output-visible* random tag (chaos workload) | stateless | random non-deterministic | [`RandomTagger`] |
//! | Bernoulli sample / Monte-Carlo (§1's random class) | stateless/stateful | random non-deterministic | [`Sample`], [`MonteCarloPi`] |
//!
//! All operators keep their state in registered cells, so each runs
//! unchanged in plain or speculative configuration.

#![warn(missing_docs)]

mod basic;
mod classifier;
mod sample;
mod sketch_op;
mod window;

pub use basic::{busy_work, Enrich, Map, RandomTagger, Split, StampedRelay, Union};
pub use classifier::Classifier;
pub use sample::{MonteCarloPi, Sample};
pub use sketch_op::{CountMinOp, SketchOp};
pub use window::{CountWindow, SystemTimeWindow, WindowAgg};
