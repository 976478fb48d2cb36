//! The systems under test, built only through the engine's public API:
//! in-process graphs and multi-process clusters behind one handle, so the
//! same generator drives both.

use std::path::{Path, PathBuf};
use std::time::Duration;

use streammine::common::Value;
use streammine::core::dist::{Cluster, ClusterSpec, NodeSpec};
use streammine::core::{
    GraphBuilder, LoggingConfig, OperatorConfig, Running, SinkHandle, SinkId, SourceHandle,
    SourceId,
};
use streammine::obs::{Obs, RecoveryTimeline, RegistrySnapshot};
use streammine::operators::{RandomTagger, SketchOp, StampedRelay, Union};

use crate::procfs;
use crate::spans::Spans;
use crate::watchdog::STALL;

/// Decision-log write latency of the in-process workloads and `tcp_chain3`.
pub const LOG_2MS: Duration = Duration::from_millis(2);
/// Count-sketch geometry and cost of the paper's fig 6/7 application.
pub const SKETCH_WIDTH: usize = 256;
pub const SKETCH_DEPTH: usize = 3;
pub const SKETCH_HASH_SEED: u64 = 17;
pub const SKETCH_COST: Duration = Duration::from_micros(300);
/// Engine tracer sampling of the traced run (`Obs::traced(64)` in
/// process, `ClusterSpec::trace_one_in = 64` across processes).
pub const TRACE_ONE_IN: u64 = 64;

/// A running system under test.
pub enum Sut {
    Graph { running: Running, src: SourceId, sink: SinkId },
    Cluster(Box<Cluster>),
}

impl Sut {
    pub fn source(&self) -> &SourceHandle {
        match self {
            Sut::Graph { running, src, .. } => running.source(*src),
            Sut::Cluster(c) => c.source(),
        }
    }

    pub fn sink(&self) -> &SinkHandle {
        match self {
            Sut::Graph { running, sink, .. } => running.sink(*sink),
            Sut::Cluster(c) => c.sink(),
        }
    }

    /// Worker processes of a cluster (none for an in-process graph).
    pub fn worker_pids(&self) -> Vec<u32> {
        match self {
            Sut::Graph { .. } => Vec::new(),
            Sut::Cluster(_) => procfs::children(),
        }
    }

    /// The layer counters as they stand (workers report every 50 ms).
    pub fn metrics(&self) -> RegistrySnapshot {
        match self {
            Sut::Graph { running, .. } => running.metrics(),
            Sut::Cluster(c) => c.cluster_snapshot(),
        }
    }

    /// Stops the system and returns what its layers counted. A cluster's
    /// workers flush their last telemetry report on the way out and its
    /// recovery timelines settle at shutdown, so both are read after it;
    /// a graph's counters before.
    pub fn finish(self, spans: &mut Spans) -> Finished {
        match self {
            Sut::Graph { running, .. } => {
                let registry = running.metrics();
                let t = spans.begin("core.graph.shutdown");
                running.shutdown();
                spans.end(t);
                Finished { registry, timelines: Vec::new() }
            }
            Sut::Cluster(c) => {
                let t = spans.begin("core.dist.launcher.shutdown");
                c.shutdown();
                spans.end(t);
                Finished { registry: c.cluster_snapshot(), timelines: c.recovery_timelines() }
            }
        }
    }
}

/// What a stopped system's layers counted.
pub struct Finished {
    pub registry: RegistrySnapshot,
    /// One per fault the cluster's monitor handled.
    pub timelines: Vec<RecoveryTimeline>,
}

fn traced_obs(traced: bool) -> Obs {
    if traced {
        Obs::traced(TRACE_ONE_IN)
    } else {
        Obs::new()
    }
}

/// `depth` × [`StampedRelay`] under `config`, one source, one sink: the
/// paper's fig 2/3 chain ("each component logs one 64-bit decision per
/// event"). Build and start are timed as one span.
pub fn relay_chain(depth: usize, config: &OperatorConfig, traced: bool, spans: &mut Spans) -> Sut {
    let t = spans.begin("core.graph.build_start");
    let mut b = GraphBuilder::new().with_obs(traced_obs(traced));
    let ids: Vec<_> =
        (0..depth).map(|_| b.add_operator(StampedRelay::new(), config.clone())).collect();
    for pair in ids.windows(2) {
        b.connect(pair[0], pair[1]).expect("chain edge");
    }
    let src = b.source_into(ids[0]).expect("source");
    let sink = b.sink_from(ids[depth - 1]).expect("sink");
    let running = b.build().expect("valid graph").start();
    spans.end(t);
    Sut::Graph { running, src, sink }
}

/// The `chain4_*` graph: four speculative relays, each logging one
/// decision per event on its own simulated 2 ms device.
pub fn chain4(traced: bool, spans: &mut Spans) -> Sut {
    relay_chain(4, &OperatorConfig::speculative(LoggingConfig::simulated(LOG_2MS)), traced, spans)
}

/// The `sketch_2t` graph (paper fig 6/7): a two-input union feeding a
/// stamped count-sketch on two threads, both speculative, both logging on
/// three striped 2 ms devices. The union's second input stays idle; its
/// existence makes the merge order a logged decision.
pub fn union_sketch(traced: bool, spans: &mut Spans) -> Sut {
    let t = spans.begin("core.graph.build_start");
    let mut b = GraphBuilder::new().with_obs(traced_obs(traced));
    let logging = || LoggingConfig::simulated_n(3, LOG_2MS);
    let union = b.add_operator(Union::new(), OperatorConfig::speculative(logging()));
    let sketch = b.add_operator(
        SketchOp::new(SKETCH_WIDTH, SKETCH_DEPTH, SKETCH_HASH_SEED, SKETCH_COST).stamped(),
        OperatorConfig::speculative(logging()).with_threads(2),
    );
    b.connect(union, sketch).expect("edge");
    let src = b.source_into(union).expect("source");
    let _idle = b.source_into(union).expect("second source");
    let sink = b.sink_from(sketch).expect("sink");
    let running = b.build().expect("valid graph").start();
    spans.end(t);
    Sut::Graph { running, src, sink }
}

/// Launches `hops` worker processes running `operator` (each logging on
/// one device with `log_micros` write latency) over loopback TCP and
/// waits until the chain is wired end to end.
pub fn cluster(
    hops: usize,
    operator: &str,
    log_micros: u64,
    worker_bin: &Path,
    traced: bool,
    spans: &mut Spans,
) -> Result<Sut, String> {
    let t = spans.begin("core.dist.launcher.launch_connected");
    let mut spec = ClusterSpec::new(
        vec![NodeSpec::logged(operator, log_micros, 1); hops],
        PathBuf::from(worker_bin),
    );
    if traced {
        spec.trace_one_in = TRACE_ONE_IN;
    }
    let c = Cluster::launch(spec)?;
    let connected = c.wait_connected(STALL);
    spans.end(t);
    if !connected {
        c.shutdown();
        return Err(format!("{hops}-worker cluster never wired up"));
    }
    Ok(Sut::Cluster(Box::new(c)))
}

/// The period at which a cluster's monitor looks for dead workers and
/// new handshakes.
pub fn monitor_poll() -> Duration {
    ClusterSpec::new(Vec::new(), PathBuf::new()).poll
}

/// Sink payloads of a failure-free in-process run of `hops` random
/// taggers over `inputs`, in input order. `GraphBuilder` seeds operator
/// `i`'s RNG with `0xABCD_0000 + i` — `ClusterSpec::rng_seed_base`'s
/// convention — so these bytes are the ground truth for the TCP chains.
pub fn tagger_reference(hops: usize, inputs: &[Value]) -> Vec<Value> {
    let mut b = GraphBuilder::new();
    let ids: Vec<_> =
        (0..hops).map(|_| b.add_operator(RandomTagger, OperatorConfig::plain())).collect();
    for pair in ids.windows(2) {
        b.connect(pair[0], pair[1]).expect("edge");
    }
    let src = b.source_into(ids[0]).expect("source");
    let sink = b.sink_from(ids[hops - 1]).expect("sink");
    let running = b.build().expect("valid graph").start();
    for v in inputs {
        running.source(src).push(v.clone());
    }
    assert!(
        running.sink(sink).wait_final(inputs.len(), STALL),
        "in-process reference chain did not finish"
    );
    let out = running.sink(sink).final_events_by_id().into_iter().map(|e| e.payload).collect();
    running.shutdown();
    out
}
