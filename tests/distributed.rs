//! Multi-process distributed chaos: a chain of worker OS processes joined
//! by the TCP transport must produce sink outputs byte-identical to the
//! same chain run in-process with no faults — under real SIGKILLs, dropped
//! listeners, one-way socket partitions, and heartbeat suppression.
//!
//! This is the paper's precise-recovery guarantee at its strongest: the
//! non-deterministic decisions of every hop are visible in the output
//! bytes, a replacement resumes from its predecessor's checkpoint image
//! (or, before the first one, from nothing), and recovery crosses real
//! process and socket boundaries — with speculation open across them:
//! every precise worker forwards its outputs before its log is stable, so
//! a kill lands on events the downstream holds un-finalized.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use streammine::chaos::{
    verify_bounded_divergence, verify_cluster_recovery, FaultEvent, FaultKind as Fault, FaultPlan,
    FaultScheduler,
};
use streammine::common::event::{Event, Value};
use streammine::core::dist::{Cluster, ClusterSpec, NodeSpec};
use streammine::core::{GraphBuilder, LoggingConfig, OperatorConfig};
use streammine::obs::{
    validate_chrome_trace, validate_prometheus, FaultKind, JournalKind, Labels, RecoveryModeTag,
    RecoveryTimeline, RegistrySnapshot,
};
use streammine::operators::RandomTagger;
use streammine::sketch::ErrorBound;

/// Simulated stable-log write latency (µs) — fast, so runs stay short.
const FAST_LOG_US: u64 = 200;

/// The machine, as the tests of this binary share it. Every cluster test
/// holds it for reading; the ones that time something hold it for
/// writing, so no other cluster's processes compete with theirs.
static MACHINE: RwLock<()> = RwLock::new(());

fn share_the_machine() -> RwLockReadGuard<'static, ()> {
    MACHINE.read().unwrap_or_else(PoisonError::into_inner)
}

fn have_the_machine_alone() -> RwLockWriteGuard<'static, ()> {
    MACHINE.write().unwrap_or_else(PoisonError::into_inner)
}

fn inputs(n: u64) -> Vec<Value> {
    (0..n).map(|i| Value::Int(i as i64)).collect()
}

fn payloads(events: &[Event]) -> Vec<Value> {
    events.iter().map(|e| e.payload.clone()).collect()
}

/// The failure-free in-process reference: the same tagger chain, logged
/// with the same latency, no checkpoints, no faults. `GraphBuilder` seeds
/// worker `i`'s RNG with `0xABCD_0000 + i`, the same convention
/// `ClusterSpec` uses, so its bytes are the distributed ground truth.
fn reference(hops: usize, input: &[Value]) -> Vec<Value> {
    let mut b = GraphBuilder::new();
    let cfg = || OperatorConfig {
        checkpoint_every: None,
        ..OperatorConfig::logged(LoggingConfig::simulated(Duration::from_micros(FAST_LOG_US)))
    };
    let ids: Vec<_> = (0..hops).map(|_| b.add_operator(RandomTagger, cfg())).collect();
    for pair in ids.windows(2) {
        b.connect(pair[0], pair[1]).unwrap();
    }
    let src = b.source_into(ids[0]).unwrap();
    let sink = b.sink_from(*ids.last().unwrap()).unwrap();
    let running = b.build().unwrap().start();
    for v in input {
        running.source(src).push(v.clone());
    }
    assert!(
        running.sink(sink).wait_final(input.len(), Duration::from_secs(60)),
        "reference run did not finish"
    );
    let out = payloads(&running.sink(sink).final_events());
    running.shutdown();
    out
}

/// `hops` random taggers at the default checkpoint interval.
fn tagger_chain(hops: usize) -> ClusterSpec {
    ClusterSpec::new(
        vec![NodeSpec::logged("random-tagger", FAST_LOG_US, 1); hops],
        PathBuf::from(env!("CARGO_BIN_EXE_streammine_worker")),
    )
}

/// [`tagger_chain`] with every slot checkpointing every `every` events
/// (`None`: never).
fn tagger_chain_checkpointing(hops: usize, every: Option<u64>) -> ClusterSpec {
    let mut spec = tagger_chain(hops);
    spec.operators.iter_mut().for_each(|op| op.checkpoint_every = every);
    spec
}

/// The directory the cluster keeps its checkpoint images in, as its
/// `Debug` shows it.
fn checkpoint_dir(cluster: &Cluster) -> PathBuf {
    let shown = format!("{cluster:?}");
    let (_, rest) = shown.split_once("checkpoints: \"").expect("no checkpoint dir in Debug");
    PathBuf::from(&rest[..rest.find('"').expect("unterminated checkpoint dir")])
}

/// Worker `w`'s node metric `name` in the merged cluster snapshot (summed
/// over its incarnations).
fn worker_counter(snapshot: &RegistrySnapshot, name: &str, w: u32) -> u64 {
    snapshot.counter(name, Labels::op(w).with_worker(w)).unwrap_or(0)
}

/// The run did not silently take a non-speculative path: each of the
/// `precise` workers put speculative output on its socket. And none of
/// them re-executed a transaction — the one way a single-threaded slot
/// could take a decision out of serial order, which is the precondition
/// under which a replacement process re-derives its predecessor's
/// decisions from the slot's seed (DESIGN §13).
fn assert_speculated(snapshot: &RegistrySnapshot, precise: std::ops::Range<u32>, what: &str) {
    for w in precise {
        let published = worker_counter(snapshot, "spec.published", w);
        assert!(published > 0, "{what}: worker {w} published nothing speculatively");
        let rollbacks = worker_counter(snapshot, "spec.rollbacks", w);
        assert_eq!(rollbacks, 0, "{what}: worker {w} re-executed {rollbacks} transaction(s)");
    }
}

/// Everything a chaos run leaves behind: output bytes, recovery counters,
/// the assembled recovery timelines, and the cluster metrics aggregate
/// (snapshotted after shutdown, so final telemetry flushes are merged).
struct RunOutcome {
    out: Vec<Value>,
    restarts: u64,
    crashes: u64,
    expiries: u64,
    timelines: Vec<RecoveryTimeline>,
    snapshot: RegistrySnapshot,
}

/// Runs the distributed chain, injecting `plan` step by step while
/// feeding, and returns the run's [`RunOutcome`].
fn cluster_run(spec: ClusterSpec, input: &[Value], plan: &FaultPlan, pace: Duration) -> RunOutcome {
    let hops = spec.operators.len();
    let cluster = Cluster::launch(spec).expect("cluster launch");
    assert!(cluster.wait_connected(Duration::from_secs(30)), "cluster never wired up");
    let mut sched = FaultScheduler::new(plan.clone());
    for (step, v) in input.iter().enumerate() {
        sched.advance(step as u64, &cluster);
        cluster.source().push(v.clone());
        std::thread::sleep(pace);
    }
    sched.finish(&cluster);
    assert!(
        cluster.sink().wait_final(input.len(), Duration::from_secs(120)),
        "sink saw {}/{} final events (plan {plan}, sink cursor {:?})",
        cluster.sink().final_count(),
        input.len(),
        cluster.sink_cursor(),
    );
    let out = payloads(&cluster.sink().final_events());
    let stats = (cluster.restarts(), cluster.crashes_detected(), cluster.leases_expired());
    cluster.shutdown();
    let snapshot = cluster.cluster_snapshot();
    assert_speculated(&snapshot, 0..hops as u32, &format!("plan {plan}"));
    RunOutcome {
        out,
        restarts: stats.0,
        crashes: stats.1,
        expiries: stats.2,
        timelines: cluster.recovery_timelines(),
        snapshot,
    }
}

/// Minimal HTTP GET against the cluster telemetry server.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect telemetry http");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: cluster\r\nConnection: close\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read http response");
    let (head, body) = response.split_once("\r\n\r\n").expect("malformed http response");
    assert!(head.starts_with("HTTP/1.1 200"), "GET {path}: {head}");
    body.to_string()
}

#[test]
fn two_process_chain_matches_in_process_reference() {
    let _machine = share_the_machine();
    let input = inputs(12);
    let expected = reference(2, &input);
    let r = cluster_run(
        tagger_chain(2),
        &input,
        &FaultPlan::scripted(vec![]),
        Duration::from_millis(2),
    );
    assert_eq!(r.out, expected, "fault-free distributed run diverged from in-process reference");
    assert_eq!(r.restarts, 0, "fault-free run should not restart anyone");
    assert!(r.timelines.is_empty(), "fault-free run fabricated a recovery timeline");
}

#[test]
fn sigkill_mid_stream_recovers_byte_identical() {
    let _machine = share_the_machine();
    let input = inputs(20);
    let expected = reference(3, &input);
    let plan = FaultPlan::scripted(vec![FaultEvent { step: 6, kind: Fault::CrashNode { op: 1 } }]);
    let r = cluster_run(tagger_chain(3), &input, &plan, Duration::from_millis(10));
    assert!(r.crashes >= 1, "the SIGKILL was never detected as a crash");
    assert!(r.restarts >= 1, "the killed worker was never restarted");
    assert_eq!(r.out, expected, "recovery after SIGKILL changed the output bytes");
    // The fault is reconstructed as a structured timeline with every
    // phase stamped: the chain drained, so the replacement handshaked and
    // produced output.
    let t = r
        .timelines
        .iter()
        .find(|t| t.kind == FaultKind::Crash && t.worker == 1)
        .expect("no crash timeline for the killed worker");
    assert!(t.monotonic(), "non-monotonic timeline: {}", t.to_json());
    assert!(t.handshake_us.is_some(), "replacement handshake never stamped");
    assert!(t.first_output_us.is_some(), "post-recovery output never stamped");
    assert!(t.drain_us.is_some(), "drain never stamped");
}

/// 100 paced events final at the sink, a SIGKILL of the middle worker, 50
/// more pushed at once: all 150 must be final, byte-identical, within
/// 10 s. Returns the cluster, shut down.
fn sigkill_after_100_delivered(spec: ClusterSpec) -> Cluster {
    let input = inputs(150);
    let expected = reference(3, &input);
    let cluster = Cluster::launch(spec).expect("cluster launch");
    assert!(cluster.wait_connected(Duration::from_secs(30)), "cluster never wired up");
    for v in &input[..100] {
        // Paced, so that every event is a frame of its own.
        cluster.source().push(v.clone());
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(cluster.sink().wait_final(100, Duration::from_secs(30)), "pre-kill stream stalled");
    cluster.kill_worker(1);
    for v in &input[100..] {
        cluster.source().push(v.clone());
    }
    assert!(
        cluster.sink().wait_final(input.len(), Duration::from_secs(10)),
        "recovery wedged at {}/{} final events (sink cursor {:?})",
        cluster.sink().final_count(),
        input.len(),
        cluster.sink_cursor(),
    );
    assert_eq!(payloads(&cluster.sink().final_events()), expected);
    assert_eq!(cluster.crashes_detected(), 1);
    cluster.shutdown();
    cluster
}

/// A SIGKILL with a long retained history: without checkpoints the
/// upstream holds all 100 frames, and the replacement must be handed them
/// again, whole, with the 50 live ones behind them. A replay that stops
/// part way (a bounded replay budget) or a gap parked where no watchdog
/// looks never finishes this.
#[test]
fn sigkill_after_100_delivered_recovers_within_10s() {
    let _machine = share_the_machine();
    sigkill_after_100_delivered(tagger_chain_checkpointing(3, None));
}

/// A cluster configured without checkpoints keeps none: no slot writes an
/// image into the cluster's directory, and a replacement replays its input
/// from the start of the stream.
#[test]
fn a_checkpoint_free_cluster_writes_no_image_and_replays_from_the_start() {
    let _machine = share_the_machine();
    let input = inputs(80);
    let expected = reference(2, &input);
    let cluster = Cluster::launch(tagger_chain_checkpointing(2, None)).expect("cluster launch");
    let dir = checkpoint_dir(&cluster);
    assert!(cluster.wait_connected(Duration::from_secs(30)), "cluster never wired up");
    for (step, v) in input.iter().enumerate() {
        if step == 70 {
            cluster.kill_worker(1);
        }
        cluster.source().push(v.clone());
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        cluster.sink().wait_final(input.len(), Duration::from_secs(30)),
        "stalled at {}/{} final events",
        cluster.sink().final_count(),
        input.len(),
    );
    assert_eq!(payloads(&cluster.sink().final_events()), expected);
    let images: Vec<_> = std::fs::read_dir(&dir)
        .expect("the checkpoint directory lives as long as the cluster")
        .filter_map(|entry| entry.ok().map(|e| e.file_name()))
        .filter(|name| name.to_string_lossy().ends_with(".ckpt"))
        .collect();
    assert!(images.is_empty(), "a checkpoint-free slot wrote {images:?}");
    cluster.shutdown();
    let journal = cluster.telemetry().journal();
    let rewound_from: Vec<u64> = journal
        .iter()
        .filter(|r| (r.worker, r.incarnation) == (1, 1))
        .filter_map(|r| match r.event.kind {
            JournalKind::Rewind { from, .. } => Some(from),
            _ => None,
        })
        .collect();
    assert_eq!(rewound_from, [0], "{}", cluster.telemetry().journal_render());
}

/// The same kill at the default interval: the middle worker checkpointed
/// at 64 events and acked its upstream's ring down to the image's
/// position, so its replacement restores the image and rewinds only that
/// far — its journal's `rewind` says from where.
#[test]
fn sigkill_after_100_delivered_resumes_from_the_checkpoint() {
    let _machine = share_the_machine();
    let cluster = sigkill_after_100_delivered(tagger_chain(3));
    let journal = cluster.telemetry().journal();
    let rewound_from: Vec<u64> = journal
        .iter()
        .filter(|r| (r.worker, r.incarnation) == (1, 1))
        .filter_map(|r| match r.event.kind {
            JournalKind::Rewind { from, .. } => Some(from),
            _ => None,
        })
        .collect();
    let render = || cluster.telemetry().journal_render();
    assert_eq!(rewound_from.len(), 1, "one port, one recovery: {rewound_from:?}\n{}", render());
    assert!(rewound_from[0] > 0, "the replacement replayed from 0, not its image\n{}", render());
}

#[test]
fn lease_expiry_fences_a_silent_worker_and_recovers() {
    let _machine = share_the_machine();
    // Long enough (60 steps × 10 ms) that the 250 ms lease expires while
    // the stream is still flowing.
    let input = inputs(60);
    let expected = reference(3, &input);
    // 900 ms of silence against a 250 ms lease: the worker is alive and
    // processing, but the control plane must declare it failed, fence its
    // incarnation, and restart — without duplicating or reordering output.
    let plan = FaultPlan::scripted(vec![FaultEvent {
        step: 5,
        kind: Fault::PauseBeats { op: 2, millis: 900 },
    }]);
    let r = cluster_run(tagger_chain(3), &input, &plan, Duration::from_millis(10));
    assert!(r.expiries >= 1, "the silent worker's lease never expired");
    assert!(r.restarts >= 1, "the fenced worker was never restarted");
    assert_eq!(r.out, expected, "lease-expiry recovery changed the output bytes");
    assert!(
        r.timelines.iter().any(|t| t.kind == FaultKind::LeaseExpiry && t.worker == 2),
        "no lease-expiry timeline for the silent worker"
    );
}

/// Every slot checkpoints every 8 events, so the faults of a 24-step plan
/// land after checkpoints: a replacement restores an image and replays
/// only the suffix, and an upstream has acked its ring down to it.
#[test]
fn chaos_grid_16_seeds_byte_identical_under_real_faults() {
    let _machine = share_the_machine();
    const SEEDS: u64 = 16;
    const STEPS: u64 = 24;
    const HOPS: usize = 3;
    let input = inputs(STEPS);
    let expected = reference(HOPS, &input);
    let mut total_restarts = 0;
    let mut total_events = 0;
    for seed in 0..SEEDS {
        let plan = FaultPlan::random_cluster(seed, STEPS, HOPS as u32);
        total_events += plan.events.len();
        let spec = tagger_chain_checkpointing(HOPS, Some(8));
        let r = cluster_run(spec, &input, &plan, Duration::from_millis(20));
        assert_eq!(
            r.out, expected,
            "seed {seed}: distributed output diverged from reference under {plan}"
        );
        // Telemetry reconciliation: timelines vs the injected schedule vs
        // the cluster-level counters the workers reported.
        verify_cluster_recovery(&plan, &r.timelines, &r.snapshot)
            .unwrap_or_else(|e| panic!("seed {seed}: {e} (plan {plan})"));
        total_restarts += r.restarts;
    }
    assert!(total_events > 0, "the grid injected no faults at all");
    assert!(
        total_restarts > 0,
        "the grid never exercised process restart ({total_events} faults injected)"
    );
}

/// A checkpoint taken while the downstream cannot receive must not count
/// the outputs stuck in the sender's ring. Worker 2's listener is down
/// for 300 ms from step 10; worker 1 keeps processing and reaches its
/// interval (8) inside the window, with the outputs since step 10 held in
/// its ring, which lives in its memory. The SIGKILL at step 20 takes that
/// ring with it: the replacement must re-derive those outputs, so it may
/// only resume from an image whose outputs worker 2 acknowledged.
#[test]
fn sigkill_after_a_checkpoint_the_downstream_never_received_recovers() {
    let _machine = share_the_machine();
    let input = inputs(40);
    let expected = reference(3, &input);
    let plan = FaultPlan::scripted(vec![
        FaultEvent { step: 10, kind: Fault::ListenerDrop { op: 2, millis: 300 } },
        FaultEvent { step: 20, kind: Fault::CrashNode { op: 1 } },
    ]);
    let spec = tagger_chain_checkpointing(3, Some(8));
    let r = cluster_run(spec, &input, &plan, Duration::from_millis(20));
    assert!(r.restarts >= 1, "the killed worker was never restarted");
    assert_eq!(r.out, expected, "a checkpoint covered outputs its downstream never received");
}

/// Approximate recovery across real process boundaries: an identity hop
/// feeds a count-min worker declared approximate (ε = 0.25), which
/// checkpoints every 3 events into the cluster's checkpoint directory,
/// where the replacement process finds the image after a real SIGKILL. The replacement resumes from the *stale*
/// snapshot — replayed inputs whose outputs already reached the sink are
/// dropped against the error budget instead of re-executed — so sink
/// estimates may run below the fault-free run's, but never above and
/// never by more than the declared `ε·N`. The recovery timeline must
/// carry the approximate mode tag.
///
/// The chain is mixed: the identity hop is precise and therefore
/// speculates, the approximate slot does not — it parks each speculative
/// input until its `Finalize`. Killing the *precise* hop instead costs no
/// accuracy at all: its replacement swallows what the approximate slot
/// counted, finalizes what it still holds parked, and the estimates are
/// the fault-free run's.
#[test]
fn sigkill_approximate_recovery_stays_within_declared_bound() {
    let _machine = share_the_machine();
    let bound = ErrorBound::new(0.25, 0.05);
    let n: u64 = 48;
    let input: Vec<Value> = (0..n).map(|i| Value::Int((i % 9) as i64)).collect();

    let spec = ClusterSpec::new(
        vec![
            NodeSpec::logged("identity", FAST_LOG_US, 1),
            NodeSpec::logged("count-min", FAST_LOG_US, 1).with_approximate_recovery(bound, 3),
        ],
        PathBuf::from(env!("CARGO_BIN_EXE_streammine_worker")),
    );

    let run = |plan: &FaultPlan| {
        let cluster = Cluster::launch(spec.clone()).expect("cluster launch");
        assert!(cluster.wait_connected(Duration::from_secs(30)), "cluster never wired up");
        let mut sched = FaultScheduler::new(plan.clone());
        for (step, v) in input.iter().enumerate() {
            sched.advance(step as u64, &cluster);
            cluster.source().push(v.clone());
            std::thread::sleep(Duration::from_millis(10));
        }
        sched.finish(&cluster);
        assert!(
            cluster.sink().wait_final(input.len(), Duration::from_secs(120)),
            "sink saw {}/{} final events",
            cluster.sink().final_count(),
            input.len(),
        );
        let estimates: Vec<u64> = cluster
            .sink()
            .final_events_by_id()
            .iter()
            .map(|e| e.payload.field(1).and_then(Value::as_i64).expect("Record[key, est]") as u64)
            .collect();
        let restarts = cluster.restarts();
        cluster.shutdown();
        let snapshot = cluster.cluster_snapshot();
        assert_speculated(&snapshot, 0..1, "mixed chain");
        let parked_not_speculated = worker_counter(&snapshot, "spec.published", 1);
        assert_eq!(parked_not_speculated, 0, "the approximate slot speculated");
        (estimates, cluster.recovery_timelines(), restarts)
    };

    let (baseline, clean_timelines, _) = run(&FaultPlan::scripted(vec![]));
    assert!(clean_timelines.is_empty(), "fault-free run fabricated a recovery timeline");

    let plan = FaultPlan::scripted(vec![FaultEvent { step: 30, kind: Fault::CrashNode { op: 1 } }]);
    let (recovered, timelines, restarts) = run(&plan);
    assert!(restarts >= 1, "the killed worker was never restarted");

    let report = verify_bounded_divergence(bound, n, &baseline, &recovered)
        .unwrap_or_else(|e| panic!("SIGKILL divergence check: {e}"));
    eprintln!(
        "sigkill approx: deviation {}/{} allowed, budget remaining {}",
        report.max_deviation, report.allowed, report.remaining
    );
    let t = timelines
        .iter()
        .find(|t| t.kind == FaultKind::Crash && t.worker == 1)
        .expect("no crash timeline for the killed worker");
    assert_eq!(t.mode, RecoveryModeTag::Approximate, "timeline missed the recovery mode");
    assert!(t.monotonic(), "non-monotonic timeline: {}", t.to_json());

    let plan = FaultPlan::scripted(vec![FaultEvent { step: 30, kind: Fault::CrashNode { op: 0 } }]);
    let (recovered, timelines, restarts) = run(&plan);
    assert!(restarts >= 1, "the killed precise hop was never restarted");
    assert_eq!(recovered, baseline, "a precise hop's crash cost the approximate slot accuracy");
    assert!(timelines.iter().all(|t| t.mode == RecoveryModeTag::Precise && t.worker == 0));
}

#[test]
fn cluster_telemetry_aggregates_metrics_traces_and_timelines() {
    let _machine = share_the_machine();
    let input = inputs(24);
    let expected = reference(2, &input);
    let mut spec = tagger_chain(2);
    spec.trace_one_in = 1; // trace every source event
    spec.telemetry_millis = 20;
    let cluster = Cluster::launch(spec).expect("cluster launch");
    assert!(cluster.wait_connected(Duration::from_secs(30)), "cluster never wired up");
    let server = cluster.serve_http("127.0.0.1:0").expect("telemetry http bind");

    for (step, v) in input.iter().enumerate() {
        if step == 8 {
            cluster.kill_worker(1);
        }
        cluster.source().push(v.clone());
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        cluster.sink().wait_final(input.len(), Duration::from_secs(120)),
        "sink saw {}/{} final events",
        cluster.sink().final_count(),
        input.len(),
    );
    assert_eq!(payloads(&cluster.sink().final_events()), expected, "output bytes diverged");

    // Scrape the live endpoints over real HTTP mid-run (pre-shutdown).
    let live = http_get(server.local_addr(), "/cluster/metrics");
    validate_prometheus(&live).expect("live /cluster/metrics fails the linter");
    let recovery_body = http_get(server.local_addr(), "/cluster/recovery");
    assert!(recovery_body.starts_with("{\"recoveries\":"), "unexpected recovery JSON");

    cluster.shutdown();
    server.stop();

    // Worker edge metrics reached the aggregate with worker labels — the
    // detached-transport-metrics regression this plane exists to catch.
    let snap = cluster.cluster_snapshot();
    let worker_transport: u64 = snap
        .samples
        .iter()
        .filter(|s| s.name == "transport.frames_out" && s.labels.worker.is_some())
        .filter_map(|s| snap.counter("transport.frames_out", s.labels))
        .sum();
    assert!(worker_transport > 0, "no worker-labeled transport.frames_out in the aggregate");
    validate_prometheus(&cluster.cluster_prometheus()).expect("cluster prometheus lint");

    // Stitched Chrome trace: spans from both workers (distinct pids) for
    // shared trace ids, and the export passes the format validator.
    let trace = cluster.cluster_chrome_trace();
    let events = validate_chrome_trace(&trace).expect("stitched chrome trace invalid");
    assert!(events > 0, "stitched trace is empty");
    let stitched = cluster.telemetry().cross_process_traces();
    assert!(!stitched.is_empty(), "no trace id spans more than one worker");
    assert!(
        stitched.iter().any(|&t| cluster.telemetry().trace_pid_count(t) >= 2),
        "stitched traces never cover two worker pids"
    );

    // The kill shows up as one crash timeline with monotonic phases, and
    // telemetry-synthesized restarts match the launcher's counter.
    let timelines = cluster.recovery_timelines();
    assert_eq!(cluster.restarts(), 1, "expected exactly one restart");
    assert_eq!(timelines.len(), 1, "expected exactly one recovery timeline");
    assert_eq!(timelines[0].kind, FaultKind::Crash);
    assert_eq!(timelines[0].worker, 1);
    assert!(timelines[0].monotonic(), "non-monotonic: {}", timelines[0].to_json());
    assert_eq!(
        snap.counter("recovery.restarts", streammine::obs::Labels::NONE.with_worker(1)),
        Some(1),
        "telemetry undercounted worker 1's restart"
    );
}

/// One fault trial the way the benchmark's `tcp_kill` runs it: `pre`
/// paced events final at the sink, SIGKILL of the middle worker after
/// `kill_delay`, the rest of `input` pushed at once, drained.
struct KillTrial {
    out: Vec<Value>,
    /// The kill on the cluster clock (the timelines' time base).
    kill_cluster_us: u64,
    /// Kill → first event final after it, on the sink's own clock.
    first_final_us: u64,
    timelines: Vec<RecoveryTimeline>,
}

fn kill_trial(input: &[Value], pre: usize, kill_delay: Duration) -> KillTrial {
    let cluster = Cluster::launch(tagger_chain(3)).expect("cluster launch");
    assert!(cluster.wait_connected(Duration::from_secs(30)), "cluster never wired up");
    for v in &input[..pre] {
        cluster.source().push(v.clone());
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(cluster.sink().wait_final(pre, Duration::from_secs(30)), "pre-kill stream stalled");
    std::thread::sleep(kill_delay);
    // Both clocks are read at the kill: they share no zero.
    let kill_sink_us = cluster.sink().clock().now_micros();
    let kill_cluster_us = cluster.now_us();
    cluster.kill_worker(1);
    for v in &input[pre..] {
        cluster.source().push(v.clone());
    }
    assert!(
        cluster.sink().wait_final(input.len(), Duration::from_secs(10)),
        "recovery wedged at {}/{} final events",
        cluster.sink().final_count(),
        input.len(),
    );
    let first_final_us = cluster
        .sink()
        .records()
        .iter()
        .filter_map(|r| r.final_at_us)
        .filter(|&at| at >= kill_sink_us)
        .min()
        .expect("nothing became final after the kill")
        - kill_sink_us;
    let out = payloads(&cluster.sink().final_events());
    cluster.shutdown();
    KillTrial { out, kill_cluster_us, first_final_us, timelines: cluster.recovery_timelines() }
}

/// Recovery is bound by what it has to do, not by the timers that bound
/// it: the lease check's tick, the bridges' dial back-off. Seven kills
/// spread over one tick period; timer-bound recovery has no mode under
/// 35 ms (detection alone waits half a tick on average, the wiring a
/// whole one). No other cluster of this binary runs meanwhile, but other
/// binaries and a loaded host may, so it gates the fast trials, not the
/// median.
#[test]
fn sigkill_first_output_is_not_timer_bound() {
    let _machine = have_the_machine_alone();
    let input = inputs(60);
    let expected = reference(3, &input);
    let mut recovered_ms = Vec::new();
    for trial in 0..7 {
        let t = kill_trial(&input, 40, Duration::from_millis(3) * trial);
        assert_eq!(t.out, expected, "trial {trial}: recovery changed the output bytes");
        recovered_ms.push(t.first_final_us as f64 / 1e3);
    }
    eprintln!("kill -> first output, ms: {recovered_ms:?}");
    let fast = recovered_ms.iter().filter(|&&ms| ms < 25.0).count();
    assert!(fast >= 3, "only {fast} of 7 recoveries beat a poll period: {recovered_ms:?} ms");
}

/// The timeline's `first_output` and `drain` are stamped by the sink edge
/// as output arrives, not by the monitor's next look at the cursor: the
/// timeline and the sink's own clock tell the same story about the same
/// kill. (Agreement within 5 ms is asked of one trial in three — the two
/// stamps are taken by two threads of a busy test binary; read from a poll
/// they are tens of milliseconds apart every time.)
#[test]
fn recovery_timeline_is_stamped_when_the_output_arrives() {
    let _machine = share_the_machine();
    let input = inputs(60);
    let mut apart_us = Vec::new();
    for _ in 0..3 {
        let t = kill_trial(&input, 40, Duration::ZERO);
        let crash = t
            .timelines
            .iter()
            .find(|c| c.kind == FaultKind::Crash && c.worker == 1)
            .expect("no crash timeline for the killed worker");
        assert!(crash.monotonic(), "non-monotonic timeline: {}", crash.to_json());
        let first = crash.first_output_us.expect("post-recovery output never stamped");
        let drain = crash.drain_us.expect("drain never stamped");
        assert!(drain >= first, "drained before the first output: {}", crash.to_json());
        assert!(first >= t.kill_cluster_us, "output stamped before the kill");
        apart_us.push((first - t.kill_cluster_us).abs_diff(t.first_final_us));
        if apart_us.last().is_some_and(|&us| us < 5_000) {
            return;
        }
    }
    panic!("timeline and sink disagree on kill -> first output by {apart_us:?} us");
}

/// Kills worker 1, waits for its replacement to be spawned, kills that
/// one `delay_us` later, and checks the chain recovers from both, byte-
/// identical, with one crash timeline each. Returns each trial's
/// timelines.
fn kill_the_replacement_while_it_boots(
    spec: ClusterSpec,
    delays_us: &[u64],
) -> Vec<Vec<RecoveryTimeline>> {
    let input = inputs(40);
    let expected = reference(3, &input);
    let mut trials = Vec::new();
    for &delay_us in delays_us {
        let cluster = Cluster::launch(spec.clone()).expect("cluster launch");
        assert!(cluster.wait_connected(Duration::from_secs(30)), "cluster never wired up");
        for v in &input[..20] {
            cluster.source().push(v.clone());
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(cluster.sink().wait_final(20, Duration::from_secs(30)), "pre-kill stream stalled");
        cluster.kill_worker(1);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while cluster.restarts() < 1 {
            assert!(std::time::Instant::now() < deadline, "the first kill was never handled");
            std::thread::sleep(Duration::from_micros(50));
        }
        std::thread::sleep(Duration::from_micros(delay_us));
        cluster.kill_worker(1);
        for v in &input[20..] {
            cluster.source().push(v.clone());
        }
        assert!(
            cluster.sink().wait_final(input.len(), Duration::from_secs(10)),
            "second kill {delay_us} us into the boot: wedged at {}/{} final events",
            cluster.sink().final_count(),
            input.len(),
        );
        assert_eq!(payloads(&cluster.sink().final_events()), expected, "delay {delay_us} us");
        assert_eq!(cluster.crashes_detected(), 2, "delay {delay_us} us");
        cluster.shutdown();
        assert_speculated(&cluster.cluster_snapshot(), 0..3, &format!("delay {delay_us} us"));
        let timelines = cluster.recovery_timelines();
        let crashes =
            timelines.iter().filter(|t| t.kind == FaultKind::Crash && t.worker == 1).count();
        assert_eq!(crashes, 2, "delay {delay_us} us: one timeline per crash");
        trials.push(timelines);
    }
    trials
}

/// A second SIGKILL that hits the replacement while it boots — before its
/// `Hello`, or just after — ends its process like the first, and is
/// recovered from like the first.
#[test]
fn kill_of_a_booting_replacement_recovers() {
    let _machine = share_the_machine();
    kill_the_replacement_while_it_boots(tagger_chain(3), &[0, 300, 600, 900, 1200]);
}

/// A worker killed before its `Hello` has no control connection to close
/// and holds no lease, so only the end of its process says it died. With
/// the lease check an hour away, nothing else could. The second kill has
/// to land inside the replacement's boot, about a millisecond: the test
/// has the machine to itself, and a trial whose replacement said `Hello`
/// first (it recovered all the same) is run again, up to five times.
#[test]
fn kill_before_hello_is_found_without_the_lease_check() {
    let _machine = have_the_machine_alone();
    let mut spec = tagger_chain(3);
    spec.poll = Duration::from_secs(3600);
    for _ in 0..5 {
        let timelines = kill_the_replacement_while_it_boots(spec.clone(), &[0]).remove(0);
        if timelines[0].handshake_us.is_none() {
            return;
        }
    }
    panic!("in five trials the replacement said Hello before the second kill");
}

/// A SIGKILL while speculation is open across every socket: the middle
/// worker's log takes 50 ms, so its outputs — and everything derived from
/// them downstream — sit speculative at the sink, un-finalized, when the
/// kill lands. Whichever worker dies, its replacement must re-confirm what
/// the dead one published: swallow the events its receiver counted, send
/// the finalizes the receiver is still owed, and leave no transaction open
/// anywhere.
#[test]
fn sigkill_with_speculation_open_recovers_byte_identical() {
    let _machine = share_the_machine();
    const SLOW_LOG_US: u64 = 50_000;
    let input = inputs(30);
    let expected = reference(3, &input);
    // The middle worker, the last one (it holds the open transactions),
    // the first.
    for victim in [1u32, 2, 0] {
        let mut spec = tagger_chain(3);
        spec.operators[1].log_micros = SLOW_LOG_US;
        let cluster = Cluster::launch(spec).expect("cluster launch");
        assert!(cluster.wait_connected(Duration::from_secs(30)), "cluster never wired up");
        for v in &input[..20] {
            cluster.source().push(v.clone());
            std::thread::sleep(Duration::from_millis(1));
        }
        // The precondition that makes this a test of speculation: arrivals
        // the sink may not hand out yet.
        let deadline = Instant::now() + Duration::from_secs(10);
        let speculative_at_sink =
            || cluster.sink().records().iter().filter(|r| r.final_at_us.is_none()).count();
        while speculative_at_sink() < 10 {
            assert!(
                Instant::now() < deadline,
                "victim {victim}: the sink never held 10 arrivals that were not yet final \
                 ({} seen, {} final): nothing speculative crosses the sockets",
                cluster.sink().seen_count(),
                cluster.sink().final_count(),
            );
            std::thread::sleep(Duration::from_micros(200));
        }
        cluster.kill_worker(victim as usize);
        for v in &input[20..] {
            cluster.source().push(v.clone());
        }
        assert!(
            cluster.sink().wait_final(input.len(), Duration::from_secs(30)),
            "victim {victim}: wedged at {}/{} final events (sink cursor {:?})",
            cluster.sink().final_count(),
            input.len(),
            cluster.sink_cursor(),
        );
        assert_eq!(payloads(&cluster.sink().final_events()), expected, "victim {victim}");
        let records = cluster.sink().records();
        assert_eq!(records.len(), input.len(), "victim {victim}: a stray record at the sink");
        assert!(
            records.iter().all(|r| r.final_at_us.is_some() && r.event.is_final()),
            "victim {victim}: a sink record stayed speculative"
        );
        // Every node republishes its gauges on the way to every park; the
        // closing telemetry report carries what they read then.
        std::thread::sleep(Duration::from_millis(100));
        cluster.shutdown();
        let snapshot = cluster.cluster_snapshot();
        assert_speculated(&snapshot, 0..3, &format!("victim {victim}"));
        for w in 0..3 {
            let open = snapshot.gauge("spec.open", Labels::op(w).with_worker(w));
            assert_eq!(
                open,
                Some(0),
                "victim {victim}: worker {w} drained with a transaction open"
            );
        }
        let timelines = cluster.recovery_timelines();
        assert_eq!(timelines.len(), 1, "victim {victim}: one kill, one timeline");
        assert_eq!((timelines[0].kind, timelines[0].worker), (FaultKind::Crash, victim));
        assert!(timelines[0].monotonic(), "non-monotonic: {}", timelines[0].to_json());
    }
}

/// Figure 3 over real sockets: the final latency of a chain of logging
/// workers does not grow by one log write per worker, because every worker
/// forwards before its log is stable and the writes overlap. Depth 2 to 5,
/// a 2 ms log each, 40 events at 200 per second; every depth stays under
/// two log writes and three more workers cost less than one (held back
/// until stable, they cost three). No other cluster of this binary runs
/// meanwhile, but a loaded host may, so each depth takes the best of up
/// to three runs.
#[test]
fn figure3_over_sockets_is_flat_in_depth() {
    let _machine = have_the_machine_alone();
    const LOG_US: u64 = 2_000;
    const EVENTS: usize = 40;
    let p50_us = |depth: usize| {
        let mut spec = tagger_chain(depth);
        spec.operators.iter_mut().for_each(|op| op.log_micros = LOG_US);
        let cluster = Cluster::launch(spec).expect("cluster launch");
        assert!(cluster.wait_connected(Duration::from_secs(30)), "cluster never wired up");
        for v in inputs(EVENTS as u64) {
            cluster.source().push(v);
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(
            cluster.sink().wait_final(EVENTS, Duration::from_secs(30)),
            "depth {depth} stalled"
        );
        let mut latencies = cluster.sink().final_latencies_us();
        cluster.shutdown();
        latencies.sort_by(f64::total_cmp);
        latencies[latencies.len() / 2]
    };
    let bound = (2 * LOG_US) as f64;
    let mut table = Vec::new();
    for depth in 2..=5 {
        let mut best = f64::MAX;
        for _ in 0..3 {
            best = best.min(p50_us(depth));
            if best < bound {
                break;
            }
        }
        table.push((depth, best));
    }
    eprintln!("depth  final p50 over loopback TCP, {LOG_US} us log per worker");
    for (depth, p50) in &table {
        eprintln!("{depth:>5}  {p50:>7.0} us");
    }
    for (depth, p50) in &table {
        assert!(
            *p50 < bound,
            "depth {depth}: p50 {p50:.0} us is two log writes or more: {table:?}"
        );
    }
    let slope = table[3].1 - table[0].1;
    assert!(
        slope < LOG_US as f64,
        "three more workers cost {slope:.0} us, a log write or more: {table:?}"
    );
}

/// What an edge retains is bounded by the checkpoint interval, not by the
/// run: each worker's checkpoint acks its upstream's ring down to the
/// image's position. 600 paced events through three taggers; once they
/// are final, no worker's out-edge ring (an event and its finalize per
/// event) and not the launcher's source ring holds more than two
/// intervals of frames. Without the acks the first two worker rings end
/// at 1 200 frames and the source ring at 600.
#[test]
fn retention_is_bounded_by_the_checkpoint_interval() {
    let _machine = share_the_machine();
    const EVENTS: u64 = 600;
    const BOUND: i64 = 2 * 64 + 16;
    let cluster = Cluster::launch(tagger_chain(3)).expect("cluster launch");
    assert!(cluster.wait_connected(Duration::from_secs(30)), "cluster never wired up");
    for v in inputs(EVENTS) {
        cluster.source().push(v);
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        cluster.sink().wait_final(EVENTS as usize, Duration::from_secs(60)),
        "stalled at {}/{EVENTS} final events",
        cluster.sink().final_count(),
    );
    // Edge 0 is the launcher's source ring (the parent reports as
    // operator 3, without a worker label); edge e > 0 leaves worker e - 1.
    let retained = |snapshot: &RegistrySnapshot| -> Vec<Option<i64>> {
        (0..=3u32)
            .map(|edge| {
                let labels = match edge {
                    0 => Labels::op_port(3, 0),
                    e => Labels::op_port(e - 1, e).with_worker(e - 1),
                };
                snapshot.gauge("edge.retained", labels)
            })
            .collect()
    };
    // A worker saves its last checkpoint, and acks its upstream, once its
    // downstream acked the outputs the checkpoint counts: the acks travel
    // up the chain after the sink saw the last final, and the workers
    // republish their gauges on the way to every park. A loaded host only
    // delays it.
    let deadline = Instant::now() + Duration::from_secs(10);
    let bounded = |frames: &[Option<i64>]| frames.iter().all(|f| f.is_some_and(|f| f <= BOUND));
    while !bounded(&retained(&cluster.cluster_snapshot())) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    cluster.shutdown();
    let retained: Vec<i64> = retained(&cluster.cluster_snapshot())
        .into_iter()
        .enumerate()
        .map(|(edge, f)| f.unwrap_or_else(|| panic!("no edge.retained gauge for edge {edge}")))
        .collect();
    eprintln!("edge.retained after {EVENTS} events, edges 0..=3: {retained:?}");
    for (edge, frames) in retained.iter().enumerate() {
        assert!(*frames <= BOUND, "edge {edge} retains {frames} frames (bound {BOUND})");
    }
}

/// The checkpoint images live in one directory per cluster: there from
/// launch, through a SIGKILL and respawn, and gone with the cluster —
/// after `shutdown`, and after a plain drop.
#[test]
fn the_checkpoint_directory_lives_as_long_as_the_cluster() {
    let _machine = share_the_machine();
    let input = inputs(80);
    let expected = reference(2, &input);
    let cluster = Cluster::launch(tagger_chain(2)).expect("cluster launch");
    let dir = checkpoint_dir(&cluster);
    assert!(dir.is_dir(), "{} was not created", dir.display());
    assert!(cluster.wait_connected(Duration::from_secs(30)), "cluster never wired up");
    for (step, v) in input.iter().enumerate() {
        if step == 70 {
            cluster.kill_worker(1);
        }
        cluster.source().push(v.clone());
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        cluster.sink().wait_final(input.len(), Duration::from_secs(30)),
        "stalled at {}/{} final events",
        cluster.sink().final_count(),
        input.len(),
    );
    assert_eq!(payloads(&cluster.sink().final_events()), expected);
    assert_eq!(cluster.restarts(), 1);
    assert!(dir.is_dir(), "{} is gone after the respawn", dir.display());
    cluster.shutdown();
    assert!(!dir.exists(), "{} outlived shutdown", dir.display());

    let cluster = Cluster::launch(tagger_chain(2)).expect("cluster launch");
    let dir = checkpoint_dir(&cluster);
    assert!(dir.is_dir(), "{} was not created", dir.display());
    drop(cluster);
    assert!(!dir.exists(), "{} outlived the dropped cluster", dir.display());
}
