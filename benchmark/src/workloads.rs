//! The five workloads: what each builds, what it feeds it, and what the
//! sink must hold afterwards. Why each exists is in `README.md` and in
//! `BENCHMARK.json`.

use std::path::Path;
use std::time::{Duration, Instant};

use streammine::common::{DetRng, Value};
use streammine::obs::RecoveryTimeline;
use streammine::sketch::hashing::PairwiseHash;

use crate::engine::{self, Sut};
use crate::layers;
use crate::procfs;
use crate::spans::Spans;
use crate::stats;
use crate::stream::{self, IndexBy, Outcome, Pace, Pacer, StreamSpec};
use crate::watchdog::{self, STALL};

/// Fixed order the whole-benchmark modes run the workloads in.
pub const NAMES: [&str; 5] = ["chain4_spec", "sketch_2t", "tcp_chain3", "tcp_kill", "chain4_sat"];

/// `tcp_kill`: events delivered before the SIGKILL. Below the replay
/// reserve of 64 on purpose — at 64 or more the seed never resumes (see
/// the `wedge.tcp_kill_pre64_completed` probe).
pub const KILL_PRE: usize = 48;
/// `tcp_kill`: events pushed after the SIGKILL.
pub const KILL_POST: usize = 50;
/// `tcp_kill`: push rate before and after the kill.
const KILL_RATE: f64 = 500.0;
/// `tcp_kill`: decision-log latency of the three workers, µs.
const KILL_LOG_US: u64 = 200;
/// `chain4_sat`: events kept in flight. The most the one CPU carries with
/// time to spare (about three quarters busy): from 40 up the CPU is full,
/// the order in which the scheduler runs the generator and the stages
/// decides the batch sizes, and the parts of one run read anything from
/// 8 k to 15 k ev/s; at 32 they stay within 2 %. (At 256, the seed's
/// `max_open_speculations`, its source blocks for ever — see the
/// `wedge.chain4_closed256_completed` probe.)
pub const SAT_IN_FLIGHT: usize = 32;
/// `chain4_sat`: measured events per second of `--seconds` (the seed
/// sustains 7.3 k ev/s, so a run measures for about five sixths of that).
const SAT_EVENTS_PER_SECOND: usize = 6_000;
/// `chain4_sat`: parts the events are measured in, each on a fresh graph.
const SAT_PARTS: usize = 8;

/// The phases a fault's recovery passes through, as the launcher's
/// `RecoveryTimeline` stamps them; the first is counted from the kill.
pub const RECOVERY_PHASES: [&str; 6] =
    ["detect_ms", "fence_ms", "respawn_ms", "handshake_ms", "first_output_ms", "drain_ms"];

/// Phase lengths (ms) of one recovery whose kill happened at `kill_us` on
/// the cluster clock; `None` until the timeline is complete.
fn phases_ms(t: &RecoveryTimeline, kill_us: u64) -> Option<[f64; 6]> {
    let (handshake, first, drain) = (t.handshake_us?, t.first_output_us?, t.drain_us?);
    let stamps = [kill_us, t.detect_us, t.fence_us, t.respawn_us, handshake, first, drain];
    let mut out = [0.0; 6];
    for (phase, pair) in out.iter_mut().zip(stamps.windows(2)) {
        *phase = pair[1].saturating_sub(pair[0]) as f64 / 1e3;
    }
    Some(out)
}

/// `[index, noise]` inputs: the index survives every relay and tagger so
/// outputs can be matched back; the noise is what `--seed` varies.
fn indexed_inputs(seed: u64, n: usize) -> Vec<Value> {
    let mut rng = DetRng::seed_from(seed);
    (0..n)
        .map(|i| Value::record(vec![Value::Int(i as i64), Value::Int(rng.next_u64() as i64)]))
        .collect()
}

/// Keys for the sketch: uniform 32-bit draws, so repeats are rare and
/// transactions collide only where two keys share a counter (about one
/// concurrent pair in eighty). Skewed keys are not steady enough to
/// benchmark on the seed: with Zipf(1.0) keys one 200 ms machine stall —
/// the open loop catches up with a 200-event burst — tips the sketch into
/// a re-execution storm it never leaves (latency climbs to seconds at
/// 1.9 ms of CPU per event), and one run in five or ten met such a stall.
fn sketch_keys(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = DetRng::seed_from(seed);
    (0..n).map(|_| rng.next_u64() >> 32).collect()
}

/// The count-sketch computed sequentially by the benchmark itself: the
/// `[key, estimate]` the operator must emit after each key, given the
/// operator's hash seed (bucket hashes are drawn first, then sign hashes).
fn sequential_sketch(keys: &[u64]) -> Vec<Value> {
    let (w, d) = (engine::SKETCH_WIDTH, engine::SKETCH_DEPTH);
    let mut rng = DetRng::seed_from(engine::SKETCH_HASH_SEED);
    let buckets: Vec<PairwiseHash> = (0..d).map(|_| PairwiseHash::sample(&mut rng)).collect();
    let signs: Vec<PairwiseHash> = (0..d).map(|_| PairwiseHash::sample(&mut rng)).collect();
    let mut cells = vec![0i64; w * d];
    keys.iter()
        .map(|&key| {
            let mut samples: Vec<i64> = (0..d)
                .map(|r| {
                    let cell = &mut cells[r * w + buckets[r].bucket(key, w)];
                    let s = signs[r].sign(key);
                    *cell += s;
                    s * *cell
                })
                .collect();
            samples.sort_unstable();
            Value::record(vec![Value::Int(key as i64), Value::Int(samples[d / 2])])
        })
        .collect()
}

/// Runs `name` once at `seconds` length. `traced` switches the engine's
/// own tracer on (the benchmark's spans follow `spans`).
pub fn run(
    name: &str,
    seed: u64,
    seconds: f64,
    worker_bin: &Path,
    traced: bool,
    spans: &mut Spans,
) -> Result<Outcome, String> {
    let scaled = |per_second: f64| ((per_second * seconds) as usize).max(1);
    match name {
        "chain4_spec" => {
            let spec = StreamSpec {
                name: "chain4_spec",
                pace: Pace::Open { rate: 300.0 },
                warm: 300,
                measured: scaled(300.0),
                windows: stream::WINDOWS,
                index_by: IndexBy::PayloadPath { depth: 0 },
            };
            let inputs = indexed_inputs(seed, spec.total());
            stream::run(&spec, &inputs, &inputs, |sp| Ok(engine::chain4(traced, sp)), spans)
        }
        "chain4_sat" => {
            // Measured in parts, each on a fresh graph and each one
            // window: a run sets up eight times and reports the median
            // set-up, and memory stays that of 15 000 events.
            let spec = StreamSpec {
                name: "chain4_sat",
                pace: Pace::Closed { in_flight: SAT_IN_FLIGHT, warm_rate: 1000.0 },
                warm: 200,
                measured: scaled(SAT_EVENTS_PER_SECOND as f64).div_ceil(SAT_PARTS),
                windows: 1,
                index_by: IndexBy::PayloadPath { depth: 0 },
            };
            let parts = (0..SAT_PARTS as u64).map(|part| {
                let inputs = indexed_inputs(seed.wrapping_mul(1_000_003) + part, spec.total());
                stream::run(&spec, &inputs, &inputs, |sp| Ok(engine::chain4(traced, sp)), spans)
            });
            parts.collect::<Result<Vec<_>, _>>().map(Outcome::pooled)
        }
        "sketch_2t" => {
            let spec = StreamSpec {
                name: "sketch_2t",
                pace: Pace::Open { rate: 1000.0 },
                warm: 1000,
                measured: scaled(1000.0),
                windows: stream::WINDOWS,
                index_by: IndexBy::IdOrder,
            };
            let keys = sketch_keys(seed, spec.total());
            let inputs: Vec<Value> = keys.iter().map(|&k| Value::Int(k as i64)).collect();
            let expected = sequential_sketch(&keys);
            stream::run(&spec, &inputs, &expected, |sp| Ok(engine::union_sketch(traced, sp)), spans)
        }
        "tcp_chain3" => {
            let spec = StreamSpec {
                name: "tcp_chain3",
                pace: Pace::Open { rate: 200.0 },
                warm: 200,
                measured: scaled(200.0),
                windows: stream::WINDOWS,
                index_by: IndexBy::PayloadPath { depth: 3 },
            };
            let inputs = indexed_inputs(seed, spec.total());
            let expected = engine::tagger_reference(3, &inputs);
            let build =
                |sp: &mut Spans| engine::cluster(3, "random-tagger", 2000, worker_bin, traced, sp);
            stream::run(&spec, &inputs, &expected, build, spans)
        }
        "tcp_kill" => run_kill(seed, seconds, worker_bin, traced, spans),
        other => Err(format!("unknown workload {other:?} (known: {})", NAMES.join(", "))),
    }
}

/// What one fault trial measured.
pub struct KillTrial {
    /// Launch → the pre-kill events final.
    setup_s: f64,
    /// `kill_worker` → first post-kill event final, µs.
    recovery_us: Option<f64>,
    /// `kill_worker` → last post-kill event final, µs.
    post_span_us: f64,
    post_final: u64,
    cpu_ns: u64,
    peak_rss_mb: f64,
    pub failed: u64,
    late_ns: Vec<u64>,
    registry_rows: Vec<(&'static str, f64)>,
    drain_ms: f64,
    /// See [`RECOVERY_PHASES`].
    pub phases: Option<[f64; 6]>,
}

/// One fault trial: launch three taggers, deliver `pre` paced events, wait
/// `kill_delay`, SIGKILL the middle worker, push [`KILL_POST`] more at
/// once, drain, compare with the failure-free in-process run, shut down.
/// The post-kill events are a burst so that the time to the last of them
/// is set by recovery and replay, not by the generator. No wait exceeds
/// `patience`.
pub fn kill_trial(
    seed: u64,
    pre: usize,
    kill_delay: Duration,
    patience: Duration,
    worker_bin: &Path,
    traced: bool,
    spans: &mut Spans,
) -> Result<KillTrial, String> {
    let inputs = indexed_inputs(seed, pre + KILL_POST);
    let expected = engine::tagger_reference(3, &inputs);
    let cpu0 = procfs::tree_cpu_ns(&[]);
    let t0 = Instant::now();
    let sut = engine::cluster(3, "random-tagger", KILL_LOG_US, worker_bin, traced, spans)?;
    let Sut::Cluster(cluster) = &sut else { unreachable!("engine::cluster returns a cluster") };
    watchdog::phase("pre-kill events");
    let mut late_ns = Vec::with_capacity(pre);
    let fed = Pacer::new(KILL_RATE).push(&sut, &inputs[..pre], &mut late_ns, spans);
    let t = spans.begin("core.endpoints.wait_final");
    let pre_ok = fed && sut.sink().wait_final(pre, patience);
    spans.end(t);
    let setup_s = t0.elapsed().as_secs_f64();

    let mut kill_us = 0;
    let mut kill_cluster_us = 0;
    let mut drain_ms = 0.0;
    if pre_ok {
        std::thread::sleep(kill_delay);
        watchdog::phase("recovery");
        kill_us = sut.sink().clock().now_micros();
        kill_cluster_us = cluster.now_us();
        let t = spans.begin("core.dist.launcher.kill_worker");
        cluster.kill_worker(1);
        spans.end(t);
        for v in &inputs[pre..] {
            let t = spans.begin("core.endpoints.push");
            sut.source().push(v.clone());
            spans.end(t);
            watchdog::beat();
        }
        let t = spans.begin("core.endpoints.drain");
        let drain_t0 = Instant::now();
        sut.sink().wait_final(pre + KILL_POST, patience);
        drain_ms = drain_t0.elapsed().as_secs_f64() * 1e3;
        spans.end(t);
    }
    let peak_rss_mb = procfs::tree_peak_rss_mb(&sut.worker_pids());
    let records = sut.sink().records();
    watchdog::phase("shutdown");
    let done = sut.finish(spans);
    let cpu_ns = procfs::tree_cpu_ns(&[]) - cpu0;

    let (by_index, bad) =
        stream::match_records(records, &expected, IndexBy::PayloadPath { depth: 3 });
    let missing = by_index.iter().filter(|r| r.is_none()).count() as u64;
    let post_finals: Vec<u64> =
        by_index[pre..].iter().flatten().filter_map(|r| r.final_at_us).collect();
    let since_kill = |at: u64| at.saturating_sub(kill_us) as f64;
    Ok(KillTrial {
        setup_s,
        recovery_us: post_finals.iter().min().map(|&at| since_kill(at)).filter(|_| pre_ok),
        post_span_us: post_finals.iter().max().map_or(0.0, |&at| since_kill(at)),
        post_final: post_finals.len() as u64,
        cpu_ns,
        peak_rss_mb,
        failed: missing + bad,
        late_ns,
        registry_rows: layers::registry_rows(&done.registry, 0),
        drain_ms,
        phases: done.timelines.first().and_then(|t| phases_ms(t, kill_cluster_us)),
    })
}

/// `tcp_kill`: one unmeasured trial, then three measured trials per
/// second of `seconds`. The operation is the fault trial, and each has a
/// set-up of its own: launch until the pre-kill events are final.
///
/// Recovery is paced by timers — the monitor's poll, the bridges' dial
/// back-off — so how long it takes depends on where in the poll period
/// the kill lands: on the seed about a quarter of the period recovers in
/// ~35 ms and the rest in ~75 ms. A fixed schedule kills at one phase and
/// a two-millisecond shift flips every trial; so the trials spread their
/// kills evenly over one poll period, and the percentiles describe what a
/// fault at an arbitrary moment sees.
fn run_kill(
    seed: u64,
    seconds: f64,
    worker_bin: &Path,
    traced: bool,
    spans: &mut Spans,
) -> Result<Outcome, String> {
    let trials = ((3.0 * seconds) as usize).max(4);
    let per_trial_events = (KILL_PRE + KILL_POST) as u64;
    watchdog::pass(trials as u64 * per_trial_events, per_trial_events);
    let poll = engine::monitor_poll();
    let steal0 = procfs::steal_ticks();
    let mut done: Vec<KillTrial> = Vec::with_capacity(trials);
    for n in 0..=trials {
        spans.enter("tcp_kill", n as u32);
        let whole = spans.begin("trial");
        let trial_seed = seed.wrapping_mul(1_000_003).wrapping_add(n as u64);
        let kill_delay = poll.mul_f64(n as f64 / (trials + 1) as f64);
        let trial = kill_trial(trial_seed, KILL_PRE, kill_delay, STALL, worker_bin, traced, spans);
        spans.end(whole);
        let trial = trial?;
        watchdog::progress((n as u64 + 1) * per_trial_events - trial.failed);
        if n > 0 {
            done.push(trial); // trial 0 warms the page cache and the allocator
        }
    }
    let mut latencies_us: Vec<f64> = done.iter().filter_map(|t| t.recovery_us).collect();
    stats::sort(&mut latencies_us);
    let mut late_us: Vec<f64> =
        done.iter().flat_map(|t| t.late_ns.iter().map(|&n| n as f64 / 1e3)).collect();
    stats::sort(&mut late_us);
    let per_trial = |f: fn(&KillTrial) -> f64| stats::median(done.iter().map(f).collect());
    let rows = done[0]
        .registry_rows
        .iter()
        .enumerate()
        .map(|(i, (name, _))| {
            (*name, stats::median(done.iter().map(|t| t.registry_rows[i].1).collect()))
        })
        .collect();
    Ok(Outcome {
        attempted: trials as u64 * per_trial_events,
        failed: done.iter().map(|t| t.failed).sum(),
        setup_s: per_trial(|t| t.setup_s),
        final_p50_us: stats::percentile(&latencies_us, 0.50),
        final_p95_us: stats::percentile(&latencies_us, 0.95),
        latencies_us,
        windows: Vec::new(),
        // Goodput during recovery and the cost of a fault trial, as the
        // median trial saw them.
        throughput_ev_s: per_trial(|t| t.post_final as f64 * 1e6 / t.post_span_us.max(1.0)),
        cpu_us_per_event: per_trial(|t| t.cpu_ns as f64 / 1e3 / (KILL_PRE + KILL_POST) as f64),
        peak_rss_mb: done.iter().map(|t| t.peak_rss_mb).fold(0.0, f64::max),
        // A trial is a third of a second, sixty ticks: too few to tell
        // 3 % from none, so steal is taken over all of them.
        steal_share: procfs::steal_share(steal0, procfs::steal_ticks()),
        late_us,
        registry_rows: rows,
        drain_ms: stats::median(done.iter().map(|t| t.drain_ms).collect()),
        recovery_phases: done.iter().filter_map(|t| t.phases).collect(),
    })
}
