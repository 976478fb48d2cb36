//! The traced run: the per-layer table.
//!
//! Order: the probes, the reconciliation passes and the wedge probes,
//! which do not depend on the workload; then the workload at a quarter of
//! its length with tracing off and again with the engine's tracer and the
//! benchmark's spans on; then the spans are written out and the table
//! printed. End-to-end metrics are never taken from here.

use crate::probes;
use crate::report::{self, Metric};
use crate::spans::Spans;
use crate::stats;
use crate::stream::Outcome;
use crate::watchdog::{self, STALL};
use crate::wedge;
use crate::workloads;
use crate::Args;

/// Every per-layer metric in table order with its unit; `BENCHMARK.json`
/// repeats this table and adds which direction is better.
pub const PER_LAYER: [(&str, &str); 66] = [
    ("common.codec.event_encode_ns", "ns"),
    ("common.codec.event_decode_ns", "ns"),
    ("common.codec.event_bytes", "B"),
    ("core.message.batch32_encode_ns_per_event", "ns"),
    ("core.message.batch32_decode_ns_per_event", "ns"),
    ("net.link.hop_p50_ns", "ns"),
    ("net.link.stream_ns_per_msg", "ns"),
    ("net.tcp.frame_rtt_p50_us", "us"),
    ("net.tcp.frame_stream_ns_per_frame", "ns"),
    ("core.dist.bridge.hop_nolog_p50_us", "us"),
    ("storage.log.append_stable_idle_p50_us", "us"),
    ("storage.log.append_stable_300_p50_us", "us"),
    ("storage.log.append_call_ns", "ns"),
    ("storage.log.group_size_mean", "count"),
    ("stm.txn_rw3_ns", "ns"),
    ("stm.txn_read_fast_ns", "ns"),
    ("stm.txn_2t_ns", "ns"),
    ("stm.txn_2t_abort_share", "share"),
    ("core.node.hop_plain_p50_us", "us"),
    ("core.node.hop_spec_nolog_p50_us", "us"),
    ("core.node.hop_logged2ms_p50_us", "us"),
    ("core.node.sat_plain_ev_s", "1/s"),
    ("final_p95_us", "us"),
    ("cpu_us_per_event", "us"),
    ("core.endpoints.push_call_p50_ns", "ns"),
    ("core.endpoints.push_blocked_share", "share"),
    ("core.endpoints.drain_ms", "ms"),
    ("generator.late_p99_us", "us"),
    ("core.graph.build_start_ms", "ms"),
    ("core.graph.shutdown_ms", "ms"),
    ("core.dist.launcher.launch_connected_ms", "ms"),
    ("core.dist.recovery.detect_ms", "ms"),
    ("core.dist.recovery.fence_ms", "ms"),
    ("core.dist.recovery.respawn_ms", "ms"),
    ("core.dist.recovery.handshake_ms", "ms"),
    ("core.dist.recovery.first_output_ms", "ms"),
    ("core.dist.recovery.drain_ms", "ms"),
    ("stage.queue_wait_us_mean", "us"),
    ("stage.process_us_mean", "us"),
    ("stage.log_wait_us_mean", "us"),
    ("stage.commit_gate_us_mean", "us"),
    ("log.write_us_mean", "us"),
    ("log.group_size_mean", "count"),
    ("batch.events_mean", "count"),
    ("spec.rollbacks", "count"),
    ("spec.cap_hits", "count"),
    ("backpressure.stalls", "count"),
    ("backpressure.stall_us_sum", "us"),
    ("stm.started", "count"),
    ("stm.committed", "count"),
    ("stm.aborts_conflict", "count"),
    ("stm.retries", "count"),
    ("stm.fastpath.hit_share", "share"),
    ("edge.retained_max", "count"),
    ("edge.retransmits", "count"),
    ("transport.frames_out", "count"),
    ("transport.bytes_out", "B"),
    ("transport.reconnects", "count"),
    ("replay.requests", "count"),
    ("replay.served", "count"),
    ("resend.suppressed", "count"),
    ("recon.chain4_spec.residual_share", "share"),
    ("recon.tcp_chain3.residual_share", "share"),
    ("obs.trace_overhead_p50_share", "share"),
    ("wedge.chain4_closed256_completed", "share"),
    ("wedge.tcp_kill_pre64_completed", "share"),
];

/// Share of the traced run given to each of the workload's two passes.
const PASS_SHARE: f64 = 0.25;
/// A push that took longer than this waited for credit: a saturated
/// source sleeps 100 µs between attempts.
const BLOCKED_PUSH_NS: f64 = 100_000.0;
/// Fault trials of the recovery probe, for workloads that inject no fault.
const RECOVERY_PROBE_TRIALS: usize = 3;

/// The benchmark's own spans around its calls into the endpoints, the
/// graph and the launcher. Push and drain figures are the traced
/// workload's; build, shutdown and launch pool every such call of the
/// run (probes and reconciliation passes build graphs and clusters too,
/// so the rows exist on every workload).
fn span_rows(spans: &Spans, workload: &str, traced: &Outcome) -> Vec<Metric> {
    let mut pushes = spans.durations_ns("core.endpoints.push", Some(workload));
    stats::sort(&mut pushes);
    let blocked = pushes.iter().filter(|&&ns| ns > BLOCKED_PUSH_NS).count();
    let pooled_ms = |name: &str| stats::median(spans.durations_ns(name, None)) / 1e6;
    vec![
        Metric::new("core.endpoints.push_call_p50_ns", stats::percentile(&pushes, 0.5), "ns"),
        Metric::new(
            "core.endpoints.push_blocked_share",
            blocked as f64 / pushes.len().max(1) as f64,
            "share",
        ),
        Metric::new("core.endpoints.drain_ms", traced.drain_ms, "ms"),
        Metric::new("generator.late_p99_us", stats::percentile(&traced.late_us, 0.99), "us"),
        Metric::new("core.graph.build_start_ms", pooled_ms("core.graph.build_start"), "ms"),
        Metric::new("core.graph.shutdown_ms", pooled_ms("core.graph.shutdown"), "ms"),
        Metric::new(
            "core.dist.launcher.launch_connected_ms",
            pooled_ms("core.dist.launcher.launch_connected"),
            "ms",
        ),
    ]
}

/// Median length of each recovery phase over the faults seen, ms. The
/// first five add up to kill → first output as the launcher saw it.
fn recovery_rows(phases: &[[f64; 6]]) -> Vec<Metric> {
    workloads::RECOVERY_PHASES
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let ms = stats::median(phases.iter().map(|p| p[i]).collect());
            Metric::new(&format!("core.dist.recovery.{name}"), ms, "ms")
        })
        .collect()
}

fn value_of(rows: &[Metric], name: &str) -> f64 {
    rows.iter().find(|m| m.name == name).map_or(f64::NAN, |m| m.value)
}

/// End-to-end p50 against the layer p50s on its blocking path.
struct Recon {
    workload: &'static str,
    p50_us: f64,
    late_p50_us: f64,
    sum_us: f64,
    /// The sum written out, for the line under the table.
    terms: String,
}

impl Recon {
    fn row(&self) -> Metric {
        let residual = (self.p50_us - self.sum_us) / self.p50_us;
        Metric::new(&format!("recon.{}.residual_share", self.workload), residual, "share")
    }

    fn print(&self) {
        println!(
            "  recon.{}: end-to-end p50 {:.1} us (generator late p50 {:.1} us) vs {} = {:.1} us",
            self.workload, self.p50_us, self.late_p50_us, self.terms, self.sum_us
        );
    }
}

/// What a traced run measures whatever the workload: the probes, a few
/// fault trials for the recovery rows of workloads that inject no fault,
/// the reconciliation passes and the wedge probes.
pub struct Shared {
    probes: Vec<Metric>,
    recovery_phases: Vec<[f64; 6]>,
    recon: [Recon; 2],
    wedge: Vec<Metric>,
}

fn shared(args: &Args, spans: &mut Spans) -> Result<Shared, String> {
    let bin = &args.worker_bin;
    watchdog::phase("probes");
    let probes = probes::run(bin, spans)?;

    let mut recovery_phases = Vec::with_capacity(RECOVERY_PROBE_TRIALS);
    for n in 0..RECOVERY_PROBE_TRIALS {
        spans.enter("probes", n as u32);
        watchdog::phase("recovery probe");
        let t = spans.begin("probe.core.dist.recovery");
        let delay = crate::engine::monitor_poll().mul_f64(n as f64 / 3.0);
        let seed = args.seed + n as u64;
        let trial =
            workloads::kill_trial(seed, workloads::KILL_PRE, delay, STALL, bin, false, spans)?;
        spans.end(t);
        recovery_phases.extend(trial.phases);
    }

    // One-operator probes count two links and the chain of four counts
    // five, hence the link corrections.
    watchdog::phase("reconciliation passes");
    let [(chain4_p50, chain4_late), (tcp_p50, tcp_late)] = probes::recon_passes(bin, spans)?;
    let hop_spec = value_of(&probes, "core.node.hop_spec_nolog_p50_us");
    let link_us = value_of(&probes, "net.link.hop_p50_ns") / 1e3;
    let log_300 = value_of(&probes, "storage.log.append_stable_300_p50_us");
    let bridge_hop = value_of(&probes, "core.dist.bridge.hop_nolog_p50_us");
    let tcp_one_way = value_of(&probes, "net.tcp.frame_rtt_p50_us") / 2.0;
    let log_idle = value_of(&probes, "storage.log.append_stable_idle_p50_us");
    let recon = [
        Recon {
            workload: "chain4_spec",
            p50_us: chain4_p50,
            late_p50_us: chain4_late,
            sum_us: 4.0 * hop_spec - 3.0 * link_us + log_300,
            terms: format!(
                "4 x hop_spec_nolog {hop_spec:.1} - 3 x link hop {link_us:.2} \
                 + log append_stable_300 {log_300:.1}"
            ),
        },
        Recon {
            workload: "tcp_chain3",
            p50_us: tcp_p50,
            late_p50_us: tcp_late,
            sum_us: 3.0 * bridge_hop - 2.0 * tcp_one_way + 3.0 * log_idle,
            terms: format!(
                "3 x bridge hop {bridge_hop:.1} - 2 x tcp one-way {tcp_one_way:.1} \
                 + 3 x log append_stable_idle {log_idle:.1}"
            ),
        },
    ];
    watchdog::phase("wedge probes");
    let wedge = wedge::probe(bin, spans)?;
    Ok(Shared { probes, recovery_phases, recon, wedge })
}

/// The traced passes of one workload and its rows of the table.
struct Traced {
    /// Tail latency and CPU cost, span, recovery and registry rows, then
    /// the tracing overhead.
    rows: Vec<Metric>,
    /// Whether the recovery rows come from faults of the workload's own.
    own_faults: bool,
    overhead_line: String,
    attempted: u64,
    failed: u64,
    correct: bool,
}

/// `workload` at a quarter of its length twice: tracing off, then with
/// the engine's tracer and the benchmark's spans on.
fn passes(
    args: &Args,
    workload: &str,
    shared: &Shared,
    spans: &mut Spans,
) -> Result<Traced, String> {
    let seconds = args.seconds * PASS_SHARE;
    let bin = &args.worker_bin;
    let mut off = Spans::new(false);
    let untraced = workloads::run(workload, args.seed, seconds, bin, false, &mut off)?;
    let traced = workloads::run(workload, args.seed, seconds, bin, true, spans)?;

    // Tail latency and CPU cost come from the pass with tracing off.
    let mut rows = report::host_bound(&untraced);
    rows.extend(span_rows(spans, workload, &traced));
    // Recovery phases: the workload's own faults, or the probe trials.
    rows.extend(recovery_rows(if traced.recovery_phases.is_empty() {
        &shared.recovery_phases
    } else {
        &traced.recovery_phases
    }));
    rows.extend(traced.registry_rows.iter().map(|(name, v)| {
        let unit = PER_LAYER.iter().find(|(n, _)| n == name).map_or("count", |&(_, u)| u);
        Metric::new(name, *v, unit)
    }));
    let overhead = (traced.final_p50_us - untraced.final_p50_us) / untraced.final_p50_us;
    rows.push(Metric::new("obs.trace_overhead_p50_share", overhead, "share"));
    let failed = untraced.failed + traced.failed;
    Ok(Traced {
        rows,
        own_faults: !traced.recovery_phases.is_empty(),
        overhead_line: format!(
            "  obs.trace_overhead: final_p50_us traced {:.1} vs untraced {:.1} at {seconds} s each",
            traced.final_p50_us, untraced.final_p50_us
        ),
        attempted: untraced.attempted + traced.attempted,
        failed,
        correct: failed == 0 && !traced.latencies_us.is_empty(),
    })
}

fn write_spans(args: &Args, label: &str, spans: &Spans) -> Result<(), String> {
    let path = args.out_dir.join(format!("{label}-seed{}.benchmark-spans.trace.json", args.seed));
    spans.write_chrome(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("  {} spans written to {}", spans.len(), path.display());
    Ok(())
}

/// One traced run of one workload: the per-layer table, then the result
/// line with every per-layer metric.
pub fn single(args: &Args, workload: &str) -> Result<bool, String> {
    let mut spans = Spans::new(true);
    let shared = shared(args, &mut spans)?;
    let own = passes(args, workload, &shared, &mut spans)?;

    // Table order: probes, the workload's rows with the reconciliation
    // rows before the overhead, wedge probes.
    let mut rows = shared.probes.clone();
    let (overhead, layers) = own.rows.split_last().expect("overhead row");
    rows.extend_from_slice(layers);
    rows.extend(shared.recon.iter().map(Recon::row));
    rows.push(overhead.clone());
    rows.extend_from_slice(&shared.wedge);
    let names: Vec<&str> = rows.iter().map(|m| m.name.as_str()).collect();
    let table: Vec<&str> = PER_LAYER.iter().map(|&(n, _)| n).collect();
    assert_eq!(names, table, "per-layer rows must match the declared table");

    println!("{workload} seed={} seconds={} trace=1 (per-layer table)", args.seed, args.seconds);
    crate::print_metrics(&rows);
    shared.recon.iter().for_each(Recon::print);
    println!("{}", own.overhead_line);
    write_spans(args, workload, &spans)?;
    println!("{}", report::result_line(own.correct, own.attempted, own.failed, &rows));
    Ok(own.correct)
}

/// The traced run of the whole benchmark, in one process: what does not
/// depend on the workload is measured and printed once, then each
/// workload's own rows.
pub fn all(args: &Args) -> Result<bool, String> {
    let mut spans = Spans::new(true);
    let shared = shared(args, &mut spans)?;
    println!(
        "every workload seed={} seconds={} trace=1 (rows that are the same for all)",
        args.seed, args.seconds
    );
    crate::print_metrics(&shared.probes);
    crate::print_metrics(&recovery_rows(&shared.recovery_phases));
    crate::print_metrics(&shared.recon.iter().map(Recon::row).collect::<Vec<_>>());
    crate::print_metrics(&shared.wedge);
    shared.recon.iter().for_each(Recon::print);
    let mut ok = true;
    for workload in workloads::NAMES {
        let own = passes(args, workload, &shared, &mut spans)?;
        println!("{workload} seed={} seconds={} trace=1 (its own rows)", args.seed, args.seconds);
        let mut rows = own.rows;
        rows.retain(|m| own.own_faults || !m.name.starts_with("core.dist.recovery."));
        crate::print_metrics(&rows);
        println!("{}", own.overhead_line);
        if !own.correct {
            println!("FAILED {workload}: {} of {} operations failed", own.failed, own.attempted);
        }
        ok &= own.correct;
    }
    write_spans(args, "all", &spans)?;
    Ok(ok)
}
