//! Overload soak: a stalled-sink endurance run for the flow-control layer.
//!
//! Drives a tightly-knobbed three-stage pipeline for `OVERLOAD_SOAK_SECS`
//! (default 30) while repeatedly stalling the sink, so the link windows
//! saturate over and over. The run fails — exits non-zero — if any bound
//! the backpressure design promises is violated:
//!
//! * `edge.pending_hwm` (messages past the link window) above the small
//!   per-event overshoot (the sender's soft saturation gate leaked);
//! * `node.intake_depth` (events read but not admitted) above what the
//!   upstream's speculation cap lets a stalled node read ahead;
//! * resident-set high-water mark (`VmHWM`, Linux) above
//!   `OVERLOAD_RSS_MB` (default 512) — an unbounded queue anywhere shows
//!   up here even if it dodges its gauge;
//! * fewer stall episodes than soak cycles would imply, or a drain that
//!   never completes (backpressure wedged instead of pacing).
//!
//! Writes `OBS_overload.json` (soak summary: pressure counters, per-op
//! high-water marks, RSS) and `OBS_overload.prom` (final exposition) for
//! CI artifact upload.
//!
//! ```text
//! OVERLOAD_SOAK_SECS=30 cargo run --release -p streammine-bench --bin overload_soak
//! ```

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use streammine_common::event::Value;
use streammine_core::{
    GraphBuilder, LoggingConfig, NodeConfig, OperatorConfig, Running, SinkId, SourceId,
};
use streammine_net::LinkConfig;
use streammine_obs::Labels;
use streammine_operators::StampedRelay;

const FAST_LOG: Duration = Duration::from_micros(200);

// The same tight link window the backpressure integration tests use: a
// stalled sink saturates the whole chain within a handful of events.
const LINK_CAPACITY: usize = 8;
// Soft-cap overshoot: an in-flight event's outputs may land after the
// sender's gate check, so the hard bound is the window plus a few events.
const PENDING_OVERSHOOT: usize = 4;

const STALL_WINDOW: Duration = Duration::from_millis(80);
const EVENTS_PER_CYCLE: u64 = 32;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// src → relay → relay → relay → sink with a tight window on every link,
/// mirroring `tests/backpressure.rs`.
fn tight_pipeline() -> (Running, SourceId, SinkId) {
    let mut b = GraphBuilder::new().with_links(LinkConfig::instant().with_capacity(LINK_CAPACITY));
    let cfg =
        || OperatorConfig::logged(LoggingConfig::simulated(FAST_LOG)).with_checkpoint_every(7);
    let op0 = b.add_operator(StampedRelay::new(), cfg());
    let op1 = b.add_operator(StampedRelay::new(), cfg());
    let op2 = b.add_operator(StampedRelay::new(), cfg());
    b.connect(op0, op1).expect("edge");
    b.connect(op1, op2).expect("edge");
    let src = b.source_into(op0).expect("source");
    let sink = b.sink_from(op2).expect("sink");
    (b.build().expect("graph").start(), src, sink)
}

/// Resident-set high-water mark in kB from `/proc/self/status`, or `None`
/// where procfs is unavailable (the RSS ceiling is then skipped).
#[cfg(target_os = "linux")]
fn vm_hwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

#[cfg(not(target_os = "linux"))]
fn vm_hwm_kb() -> Option<u64> {
    None
}

/// One mid-soak bound check across every operator; returns violation
/// descriptions (empty when all queues are within their promises).
fn check_bounds(running: &Running) -> Vec<String> {
    let reg = &running.obs().registry;
    let read_ahead_cap = NodeConfig::default().max_open_speculations as i64;
    let mut violations = Vec::new();
    for op in 0..running.operator_count() as u32 {
        let hwm = reg.gauge_value("edge.pending_hwm", Labels::op_port(op, 0)).unwrap_or(0);
        if hwm > PENDING_OVERSHOOT as i64 {
            violations.push(format!(
                "op{op}: edge.pending_hwm {hwm} exceeds the {LINK_CAPACITY}-message window by \
                 more than the overshoot {PENDING_OVERSHOOT}"
            ));
        }
        let depth = reg.gauge_value("node.intake_depth", Labels::op(op)).unwrap_or(0);
        if depth > read_ahead_cap {
            violations.push(format!(
                "op{op}: node.intake_depth {depth} exceeds the upstream's speculation cap \
                 {read_ahead_cap}"
            ));
        }
    }
    violations
}

struct SoakReport {
    soak_secs: u64,
    cycles: u64,
    pushed: u64,
    finals: usize,
    stalls: u64,
    spec_cap_hits: u64,
    saturated: u64,
    max_pending_hwm: i64,
    vm_hwm_kb: Option<u64>,
    rss_ceiling_mb: u64,
    violations: Vec<String>,
}

fn to_json(r: &SoakReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"snapshot\": \"overload_soak\",");
    let _ = writeln!(out, "  \"git_rev\": \"{}\",", streammine_bench::git_rev());
    let _ = writeln!(
        out,
        "  \"config\": {{\"link_capacity\": {LINK_CAPACITY}, \
         \"events_per_cycle\": {EVENTS_PER_CYCLE}, \"fast_log_us\": {}}},",
        FAST_LOG.as_micros()
    );
    let _ = writeln!(out, "  \"soak_secs\": {},", r.soak_secs);
    let _ = writeln!(out, "  \"cycles\": {},", r.cycles);
    let _ = writeln!(out, "  \"events_pushed\": {},", r.pushed);
    let _ = writeln!(out, "  \"events_final\": {},", r.finals);
    let _ = writeln!(out, "  \"backpressure_stalls\": {},", r.stalls);
    let _ = writeln!(out, "  \"spec_cap_hits\": {},", r.spec_cap_hits);
    let _ = writeln!(out, "  \"sender_saturations\": {},", r.saturated);
    let _ = writeln!(out, "  \"max_edge_pending_hwm\": {},", r.max_pending_hwm);
    let _ = writeln!(
        out,
        "  \"vm_hwm_kb\": {},",
        r.vm_hwm_kb.map_or_else(|| "null".to_string(), |v| v.to_string())
    );
    let _ = writeln!(out, "  \"rss_ceiling_mb\": {},", r.rss_ceiling_mb);
    let _ = writeln!(out, "  \"violations\": [");
    for (i, v) in r.violations.iter().enumerate() {
        let comma = if i + 1 < r.violations.len() { "," } else { "" };
        let _ = writeln!(out, "    \"{}\"{comma}", v.replace('"', "'"));
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

fn main() {
    let soak_secs = env_u64("OVERLOAD_SOAK_SECS", 30);
    let rss_ceiling_mb = env_u64("OVERLOAD_RSS_MB", 512);
    let deadline = Instant::now() + Duration::from_secs(soak_secs);

    eprintln!("overload soak: {soak_secs}s of stalled-sink cycles (link window {LINK_CAPACITY})");
    let (running, src, sink) = tight_pipeline();

    let mut pushed: u64 = 0;
    let mut cycles: u64 = 0;
    let mut violations: Vec<String> = Vec::new();
    while Instant::now() < deadline {
        cycles += 1;
        // Stall the sink, then push straight into the stall. Paced pushes
        // keep the micro-batching transport from coalescing the cycle into
        // a couple of jumbo frames that never fill the window.
        running.sink(sink).stall_for(STALL_WINDOW);
        for _ in 0..EVENTS_PER_CYCLE {
            running.source(src).push(Value::Int(pushed as i64));
            pushed += 1;
            std::thread::sleep(Duration::from_millis(1));
        }
        violations.extend(check_bounds(&running));
        if !violations.is_empty() {
            break; // A blown bound only gets worse; stop soaking.
        }
        if cycles.is_multiple_of(16) {
            eprintln!(
                "  cycle {cycles}: {pushed} pushed, {} final, {} stalls",
                running.sink(sink).final_count(),
                running.obs().registry.counter_total("backpressure.stalls")
            );
        }
    }

    // Drain: every event pushed into the stalls must still come out.
    let drained = running.sink(sink).wait_final(pushed as usize, Duration::from_secs(60));
    if !drained {
        violations.push(format!(
            "drain wedged: {} of {pushed} events final after 60s",
            running.sink(sink).final_count()
        ));
    }
    std::thread::sleep(Duration::from_millis(100));
    violations.extend(check_bounds(&running));

    let reg = &running.obs().registry;
    let stalls = reg.counter_total("backpressure.stalls");
    if drained && stalls == 0 {
        violations.push(format!(
            "{cycles} stalled-sink cycles produced zero backpressure stall episodes"
        ));
    }
    let vm_hwm = vm_hwm_kb();
    if let Some(kb) = vm_hwm {
        if kb > rss_ceiling_mb * 1024 {
            violations.push(format!(
                "VmHWM {kb} kB exceeds the {rss_ceiling_mb} MB ceiling — \
                 something queued without bound"
            ));
        }
    }
    let max_pending_hwm = (0..running.operator_count() as u32)
        .filter_map(|op| reg.gauge_value("edge.pending_hwm", Labels::op_port(op, 0)))
        .max()
        .unwrap_or(0);

    let report = SoakReport {
        soak_secs,
        cycles,
        pushed,
        finals: running.sink(sink).final_count(),
        stalls,
        spec_cap_hits: reg.counter_total("spec.cap_hits"),
        saturated: reg.counter_total("edge.saturated"),
        max_pending_hwm,
        vm_hwm_kb: vm_hwm,
        rss_ceiling_mb,
        violations,
    };
    std::fs::write("OBS_overload.json", to_json(&report)).expect("write OBS_overload.json");
    std::fs::write("OBS_overload.prom", running.prometheus()).expect("write OBS_overload.prom");
    eprintln!(
        "soak done: {} cycles, {} events, {} stalls, max pending hwm {}, VmHWM {} kB",
        report.cycles,
        report.pushed,
        report.stalls,
        report.max_pending_hwm,
        report.vm_hwm_kb.unwrap_or(0)
    );
    eprintln!("wrote OBS_overload.json, OBS_overload.prom");

    if !report.violations.is_empty() {
        for v in &report.violations {
            eprintln!("VIOLATION: {v}");
        }
        eprintln!("{}", running.journal_dump());
        std::process::exit(1);
    }
    running.shutdown();
}
