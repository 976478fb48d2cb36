//! The load generator and the measurement of one streaming workload.
//!
//! One thread — the caller's — generates load. A run is: set-up (build or
//! launch, a paced warm-up of fixed length, its drain), the measured
//! events, drain, then the output check. Event counts are fixed by the
//! arguments, never by the clock, so retained state and therefore memory
//! and throughput are comparable between runs.

use std::time::{Duration, Instant};

use streammine::common::Value;
use streammine::core::SinkRecord;

use crate::engine::Sut;
use crate::layers;
use crate::procfs;
use crate::spans::Spans;
use crate::stats;
use crate::watchdog::{self, STALL};

/// How the measured events are offered.
#[derive(Clone, Copy)]
pub enum Pace {
    /// Open loop: one event every `1/rate` seconds whatever the system
    /// does; latency counts from when each event was due.
    Open { rate: f64 },
    /// Closed loop: at most `in_flight` events not yet final; latency
    /// counts from the push. The warm-up before it is paced at `warm_rate`.
    Closed { in_flight: usize, warm_rate: f64 },
}

/// How a sink record is matched to the input that caused it. The sink's
/// `event.id.seq` is re-minted by every operator, so it is not the index.
#[derive(Clone, Copy)]
pub enum IndexBy {
    /// The index is the integer reached by taking field 0 `depth + 1`
    /// times (inputs are `[index, noise]`, each tagger wraps once more).
    PayloadPath { depth: usize },
    /// Outputs carry no index; their ids order them as the operator
    /// consumed the inputs, and the payload check confirms the match.
    IdOrder,
}

/// Everything that defines one streaming workload at one length.
pub struct StreamSpec {
    pub name: &'static str,
    pub pace: Pace,
    /// Paced, unmeasured events that end the set-up.
    pub warm: usize,
    /// Measured events.
    pub measured: usize,
    /// Consecutive parts the measured events are cut into, see [`Window`].
    pub windows: usize,
    pub index_by: IndexBy,
}

impl StreamSpec {
    pub fn total(&self) -> usize {
        self.warm + self.measured
    }
}

/// How many windows the paced workloads cut their measured events into.
/// Each per-operation figure is taken from its per-window values (see
/// [`window_summary`]), so a machine stall or a slow stretch that spares
/// a third of the windows does not move it; at the default length a
/// window is two seconds of events and has twenty or more samples beyond
/// its p95.
pub const WINDOWS: usize = 10;

/// What one window of measured events showed.
pub struct Window {
    pub p50_us: f64,
    pub p95_us: f64,
    /// Events of the window ÷ time from the previous window's last final
    /// (the first measured push, for the first window) to this one's.
    pub throughput_ev_s: f64,
    /// Process-tree CPU between this window's first push and the next
    /// window's (the end of the drain, for the last) ÷ its events.
    pub cpu_us_per_event: f64,
    /// Share of the machine's CPU time over the same interval that the
    /// hypervisor withheld from a virtual CPU that was ready to run.
    pub steal_share: f64,
}

/// What one run of any workload measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub setup_s: f64,
    pub final_p50_us: f64,
    pub final_p95_us: f64,
    /// One latency per operation, ascending, µs (p99 and max are printed
    /// from it but are not metrics).
    pub latencies_us: Vec<f64>,
    /// The windows the four metrics above and below are medians over
    /// (streaming workloads; `tcp_kill`'s operations are its trials).
    pub windows: Vec<Window>,
    pub throughput_ev_s: f64,
    pub cpu_us_per_event: f64,
    pub peak_rss_mb: f64,
    /// Share of the machine's CPU time the hypervisor withheld while the
    /// operations were measured (the median window's; over all trials
    /// for `tcp_kill`); above [`procfs::QUIET_STEAL`] the run was
    /// disturbed.
    pub steal_share: f64,
    /// Generator lateness of the paced events, ascending, µs.
    pub late_us: Vec<f64>,
    /// Registry rows of the per-layer table (see [`layers::registry_rows`]).
    pub registry_rows: Vec<(&'static str, f64)>,
    pub drain_ms: f64,
    /// Phase lengths of every fault injected (`tcp_kill` only), ms, in
    /// `workloads::RECOVERY_PHASES` order.
    pub recovery_phases: Vec<[f64; 6]>,
}

/// The four per-operation figures and the steal share of a run from its
/// windows. Latency and throughput take the window a quarter of the way
/// in from the best ([`stats::best_quartile`]): a stall or a stretch in
/// which the hypervisor ran someone else only ever makes a window worse.
/// CPU per event moves both ways with the host's speed, and steal is
/// what the run as a whole saw, so these two take the median window.
fn window_summary(windows: &[Window]) -> [f64; 5] {
    let column = |f: fn(&Window) -> f64| windows.iter().map(f).collect::<Vec<f64>>();
    [
        stats::best_quartile(column(|w| w.p50_us), true),
        stats::best_quartile(column(|w| w.p95_us), true),
        stats::best_quartile(column(|w| w.throughput_ev_s), false),
        stats::median(column(|w| w.cpu_us_per_event)),
        stats::median(column(|w| w.steal_share)),
    ]
}

impl Outcome {
    /// One outcome for a workload measured in several parts, each on a
    /// system of its own: operations, failures and latencies pooled, one
    /// window per part and the metrics taken from the windows like any
    /// other workload's; the median set-up. Peak memory is the first part's:
    /// what the allocator keeps from one system to the next varies by a
    /// tenth and is not the engine's. The registry rows are the last
    /// part's.
    pub fn pooled(parts: Vec<Outcome>) -> Outcome {
        let median_of = |f: fn(&Outcome) -> f64| stats::median(parts.iter().map(f).collect());
        let (setup_s, drain_ms) = (median_of(|p| p.setup_s), median_of(|p| p.drain_ms));
        let peak_rss_mb = parts.first().map_or(f64::NAN, |p| p.peak_rss_mb);
        let (mut attempted, mut failed) = (0, 0);
        let (mut latencies_us, mut late_us) = (Vec::new(), Vec::new());
        let (mut windows, mut registry_rows) = (Vec::new(), Vec::new());
        for part in parts {
            attempted += part.attempted;
            failed += part.failed;
            latencies_us.extend(part.latencies_us);
            late_us.extend(part.late_us);
            windows.extend(part.windows);
            registry_rows = part.registry_rows;
        }
        stats::sort(&mut latencies_us);
        stats::sort(&mut late_us);
        let [final_p50_us, final_p95_us, throughput_ev_s, cpu_us_per_event, steal_share] =
            window_summary(&windows);
        Outcome {
            attempted,
            failed,
            setup_s,
            final_p50_us,
            final_p95_us,
            latencies_us,
            windows,
            throughput_ev_s,
            cpu_us_per_event,
            peak_rss_mb,
            steal_share,
            late_us,
            registry_rows,
            drain_ms,
            recovery_phases: Vec::new(),
        }
    }
}

/// Most events an open loop lets be pushed but not yet final. An open
/// loop catches up after a stall with a burst, and 256 events in flight
/// wedge the seed's source for good (see `wedge.rs`); at this many the
/// generator waits for finals instead, and the wait is charged to the
/// waiting event, which is timed from when it was due. A 0.26 s stall at
/// 1 000 ev/s — seen once in ten or twenty runs — is enough.
const OPEN_LOOP_IN_FLIGHT_CAP: u64 = 200;

/// A fixed push schedule: event `k` is due `k / rate` seconds after the
/// first, however late earlier pushes ran.
pub struct Pacer {
    t0: Instant,
    gap_ns: f64,
    next: usize,
}

impl Pacer {
    pub fn new(rate: f64) -> Pacer {
        Pacer { t0: Instant::now(), gap_ns: 1e9 / rate, next: 0 }
    }

    /// Pushes `inputs` as the next events of the schedule and appends to
    /// `late` each event's lateness: ns behind its due time when its push
    /// call began, a wait at the in-flight cap included. Returns `false`,
    /// with the rest unpushed, when the system made no room for [`STALL`].
    pub fn push(
        &mut self,
        sut: &Sut,
        inputs: &[Value],
        late: &mut Vec<u64>,
        spans: &mut Spans,
    ) -> bool {
        for v in inputs {
            let due = self.t0 + Duration::from_nanos((self.next as f64 * self.gap_ns) as u64);
            self.next += 1;
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            let pushed = sut.source().pushed();
            let finals = sut.sink().final_count() as u64;
            if pushed >= OPEN_LOOP_IN_FLIGHT_CAP + finals {
                let t = spans.begin("core.endpoints.wait_final");
                let room =
                    sut.sink().wait_final((pushed + 1 - OPEN_LOOP_IN_FLIGHT_CAP) as usize, STALL);
                spans.end(t);
                if !room {
                    return false;
                }
            }
            late.push(Instant::now().saturating_duration_since(due).as_nanos() as u64);
            let t = spans.begin("core.endpoints.push");
            sut.source().push(v.clone());
            spans.end(t);
            watchdog::progress(finals);
        }
        true
    }
}

/// Pushes `inputs` keeping at most `in_flight` events short of final;
/// `already` events were pushed before. Returns `false`, with the rest
/// unpushed, when no slot came free for [`STALL`].
pub(crate) fn push_closed(
    sut: &Sut,
    inputs: &[Value],
    already: usize,
    in_flight: usize,
    spans: &mut Spans,
) -> bool {
    for (k, v) in inputs.iter().enumerate() {
        let pushed = already + k;
        if pushed >= in_flight {
            let t = spans.begin("core.endpoints.wait_final");
            let ok = sut.sink().wait_final(pushed + 1 - in_flight, STALL);
            spans.end(t);
            if !ok {
                return false;
            }
        }
        let t = spans.begin("core.endpoints.push");
        sut.source().push(v.clone());
        spans.end(t);
        watchdog::progress((pushed + 1).saturating_sub(in_flight) as u64);
    }
    true
}

fn path_index(v: &Value, depth: usize) -> Option<usize> {
    let mut v = v;
    for _ in 0..=depth {
        v = v.field(0)?;
    }
    usize::try_from(v.as_i64()?).ok()
}

/// Matches sink records to input indices: `by_index[i]` is the record of
/// input `i` when exactly one final record claims it and its payload
/// equals `expected[i]`. Returns the table and the number of records
/// that were duplicates, unexpected or wrong.
pub(crate) fn match_records(
    records: Vec<SinkRecord>,
    expected: &[Value],
    index_by: IndexBy,
) -> (Vec<Option<SinkRecord>>, u64) {
    let mut by_index: Vec<Option<SinkRecord>> = (0..expected.len()).map(|_| None).collect();
    let mut bad = 0u64;
    let mut finals: Vec<SinkRecord> =
        records.into_iter().filter(|r| r.final_at_us.is_some()).collect();
    if matches!(index_by, IndexBy::IdOrder) {
        finals.sort_by_key(|r| (r.event.id, r.event.version));
    }
    for (pos, rec) in finals.into_iter().enumerate() {
        let idx = match index_by {
            IndexBy::PayloadPath { depth } => path_index(&rec.event.payload, depth),
            IndexBy::IdOrder => Some(pos),
        };
        match idx {
            Some(i) if i < expected.len() && by_index[i].is_none() => {
                if rec.event.payload == expected[i] {
                    by_index[i] = Some(rec);
                } else {
                    bad += 1;
                }
            }
            _ => bad += 1,
        }
    }
    (by_index, bad)
}

/// Runs one streaming workload once. `build` starts a fresh system;
/// `inputs[i]` must produce the sink payload `expected[i]`.
pub fn run(
    spec: &StreamSpec,
    inputs: &[Value],
    expected: &[Value],
    build: impl FnOnce(&mut Spans) -> Result<Sut, String>,
    spans: &mut Spans,
) -> Result<Outcome, String> {
    assert_eq!(inputs.len(), spec.total());
    assert_eq!(expected.len(), spec.total());
    let (warm, measured) = inputs.split_at(spec.warm);
    watchdog::pass(spec.measured as u64, spec.warm as u64);
    spans.enter(spec.name, 0);

    // Set-up: a running system, warmed by a second's worth of paced
    // events, empty again when the first measured event is due.
    let rate = match spec.pace {
        Pace::Open { rate } => rate,
        Pace::Closed { warm_rate, .. } => warm_rate,
    };
    let whole = spans.begin("setup");
    let t0 = Instant::now();
    let sut = build(spans)?;
    watchdog::phase("warm-up");
    let t = spans.begin("warmup");
    let mut warm_late = Vec::with_capacity(spec.warm);
    let mut fed = Pacer::new(rate).push(&sut, warm, &mut warm_late, spans);
    fed = fed && sut.sink().wait_final(spec.warm, STALL);
    spans.end(t);
    let setup_s = t0.elapsed().as_secs_f64();
    spans.end(whole);
    let workers = sut.worker_pids();

    // Measured events, window by window, CPU read at each boundary.
    watchdog::phase("measured events");
    let chunk = measured.len().div_ceil(spec.windows).max(1);
    let mut cpu_marks = Vec::with_capacity(spec.windows + 1);
    let mut steal_marks = Vec::with_capacity(spec.windows + 1);
    let mut measured_late = Vec::with_capacity(spec.measured);
    let mut pacer = Pacer::new(rate); // the open loop's schedule
    let mut pushed = spec.warm;
    let t = spans.begin("measured.push");
    for window in measured.chunks(chunk) {
        if !fed {
            break;
        }
        cpu_marks.push(procfs::tree_cpu_ns(&workers));
        steal_marks.push(procfs::steal_ticks());
        fed = match spec.pace {
            Pace::Open { .. } => pacer.push(&sut, window, &mut measured_late, spans),
            Pace::Closed { in_flight, .. } => push_closed(&sut, window, pushed, in_flight, spans),
        };
        pushed += window.len();
    }
    spans.end(t);
    // Retention is highest while events are in flight, before the drain.
    let retained_max =
        if spans.is_on() { layers::gauge_max(&sut.metrics(), "edge.retained") } else { 0 };
    watchdog::phase("drain");
    let t = spans.begin("core.endpoints.drain");
    let drain_t0 = Instant::now();
    // A system that stopped taking events is not waited on again.
    let drained = fed && sut.sink().wait_final(spec.total(), STALL);
    let drain_ms = drain_t0.elapsed().as_secs_f64() * 1e3;
    spans.end(t);
    watchdog::progress(sut.sink().final_count() as u64);
    cpu_marks.push(procfs::tree_cpu_ns(&workers));
    steal_marks.push(procfs::steal_ticks());
    let peak_rss_mb = procfs::tree_peak_rss_mb(&workers);

    // Check outputs and take latencies from the sink's own records.
    let records = sut.sink().records();
    watchdog::phase("shutdown");
    let registry = sut.finish(spans).registry;
    watchdog::phase("output check");
    let (by_index, bad) = match_records(records, expected, spec.index_by);
    let first = spec.warm;
    let unmeasured_missing = by_index[..first].iter().filter(|r| r.is_none()).count() as u64;
    let mut latencies_us = Vec::with_capacity(spec.measured);
    let mut windows = Vec::with_capacity(spec.windows);
    let mut missing = 0u64;
    let mut previous_end_us = None;
    for (w, recs) in by_index[first..].chunks(chunk).enumerate() {
        let mut lat = Vec::with_capacity(recs.len());
        let mut end_us = 0u64;
        for (k, rec) in recs.iter().enumerate() {
            let Some(rec) = rec else {
                missing += 1;
                continue;
            };
            let final_at = rec.final_at_us.expect("matched records are final");
            let late = measured_late.get(w * chunk + k).copied().unwrap_or(0) as f64 / 1e3;
            lat.push(final_at.saturating_sub(rec.event.timestamp) as f64 + late);
            end_us = end_us.max(final_at);
            // Throughput counts from the first measured push.
            previous_end_us.get_or_insert(rec.event.timestamp);
        }
        latencies_us.extend(&lat);
        let (Some(start_us), Some(cpu), false) =
            (previous_end_us, cpu_marks.get(w..w + 2), lat.is_empty())
        else {
            continue; // nothing of this window arrived, or it was never pushed
        };
        stats::sort(&mut lat);
        windows.push(Window {
            p50_us: stats::percentile(&lat, 0.50),
            p95_us: stats::percentile(&lat, 0.95),
            throughput_ev_s: lat.len() as f64 * 1e6 / end_us.saturating_sub(start_us).max(1) as f64,
            cpu_us_per_event: (cpu[1] - cpu[0]) as f64 / 1e3 / recs.len() as f64,
            steal_share: procfs::steal_share(steal_marks[w], steal_marks[w + 1]),
        });
        previous_end_us = Some(end_us);
    }
    stats::sort(&mut latencies_us);
    // Lateness of the measured events; a closed loop has only its warm-up.
    let paced_late = if measured_late.is_empty() { &warm_late } else { &measured_late };
    let mut late_us: Vec<f64> = paced_late.iter().map(|&n| n as f64 / 1e3).collect();
    stats::sort(&mut late_us);
    if !drained {
        eprintln!(
            "{}: no progress for {STALL:?}, gave up with {} of {} events final",
            spec.name,
            spec.total() as u64 - missing - unmeasured_missing,
            spec.total()
        );
    }
    let [final_p50_us, final_p95_us, throughput_ev_s, cpu_us_per_event, steal_share] =
        window_summary(&windows);
    Ok(Outcome {
        attempted: spec.measured as u64,
        // A wrong, duplicate or unexpected output anywhere in the run
        // fails it, as does a warm-up event that never arrived.
        failed: missing + bad + unmeasured_missing,
        setup_s,
        final_p50_us,
        final_p95_us,
        throughput_ev_s,
        cpu_us_per_event,
        steal_share,
        latencies_us,
        windows,
        peak_rss_mb,
        late_us,
        registry_rows: layers::registry_rows(&registry, retained_max),
        drain_ms,
        recovery_phases: Vec::new(),
    })
}
