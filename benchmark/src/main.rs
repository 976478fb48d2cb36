//! The repository's benchmark. See `README.md` for what is measured and
//! why; `run.sh` is the way in.
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1   one run, result line last
//! run.sh [--seed N] [--seconds S]                        every workload, tracing off
//! run.sh --traced [...]                                  every workload traced, per-layer tables
//! run.sh --selfcheck [...]                               two sets of whole benchmarks, medians compared
//! ```

mod engine;
mod layers;
mod probes;
mod procfs;
mod report;
mod spans;
mod stats;
mod stream;
mod traced;
mod watchdog;
mod wedge;
mod workloads;

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use report::{Metric, RunResult, END_TO_END};
use spans::Spans;

/// Default `--seconds`, the `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;
const DEFAULT_SEED: u64 = 17;

/// Starts the line a run prints when the machine was not its own.
const DISTURBED: &str = "DISTURBED";
/// How often `--selfcheck` repeats a disturbed run before it takes it.
const DISTURBED_RETRIES: usize = 2;
/// Whole benchmarks per set of `--selfcheck`: medians of three differ by
/// about 0.7 of what single runs do, at a quarter of an hour for the two sets.
const SELFCHECK_RUNS: usize = 3;

enum Mode {
    /// One workload, one run (`--workload`).
    Single(String),
    /// Every workload once, each in its own process.
    All,
    /// Two sets of untraced benchmarks, their medians compared.
    Selfcheck,
    /// One wedge scenario in this process (spawned by the wedge probes).
    Wedge(String),
}

pub struct Args {
    mode: Mode,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub worker_bin: PathBuf,
    pub out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        mode: Mode::All,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        worker_bin: std::env::current_exe()
            .map_err(|e| format!("current_exe: {e}"))?
            .with_file_name("bench_worker"),
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.mode = Mode::Single(value("a workload name")?),
            "--wedge" => args.mode = Mode::Wedge(value("a scenario name")?),
            "--selfcheck" => args.mode = Mode::Selfcheck,
            "--traced" => args.trace = true,
            "--trace" => args.trace = value("0 or 1")? == "1",
            "--seed" => {
                args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--worker-bin" => args.worker_bin = PathBuf::from(value("a path")?),
            "--out-dir" => args.out_dir = PathBuf::from(value("a path")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !args.worker_bin.is_file() {
        return Err(format!(
            "worker binary {} not found (run benchmark/build.sh)",
            args.worker_bin.display()
        ));
    }
    Ok(args)
}

pub fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("  {:<44} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

/// One untraced run of one workload: every end-to-end metric by name,
/// then the result line.
fn single_untraced(args: &Args, workload: &str) -> Result<bool, String> {
    let mut spans = Spans::new(false);
    let o = workloads::run(workload, args.seed, args.seconds, &args.worker_bin, false, &mut spans)?;
    let metrics = report::end_to_end(&o);
    println!("{workload} seed={} seconds={} trace=0", args.seed, args.seconds);
    print_metrics(&metrics);
    println!("  measured the same way, rows of the per-layer table:");
    print_metrics(&report::host_bound(&o));
    println!(
        "  (p99 {:.1} us and max {:.1} us over {} operations, not metrics; \
         generator.late_p99_us {:.1})",
        stats::percentile(&o.latencies_us, 0.99),
        o.latencies_us.last().copied().unwrap_or(f64::NAN),
        o.latencies_us.len(),
        stats::percentile(&o.late_us, 0.99),
    );
    type Column = (&'static str, fn(&stream::Window) -> f64);
    let columns: [Column; 5] = [
        ("final_p50_us", |w| w.p50_us),
        ("final_p95_us", |w| w.p95_us),
        ("throughput_ev_s", |w| w.throughput_ev_s),
        ("cpu_us_per_event", |w| w.cpu_us_per_event),
        ("machine steal, 1/1000", |w| w.steal_share * 1e3),
    ];
    if !o.windows.is_empty() {
        println!(
            "  per window (latency and throughput report the window a quarter in from the best, \
             CPU the median):"
        );
        for (name, column) in columns {
            let row: Vec<String> = o.windows.iter().map(|w| format!("{:.0}", column(w))).collect();
            println!("    {name:<22} {}", row.join(" "));
        }
    }
    if o.steal_share > procfs::QUIET_STEAL {
        println!(
            "{DISTURBED}: the hypervisor withheld {:.1} % of the machine's CPU time from this run \
             (median window, or all fault trials); its latencies and CPU figures describe the host",
            o.steal_share * 100.0
        );
    }
    let correct = o.failed == 0 && !o.latencies_us.is_empty();
    println!("{}", report::result_line(correct, o.attempted, o.failed, &metrics));
    Ok(correct)
}

/// Runs this binary again for one untraced run of one workload and
/// returns its parsed result line, echoing everything else it prints.
/// `discard` is the short pass whose output nobody reads.
fn child_run(
    args: &Args,
    workload: &str,
    seed: u64,
    discard: bool,
) -> Result<(RunResult, bool), String> {
    let seconds = if discard { 3.0 } else { args.seconds };
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", "0"])
        .arg("--worker-bin")
        .arg(&args.worker_bin)
        .arg("--out-dir")
        .arg(&args.out_dir)
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let mut last = String::new();
    let mut disturbed = false;
    for line in BufReader::new(child.stdout.take().expect("piped stdout")).lines() {
        let line = line.map_err(|e| format!("read {workload}: {e}"))?;
        if !discard && !line.starts_with('{') {
            println!("{line}");
        }
        disturbed |= line.starts_with(DISTURBED);
        last = line;
    }
    let status = child.wait().map_err(|e| format!("wait {workload}: {e}"))?;
    report::parse_result_line(&last)
        .map(|result| (result, disturbed))
        .ok_or_else(|| format!("{workload} printed no result line (exit {status})"))
}

/// Before a disturbed run is repeated: waits until the idle machine has
/// gone five seconds in a row without a stolen tick (a disturbed host
/// steals a few per second even from an idle guest), two minutes at most.
fn wait_for_quiet() {
    let mut quiet_seconds = 0;
    for _ in 0..120 {
        let (before, _) = procfs::steal_ticks();
        std::thread::sleep(std::time::Duration::from_secs(1));
        quiet_seconds = if procfs::steal_ticks().0 == before { quiet_seconds + 1 } else { 0 };
        if quiet_seconds == 5 {
            return;
        }
    }
}

/// Every workload once with tracing off, in the fixed order, one at a
/// time, each in its own process so memory and CPU are that workload's
/// alone. A discarded short `chain4_spec` pass first brings the machine
/// out of idle. A run the hypervisor disturbed is repeated up to
/// `retries` times, each time after [`wait_for_quiet`].
fn all(args: &Args, seed: u64, retries: usize) -> Result<Vec<RunResult>, String> {
    child_run(args, "chain4_spec", seed, true)?;
    let run = |&workload: &&str| {
        for _ in 0..retries {
            let (result, disturbed) = child_run(args, workload, seed, false)?;
            if !disturbed {
                return Ok(result);
            }
            println!("  (repeating {workload} once the machine is quiet)");
            wait_for_quiet();
        }
        child_run(args, workload, seed, false).map(|(result, _)| result)
    };
    workloads::NAMES.iter().map(run).collect()
}

fn all_correct(set: &[RunResult]) -> bool {
    for (w, r) in workloads::NAMES.iter().zip(set) {
        if !r.correct {
            println!("FAILED {w}: {} of {} operations failed", r.failed, r.attempted);
        }
    }
    set.iter().all(|r| r.correct)
}

/// One set of `--selfcheck`: the whole untraced benchmark
/// [`SELFCHECK_RUNS`] times, each time with the next seed. Returns, per
/// workload and end-to-end metric, the median over the set, and whether
/// every run was correct.
fn median_set(args: &Args) -> Result<(Vec<Vec<f64>>, bool), String> {
    let mut ok = true;
    let mut runs = Vec::with_capacity(SELFCHECK_RUNS);
    for n in 0..SELFCHECK_RUNS {
        let set = all(args, args.seed + n as u64, DISTURBED_RETRIES)?;
        ok &= all_correct(&set);
        runs.push(set);
    }
    let medians = (0..workloads::NAMES.len())
        .map(|w| {
            (0..END_TO_END.len())
                .map(|m| stats::median(runs.iter().map(|set| set[w].metrics[m].value).collect()))
                .collect()
        })
        .collect();
    Ok((medians, ok))
}

/// Two sets of whole benchmarks on the same build; per workload and
/// end-to-end metric, the relative difference of the sets' medians beside
/// the bound that pair must keep.
fn selfcheck(args: &Args) -> Result<bool, String> {
    println!("== first set ({SELFCHECK_RUNS} runs of every workload) ==");
    let (first, first_ok) = median_set(args)?;
    println!("== second set ==");
    let (second, second_ok) = median_set(args)?;
    println!(
        "== selfcheck: medians of {SELFCHECK_RUNS} runs, |second - first| / first, beside the bound =="
    );
    let mut ok = first_ok && second_ok;
    for (w, workload) in workloads::NAMES.iter().enumerate() {
        for (m, (name, unit)) in END_TO_END.iter().enumerate() {
            let (a, b, bound) = (first[w][m], second[w][m], report::SELFCHECK_BOUNDS[m]);
            let diff = (b - a).abs() / a.abs();
            let within = diff <= bound;
            ok &= within;
            println!(
                "  {workload:<12} {name:<18} {a:>14.4} {b:>14.4} {unit:<4} {:>6.2}% (bound {:.0}%) {}",
                diff * 100.0,
                bound * 100.0,
                if within { "ok" } else { "EXCEEDS" }
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let one_process_traced = matches!(args.mode, Mode::All) && args.trace;
    // Before any thread starts: everything the benchmark runs shares one
    // CPU (README, *Noise*, 3).
    if procfs::pin_to_one_cpu().is_none() {
        eprintln!("benchmark: could not pin to one CPU; thread placement will show in the numbers");
    }
    if matches!(args.mode, Mode::Single(_)) || one_process_traced {
        // A wedge scenario's child is killed by its parent instead.
        let unmeasured = |names: &[(&str, &str)]| {
            names.iter().map(|(name, unit)| Metric::new(name, f64::NAN, unit)).collect()
        };
        let metrics =
            if args.trace { unmeasured(&traced::PER_LAYER) } else { unmeasured(&END_TO_END) };
        watchdog::start(metrics, (!one_process_traced).then_some(watchdog::DRIVER_LIMIT));
    }
    let outcome = match &args.mode {
        Mode::Single(w) if args.trace => traced::single(&args, w),
        Mode::Single(w) => single_untraced(&args, w),
        Mode::All if args.trace => traced::all(&args),
        Mode::All => all(&args, args.seed, 0).map(|set| all_correct(&set)),
        Mode::Selfcheck => selfcheck(&args),
        Mode::Wedge(name) => wedge::scenario(name, args.seed, &args.worker_bin),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        // A workload that could not run to its end failed every operation
        // it did not deliver, and says so in a result line.
        Err(e) if matches!(args.mode, Mode::Single(_)) => watchdog::give_up(&e),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(1)
        }
    }
}
