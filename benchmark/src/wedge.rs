//! Wedge probes: two seed defects the workloads are sized around. Each
//! attempt runs in a child process that is given three seconds, so the
//! probe never hangs a run. Both defects are races — on the seed roughly
//! one attempt in six slips through — so a scenario is attempted up to
//! three times, one after the other, stopping at the first attempt that
//! does not complete. The probe reports completed attempts ÷ 3: almost
//! always 0 on the seed, 1 on the day the defect is fixed.
//!
//! * `chain4_closed256` — a closed loop holding 256 events in flight on
//!   the four-relay chain (`max_open_speculations` is 256): on the seed
//!   the source blocks in its send loop for ever. `chain4_sat` holds 32.
//! * `tcp_kill_pre64` — the fault trial with 64 events delivered before
//!   the SIGKILL (the links' replay reserve is 64): on the seed recovery
//!   never resumes. `tcp_kill` delivers 48.

use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use streammine::common::Value;

use crate::engine;
use crate::report::Metric;
use crate::spans::Spans;
use crate::stream;
use crate::watchdog;
use crate::workloads;

const SCENARIOS: [&str; 2] = ["chain4_closed256", "tcp_kill_pre64"];
const ATTEMPTS: usize = 3;
/// How long a scenario may take inside its child (a healthy one needs
/// well under a second).
const SCENARIO_LIMIT: Duration = Duration::from_secs(3);
/// When the parent stops waiting and kills the child.
const CHILD_LIMIT: Duration = Duration::from_secs(10);

/// Child side: runs one scenario once; `Ok(true)` when it completed.
pub fn scenario(name: &str, seed: u64, worker_bin: &Path) -> Result<bool, String> {
    let mut spans = Spans::new(false);
    match name {
        "chain4_closed256" => {
            // The push itself is what blocks, so it runs on a thread this
            // one can give up on; exiting the process ends it.
            let (done_tx, done_rx) = mpsc::channel();
            std::thread::spawn(move || {
                let mut spans = Spans::new(false);
                let sut = engine::chain4(false, &mut spans);
                let inputs: Vec<Value> = (0..8_000).map(Value::Int).collect();
                let fed = stream::push_closed(&sut, &inputs, 0, 256, &mut spans);
                let _ = done_tx.send(fed && sut.sink().wait_final(inputs.len(), SCENARIO_LIMIT));
            });
            Ok(done_rx.recv_timeout(SCENARIO_LIMIT).unwrap_or(false))
        }
        "tcp_kill_pre64" => {
            let trial = workloads::kill_trial(
                seed,
                64,
                Duration::ZERO,
                SCENARIO_LIMIT,
                worker_bin,
                false,
                &mut spans,
            )?;
            Ok(trial.failed == 0)
        }
        other => Err(format!("unknown wedge scenario {other:?}")),
    }
}

/// Runs one attempt in a child; `true` when it exited successfully
/// within [`CHILD_LIMIT`].
fn attempt(name: &str, seed: usize, worker_bin: &Path) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--wedge", name, "--seed", &seed.to_string()])
        .arg("--worker-bin")
        .arg(worker_bin)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn wedge {name}: {e}"))?;
    let deadline = Instant::now() + CHILD_LIMIT;
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return Ok(status.success()),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Ok(false);
            }
        }
    }
}

/// Parent side: each scenario attempted until one attempt does not
/// complete, one child at a time (run side by side, the scenarios disturb
/// each other's race and complete far more often); reports, per
/// scenario, completed attempts ÷ [`ATTEMPTS`].
pub fn probe(worker_bin: &Path, spans: &mut Spans) -> Result<Vec<Metric>, String> {
    spans.enter("probes", 0);
    let mut rows = Vec::with_capacity(SCENARIOS.len());
    for name in SCENARIOS {
        let t = spans.begin("probe.wedge");
        let mut completed = 0;
        while completed < ATTEMPTS && attempt(name, completed, worker_bin)? {
            completed += 1;
            watchdog::beat();
        }
        watchdog::beat();
        spans.end(t);
        rows.push(Metric::new(
            &format!("wedge.{name}_completed"),
            completed as f64 / ATTEMPTS as f64,
            "share",
        ));
    }
    Ok(rows)
}
