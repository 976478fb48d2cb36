//! Thread inventory of a running graph, in a test binary of its own so no
//! other test's threads are counted.
//!
//! An operator is one thread that reads its own connections: a node costs
//! its coordinator plus one writer per log device, a source its control
//! responder, a sink its collector — and nothing per edge. A crashed and
//! recovered node leaves no thread of its earlier incarnation behind, and
//! an idle node sleeps until something happens: it has no tick.

#![cfg(target_os = "linux")]

use std::collections::BTreeSet;
use std::time::Duration;

use streammine::common::event::Value;
use streammine::common::ids::OperatorId;
use streammine::core::{GraphBuilder, LoggingConfig, OperatorConfig};
use streammine::operators::StampedRelay;

fn thread_ids() -> BTreeSet<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .map(|task| task.expect("task entry").file_name().to_string_lossy().into_owned())
        .collect()
}

/// The kernel names (`comm`, at most 15 bytes) of every thread that was
/// not there `before`, sorted.
fn threads_since(before: &BTreeSet<String>) -> Vec<String> {
    let mut names: Vec<String> = thread_ids()
        .difference(before)
        .filter_map(|tid| std::fs::read_to_string(format!("/proc/self/task/{tid}/comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .collect();
    names.sort();
    names
}

#[test]
fn four_relay_chain_runs_on_ten_threads_across_a_crash() {
    let harness = thread_ids();
    let mut b = GraphBuilder::new();
    let cfg = || OperatorConfig::speculative(LoggingConfig::simulated(Duration::from_millis(2)));
    let ops: Vec<_> = (0..4).map(|_| b.add_operator(StampedRelay::new(), cfg())).collect();
    for pair in ops.windows(2) {
        b.connect(pair[0], pair[1]).unwrap();
    }
    let src = b.source_into(ops[0]).unwrap();
    let sink = b.sink_from(ops[3]).unwrap();
    let running = b.build().unwrap().start();

    let expected: Vec<String> = [
        "log-writer-0",
        "log-writer-0",
        "log-writer-0",
        "log-writer-0",
        "node-op0",
        "node-op1",
        "node-op2",
        "node-op3",
        "sink-collector",
        "source-op4-ctrl",
    ]
    .map(String::from)
    .to_vec();

    for i in 0..100 {
        running.source(src).push(Value::Int(i));
    }
    assert!(running.sink(sink).wait_final(100, Duration::from_secs(30)));
    assert_eq!(threads_since(&harness), expected, "one thread per operator, none per edge");

    // A second incarnation replaces the first: nothing is leaked.
    let op1 = OperatorId::new(1);
    running.crash(op1);
    running.recover(op1);
    for i in 100..200 {
        running.source(src).push(Value::Int(i));
    }
    assert!(running.sink(sink).wait_final(200, Duration::from_secs(30)));
    assert_eq!(threads_since(&harness), expected, "a recovered node leaked a thread");

    // Drained, the coordinators sleep: no tick wakes them.
    std::thread::sleep(Duration::from_millis(50)); // the last acks and log callbacks
    let before = node_switches();
    assert_eq!(before.len(), 4, "one coordinator per operator: {before:?}");
    std::thread::sleep(Duration::from_millis(300));
    for ((name, was), (_, is)) in before.iter().zip(&node_switches()) {
        assert!(is - was <= 2, "{name} woke {} times in 300 ms while idle", is - was);
    }
    running.shutdown();
}

/// Voluntary context switches of every `node-op*` thread, by name.
fn node_switches() -> Vec<(String, u64)> {
    let mut switches: Vec<(String, u64)> = thread_ids()
        .into_iter()
        .filter_map(|tid| {
            let comm = std::fs::read_to_string(format!("/proc/self/task/{tid}/comm")).ok()?;
            let comm = comm.trim_end();
            if !comm.starts_with("node-op") {
                return None;
            }
            let status = std::fs::read_to_string(format!("/proc/self/task/{tid}/status")).ok()?;
            let count = status
                .lines()
                .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))?
                .trim()
                .parse()
                .ok()?;
            Some((comm.to_string(), count))
        })
        .collect();
    switches.sort();
    switches
}
