//! Thread inventory of a running graph, in a test binary of its own. The
//! test harness may start a test's thread while another test counts, so
//! its threads are left out by name; each test runs its graph from a
//! thread of its own, so a thread the graph starts without naming it is
//! counted under that thread's name.
//!
//! An operator is one thread that reads its own connections: a node costs
//! its coordinator and nothing per log device — a modeled device is a
//! deadline on the coordinator's clock, not a thread — a source nothing (its
//! reader acks on its ring), a sink its collector, and nothing per edge. A
//! crashed and
//! recovered node leaves no thread of its earlier incarnation behind, an
//! idle node sleeps until something happens (it has no tick), and a loaded
//! one wakes about once per hand-over, not once more per log write.

#![cfg(target_os = "linux")]

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use streammine::common::event::Value;
use streammine::common::ids::OperatorId;
use streammine::core::dist::{Cluster, ClusterSpec, NodeSpec, WorkerSpec, SPEC_ENV};
use streammine::core::{GraphBuilder, LoggingConfig, OperatorConfig, Running, SinkId, SourceId};
use streammine::operators::StampedRelay;

/// Held by each test: they count the process's threads, so they take
/// turns.
static ALONE: Mutex<()> = Mutex::new(());

fn thread_ids() -> BTreeSet<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .map(|task| task.expect("task entry").file_name().to_string_lossy().into_owned())
        .collect()
}

/// The kernel name (`comm`, at most 15 bytes) of thread `tid`, if it is
/// still there.
fn comm(tid: &str) -> Option<String> {
    let comm = std::fs::read_to_string(format!("/proc/self/task/{tid}/comm")).ok()?;
    Some(comm.trim_end().to_string())
}

/// This binary's tests, read from its source: the harness runs each on a
/// thread named after it.
fn test_names() -> Vec<&'static str> {
    let mut lines = include_str!("thread_inventory.rs").lines();
    let mut names = Vec::new();
    while let Some(line) = lines.next() {
        if line == "#[test]" {
            let name = lines.next().and_then(|next| next.strip_prefix("fn "));
            names.extend(name.and_then(|name| name.split('(').next()));
        }
    }
    names
}

/// Whether a thread so named is the harness's: a test's thread (the kernel
/// keeps the first 15 bytes of its test's name), or one the harness
/// started that has not named itself yet (it carries the main thread's
/// name until then).
fn harness_named(name: &str) -> bool {
    let main = std::fs::read_to_string("/proc/self/comm").unwrap_or_default();
    name == main.trim_end() || test_names().iter().any(|test| test.starts_with(name))
}

/// The ids of the threads that were not there `before`, the harness's
/// left out.
fn new_thread_ids(before: &BTreeSet<String>) -> BTreeSet<String> {
    let counted = |tid: &&String| comm(tid).is_some_and(|name| !harness_named(&name));
    thread_ids().difference(before).filter(counted).cloned().collect()
}

/// The names of the threads that were not there `before`, the harness's
/// left out, sorted.
fn threads_since(before: &BTreeSet<String>) -> Vec<String> {
    let mut names: Vec<String> =
        new_thread_ids(before).iter().filter_map(|tid| comm(tid)).collect();
    names.sort();
    names
}

/// Runs `body` on a thread named `inventory`: a thread the graph starts
/// from there without a name of its own carries that name, which no test
/// expects, where one started from a test's thread would carry the
/// test's name and be left out as the harness's.
fn on_own_thread(body: impl FnOnce() + Send) {
    std::thread::scope(|scope| {
        let thread = std::thread::Builder::new().name("inventory".into());
        let run = thread.spawn_scoped(scope, body).expect("spawn the test's thread");
        if let Err(panic) = run.join() {
            std::panic::resume_unwind(panic);
        }
    });
}

/// Four speculative relays on one 2 ms device each, between a source and
/// a sink, started.
fn four_speculative_relays() -> (Running, SourceId, SinkId) {
    let mut b = GraphBuilder::new();
    let cfg = || OperatorConfig::speculative(LoggingConfig::simulated(Duration::from_millis(2)));
    let ops: Vec<_> = (0..4).map(|_| b.add_operator(StampedRelay::new(), cfg())).collect();
    for pair in ops.windows(2) {
        b.connect(pair[0], pair[1]).unwrap();
    }
    let src = b.source_into(ops[0]).unwrap();
    let sink = b.sink_from(ops[3]).unwrap();
    let running = b.build().unwrap().start();
    (running, src, sink)
}

/// Four relays, a source and a sink run on five threads: the four
/// coordinators and the sink's collector. (The name, which the test keeps,
/// counts a source thread the engine no longer starts.)
#[test]
fn four_relay_chain_runs_on_six_threads_across_a_crash() {
    let _alone = ALONE.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    on_own_thread(five_threads_across_a_crash);
}

fn five_threads_across_a_crash() {
    let harness = thread_ids();
    let (running, src, sink) = four_speculative_relays();

    let expected: Vec<String> = ["node-op0", "node-op1", "node-op2", "node-op3", "sink-collector"]
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

    // A relay that logs no decisions but checkpoints (the default) still
    // owns one log: its images are records there, on one free device,
    // which costs no thread either.
    let harness = thread_ids();
    let mut b = GraphBuilder::new();
    let relay = b.add_operator(StampedRelay::new(), OperatorConfig::plain());
    let src = b.source_into(relay).unwrap();
    let sink = b.sink_from(relay).unwrap();
    let running = b.build().unwrap().start();
    for i in 0..100 {
        running.source(src).push(Value::Int(i));
    }
    assert!(running.sink(sink).wait_final(100, Duration::from_secs(30)));
    let expected = ["node-op0", "sink-collector"];
    assert_eq!(threads_since(&harness), expected.map(String::from).to_vec());
    running.shutdown();
}

/// A cluster worker is its operator, its sockets' readers and nothing that
/// only sleeps. The middle worker of a chain of three runs on its main
/// thread, which is its control client (beats, reports, wiring, faults);
/// its control connection's reader; its data listener's acceptor, the one
/// socket reader and the one ack writer of its in-edge; the writer and the
/// ack reader of its out-edge; and its node's coordinator.
#[test]
fn a_cluster_worker_runs_on_its_main_thread_and_its_sockets_readers() {
    let _alone = ALONE.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let spec = ClusterSpec::new(
        vec![NodeSpec::logged("stamped-relay", 200, 1); 3],
        PathBuf::from(env!("CARGO_BIN_EXE_streammine_worker")),
    );
    let cluster = Cluster::launch(spec).expect("cluster launch");
    assert!(cluster.wait_connected(Duration::from_secs(30)), "the cluster never wired up");
    for i in 0..20 {
        cluster.source().push(Value::Int(i));
    }
    assert!(cluster.sink().wait_final(20, Duration::from_secs(30)), "the chain stalled");

    let middle = children().into_iter().find(|pid| worker_of(pid) == Some(1));
    let middle = middle.expect("no child process is worker 1");
    let mut names: Vec<String> = std::fs::read_dir(format!("/proc/{middle}/task"))
        .expect("the worker's tasks")
        .filter_map(|task| {
            let comm = std::fs::read_to_string(task.ok()?.path().join("comm")).ok()?;
            Some(comm.trim_end().to_string())
        })
        .collect();
    names.sort();
    cluster.shutdown();
    let expected = [
        "bridge-accept",
        "bridge-ack-e2",
        "bridge-conn",
        "bridge-ctrl-e1",
        "bridge-out-e2",
        "ctrl-read-w1",
        "node-op1",
        "streammine_work",
    ];
    assert_eq!(names, expected.map(String::from).to_vec());
}

/// The process ids of this process's children.
fn children() -> Vec<String> {
    let tasks = thread_ids().into_iter();
    let lists = tasks
        .filter_map(|tid| std::fs::read_to_string(format!("/proc/self/task/{tid}/children")).ok());
    lists.flat_map(|list| list.split_whitespace().map(String::from).collect::<Vec<_>>()).collect()
}

/// The worker index of process `pid`, read from the spec in its
/// environment.
fn worker_of(pid: &str) -> Option<u32> {
    let environ = std::fs::read(format!("/proc/{pid}/environ")).ok()?;
    let prefix = format!("{SPEC_ENV}=");
    let hex = environ.split(|&b| b == 0).find_map(|var| var.strip_prefix(prefix.as_bytes()))?;
    WorkerSpec::from_hex(std::str::from_utf8(hex).ok()?).ok().map(|spec| spec.worker)
}

/// Paced at 300 ev/s through four speculative relays on 2 ms devices, the
/// graph's threads sleep about once per hand-over: the coordinators and
/// the sink's collector, with each log write a deadline of its
/// coordinator's park. With a writer thread per device this read
/// 19.5-20.6 voluntary context switches per event over 10 threads
/// (release, 2 cores); without, 11.3 over 5.
#[test]
fn a_paced_speculative_chain_wakes_once_per_hand_over() {
    let _alone = ALONE.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    on_own_thread(wakes_once_per_hand_over);
}

fn wakes_once_per_hand_over() {
    const RATE: f64 = 300.0;
    const WARM: i64 = 60;
    const MEASURED: i64 = 600;
    /// Between what the two designs read (above).
    const BOUND: f64 = 16.0;

    let harness = thread_ids();
    let (running, src, sink) = four_speculative_relays();
    let paced = |from: i64, to: i64| {
        let t0 = Instant::now();
        for i in from..to {
            let due = t0 + Duration::from_secs_f64((i - from) as f64 / RATE);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            running.source(src).push(Value::Int(i));
        }
    };
    paced(0, WARM);
    assert!(running.sink(sink).wait_final(WARM as usize, Duration::from_secs(30)));
    // A thread names itself once it runs: the warm-up has let them all.
    let graph = new_thread_ids(&harness);
    let before = total_switches(&graph);
    paced(WARM, WARM + MEASURED);
    assert!(running.sink(sink).wait_final((WARM + MEASURED) as usize, Duration::from_secs(30)));
    let per_event = (total_switches(&graph) - before) as f64 / MEASURED as f64;
    running.shutdown();
    eprintln!("voluntary context switches per event: {per_event:.2} over {} threads", graph.len());
    assert!(per_event < BOUND, "{per_event:.2} wake-ups per event (< {BOUND})");
}

/// A thread's voluntary context switches, if it is still there.
fn switches_of(tid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/self/task/{tid}/status")).ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))?
        .trim()
        .parse()
        .ok()
}

fn total_switches(threads: &BTreeSet<String>) -> u64 {
    threads.iter().filter_map(|tid| switches_of(tid)).sum()
}

/// Voluntary context switches of every `node-op*` thread, by name.
fn node_switches() -> Vec<(String, u64)> {
    let mut switches: Vec<(String, u64)> = thread_ids()
        .into_iter()
        .filter_map(|tid| {
            let comm = comm(&tid)?;
            if !comm.starts_with("node-op") {
                return None;
            }
            Some((comm, switches_of(&tid)?))
        })
        .collect();
    switches.sort();
    switches
}
